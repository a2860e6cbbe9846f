"""The library's one memo.

Every function the library memoizes goes through ``memo``, so all of the
caches can be inspected and emptied together.  Memoized results never
depend on the cache: a cold call returns what a warm one does.  Methods
are memoized too, keyed on their object: a field's Frobenius kernels and
square-root constants and a class group's products are entries here, so
neither object changes after its constructor returns.

One table stays outside it on purpose, the one state the library keeps
beyond this memo: the fields of ``fields.get_tower``.
Curves and field elements compare fields by identity, so a tower must live
as long as the process.  If ``clear_caches()`` dropped it, the next
``get_tower`` would build a second F_p, and ``Curve.over`` would raise
TypeError on an element of the old one.  So ``clear_caches()`` leaves the
towers built, ``cache_stats()`` does not list them, and work after it skips
``make_extension`` where a fresh process does not.
"""

from functools import lru_cache

_registry: dict = {}


def memo(fn):
    """fn cached on its arguments, without a size bound.  The arguments
    must hash, and each caller must spell them alike: f(x) and f(x, 5) are
    separate entries even when 5 is the default."""
    cached = lru_cache(maxsize=None)(fn)
    _registry[f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"] = cached
    return cached


def clear_caches() -> None:
    """Empty every memo."""
    for cached in _registry.values():
        cached.cache_clear()


def cache_stats() -> dict:
    """{name: {"hits", "misses", "entries"}} for every memo."""
    stats = {}
    for name, cached in _registry.items():
        info = cached.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses,
                       "entries": info.currsize}
    return stats
