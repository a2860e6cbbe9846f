"""Microbenchmark of the F_p curve arithmetic of the instance search.

    PYTHONPATH=src python3 bench/curves.py [--repeat N]

It prints three tables, each figure the best of five timeit runs of N
calls in one process (100 N for scalar_mul):

- microseconds per scalar_mul over F_2221 for a 23-bit scalar, the
  order (q + 1 - t)(q + 1 + t) that make_instance's filter multiplies by
  at (q, t) = (2221, 92), and for a 40-bit one;
- microseconds per count_points over F_2221 and F_120121;
- milliseconds per make_instance for each (q, t, seed) of the
  sqrt-recover benchmark roster, the memo emptied before every call, with
  the number of count_points calls one search makes.
"""

import argparse
import random
import timeit

from weilchar import action, curves
from weilchar.fields import get_tower
from weilchar.memo import clear_caches

# the roster of perfbench's sqrt-recover workload: (q, t, seed)
ROSTER = ((17, 3, 1), (7, 2, 1), (31, 2, 1), (2221, 92, 0))
# curves of the roster and of the criterion-7 ladder: (p, a4, a6)
CURVES = ((2221, 1668, 2145), (120121, 108144, 71009))


def best(fn, repeat: int) -> float:
    """Seconds per call of fn, the best of five runs of repeat calls."""
    return min(timeit.repeat(fn, number=repeat, repeat=5)) / repeat


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20,
                    help="calls per timeit run (default 20)")
    args = ap.parse_args(argv)
    p, a4, a6 = CURVES[0]
    E = curves.Curve(get_tower(p), a4, a6)
    P = E.random_point(random.Random("bench-curves"))
    scalars = (("23-bit", (p + 1 - 92) * (p + 1 + 92)),
               ("40-bit", random.Random(40).getrandbits(39) | 1 << 39))
    print(f"{'scalar_mul':<14} {'p':>7} {'scalar':>8} {'us':>10}")
    for name, n in scalars:
        us = best(lambda: curves.scalar_mul(E, n, P), 100 * args.repeat)
        us *= 1e6
        print(f"{'':<14} {p:>7} {name:>8} {us:10.2f}")
    print(f"{'count_points':<14} {'p':>7} {'us':>10}")
    for p, a4, a6 in CURVES:
        E = curves.Curve(get_tower(p), a4, a6)
        curves.count_points(E)      # the table of root counts, built once
        us = best(lambda: curves.count_points(E), args.repeat) * 1e6
        print(f"{'':<14} {p:>7} {us:10.2f}")

    calls = []

    def counted(E):
        calls.append(E)
        return curves.count_points(E)

    def search():
        clear_caches()
        calls.clear()
        action.make_instance(q, t, random.Random(seed))

    action.count_points = counted
    print(f"{'make_instance':<14} {'q':>7} {'t':>4} {'seed':>4} {'ms':>10} "
          f"{'counts':>6}")
    for q, t, seed in ROSTER:
        ms = best(search, args.repeat) * 1e3
        print(f"{'':<14} {q:>7} {t:>4} {seed:>4} {ms:10.3f} {len(calls):>6}")


if __name__ == "__main__":
    main()
