"""Microbenchmark of the class-group layer behind square-root recovery.

    PYTHONPATH=src python3 bench/quadforms.py [--repeat N] [--max-D N]

It prints three tables, each time the best of five timeit runs of N calls
in one process (100 N for compose and reduce_form):

- microseconds per compose and per reduce_form on forms of D = 420;
- microseconds per two_torsion_and_sqrt and per recover_root for each D of
  the sqrt-recover benchmark roster, cold (the quadforms memos emptied
  before every call, the action caches warm) and warm;
- seconds and peak RSS (MiB) of verify_character_relation on every
  discriminant up to --max-D, the genus sweep.  It runs first, so the peak
  is that of the imports and the sweep.
"""

import argparse
import random
import resource
import sys
import time
import timeit
from pathlib import Path

from weilchar import action, quadforms, roots
from weilchar.quadforms import QuadForm, compose, reduce_form

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SqrtRecover

# the roster of perfbench's sqrt-recover workload: (q, t, seed, exp_bound)
ROSTER = SqrtRecover.ROSTER


def best(fn, repeat: int) -> float:
    """Seconds per call of fn, the best of five runs of repeat calls."""
    return min(timeit.repeat(fn, number=repeat, repeat=5)) / repeat


def sweep(max_D: int) -> tuple:
    """(seconds, peak RSS in MiB) of the genus sweep up to max_D."""
    t0 = time.perf_counter()
    for D in range(3, max_D + 1):
        if D % 4 in (0, 3):
            assert quadforms.verify_character_relation(D)["ok"], D
    wall = time.perf_counter() - t0
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold(fn):
    """fn with the quadforms memos emptied before the call."""
    def run():
        for memo in (quadforms.enumerate_class_group, quadforms.class_group,
                     quadforms.char_table):
            memo.cache_clear()
        return fn()
    return run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20,
                    help="calls per timeit run (default 20)")
    ap.add_argument("--max-D", type=int, default=5000,
                    help="largest D of the genus sweep (default 5000)")
    args = ap.parse_args(argv)
    wall, rss = sweep(args.max_D)

    f, g = quadforms.enumerate_class_group(420)[-2:]
    # g's class as (c, -b, a) translated by 3 steps of 2c: reduce_form
    # swaps and translates back
    b = -g.b + 6 * g.c
    far = QuadForm(g.c, b, (b * b + 420) // (4 * g.c))
    print(f"{'form_op':<14} {'us':>10}")
    for name, fn in (("compose", lambda: compose(f, g)),
                     ("reduce_form", lambda: reduce_form(far))):
        print(f"{name:<14} {best(fn, 100 * args.repeat) * 1e6:10.2f}")

    print(f"{'class_group':<14} {'D':>5} {'sqrt_cold':>10} {'sqrt_warm':>10} "
          f"{'root_cold':>10} {'root_warm':>10}")
    for q, t, seed, bound in ROSTER:
        oc = action.make_instance(q, t, random.Random(seed))
        ideal = action.random_smooth_class(oc, random.Random(seed),
                                           exp_bound=bound)
        target = action.apply_smooth_ideal(oc, ideal)
        square = compose(ideal.class_form, ideal.class_form)

        def sqrt():
            return quadforms.two_torsion_and_sqrt(oc.D, square)

        def recover():
            return roots.recover_root(oc, target, square,
                                      rng=random.Random(seed))

        recover()       # the action caches, filled once
        row = [best(fn, args.repeat) * 1e6
               for fn in (cold(sqrt), sqrt, cold(recover), recover)]
        print(f"{'':<14} {oc.D:>5} " + " ".join(f"{us:10.2f}" for us in row))

    print(f"{'genus_sweep':<14} {'max_D':>5} {'s':>10} {'rss_mb':>10}")
    print(f"{'':<14} {args.max_D:>5} {wall:10.3f} {rss:10.1f}")


if __name__ == "__main__":
    main()
