"""Microbenchmark of the curve arithmetic of the instance search and of
the per-call steps of a warm pairing.

    PYTHONPATH=src python3 bench/curves.py [--repeat N] [--pairing-steps]

It prints three tables, each figure the best of five timeit runs of N
calls in one process (100 N for scalar_mul):

- microseconds per scalar_mul over F_2221 for a 23-bit scalar, the
  order (q + 1 - t)(q + 1 + t) that make_instance's filter multiplies by
  at (q, t) = (2221, 92), and for a 40-bit one;
- microseconds per count_points over F_2221 and F_120121;
- milliseconds per make_instance for each (q, t, seed) of the
  sqrt-recover benchmark roster, the memo emptied before every call, with
  the number of count_points calls one search makes.

With --pairing-steps it prints one table instead, with 100 N calls per
run: at the (p, r, m) cells of the benchmark's pairings, on the instance
curve over F_{p^r}, microseconds per Curve.draw_point (the draw kernel's
whole rejection loop when compiled), per x([m]R) certificate (interpreted,
pairing._separated; compiled, the attempt kernel's certificate), per
descent test (interpreted, pairing._descent_separates; compiled,
pairing._descent_kernel), per shift attempt (interpreted, pairing._replay:
two draws, the descent test and, when it does not separate them, the
certificate; compiled, one call of pairing._attempt_kernel) and per warm
side pairing (attack._side_pairing: cells drawn from their memoized
records until one is accepted, and the plan of its pairing settled),
interpreted (the tower's traceable flag cleared) and compiled; per
dlog_in_mu_m with its root check, the base's order and the walk over its
powers computed on every call (cold) and looked up (warm); the
milliseconds it takes to trace and compile the draw kernel and the attempt
kernel (its certificate, and the calls of the memoized draw and descent
kernels); and the percentage of 100 N attempts, drawn for the plans of the
accepted cell records in turn, that the descent test with the plan's root
certifies.  The descent columns take the root of the first plan that
keeps one, or else the least root of the cubic.
"""

import argparse
import random
import sys
import time
import timeit
from pathlib import Path

from weilchar import action, attack, curves, fields, pairing
from weilchar.fields import FieldElement, dlog_in_mu_m, get_tower
from weilchar.memo import clear_caches

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SqrtRecover

# the roster of perfbench's sqrt-recover workload: (q, t, seed, exp_bound)
ROSTER = SqrtRecover.ROSTER
# curves of the roster and of the criterion-7 ladder: (p, a4, a6)
CURVES = ((2221, 1668, 2145), (120121, 108144, 71009))
# the (p, r, m) the benchmark's pairings run at, with their instance curve
# (a4, a6): the ddh base at p = 101 and the sqrt-recover roster
CELLS = ((101, 4, 4, 1, 19), (7, 3, 3, 1, 3), (31, 3, 3, 4, 20),
         (2221, 3, 3, 1668, 2145))


def instance(p: int):
    """The instance of a cell: the ddh base at p = 101, else the roster's."""
    if p == 101:
        return action.gen_supersingular_instance(101)
    q, t, seed, _ = next(row for row in ROSTER if row[0] == p)
    return action.make_instance(q, t, random.Random(seed))


def best(fn, repeat: int) -> float:
    """Seconds per call of fn, the best of five runs of repeat calls."""
    return min(timeit.repeat(fn, number=repeat, repeat=5)) / repeat


def compile_ms(build) -> float:
    t0 = time.perf_counter()
    build()
    return (time.perf_counter() - t0) * 1e3


def descent_share(f, E, plans, attempts: int, rng) -> float:
    """The percentage of attempts, drawn for the plans in turn, that the
    descent test with the plan's root certifies."""
    certified = 0
    for i in range(attempts):
        e = plans[i % len(plans)][9]
        R, S = E.draw_point(rng), E.draw_point(rng)
        certified += e is not None and pairing._descent_separates(
            f, e, R[0], S[0])
    return 100 * certified / attempts


def pairing_steps(repeat: int) -> None:
    print(f"{'pairing steps':<14} {'p':>7} {'r':>2} {'m':>2} "
          f"{'draw':>13} {'certificate':>13} {'descent':>13} "
          f"{'attempt':>13} {'side':>13} {'dlog':>13} {'compile ms':>11} "
          f"{'descent':>7}")
    print(f"{'':<14} {'':>7} {'':>2} {'':>2} "
          + f"{'interp':>6} {'comp':>6} " * 5
          + f"{'cold':>6} {'warm':>6} {'draw':>5} {'att':>5} {'share%':>7}")
    for p, r, m, a4, a6 in CELLS:
        f = get_tower(p, r)
        E = curves.Curve(f, a4, a6)
        rng = random.Random(f"bench{p},{r}")
        R, S = E.draw_point(rng), E.draw_point(rng)
        oc = instance(p)
        k = attack.adjust_generator(oc, m)
        side = oc if k == 0 else oc.shifted(k)
        attack._side_pairing(side, m, f, rng)    # the cell records
        key = (side, side.sigma_trace, side.sigma_norm, m, r)
        plans = [plan for a in range(m) for b in range(m)
                 if (plan := attack._cell(*key, a, b)[3]) is not None]
        e = next((plan[9] for plan in plans if plan[9] is not None),
                 pairing._rational_roots(p, a4, a6)[0])
        kernel = pairing._attempt_kernel(f, m)
        certificate = kernel.__globals__["_certificate"]
        descent = kernel.__globals__["_descent"]
        steps = {False: (lambda: pairing._separated(f, a4, a6, m, R, S),
                         lambda: pairing._descent_separates(f, e, R[0], S[0]),
                         lambda: pairing._replay(f, E.a4.value, E.a6.value,
                                                 a4, a6, e, m, rng)),
                 True: (lambda: certificate(a4, a6, R[0], R[1], S[0], S[1]),
                        lambda: descent(e, R[0], S[0]),
                        lambda: kernel(rng, E.a4.value, E.a6.value, a4, a6,
                                       e))}
        row = []
        for traceable in (False, True):
            f.traceable = traceable
            row.append(tuple(best(fn, 100 * repeat) for fn in (
                lambda: E.draw_point(rng), *steps[traceable],
                lambda: attack._side_pairing(side, m, f, rng))))
        # a primitive m-th root of unity, and a target in mu_m
        while True:
            z = f.vpow(f.random_value(rng), (f.size - 1) // m)
            if z != f.zero and fields.element_order(FieldElement(f, z),
                                                    m) == m:
                break
        b, t = FieldElement(f, z), FieldElement(f, f.vpow(z, m - 1))

        def cold():
            for cached in (fields._dlog, fields.element_order):
                cached.cache_clear()
            return dlog_in_mu_m(b, t, m)

        dlogs = (best(cold, 100 * repeat),
                 best(lambda: dlog_in_mu_m(b, t, m), 100 * repeat))
        ms = (compile_ms(lambda: curves._draw_kernel.__wrapped__(f)),
              compile_ms(lambda: pairing._attempt_kernel.__wrapped__(f, m)))
        us = [x * 1e6 for pair in zip(*row) for x in pair] + [
            x * 1e6 for x in dlogs]
        share = descent_share(f, E, plans, 100 * repeat, rng)
        print(f"{'':<14} {p:>7} {r:>2} {m:>2} "
              + " ".join(f"{x:6.2f}" for x in us)
              + " " + " ".join(f"{x:5.2f}" for x in ms) + f" {share:7.1f}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20,
                    help="calls per timeit run (default 20)")
    ap.add_argument("--pairing-steps", action="store_true",
                    help="time the per-call steps of a warm pairing")
    args = ap.parse_args(argv)
    if args.pairing_steps:
        pairing_steps(args.repeat)
        return
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
    for q, t, seed, _ in ROSTER:
        ms = best(search, args.repeat) * 1e3
        print(f"{'':<14} {q:>7} {t:>4} {seed:>4} {ms:10.3f} {len(calls):>6}")


if __name__ == "__main__":
    main()
