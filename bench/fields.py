"""Microbenchmark of the F_{p^r} kernels: microseconds per call.

    PYTHONPATH=src python3 bench/fields.py [--repeat N] [P,R ...]

For each tower it times both product paths, the unrolled schoolbook
product and Kronecker substitution, whichever of them vmul selects, then
vadd, vsub, vneg, vinv, the Frobenius map (k = 1), vnorm, and the
two-term linear combination pairing._lin(f, 0, ((1, u), (-4, v))).  Each
figure is the best of five timeit runs of N calls each on one fixed random
pair of operands, in one process.  The default towers are the five of the
field-layer baseline in ROADMAP.md, then p = 23 at r = 12, 16, 20, 24, 30
and p = 101 and 120121 at r = 14, 16, which bracket the product crossover
fields.UNROLLED_MUL_MAX_R; building (23, 30) and (23, 42) searches their
moduli for about 1.5 s each.
"""

import argparse
import random
import timeit

from weilchar import fields, pairing

TOWERS = ((101, 2), (101, 4), (101, 12), (120121, 7), (23, 42),
          (23, 12), (23, 16), (23, 20), (23, 24), (23, 30),
          (101, 14), (101, 16), (120121, 14), (120121, 16))


def time_us(fn, u, v, repeat: int) -> float:
    best = min(timeit.repeat(lambda: fn(u, v), number=repeat, repeat=5))
    return best / repeat * 1e6


def row(p: int, r: int, repeat: int) -> dict:
    f = fields.get_tower(p, r)
    rng = random.Random(f"bench{p},{r}")
    u, v = f.random_value(rng), f.random_value(rng)
    unrolled = fields._unrolled_mul(p, r, f._low_terms)
    if unrolled(u, v) != f._kron_mul(u, v):
        raise RuntimeError(f"product paths disagree at ({p}, {r})")
    return {
        "unrolled_mul": time_us(unrolled, u, v, repeat),
        "kron_mul": time_us(f._kron_mul, u, v, repeat),
        "vadd": time_us(f.vadd, u, v, repeat),
        "vsub": time_us(f.vsub, u, v, repeat),
        "vneg": time_us(lambda a, _: f.vneg(a), u, v, repeat),
        "vinv": time_us(lambda a, _: f.vinv(a), u, v, repeat),
        "frobenius": time_us(lambda a, _: f.frobenius(a), u, v, repeat),
        "vnorm": time_us(lambda a, _: f.vnorm(a), u, v, repeat),
        "lin": time_us(lambda a, b: pairing._lin(f, 0, ((1, a), (-4, b))),
                       u, v, repeat),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=2000,
                    help="calls per timeit run (default 2000)")
    ap.add_argument("towers", nargs="*", metavar="P,R",
                    help="towers to time (default: TOWERS)")
    args = ap.parse_args(argv)
    towers = ([tuple(int(n) for n in t.split(",")) for t in args.towers]
              or TOWERS)
    names = ("unrolled_mul", "kron_mul", "vadd", "vsub", "vneg", "vinv",
             "frobenius", "vnorm", "lin")
    print(f"vmul runs unrolled_mul for r <= {fields.UNROLLED_MUL_MAX_R}, "
          "kron_mul above; us per call")
    print(f"{'p':>7} {'r':>3} " + " ".join(f"{n:>12}" for n in names))
    for p, r in towers:
        times = row(p, r, args.repeat)
        print(f"{p:>7} {r:>3} " + " ".join(f"{times[n]:12.2f}" for n in names))


if __name__ == "__main__":
    main()
