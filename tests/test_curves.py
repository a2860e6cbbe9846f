import random
from functools import partial

import pytest

from weilchar import curves, pairing
from weilchar.curves import (Curve, CurvePoint, _add_raw, _mul_fp, _point,
                             _raw, count_points,
                             division_polynomial, extension_order,
                             frobenius_map, gl2_order, point_add,
                             sample_m_torsion, scalar_mul, torsion_basis,
                             torsion_extension_degree, velu_isogeny)
from weilchar.fields import (FieldElement, FieldTower, SymbolicTower,
                             _is_prime, factorize, get_tower)
from weilchar.memo import cache_stats, clear_caches


def curve_over(p, a4, a6, r=1):
    return Curve(get_tower(p, r), a4, a6)


def peval(coeffs, x):
    """The polynomial over F_p with these coefficients (constant first) at
    x, an element of F_p or of an extension."""
    acc = x.field(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def all_points(E):
    tower = E.field
    pts = [CurvePoint.infinity()]
    for i in range(tower.size):
        x = FieldElement(tower, tower.unrank(i))
        c = E.rhs(x)
        if c.is_zero():
            pts.append(CurvePoint(x, c))
            continue
        y = c.sqrt()
        if y is not None:
            pts.append(CurvePoint(x, y))
            pts.append(CurvePoint(x, -y))
    return pts


def test_count_points_frozen_and_naive():
    E = curve_over(5, 0, 1)
    assert count_points(E) == (6, 0)
    for a4, a6 in [(1, 1), (2, 3), (0, 5), (11, 0)]:
        E = curve_over(13, a4, a6)
        assert count_points(E)[0] == len(all_points(E))
    E49 = curve_over(7, 1, 3, r=2)
    assert count_points(E49)[0] == len(all_points(E49))


def test_singular_curves_rejected():
    # 4a^3 + 27b^2 = 0 over F_13: a = -3, b = 2 gives -108 + 108 = 0
    with pytest.raises(ValueError):
        curve_over(13, -3 % 13, 2)


def test_group_law():
    rng = random.Random(7)
    E = curve_over(13, 2, 3)
    N, t = count_points(E)
    pts = all_points(E)
    assert len(pts) == N
    for P in pts:
        assert E.contains(P)
        assert scalar_mul(E, N, P).is_infinity()
    for _ in range(150):
        P, Q, R = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert point_add(E, point_add(E, P, Q), R) == \
            point_add(E, P, point_add(E, Q, R))
        assert point_add(E, P, Q) == point_add(E, Q, P)
        assert point_add(E, P, -P).is_infinity()


def test_extension_order_matches_counts():
    E = curve_over(13, 2, 3)
    _, t = count_points(E)
    for r in (2, 3):
        Er = curve_over(13, 2, 3, r=r)
        assert count_points(Er)[0] == extension_order(13, t, r)
    # Weil numbers: |t_r| stays inside the Hasse bound
    for r in range(1, 8):
        Nr = extension_order(13, t, r)
        tr = 13 ** r + 1 - Nr
        assert tr * tr <= 4 * 13 ** r


# Recorded before division polynomials moved to int lists and the x-only
# recurrence: y^2 = x^3 + 2x + 3 over F_13, coefficients constant first
_FROZEN_DIVISION_POLYNOMIALS = {
    4: [2, 8, 10, 6, 10, 0, 5, 9, 0, 4],
    5: [8, 4, 4, 3, 9, 7, 3, 10, 9, 9, 7, 0, 5],
    7: [7, 2, 11, 8, 6, 12, 2, 8, 6, 1, 2, 6, 10, 1, 2, 10, 0, 8, 2, 4, 1, 2,
        5, 0, 7],
    8: [12, 8, 5, 9, 9, 2, 11, 12, 8, 1, 7, 2, 10, 11, 9, 7, 1, 8, 11, 7, 10,
        1, 9, 4, 10, 2, 4, 8, 4, 6, 3, 1, 0, 8],
    9: [0, 6, 11, 4, 1, 3, 3, 10, 2, 9, 7, 9, 3, 5, 6, 2, 12, 2, 6, 6, 9, 4,
        0, 1, 0, 0, 1, 2, 9, 5, 3, 11, 10, 12, 0, 10, 3, 1, 8, 0, 9],
}


def test_division_polynomials():
    t13 = get_tower(13, 1)
    E = curve_over(13, 2, 3)
    A, B = 2, 3
    psi3 = division_polynomial(E, 3)
    assert psi3 == [(-A * A) % 13, (12 * B) % 13, (6 * A) % 13, 0, 3]
    assert division_polynomial(E, 2) == [2 * B, 2 * A, 0, 2]
    assert division_polynomial(E, 1) == [1]
    for m, coeffs in _FROZEN_DIVISION_POLYNOMIALS.items():
        assert division_polynomial(E, m) == coeffs, m
    assert len(division_polynomial(E, 4)) - 1 == 9
    assert len(division_polynomial(E, 8)) - 1 == 33
    # rational torsion x-coordinates are exactly rational psi roots with
    # a rational y above them
    pts = all_points(E)
    for m in (2, 3, 5, 7):
        torsion_x = {P.x.value for P in pts
                     if not P.is_infinity()
                     and scalar_mul(E, m, P).is_infinity()}
        psi = division_polynomial(E, m)
        roots = {v for v in range(13) if peval(psi, t13(v)).is_zero()}
        assert torsion_x <= roots


def test_division_polynomials_need_a_prime_field():
    E = curve_over(13, 2, 3, r=2)
    with pytest.raises(ValueError, match="prime field"):
        division_polynomial(E, 3)
    with pytest.raises(ValueError, match="prime field"):
        torsion_extension_degree(E, 3)


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("a4,a6", [(2, 3), (0, 5), (7, 0)])
def test_division_values_match_the_polynomials(r, a4, a6):
    """Both sides of the one recurrence agree: _division_values at a random
    x of F_{13^r}, interpreted and, for r > 1, traced into a kernel, equals
    Horner's evaluation at x of _division_f for j = n - 1, n, n + 1, for
    every odd n from 3 to 13."""
    f = get_tower(13, r)
    rng = random.Random(f"division{r},{a4},{a6}")
    for n in range(3, 14, 2):
        polys = [curves._division_f(13, a4, a6, j) for j in (n - 1, n, n + 1)]
        if r > 1:
            t = SymbolicTower(f)
            kernel = t.compile("A, B, x, c", *curves._division_values(
                t, t.scalar("A"), t.scalar("B"), n, t.value("x"),
                t.value("c")))
        for _ in range(8):
            x = f.random_value(rng)
            c = curves._rhs(f, x, f.from_int(a4), f.from_int(a6))
            want = tuple(peval(poly, FieldElement(f, x)).value
                         for poly in polys)
            assert curves._division_values(f, a4, a6, n, x, c) == want, n
            if r > 1:
                assert kernel(a4, a6, x, c) == want, n


# Recorded before division polynomials moved to int lists: r for
# m = 2, 3, 4, 5, 7, 8, 9 over F_101.  At m = 2 the monic psi is the cubic
# itself, so the y-coordinate test runs modulo a constant.
_FROZEN_TORSION_DEGREES = {
    (2, 3): [2, 2, 4, 6, 48, 8, 6],
    (3, 5): [3, 8, 3, 5, 48, 6, 24],
    (6, 1): [2, 2, 4, 10, 48, 4, 6],
    (12, 34): [1, 8, 2, 6, 6, 4, 24],
}


def test_torsion_extension_degree_frozen():
    for (a4, a6), degrees in _FROZEN_TORSION_DEGREES.items():
        E = curve_over(101, a4, a6)
        got = [torsion_extension_degree(E, m) for m in (2, 3, 4, 5, 7, 8, 9)]
        assert got == degrees, (a4, a6)


def test_torsion_extension_degree_vs_brute_force():
    cases = [(13, 2, 3, 3), (13, 2, 3, 2), (13, 1, 1, 3), (7, 1, 3, 3),
             (7, 1, 3, 2), (11, 3, 4, 5), (13, 2, 3, 4)]
    for (q, a4, a6, m) in cases:
        E = curve_over(q, a4, a6)
        r = torsion_extension_degree(E, m)
        assert gl2_order(m) % r == 0
        if q ** r > 30000:
            continue
        # full m-torsion means m^2 - 1 finite points of order dividing m,
        # and no smaller extension reaches that count
        for s in range(1, r + 1):
            Es = curve_over(q, a4, a6, r=s)
            cnt = sum(1 for P in all_points(Es)
                      if not P.is_infinity()
                      and scalar_mul(Es, m, P).is_infinity())
            assert (cnt == m * m - 1) == (s == r), (q, m, r, s, cnt)


def test_gl2_order_values():
    assert gl2_order(3) == 48
    assert gl2_order(5) == 480
    assert gl2_order(7) == 2016
    # multiplicative over coprime moduli
    assert gl2_order(15) == gl2_order(3) * gl2_order(5)


def test_sample_and_basis():
    rng = random.Random(9)
    E = curve_over(13, 2, 3)
    N, t = count_points(E)
    for m in (2, 3):
        if N % m:
            continue
        P = sample_m_torsion(E, m, N, rng)
        assert not P.is_infinity() and scalar_mul(E, m, P).is_infinity()
    r = torsion_extension_degree(E, 5)
    Er = curve_over(13, 2, 3, r=r)
    Nr = extension_order(13, t, r)
    P5 = sample_m_torsion(Er, 5, Nr, rng)
    assert scalar_mul(Er, 5, P5).is_infinity() and not P5.is_infinity()
    # psi_5 of the base curve: Er has the same coefficients
    assert peval(division_polynomial(E, 5), P5.x).is_zero()
    P, Q = torsion_basis(Er, 5, Nr, rng)
    # independence: the span has m^2 elements
    span = set()
    for i in range(5):
        for j in range(5):
            span.add(point_add(Er, scalar_mul(Er, i, P), scalar_mul(Er, j, Q)))
    assert len(span) == 25


def test_only_a_settled_pairing_compiles_the_draw_kernel():
    """A cold torsion_basis on a traceable tower draws every point
    interpreted and compiles no draw kernel; the first weil_pairing there
    settles by the kernels, so it builds the tower's one."""
    clear_caches()
    E = curve_over(13, 2, 3)
    _, t = count_points(E)
    r = torsion_extension_degree(E, 5)
    Er, rng = curve_over(13, 2, 3, r=r), random.Random(9)
    assert Er.field.traceable
    P, Q = torsion_basis(Er, 5, extension_order(13, t, r), rng)
    assert cache_stats()["curves._draw_kernel"]["entries"] == 0
    pairing.weil_pairing(Er, P, Q, 5, rng)
    assert cache_stats()["curves._draw_kernel"]["entries"] == 1


def test_velu_isogeny():
    rng = random.Random(11)
    E = curve_over(13, 2, 2)
    N, _ = count_points(E)
    assert N % 5 == 0
    K = sample_m_torsion(E, 5, N, rng)
    phi = velu_isogeny(E, K, 5)
    assert phi.degree == 5
    E1 = phi.codomain
    assert count_points(E1)[0] == N
    for _ in range(25):
        P, Q = E.random_point(rng), E.random_point(rng)
        assert E1.contains(phi(P))
        assert phi(point_add(E, P, Q)) == point_add(E1, phi(P), phi(Q))
    for i in range(1, 5):
        assert phi(scalar_mul(E, i, K)).is_infinity()
    assert phi(CurvePoint.infinity()).is_infinity()


def test_velu_frobenius_commutation_and_rejection():
    rng = random.Random(13)
    E = curve_over(13, 2, 3)
    N, t = count_points(E)
    r = torsion_extension_degree(E, 5)
    Er = curve_over(13, 2, 3, r=r)
    Ee = E.over(Er.field)
    Ne = extension_order(13, t, r)

    def eigen_point():
        for _ in range(80):
            C = sample_m_torsion(Ee, 5, Ne, rng)
            FC = frobenius_map(C, 13)
            for lam in range(1, 5):
                if FC == scalar_mul(Ee, lam, C):
                    return C, lam
            # project onto an eigenline
            for cand in range(1, 5):
                T = point_add(Ee, FC, scalar_mul(Ee, -cand, C))
                if T.is_infinity():
                    continue
                FT = frobenius_map(T, 13)
                for lam in range(1, 5):
                    if FT == scalar_mul(Ee, lam, T):
                        return T, lam
        raise AssertionError("no eigenpoint found")

    K, lam = eigen_point()
    phi = velu_isogeny(E, K, 5)
    assert phi.codomain.field is E.field
    assert count_points(phi.codomain)[0] == N
    P = Ee.random_point(rng)
    assert frobenius_map(phi(P), 13) == phi(frobenius_map(P, 13))

    for _ in range(60):
        C = sample_m_torsion(Ee, 5, Ne, rng)
        FC = frobenius_map(C, 13)
        if not any(FC == scalar_mul(Ee, c, C) for c in range(1, 5)):
            with pytest.raises(ValueError):
                velu_isogeny(E, C, 5)
            break


def test_frobenius_satisfies_char_poly():
    rng = random.Random(15)
    E = curve_over(11, 3, 4)
    N, t = count_points(E)
    Er = curve_over(11, 3, 4, r=3)
    for _ in range(15):
        P = Er.random_point(rng)
        FP = frobenius_map(P, 11)
        FFP = frobenius_map(FP, 11)
        acc = point_add(Er, FFP, scalar_mul(Er, -t, FP))
        acc = point_add(Er, acc, scalar_mul(Er, 11, P))
        assert acc.is_infinity()


def test_frobenius_map_takes_powers_of_the_characteristic_only():
    """frobenius_map(P, q) raises ValueError unless q is a power of p, for
    q = 0, -p and 2p alike, and maps P to (x^q, y^q) for q = p and p^2."""
    E = curve_over(13, 2, 3, r=2)
    P = E.random_point(random.Random(17))
    assert not P.is_infinity() and P.x ** 13 != P.x
    for q in (0, -13, 26):
        with pytest.raises(ValueError, match="not a power"):
            frobenius_map(P, q)
    assert frobenius_map(P, 13) == CurvePoint(P.x ** 13, P.y ** 13)
    assert frobenius_map(P, 169) == P


def test_point_hash_agrees_with_equality():
    # (2, 10) on y^2 = x^3 + 2x + 12 over F_19, and embedded in F_361
    tower = get_tower(19, 2)
    base = get_tower(19, 1)
    low = CurvePoint(base(2), base(10))
    lifted = CurvePoint(tower(low.x), tower(low.y))
    assert low == lifted and hash(low) == hash(lifted)
    assert len({low, lifted, CurvePoint.infinity()}) == 2


# random_point(random.Random(s)) on y^2 = x^3 + a4 x + a6, recorded before
# the field layer was flattened: x, y and the sign draw must not move
_FROZEN_POINTS = {
    (7, 1, 1, 3): [
        (0, 6,
         6),
        (1, 4,
         1),
        (2, 6,
         1),
    ],
    (7, 3, 1, 3): [
        (0, (1, 0, 4),
         (6, 5, 1)),
        (1, (5, 2, 1),
         (4, 2, 1)),
        (2, (4, 6, 0),
         (3, 3, 4)),
    ],
    (13, 12, 2, 3): [
        (0, (8, 12, 0, 2, 3, 11, 0, 1, 2, 4, 7, 7),
         (9, 4, 11, 12, 11, 7, 3, 1, 5, 12, 7, 6)),
        (1, (0, 9, 8, 7, 3, 10, 3, 11, 5, 11, 5, 7),
         (1, 3, 11, 10, 3, 2, 2, 8, 3, 1, 11, 0)),
        (2, (0, 7, 9, 10, 11, 7, 4, 2, 10, 4, 10, 1),
         (2, 5, 0, 4, 6, 3, 5, 1, 9, 11, 0, 2)),
    ],
    (101, 2, 1, 3): [
        (0, (22, 68),
         (75, 8)),
        (1, (80, 21),
         (6, 16)),
        (2, (17, 9),
         (97, 39)),
    ],
}


def test_frozen_random_points():
    for (p, r, a4, a6), rows in _FROZEN_POINTS.items():
        E = curve_over(p, a4, a6, r=r)
        for seed, x, y in rows:
            P = E.random_point(random.Random(seed))
            assert (P.x.value, P.y.value) == (x, y)


# x^3 + x + a6 has no root in F_p, nor in F_{p^r} unless 3 divides r, so
# no draw has c = 0, the one case that needs no norm
@pytest.mark.parametrize("p,r,a6", [(7, 1, 1), (13, 5, 5), (101, 4, 3),
                                    (23, 8, 3)])
def test_random_point_takes_one_norm_per_x(monkeypatch, p, r, a6):
    # the norm that decides squareness in the draw also serves the root;
    # random_point draws interpreted, by vnorm, and compiles nothing; on a
    # traceable tower the draw kernel, driven here as pairing._settle
    # drives it, takes each candidate's norm inline and, the norm being
    # nonzero here, makes one Euler test of it, a call of the pow in its
    # globals
    E = curve_over(p, 1, a6, r=r)
    f, raw = E.field, (E.a4.value, E.a6.value)
    counts = {"x": 0, "norm": 0}
    field_type = type(E.field)
    size = E.field.size

    class Counted(random.Random):
        def randrange(self, *args):
            if args == (size,):
                counts["x"] += 1
            return super().randrange(*args)

    class Bits(random.Random):
        def getrandbits(self, k):
            n = super().getrandbits(k)
            if k == size.bit_length() and n < size:
                counts["x"] += 1
            return n

    def counted(fn):
        def wrapper(*args):
            counts["norm"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(field_type, "vnorm", counted(field_type.vnorm))
    clear_caches()
    E.field._sqrt_setup()       # the root's constants, built once
    for kind in (Counted, Bits) if E.field.traceable else (Counted,):
        draw = E.draw_point
        if kind is Bits:
            kernel = curves._draw_kernel(f)
            monkeypatch.setitem(kernel.__globals__, "pow", counted(pow))
            draw = partial(kernel, *raw)
        counts.update(x=0, norm=0)
        rng = kind(f"norms{p},{r}")
        for _ in range(20):
            _point(f, curves._lift(f, draw(rng)))
        assert counts["x"] >= 20
        assert counts["norm"] == counts["x"]
        built = cache_stats()["curves._draw_kernel"]["misses"]
        assert built == (kind is Bits)


# the perfbench cells, two towers of the ddh roster and the sqrt fill's
# (2221, 12); all but (31, 10) are Kummer towers, whose norm descends;
# (101, 2) also takes an a4 outside F_101, which the kernel reads as any
# raw value; at (31, 10) the kernel runs in segments
@pytest.mark.parametrize("p,r,a4,a6", [
    (7, 3, 3, 3), (31, 3, 2, 11), (2221, 3, 1668, 2145), (101, 2, 3, 7),
    (101, 2, (2, 1), 5), (101, 4, 1, 3), (31, 10, 2, 11),
    (2221, 12, 1668, 2145),
])
def test_draw_kernel_matches_the_interpreted_draw(p, r, a4, a6):
    """Over 2,000 draws the compiled draw (_draw_kernel: the rejection
    loop over rank, right-hand side and norm, then the sign) gives the
    draw tuples and generator states the interpreted _draw gives, for a
    random.Random, a generator whose randrange is its own and one whose
    getrandbits is its own: both read the generator by randrange alone,
    and the one with its own randrange sees every call of both.
    Curve.draw_point is _draw on every tower: it compiles nothing."""
    f = get_tower(p, r)
    E = Curve(f, FieldElement(f, a4) if isinstance(a4, tuple) else a4, a6)
    raw = E.a4.value, E.a6.value
    seed = f"draws{p},{r}"
    calls = []

    class Seen(random.Random):
        def randrange(self, *args):
            n = super().randrange(*args)
            calls.append((args, n))
            return n

    class Bits(random.Random):
        def getrandbits(self, k):
            return super().getrandbits(k)

    clear_caches()
    kernel = curves._draw_kernel(f)
    runs = []
    for kind in (random.Random, Seen, Bits):
        for draw in (partial(kernel, *raw), partial(curves._draw, f, *raw)):
            rng = kind(seed)
            runs.append([(draw(rng), rng.getstate()) for _ in range(2000)])
    assert all(run == runs[0] for run in runs)
    clear_caches()
    assert E.draw_point(random.Random(seed)) == runs[0][0][0]
    assert cache_stats()["curves._draw_kernel"]["entries"] == 0
    assert len(calls) % 2 == 0
    for run in (calls[:len(calls) // 2], calls[len(calls) // 2:]):
        replay = random.Random(seed)
        assert all(replay.randrange(*args) == n for args, n in run)
        assert replay.getstate() == runs[0][-1][1]
    if (p, r) == (31, 10):
        assert "_segment0" in kernel.__code__.co_names


class _Scripted(random.Random):
    """getrandbits gives the scripted (bits, value) pairs in turn, each
    asked for with its own bit count."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def getrandbits(self, k):
        bits, value = self.script.pop(0)
        assert k == bits
        return value


def test_draw_kernel_only_where_the_product_is_unrolled():
    """r = 1 and r above UNROLLED_MUL_MAX_R draw interpreted and compile
    nothing; SymbolicTower refuses those towers.  At (101, 4) the kernel
    reads its ranks and sign bit as randrange does: ranks of 27 bits until
    one is below 101^4, sign bits of 2 until one is below 2, and a rank
    whose c is a non-square, 40712, draws again, as the interpreted loop
    does."""
    clear_caches()
    for p, r in ((101, 1), (5, 15)):
        f = get_tower(p, r)
        assert not f.traceable
        Curve(f, 1, 3).random_point(random.Random(0))
        with pytest.raises(ValueError, match="no unrolled product"):
            SymbolicTower(f)
    assert cache_stats()["curves._draw_kernel"]["entries"] == 0
    f = get_tower(101, 4)
    a4, a6 = (1, 0, 0, 0), (3, 0, 0, 0)

    def norm(n):
        return f.vnorm(curves._rhs(f, f.unrank(n), a4, a6))

    assert pow(norm(40712), 50, 101) != 1
    n = next(n for n in range(40713, f.size) if pow(norm(n), 50, 101) == 1)
    x = f.unrank(n)
    want = (x, curves._rhs(f, x, a4, a6), 1, norm(n))
    script = [(27, f.size), (27, 40712), (27, n), (2, 3), (2, 1)]
    rng = _Scripted(script)
    assert curves._draw_kernel(f)(a4, a6, rng) == want
    assert not rng.script
    rng = _Scripted(script)
    assert curves._draw(f, a4, a6, rng) == want
    assert not rng.script


@pytest.mark.parametrize("compiled", [True, False])
def test_draw_keeps_the_norm_check(compiled):
    """A norm outside F_p (a reducible modulus) raises on both paths, the
    draw kernel and draw_point: over x^2 - 1, and over x^2 - 2 =
    (x - 3)(x + 3), a binomial that is no Kummer tower (w = 2 has order 3
    in F_7^*), so it keeps the chain and its check.  The descent test and vis_nonsquare raise there too, on
    (1 + x) x: phi fixes x on both rings, so the chain's power is the
    square, which has an x term."""
    for modulus in ((6, 0, 1), (5, 0, 1)):
        ring = FieldTower(7, 2, modulus)
        assert ring._kummer is None
        E = Curve(ring, 1, 3)
        draw = (partial(curves._draw_kernel(ring), E.a4.value, E.a6.value)
                if compiled else E.draw_point)
        with pytest.raises(RuntimeError, match="prime field"):
            for seed in range(20):
                draw(random.Random(seed))
        u, x = (1, 1), (0, 1)
        for test in ([lambda: pairing._descent_kernel(ring)(ring.zero, u, x)]
                     if compiled else []) + [
                lambda: pairing._descent_separates(ring, ring.zero, u, x),
                lambda: ring.vis_nonsquare(ring.vmul(u, x))]:
            with pytest.raises(RuntimeError, match="prime field"):
                test()


def _add_with_slope_oracle(E, P, Q):
    """The tangent and chord formulas on FieldElement arithmetic: the sum
    and the slope _add_raw gives on raw values."""
    if P.is_infinity():
        return Q, None
    if Q.is_infinity():
        return P, None
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint.infinity(), None
        lam = (3 * P.x * P.x + E.a4) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return CurvePoint(x3, lam * (P.x - x3) - P.y), lam


def test_add_with_slope_matches_the_field_element_formulas():
    rng = random.Random(29)
    E = curve_over(101, 1, 3, r=2)
    low = curve_over(101, 1, 3)
    O = CurvePoint.infinity()
    cases = []
    for _ in range(20):
        P, Q = E.random_point(rng), E.random_point(rng)
        cases += [(P, Q), (P, P), (P, -P), (O, P), (P, O)]
    # points over the prime field embed in E's field
    for _ in range(10):
        P0, Q0 = low.random_point(rng), low.random_point(rng)
        cases += [(P0, E.random_point(rng)), (P0, P0), (P0, Q0), (P0, -P0)]
    # a 2-torsion point doubles to infinity along a vertical tangent
    E13 = curve_over(13, 12, 0)
    T = _raw(E13.field, E13.point(0, 0))
    assert _add_raw(E13.field, E13.a4.value, T, T) == (None, None)
    f = E.field
    for P, Q in cases:
        S, lam = _add_raw(f, E.a4.value, _raw(f, P), _raw(f, Q))
        S, lam = _point(f, S), None if lam is None else FieldElement(f, lam)
        want, want_lam = _add_with_slope_oracle(E, P, Q)
        assert S == want and lam == want_lam
        assert S.is_infinity() or S.x.field is E.field
        assert (lam is None) == (P.is_infinity() or Q.is_infinity()
                                 or S.is_infinity())
        assert point_add(E, P, Q) == S and E.contains(S)


def test_point_from_an_unrelated_field_raises():
    rng = random.Random(31)
    E = curve_over(7, 1, 3, r=2)
    P = E.random_point(rng)
    F = curve_over(7, 1, 3, r=3)
    R = F.random_point(rng)
    while not any(R.x.value[1:]):
        R = F.random_point(rng)
    for call in (lambda: point_add(E, P, R), lambda: point_add(E, R, P),
                 lambda: scalar_mul(E, 3, R), lambda: point_add(E, R, R)):
        with pytest.raises((TypeError, ValueError)):
            call()
    # and a curve over F_p does not take points of an extension
    with pytest.raises((TypeError, ValueError)):
        point_add(curve_over(7, 1, 3), R, R)


def _scalar_mul_oracle(E, n, P):
    """scalar_mul's double-and-add on _add_raw, the one path it took at
    every r before the F_p path _mul_fp."""
    if n < 0:
        return _scalar_mul_oracle(E, -n, -P)
    f, a4 = E.field, E.a4.value
    acc, add = None, _raw(f, P)
    while n:
        if n & 1:
            acc = _add_raw(f, a4, acc, add)[0]
        n >>= 1
        if n:
            add = _add_raw(f, a4, add, add)[0]
    return _point(f, acc)


def _exact_order(E, P, N):
    """The order of P, given the group order N."""
    d = N
    for ell, _ in factorize(N):
        while (d % ell == 0
               and _scalar_mul_oracle(E, d // ell, P).is_infinity()):
            d //= ell
    return d


def _mul_fp_cases(rng, p):
    """(E, P, scalars) over F_p: a random curve with a 2-torsion point
    (x0, 0), and the points and scalars that reach every branch of the
    double-and-add."""
    x0, a4 = rng.randrange(p), rng.randrange(1, p)
    a6 = -(x0 ** 3 + a4 * x0) % p
    while (4 * a4 ** 3 + 27 * a6 * a6) % p == 0:
        a4 += 1
        a6 = -(x0 ** 3 + a4 * x0) % p
    E = curve_over(p, a4, a6)
    N = count_points(E)[0]
    O = CurvePoint.infinity()
    points = [O, E.point(x0, 0)] + [E.random_point(rng) for _ in range(3)]
    for P in points:
        m = _exact_order(E, P, N)
        top = 1 << m.bit_length()
        scalars = [0, 1, 2, -1, N - 1, N, N + 1, -N - 1, m, m - 1, 2 * m + 1]
        scalars += [rng.randrange(3 * p) for _ in range(4)]
        for s in (0, 2, 5):
            # bits of m below a higher one: the sum reaches acc = -B, where
            # acc + B = [m]P = O, and goes on adding above it
            scalars.append(m + (top << s))
            # acc = [top - m]P = [top]P = B: the addition doubles
            scalars.append(2 * top - m + (top << (s + 1)))
        yield E, P, scalars


@pytest.mark.parametrize("p", [5, 7, 13, 101, 2221, 120121])
def test_mul_fp_matches_the_add_raw_oracle(p):
    """_mul_fp equals the _add_raw double-and-add from a cold table of
    inverses and from a warm one, and every entry the table holds is an
    inverse."""
    for cold in (True, False):
        if cold:
            clear_caches()
            assert cache_stats()["curves._inverses"]["entries"] == 0
        rng = random.Random(f"mul_fp{p}")
        for _ in range(3):
            for E, P, scalars in _mul_fp_cases(rng, p):
                for n in scalars:
                    want = _scalar_mul_oracle(E, n, P)
                    assert scalar_mul(E, n, P) == want, (p, E, P, n)
                    assert _mul_fp(p, E.a4.value, n, _raw(E.field, P)) == \
                        _raw(E.field, want)
                    assert E.contains(want)
    filled = [(d, v) for d, v in enumerate(curves._inverses(p)) if v]
    assert filled and all(d * v % p == 1 for d, v in filled)
    assert cache_stats()["curves._inverses"]["entries"] == 1


def test_mul_fp_keeps_no_inverses_above_a_million():
    p = 1000003
    rng = random.Random("mul_fp above 10^6")
    for _ in range(3):
        x, y, a4 = (rng.randrange(1, p) for _ in range(3))
        E = curve_over(p, a4, (y * y - x ** 3 - a4 * x) % p)
        P = E.point(x, y)
        for n in (2, 3, rng.randrange(p), -rng.randrange(p)):
            assert scalar_mul(E, n, P) == _scalar_mul_oracle(E, n, P)
    table = curves._inverses(p)
    table[5] = 3
    assert table[5] == 0


def _count_points_oracle(E, squares):
    """count_points' sweep over F_p against the set of squares mod p, as
    it ran before the table of root counts."""
    p, a4, a6 = E.field.p, E.a4.value, E.a6.value
    n = 1
    for x in range(p):
        c = (x * x * x + a4 * x + a6) % p
        if c == 0:
            n += 1
        elif c in squares:
            n += 2
    return n, p + 1 - n


def test_count_points_matches_the_square_set_sweep():
    cases = [(p, a4, a6) for p in range(5, 60) if _is_prime(p)
             for a4 in range(p) for a6 in range(p)]
    rng = random.Random(37)
    cases += [(p, rng.randrange(p), rng.randrange(p))
              for p in (2221, 120121) for _ in range(3)]
    squares = {}
    for p, a4, a6 in cases:
        if (4 * a4 ** 3 + 27 * a6 * a6) % p == 0:
            continue
        if p not in squares:
            squares[p] = {v * v % p for v in range(p)}
        E = curve_over(p, a4, a6)
        assert count_points(E) == _count_points_oracle(E, squares[p]), E
