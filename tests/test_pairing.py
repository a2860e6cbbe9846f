import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from weilchar.curves import (Curve, CurvePoint, _add_raw, _division_values,
                             _draw, _lift, _point, _raw, _x_multiple,
                             _x_multiple_kernel, count_points,
                             extension_order, frobenius_map, point_add,
                             sample_m_torsion, scalar_mul, torsion_basis,
                             torsion_extension_degree, velu_isogeny)
from weilchar import pairing
from weilchar.fields import (FieldElement, SymbolicTower, element_order,
                             get_tower)
from weilchar.memo import cache_stats, clear_caches
from weilchar.pairing import PairingValue, weil_pairing


def curve_over(p, a4, a6, r=1):
    return Curve(get_tower(p, r), a4, a6)


def test_two_torsion_frozen_values():
    rng = random.Random(11)
    # y^2 = x^3 - x over F_13 has full rational 2-torsion
    E = curve_over(13, -1 % 13, 0)
    P = E.point(0, 0)
    Q = E.point(1, 0)
    base = E.field
    one = base(1)
    minus_one = base(-1 % 13)
    assert weil_pairing(E, P, Q, 2, rng).value == minus_one
    assert weil_pairing(E, P, P, 2, rng).value == one
    assert weil_pairing(E, P, CurvePoint.infinity(), 2, rng).value == one


def test_pairing_value_validates_order():
    two = get_tower(13, 1)(2)
    with pytest.raises(ValueError):
        PairingValue(two, 3)  # 2^3 = 8 != 1 mod 13


@pytest.mark.parametrize("m,q,a4,a6", [
    (3, 13, 2, 3),
    (4, 13, 2, 3),
    (5, 13, 2, 3),
    (7, 11, 3, 4),
    (8, 13, 2, 3),
])
def test_pairing_properties(m, q, a4, a6):
    rng = random.Random(11)
    E = curve_over(q, a4, a6)
    N, t = count_points(E)
    r = torsion_extension_degree(E, m)
    Er = curve_over(q, a4, a6, r=r) if r > 1 else E
    Nr = extension_order(q, t, r)
    P, Q = torsion_basis(Er, m, Nr, rng)

    z = weil_pairing(Er, P, Q, m, rng).value
    assert element_order(z, m) == m, "a basis must pair to a primitive root"
    assert weil_pairing(Er, P, P, m, rng).value == z / z
    assert weil_pairing(Er, Q, P, m, rng).value == z.inverse()
    for _ in range(4):
        a, b = rng.randrange(1, m), rng.randrange(1, m)
        za = weil_pairing(Er, scalar_mul(Er, a, P),
                          scalar_mul(Er, b, Q), m, rng).value
        assert za == z ** (a * b)
    zg = weil_pairing(Er, frobenius_map(P, q), frobenius_map(Q, q),
                      m, rng).value
    assert zg == z ** q, "pairing must commute with the q-power Frobenius"
    # choice independence: the divisor shifts do not leak into the value
    assert weil_pairing(Er, P, Q, m, random.Random(999)).value == z


def test_pairing_compatibility_across_m():
    rng = random.Random(11)
    E = curve_over(13, 2, 3)
    N, t = count_points(E)
    r = torsion_extension_degree(E, 4)
    Er = curve_over(13, 2, 3, r=r)
    Nr = extension_order(13, t, r)
    P, Q = torsion_basis(Er, 4, Nr, rng)
    z4 = weil_pairing(Er, P, Q, 4, rng).value
    z2 = weil_pairing(Er, scalar_mul(Er, 2, P), scalar_mul(Er, 2, Q),
                      2, rng).value
    assert z4 * z4 == z2


def test_isogeny_compatibility():
    rng = random.Random(11)
    E0 = curve_over(13, 2, 3)
    N0, t0 = count_points(E0)
    tw12 = get_tower(13, 12)
    E12 = E0.over(tw12)
    N12 = extension_order(13, t0, 12)
    K = None
    for _ in range(60):
        R5 = sample_m_torsion(E12, 5, N12, rng)
        T = point_add(E12, frobenius_map(R5, 13), scalar_mul(E12, -4, R5))
        if T.is_infinity():
            continue
        if frobenius_map(T, 13) == scalar_mul(E12, 2, T):
            K = T
            break
    assert K is not None, "no 5-eigenpoint with eigenvalue 2 found"
    phi = velu_isogeny(E0, K, 5)
    P3, Q3 = torsion_basis(E12, 3, N12, rng)
    z3 = weil_pairing(E12, P3, Q3, 3, rng).value
    C12 = phi.codomain.over(tw12)
    iP, iQ = phi(P3), phi(Q3)
    assert C12.contains(iP) and C12.contains(iQ)
    assert weil_pairing(C12, iP, iQ, 3, rng).value == z3 ** 5


def _basis(q, a4, a6, d, rng):
    E = curve_over(q, a4, a6)
    N, t = count_points(E)
    r = torsion_extension_degree(E, d)
    Er = curve_over(q, a4, a6, r=r) if r > 1 else E
    return (Er,) + torsion_basis(Er, d, extension_order(q, t, r), rng)


@pytest.mark.parametrize("d,m", [(2, 4), (3, 15), (5, 15)])
def test_pairing_through_points_of_lower_order(d, m):
    """e_m(P, Q) = e_d(P, Q)^(m/d) for P, Q in E[d], d | m.  The Miller walk
    over [k]P reaches infinity in a doubling at (2, 4) and in an addition at
    (3, 15), and adds P to itself at (5, 15)."""
    rng = random.Random(17)
    E, P, Q = _basis(13, 2, 3, d, rng)
    zd = weil_pairing(E, P, Q, d, rng).value
    assert element_order(zd, d) == d
    for S, T in ((P, Q), (Q, P), (P, point_add(E, P, Q))):
        assert (weil_pairing(E, S, T, m, rng).value
                == weil_pairing(E, S, T, d, rng).value ** (m // d))


def test_pairing_rejects_points_outside_the_torsion():
    rng = random.Random(19)
    E, P, Q = _basis(13, 2, 3, 5, rng)
    with pytest.raises(ValueError):
        weil_pairing(E, P, Q, 3, rng)
    with pytest.raises(ValueError):
        weil_pairing(E, CurvePoint.infinity(), Q, 3, rng)


@pytest.mark.parametrize("m", [0, -1, -3])
def test_pairing_order_must_be_at_least_1(m):
    """An order m below 1 raises, at infinity as on a basis of E[3], where
    1^m = 1 once let any m through."""
    rng = random.Random(19)
    E = curve_over(19, 2, 12)      # full rational 3-torsion, order 18
    O = CurvePoint.infinity()
    for P, Q in ((O, O), torsion_basis(E, 3, 18, rng)):
        with pytest.raises(ValueError, match="an int at least 1"):
            weil_pairing(E, P, Q, m, rng)


def test_pairing_of_order_1_at_infinity_is_1():
    E = curve_over(19, 2, 12)
    O = CurvePoint.infinity()
    assert weil_pairing(E, O, O, 1, random.Random(19)).value == E.field(1)


@functools.lru_cache(maxsize=None)
def _cached_basis(q, a4, a6, m):
    return _basis(q, a4, a6, m, random.Random(23))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(13, 2, 3, 3), (13, 2, 3, 5), (11, 3, 4, 7)]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 60))
def test_pairing_laws_on_the_raw_walk(curve, u, v, a):
    """Bilinearity e(aP, Q) = e(P, Q)^a and alternation e(P, P) = 1 for
    P = uB1 + vB2 and Q = vB1 + uB2 on a basis (B1, B2) of E[m]."""
    q, a4, a6, m = curve
    E, B1, B2 = _cached_basis(q, a4, a6, m)
    P = point_add(E, scalar_mul(E, u, B1), scalar_mul(E, v, B2))
    Q = point_add(E, scalar_mul(E, v, B1), scalar_mul(E, u, B2))
    rng = random.Random(u ^ v)
    z = weil_pairing(E, P, Q, m, rng).value
    assert weil_pairing(E, scalar_mul(E, a, P), Q, m, rng).value == z ** a
    assert weil_pairing(E, P, P, m, rng).value == 1


# -- the shifted pairing on FieldElement ratios, as the reference ----------

def _oracle_ratio(E, P, m, X1, X2):
    """f_{m,P}(X1) / f_{m,P}(X2) as a FieldElement, or None where a line or
    vertical of the walk vanishes at X1 or X2; ValueError unless [m]P = O."""
    f = E.field
    a4 = E.a4.value
    P = _raw(f, P)
    x1, y1 = _raw(f, X1)
    x2, y2 = _raw(f, X2)
    num = den = f.one
    T = P
    for bit in bin(m)[3:]:
        num, den = f.vmul(num, num), f.vmul(den, den)
        for U in ((T, P) if bit == "1" else (T,)):
            if T is None and U is None:
                continue
            S, lam = _add_raw(f, a4, T, U)
            if lam is None:
                vx = (U if T is None else T)[0]
                num = f.vmul(num, f.vsub(x1, vx))
                den = f.vmul(den, f.vsub(x2, vx))
            else:
                tx, ty = T
                num = f.vmul(num, f.vsub(f.vsub(y1, ty),
                                         f.vmul(lam, f.vsub(x1, tx))))
                den = f.vmul(den, f.vsub(f.vsub(y2, ty),
                                         f.vmul(lam, f.vsub(x2, tx))))
            if S is not None:
                num = f.vmul(num, f.vsub(x2, S[0]))
                den = f.vmul(den, f.vsub(x1, S[0]))
            T = S
    if T is not None:
        raise ValueError(f"base point does not have order dividing {m}")
    if num == f.zero or den == f.zero:
        return None
    return FieldElement(f, f.vmul(num, f.vinv(den)))


def _oracle_pairing(E, P, Q, m, rng):
    """(e_m(P, Q), shift draws retried) with every shift point and ratio a
    CurvePoint or FieldElement, S - R drawn by its own addition and three
    divisions."""
    if P.is_infinity() or Q.is_infinity():
        for T in (P, Q):
            if not T.is_infinity():
                _oracle_ratio(E, T, m, T, T)
        return E.field(1), 0
    for retries in range(200):
        R = E.random_point(rng)
        S = E.random_point(rng)
        e1 = point_add(E, point_add(E, Q, R), -S)
        e2 = point_add(E, R, -S)
        e3 = point_add(E, point_add(E, P, S), -R)
        e4 = point_add(E, S, -R)
        if any(T.is_infinity() or T == P or T == Q for T in (e1, e2, e3, e4)):
            continue
        top = _oracle_ratio(E, P, m, e1, e2)
        bot = _oracle_ratio(E, Q, m, e3, e4)
        if top is None or bot is None:
            continue
        return top / bot, retries
    raise RuntimeError("could not find nondegenerate shift points")


def _torsion_pairs(q, a4, a6, m, rng):
    """E over the field of E[m], a basis, and pairs of E[m] that include
    equal, opposite, infinite and lower-order arguments."""
    E, B1, B2 = _basis(q, a4, a6, m, rng)
    inf = CurvePoint.infinity()
    pairs = [(B1, B2), (B2, B1), (B1, B1), (B1, -B1), (B1, inf), (inf, B2),
             (inf, inf)]
    for _ in range(12):
        P = point_add(E, scalar_mul(E, rng.randrange(m), B1),
                      scalar_mul(E, rng.randrange(m), B2))
        Q = point_add(E, scalar_mul(E, rng.randrange(m), B1),
                      scalar_mul(E, rng.randrange(m), B2))
        pairs.append((P, Q))
    return E, pairs


@pytest.mark.parametrize("q,a4,a6,m,retrying", [
    (13, 2, 3, 3, False),
    (13, 2, 3, 4, False),
    (11, 3, 4, 7, False),
    (13, 2, 3, 8, False),
    # curves where the reference retries its shift draws: about 5 calls in
    # 200 here and 1 in 200 over F_{7^3}, so these run ten rounds
    (13, 1, 1, 2, True),
    (7, 3, 2, 3, True),
])
def test_pairing_matches_the_reference_and_its_draws(q, a4, a6, m, retrying):
    """Same value and same generator state after each call as the
    reference, retried shift draws included."""
    rng = random.Random(31)
    E, pairs = _torsion_pairs(q, a4, a6, m, rng)
    ours, ref = random.Random(37), random.Random(37)
    retried = 0
    for _ in range(10 if retrying else 1):
        for P, Q in pairs:
            z = weil_pairing(E, P, Q, m, ours).value
            want, retries = _oracle_pairing(E, P, Q, m, ref)
            assert z == want, (P, Q)
            assert ours.getstate() == ref.getstate(), (P, Q)
            retried += retries
    assert retried > 0 or not retrying, "no call retried its shift draws"


def test_pairing_errors_match_the_reference():
    """Outside E[m] both raise ValueError, with or without an argument at
    infinity, and leave the generator in the same state."""
    E, P, Q = _basis(13, 2, 3, 5, random.Random(19))
    inf = CurvePoint.infinity()
    for args in ((P, Q), (inf, Q), (P, inf), (P, P)):
        ours, ref = random.Random(41), random.Random(41)
        with pytest.raises(ValueError):
            weil_pairing(E, *args, 3, ours)
        with pytest.raises(ValueError):
            _oracle_pairing(E, *args, 3, ref)
        assert ours.getstate() == ref.getstate()


def _all_of_torsion(E, B1, B2, m):
    """Every point of E[m] = <B1, B2>."""
    pts = []
    for a in range(m):
        A = scalar_mul(E, a, B1)
        for b in range(m):
            pts.append(point_add(E, A, scalar_mul(E, b, B2)))
    return pts


@pytest.mark.parametrize("q,a4,a6,m", [
    (13, 2, 3, 3), (13, 2, 3, 4), (11, 3, 4, 7), (13, 2, 3, 8),
    (13, 1, 1, 2), (7, 3, 2, 3),
])
def test_pairing_matches_the_reference_on_all_of_the_torsion(q, a4, a6, m):
    """Every (P, Q) in E[m]^2, in one generator stream: the same value and
    the same generator state after each call as the reference."""
    E, B1, B2 = _basis(q, a4, a6, m, random.Random(31))
    pts = _all_of_torsion(E, B1, B2, m)
    ours, ref = random.Random(37), random.Random(37)
    for P in pts:
        for Q in pts:
            assert weil_pairing(E, P, Q, m, ours).value == \
                _oracle_pairing(E, P, Q, m, ref)[0], (P, Q)
            assert ours.getstate() == ref.getstate(), (P, Q)


def test_pairing_runs_the_exact_path_when_the_certificate_is_inconclusive(
        monkeypatch):
    """On y^2 = x^3 + x + 1 over F_13 at m = 2 the shift draws often have
    x([2]R) = x([2]S), so the roots are taken and the shifted attempt runs;
    values and generator states still match the reference."""
    calls = [0]
    shifted = pairing._shifted_value

    def counted(*args):
        calls[0] += 1
        return shifted(*args)

    monkeypatch.setattr(pairing, "_shifted_value", counted)
    E, B1, B2 = _basis(13, 1, 1, 2, random.Random(31))
    pts = [T for T in _all_of_torsion(E, B1, B2, 2) if not T.is_infinity()]
    ours, ref = random.Random(47), random.Random(47)
    for _ in range(10):
        for P in pts:
            for Q in pts:
                assert weil_pairing(E, P, Q, 2, ours).value == \
                    _oracle_pairing(E, P, Q, 2, ref)[0]
                assert ours.getstate() == ref.getstate()
    assert calls[0] > 0, "the certificate never failed to decide"


# -- the pairing's memos -------------------------------------------------

@pytest.mark.parametrize("q,a4,a6,m,seeds", [
    (13, 2, 3, 3, 2),
    (11, 3, 4, 7, 2),
    # the certificate often fails here, so warm calls take the exact path
    (13, 1, 1, 2, 10),
])
def test_pairing_memo_changes_no_value_or_draw(q, a4, a6, m, seeds,
                                               monkeypatch):
    """A cold call (memos emptied by clear_caches) and a warm one from the
    same generator state return the same value and leave the same state:
    a hit on the checked value, the ints of a4 and a6 or the certificate
    kernel skips no draw, no certificate and no exact fallback."""
    calls = [0]
    shifted = pairing._shifted_value

    def counted(*args):
        calls[0] += 1
        return shifted(*args)

    monkeypatch.setattr(pairing, "_shifted_value", counted)
    E, pairs = _torsion_pairs(q, a4, a6, m, random.Random(31))
    warm_fallbacks = 0
    for seed in range(seeds):
        for P, Q in pairs:
            clear_caches()
            runs = []
            for _ in range(2):
                before = calls[0]
                rng = random.Random(seed)
                runs.append((weil_pairing(E, P, Q, m, rng).value,
                             rng.getstate()))
            warm_fallbacks += calls[0] - before
            assert runs[0] == runs[1], (P, Q)
    assert warm_fallbacks > 0 or m != 2, "no warm call ran the exact path"


def test_checked_value_is_built_and_checked_once(monkeypatch):
    """A warm pairing returns the PairingValue built, and checked, by the
    first call with its value; emptying the memos builds and checks it
    again."""
    checks = [0]
    new = PairingValue.__new__

    def counted(cls, value, modulus):
        checks[0] += 1
        return new(cls, value, modulus)

    monkeypatch.setattr(PairingValue, "__new__", counted)
    E, P, Q = _basis(13, 2, 3, 5, random.Random(19))
    rng = random.Random(5)
    for cold_checks in (1, 2):
        clear_caches()
        first = weil_pairing(E, P, Q, 5, rng)
        assert weil_pairing(E, P, Q, 5, rng) is first
        assert checks[0] == cold_checks


def test_pairing_outside_the_torsion_raises_on_every_call():
    """lru_cache keeps no exception: the second call raises as the first
    did, after the same draws."""
    E, P, Q = _basis(13, 2, 3, 5, random.Random(19))
    clear_caches()
    states = []
    for _ in range(2):
        rng = random.Random(41)
        with pytest.raises(ValueError):
            weil_pairing(E, P, Q, 3, rng)
        states.append(rng.getstate())
    assert states[0] == states[1]


def _closed_form_x_multiple(f, a4, a6, m, x, c):
    """_x_multiple as it read before a power of 2 started from (x, 1)
    (kept as the oracle): for n = 1 the first doubling is the closed form
    x(2R) = ((x^2 - a4)^2 - 8 a6 x) / (4c)."""
    k = (m & -m).bit_length() - 1
    n = m >> k
    if n == 1:
        t = f.vlin(-a4, ((1, f.vmul(x, x)),))
        X, Z = (f.vlin(0, ((1, f.vmul(t, t)), (-8 * a6, x))),
                f.vlin(0, ((4, c),)))
        k -= 1
    else:
        fm1, fn, fp1 = _division_values(f, a4, a6, n, x, c)
        Z = f.vmul(fn, fn)
        X = f.vlin(0, ((1, f.vmul(x, Z)),
                       (-4, f.vmul(c, f.vmul(fm1, fp1)))))
    for _ in range(k):
        XX, ZZ, XZ = f.vmul(X, X), f.vmul(Z, Z), f.vmul(X, Z)
        XZ3 = f.vmul(XZ, ZZ)
        t = f.vlin(0, ((1, XX), (-a4, ZZ)))
        X, Z = (f.vlin(0, ((1, f.vmul(t, t)), (-8 * a6, XZ3))),
                f.vlin(0, ((4, f.vmul(XZ, XX)), (4 * a4, XZ3),
                           (4 * a6, f.vmul(ZZ, ZZ)))))
    return X, Z


def _separated(f, m, A, B, xR, cR, xS, cS):
    """The two-point x-multiple certificate that _settle ran before it
    took each point's x-multiple on its own (kept as the oracle): whether
    x([m]R) != x([m]S), from the closed form for a power of 2."""
    XR, ZR = _closed_form_x_multiple(f, A, B, m, xR, cR)
    XS, ZS = _closed_form_x_multiple(f, A, B, m, xS, cS)
    return f.vmul(XR, ZS) != f.vmul(XS, ZR)


def _certificate_kernel(f, m):
    """_separated traced as one kernel (A, B, xR, cR, xS, cS), as pairing
    compiled it before (kept as the oracle)."""
    t = SymbolicTower(f)
    A, B = t.scalar("A"), t.scalar("B")
    XR, ZR = _closed_form_x_multiple(t, A, B, m, t.value("xR"),
                                     t.value("cR"))
    XS, ZS = _closed_form_x_multiple(t, A, B, m, t.value("xS"),
                                     t.value("cS"))
    u, v = t.vmul(XR, ZS), t.vmul(XS, ZR)
    return t.compile("A, B, xR, cR, xS, cS", t._scalar(
        " or ".join(f"{a} != {b}" for a, b in zip(u, v)), u, v),
        role=f"certificate m={m}")


@pytest.mark.parametrize("q,a4,a6,m", [
    (11, 1, 9, 2), (11, 1, 9, 3), (11, 1, 9, 4), (11, 1, 9, 5),
    (11, 3, 4, 7), (11, 1, 9, 8),
])
def test_x_only_multiple_matches_scalar_mul(q, a4, a6, m):
    """X / Z = x([m]R), and Z = 0 exactly when [m]R = O (then X != 0),
    over F_q and over the field of E[m], for random R, every R in E[m],
    and the rational 2-torsion.  (X, Z) is the one of the closed form it
    replaced for a power of 2, and, on a traceable tower, of its kernel
    (_x_multiple_kernel)."""
    rng = random.Random(43)
    E, B1, B2 = _basis(q, a4, a6, m, rng)
    E0 = curve_over(q, a4, a6)
    cases = [(C, C.random_point(rng)) for C in (E0, E) for _ in range(10)]
    cases += [(E, T) for T in _all_of_torsion(E, B1, B2, m)]
    cases += [(C, C.point(x, 0)) for C in (E0, E) for x in range(q)
              if (x ** 3 + a4 * x + a6) % q == 0]
    assert any(T.y == 0 for _, T in cases)
    for C, R in cases:
        if R.is_infinity():
            continue
        f = C.field
        x, y = _raw(f, R)
        c = f.vmul(y, y)
        X, Z = _x_multiple(f, m, a4, a6, x, c)
        assert (X, Z) == _closed_form_x_multiple(f, a4, a6, m, x, c), R
        if f.traceable:
            assert _x_multiple_kernel(f, m)(a4, a6, x, c) == (X, Z), R
        T = scalar_mul(C, m, R)
        assert (Z == f.zero) == T.is_infinity(), R
        if T.is_infinity():
            assert X != f.zero
        else:
            assert X == f.vmul(_raw(f, T)[0], Z), R
    assert E.field.traceable or m == 2


# the (p, r, m, a4, a6) of the benchmark's pairings
_CELLS = [(101, 4, 4, 1, 19), (7, 3, 3, 1, 3), (31, 3, 3, 4, 20),
          (2221, 3, 3, 1668, 2145)]


@pytest.mark.parametrize("p,r,m,a4,a6", _CELLS + [
    (13, 2, 2, 2, 3), (13, 2, 4, 2, 3), (13, 2, 8, 2, 3)])
def test_x_multiple_kernel_matches_the_routine(p, r, m, a4, a6):
    """_x_multiple_kernel(f, m)(A, B, x, c) is _x_multiple(f, m, A, B, x,
    c) at 200 draws and at every point (e, 0) of the cubic's roots in
    F_q (_cubic_roots), where for even m [m]R = O: Z = 0 and X != 0."""
    f = get_tower(p, r)
    assert f.traceable
    E = Curve(f, a4, a6)
    kernel = _x_multiple_kernel(f, m)
    rng = random.Random(f"x-multiple{p},{r},{m}")
    points = [E.draw_point(rng)[:2] for _ in range(200)]
    points += [(e, f.zero) for e in pairing._cubic_roots(f, a4, a6)]
    for x, c in points:
        X, Z = _x_multiple(f, m, a4, a6, x, c)
        assert kernel(a4, a6, x, c) == (X, Z), x
        if c == f.zero and m % 2 == 0:
            assert Z == f.zero and X != f.zero, x
    assert points[200:]


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_certificate_kernel_matches_the_interpreted_one(monkeypatch, m):
    """_settle certifies an attempt, by the x-multiple kernel and
    interpreted (the tower's traceable flag cleared) alike, exactly where
    the two-point certificate it replaced (_separated, and its kernel,
    kept as the oracle) does: on random draw pairs, and never on
    degenerate pairs S = R + T with T in E[m], where [m]S = [m]R.  The
    draws are stubbed to return each pair in turn and the exact fallback
    to raise, so _settle returns only on a certified attempt."""
    q, a4, a6 = 13, 2, 3
    rng = random.Random(59)
    E, B1, B2 = _basis(q, a4, a6, m, rng)
    f = E.field
    assert f.traceable
    torsion = [T for T in _all_of_torsion(E, B1, B2, m) if not T.is_infinity()]
    pairs = [(E.draw_point(rng), E.draw_point(rng)) for _ in range(200)]
    degenerate = []
    for _ in range(100):
        R = E.random_point(rng)
        S = point_add(E, R, rng.choice(torsion))
        if not (R.is_infinity() or S.is_infinity()):
            degenerate.append(tuple((x, f.vmul(y, y), 0, 0)
                                    for x, y in (_raw(f, R), _raw(f, S))))
    assert len(degenerate) > 90

    class Inconclusive(Exception):
        pass

    def inconclusive(*args):
        raise Inconclusive

    feed = [iter(())]
    monkeypatch.setattr(pairing, "_draw", lambda *args: next(feed[0]))
    monkeypatch.setattr(pairing, "_draw_kernel",
                        lambda f: lambda *args: next(feed[0]))
    monkeypatch.setattr(pairing, "_lift", lambda f, drawn: drawn)
    monkeypatch.setattr(pairing, "_shifted_value", inconclusive)
    plan = (f, E.a4.value, E.a6.value, "P", "Q", m, "value", a4, a6, ())

    def settles(R, S, traceable):
        feed[0] = iter((R, S))
        monkeypatch.setattr(f, "traceable", traceable)
        try:
            return pairing._settle(plan, None) == "value"
        except Inconclusive:
            return False

    want = [_separated(f, m, a4, a6, *R[:2], *S[:2])
            for R, S in pairs + degenerate]
    clear_caches()
    assert [settles(R, S, True) for R, S in pairs + degenerate] == want
    assert cache_stats()["curves._x_multiple_kernel"]["misses"] == 1
    assert [settles(R, S, False) for R, S in pairs + degenerate] == want
    kernel = _certificate_kernel(f, m)
    assert [kernel(a4, a6, *R[:2], *S[:2])
            for R, S in pairs + degenerate] == want
    assert not any(want[len(pairs):])
    assert sum(want[:len(pairs)]) > len(pairs) // 2


def test_a_cold_pairing_builds_one_x_multiple_kernel_per_tower_and_m():
    """Cold weil_pairing calls on traceable towers leave one
    curves._x_multiple_kernel entry per (tower, m), built once however
    many pairings settle there."""
    clear_caches()
    keys = set()
    for q, a4, a6, m in ((13, 2, 3, 3), (13, 2, 3, 4), (13, 2, 3, 5),
                         (11, 1, 9, 4)):
        rng = random.Random(f"cold{q},{m}")
        E, P, Q = _basis(q, a4, a6, m, rng)
        assert E.field.traceable
        for _ in range(5):
            weil_pairing(E, P, Q, m, rng)
        keys.add((E.field, m))
    stats = cache_stats()["curves._x_multiple_kernel"]
    assert stats["entries"] == stats["misses"] == len(keys) >= 3


def _int_descent(f, e, xR, xS):
    """The descent test on a root e given as an int of F_p, as it read
    before the roots became raw values (kept as the oracle): N(e^2 + xR xS
    - e xR - e xS) a nonzero non-residue of F_p."""
    return f.vis_nonsquare(f.vlin(e * e, ((1, f.vmul(xR, xS)), (-e, xR),
                                          (-e, xS))))


def _old_replay(f, a4, a6, A, B, e, e2, m, rng):
    """One attempt as it ran before _settle ran the attempt's parts itself
    (kept as the oracle): R, then S, drawn as Curve.draw_point draws them,
    and whether the descent test with the int root e, the one with the
    raw root e2 or the x-multiple certificate separates them; False when
    A is None."""
    R, S = _draw(f, a4, a6, rng), _draw(f, a4, a6, rng)
    return R, S, A is not None and (
        e is not None and _int_descent(f, e, R[0], S[0])
        or e2 is not None and pairing._descent_separates(f, e2, R[0], S[0])
        or _separated(f, m, A, B, *R[:2], *S[:2]))


# the benchmark's pairings (_CELLS), each cubic with one root in F_p, and
# at (101, 4) two more in F_{101^2}; y^2 = x^3 + 3x + 2 at m = 3 over
# F_{7^3}, where the cubic has no root in F_7 and the certificate is at
# times inconclusive, so the exact fallback runs; and a4 = 2 + t over
# F_{11^2}, outside F_11, where no attempt is certified
@pytest.mark.parametrize("p,r,m,a4,a6", _CELLS + [
    (7, 3, 3, 3, 2), (11, 2, 3, (2, 1), 1)])
def test_replay_matches_two_draws_and_the_certificate(monkeypatch, p, r, m,
                                                     a4, a6):
    """Over 1,000 attempts _settle certifies the attempts that the old
    interpreted attempt (_old_replay: two draws, the descent test with
    the least root of the cubic in F_p as an int, the one with the next
    root in F_q, at (101, 4) only, then the certificate) certifies, and
    leaves the generator in the state it leaves it in: by the kernels,
    interpreted with the tower's traceable flag cleared, and by the
    kernels for a generator with a randrange of its own.  The exact
    fallback is stubbed inconclusive, so each settle returns at the first
    certified attempt, or raises after 200 attempts, and the generator
    states tell every decision apart."""
    f = get_tower(p, r)
    E = Curve(f, FieldElement(f, a4) if isinstance(a4, tuple) else a4, a6)
    ints = (a4, a6) if isinstance(a4, int) else (None, None)
    roots = pairing._cubic_roots(f, *ints)[:2] if ints[0] is not None else ()
    assert len(roots) == (2 if p == 101 else 0 if a6 == 2 or not ints[0]
                          else 1)
    e = roots[0][0] if roots else None
    assert e is None or roots[0] == f.from_int(e)
    e2 = roots[1] if len(roots) > 1 else None
    plan = (f, E.a4.value, E.a6.value, "P", "Q", m, "value", *ints, roots)
    monkeypatch.setattr(pairing, "_shifted_value", lambda *args: None)
    seed = f"replay{p},{r}"
    oracle = random.Random(seed)
    paths = [(True, random.Random(seed)), (False, random.Random(seed)),
             (True, _OwnRandrange(seed))]
    attempts = settles = certified = 0
    while attempts < 1000:
        for n in range(1, 201):
            decision = _old_replay(f, E.a4.value, E.a6.value, *ints, e, e2, m,
                                   oracle)[2]
            if decision:
                break
        attempts, settles = attempts + n, settles + 1
        certified += decision
        for traceable, rng in paths:
            monkeypatch.setattr(f, "traceable", traceable)
            try:
                got = pairing._settle(plan, rng)
            except RuntimeError:
                got = None
            assert got == ("value" if decision else None), settles
            assert rng.getstate() == oracle.getstate(), settles
    assert bool(certified) == (ints[0] is not None)
    assert p != 7 or attempts > settles, "no inconclusive certificate"


def test_a_settled_plan_matches_the_reference(monkeypatch):
    """A plan built once per pair of E[3] on y^2 = x^3 + 3x + 2 over
    F_{7^3}, where the certificate is at times inconclusive, and settled
    over and over, as a cell record's is, gives over 1,000 calls the
    value and generator state of the reference.  The plan of arguments
    outside E[m] raises ValueError on every settle, after the reference's
    draws, and one with an argument at infinity raises when it is built."""
    E, B1, B2 = _basis(7, 3, 2, 3, random.Random(31))
    f = E.field
    assert f.r == 3
    pts = _all_of_torsion(E, B1, B2, 3)
    pairs = [(P, Q) for P in pts for Q in pts]
    plans = [pairing._plan(f, E.a4.value, E.a6.value, _raw(f, P), _raw(f, Q),
                           3) for P, Q in pairs]
    calls = [0]
    shifted = pairing._shifted_value

    def counted(*args):
        calls[0] += 1
        return shifted(*args)

    monkeypatch.setattr(pairing, "_shifted_value", counted)
    ours, ref = random.Random(61), random.Random(61)
    for i in range(1000):
        P, Q = pairs[i % len(pairs)]
        assert pairing._settle(plans[i % len(pairs)], ours).value == \
            _oracle_pairing(E, P, Q, 3, ref)[0], (P, Q)
        assert ours.getstate() == ref.getstate(), (P, Q)
    assert calls[0] > 0, "the certificate never failed to decide"

    E, P, Q = _basis(13, 2, 3, 5, random.Random(19))
    f = E.field
    plan = pairing._plan(f, E.a4.value, E.a6.value, _raw(f, P), _raw(f, Q), 3)
    ours, ref = random.Random(41), random.Random(41)
    for _ in range(3):
        with pytest.raises(ValueError):
            pairing._settle(plan, ours)
        with pytest.raises(ValueError):
            _oracle_pairing(E, P, Q, 3, ref)
        assert ours.getstate() == ref.getstate()
    for _ in range(2):
        with pytest.raises(ValueError):
            pairing._plan(f, E.a4.value, E.a6.value, None, _raw(f, Q), 3)


# curves whose cubic has a root in F_q, with m and a tower F_{q^r}, r = 2-4,
# holding E[m]: one root at (11, 0, 1) and (7, 1, 3), whose other two lie
# in F_{q^2}, inside F_{q^r} at r = 2 and 4; three at (11, 1, 9), (13, 7, 9)
# and (11, 1, 2).  For even m a root qualifies only when x - e is a nonzero
# square at both arguments: at (11, 1, 2), E[2] over F_{11^3}, a pair of
# the points (e', 0) keeps at most the third root
_DESCENT_CURVES = [(11, 0, 1, 3, 2), (11, 1, 9, 5, 3), (7, 1, 3, 4, 4),
                   (13, 7, 9, 4, 2), (11, 1, 2, 2, 3)]


# the towers of _DESCENT_CURVES, and two at r = 3: (7, 1, 3), whose quadratic
# factor splits only in F_{7^2}, and (7, 3, 2), an irreducible cubic whose
# roots lie in F_{7^3} but are left out
@pytest.mark.parametrize("q,a4,a6,r", [c[:3] + c[4:] for c in _DESCENT_CURVES]
                         + [(7, 1, 3, 3), (7, 3, 2, 3)])
def test_cubic_roots_match_a_search_of_the_field(q, a4, a6, r):
    """_cubic_roots lists the roots in F_{q^r} of x^3 + a4 x + a6 that a
    search of every value of the field finds, those in F_q first, least
    first, and none where the cubic has no root in F_q."""
    f = get_tower(q, r)
    roots = pairing._cubic_roots(f, a4, a6)
    found = []
    for n in range(f.size):     # rank order: F_q first, least first
        x = f.unrank(n)
        if f.vlin(a6, ((1, f.vmul(f.vmul(x, x), x)), (a4, x))) == f.zero:
            found.append(x)
    assert len(found) == 3 or r % 2
    rational = [x for x in found if x == f.from_int(x[0])]
    if rational:
        assert roots[:len(rational)] == tuple(rational)
        assert sorted(roots) == sorted(found)
    else:
        assert roots == () and len(found) == 3


def _descent_plans(q, a4, a6, m, r, rng):
    """E over F_{q^r}, and the plans that keep a descent root among those
    of the basis pair of E[m] and of 12 random pairs of finite points of
    E[m].  Each plan's roots are checked against the first two roots of
    the cubic in F_{q^r} (_cubic_roots) at which (x - e)^((q^r - 1)/2) = 1
    at both points."""
    E = curve_over(q, a4, a6, r)
    B1, B2 = torsion_basis(E, m, extension_order(
        q, count_points(curve_over(q, a4, a6))[1], r), rng)
    pairs = [(B1, B2)]
    while len(pairs) < 13:
        P, Q = (point_add(E, scalar_mul(E, rng.randrange(m), B1),
                          scalar_mul(E, rng.randrange(m), B2))
                for _ in range(2))
        if not (P.is_infinity() or Q.is_infinity()):
            pairs.append((P, Q))
    f = E.field
    half = (f.size - 1) // 2
    plans = []
    for P, Q in pairs:
        plan = pairing._plan(f, E.a4.value, E.a6.value, _raw(f, P),
                             _raw(f, Q), m)
        usable = [x for x in pairing._cubic_roots(f, a4, a6) if all(
            (T.x - FieldElement(f, x)) ** half == 1 for T in (P, Q))][:2]
        assert plan[9] == tuple(usable), (P, Q)
        if plan[9]:
            plans.append(plan)
    assert plans
    return E, plans


@pytest.mark.parametrize("q,a4,a6,m,r", _DESCENT_CURVES)
def test_raw_descent_matches_the_int_form(q, a4, a6, m, r):
    """At every root e in F_q of the cubic, the descent test on the raw
    root (_descent_separates, and its kernel) gives the verdict of the
    int form it replaced (_int_descent, kept as the oracle) at the x of
    200 pairs of draws and where x_R or x_S is e itself."""
    E = curve_over(q, a4, a6, r)
    f = E.field
    kernel = pairing._descent_kernel(f)
    rng = random.Random(f"int form{q},{r}")
    roots = [x for x in range(q) if (x ** 3 + a4 * x + a6) % q == 0]
    assert roots
    verdicts = set()
    for e in roots:
        raw = f.from_int(e)
        xs = [(E.draw_point(rng)[0], E.draw_point(rng)[0])
              for _ in range(200)]
        xs += [(raw, x) for x, _ in xs[:20]] + [(raw, raw)]
        for xR, xS in xs:
            want = _int_descent(f, e, xR, xS)
            assert pairing._descent_separates(f, raw, xR, xS) == want
            assert kernel(raw, xR, xS) == want
            verdicts.add(want)
    assert verdicts == {False, True}


@pytest.mark.parametrize("q,a4,a6,m,r", _DESCENT_CURVES)
def test_descent_never_certifies_a_planted_degenerate_pair(q, a4, a6, m, r):
    """For P, Q in E[m] whose plan keeps a descent root e, S = R - D with
    D in <P, Q> (O, +-P, +-Q, P - Q and random combinations) is never
    separated by the descent test with that root, interpreted or traced:
    the order-2 Tate pairing with (e, 0) is trivial on <P, Q>.  Random
    pairs are separated about half the time by each root, the first kept
    and the second alike."""
    rng = random.Random(f"planted{q},{m}")
    E, plans = _descent_plans(q, a4, a6, m, r, rng)
    f = E.field
    assert 2 <= f.r <= 4 and f.traceable
    kernel = pairing._descent_kernel(f)
    planted, separated, drawn = [0, 0], [0, 0], [0, 0]
    for plan in plans:
        P, Q = (_point(f, T) for T in plan[3:5])
        shifts = [CurvePoint.infinity(), P, -P, Q, -Q, point_add(E, P, -Q)]
        shifts += [point_add(E, scalar_mul(E, rng.randrange(m), P),
                             scalar_mul(E, rng.randrange(m), Q))
                   for _ in range(10)]
        for i, e in enumerate(plan[9]):
            for _ in range(10):
                R = E.random_point(rng)
                xR = _raw(f, R)[0]
                for D in shifts:
                    S = point_add(E, R, -D)
                    if S.is_infinity():
                        continue
                    xS = _raw(f, S)[0]
                    assert not pairing._descent_separates(f, e, xR, xS), \
                        (R, D)
                    assert not kernel(e, xR, xS), (R, D)
                    planted[i] += 1
                xS = _raw(f, E.random_point(rng))[0]
                got = pairing._descent_separates(f, e, xR, xS)
                assert kernel(e, xR, xS) == got
                separated[i] += got
                drawn[i] += 1
    for i in (0, 1):
        assert planted[i] > 150, (i, planted)
        assert 0.25 < separated[i] / drawn[i] < 0.75, (i, separated, drawn)


class _OwnRandrange(random.Random):
    """random.Random's stream through a randrange of its own, which the
    kernels and the interpreted attempt parts read alike."""

    def randrange(self, *args):
        return super().randrange(*args)


def test_settle_runs_the_kernels_for_a_generator_with_its_own_randrange(
        monkeypatch):
    """On a traceable tower _settle picks its parts by the tower alone: a
    generator with a randrange of its own builds the draw kernel and, over
    300 settles of a basis pair of E[3] over F_{7^3}, gets the value and
    generator state that the interpreted parts (the tower's traceable flag
    cleared) give a random.Random, every read through its randrange."""
    E, B1, B2 = _basis(7, 3, 2, 3, random.Random(31))
    f = E.field
    assert f.traceable
    plan = pairing._plan(f, E.a4.value, E.a6.value, _raw(f, B1), _raw(f, B2),
                         3)
    calls = []

    class Seen(_OwnRandrange):
        def randrange(self, *args):
            calls.append(args)
            return super().randrange(*args)

    clear_caches()
    own, ref = Seen("own"), random.Random("own")
    for i in range(300):
        monkeypatch.setattr(f, "traceable", True)
        got = pairing._settle(plan, own)
        monkeypatch.setattr(f, "traceable", False)
        assert got == pairing._settle(plan, ref), i
        assert own.getstate() == ref.getstate(), i
    assert cache_stats()["curves._draw_kernel"]["entries"] == 1
    replay = random.Random("own")
    for args in calls:
        replay.randrange(*args)
    assert replay.getstate() == own.getstate()


def _oracle_settle(plan, rng, counts):
    """_settle as it ran interpreted with the two-point certificate
    (_separated, kept as the oracle), adding to counts its attempts and
    those that reach the certificate."""
    f, a4, a6, P, Q, m, value, A, B, roots = plan
    for _ in range(200):
        R, S = _draw(f, a4, a6, rng), _draw(f, a4, a6, rng)
        counts["attempts"] += 1
        if A is not None:
            if any(pairing._descent_separates(f, e, R[0], S[0])
                   for e in roots):
                return value
            counts["certificates"] += 1
            if _separated(f, m, A, B, *R[:2], *S[:2]):
                return value
        shifted = pairing._shifted_value(f, a4, P, Q, m, _lift(f, R),
                                         _lift(f, S))
        if shifted is not None:
            return pairing._checked(f, shifted, m)
    raise RuntimeError("could not find nondegenerate shift points")


@pytest.mark.parametrize("q,a4,a6,m,r", _DESCENT_CURVES)
def test_descent_settles_as_the_x_multiple_certificate_alone(
        q, a4, a6, m, r, monkeypatch):
    """Over 2,000 attempts, settling plans that keep descent roots, with
    both roots, the first alone and none (the x-multiple certificate
    alone), by the kernels and interpreted (the tower's traceable flag
    cleared) alike, returns the value, and leaves the generator state, of
    the oracle (_oracle_settle), and the three oracle streams agree.
    Each descent test spares the certificate a share of the attempts: it
    runs on every attempt with no root, on fewer with the first root and
    on fewer still with both.  Interpreted, _settle itself runs the
    x-multiple twice per certificate (pairing._x_multiple, counted here)
    exactly as often as the oracle certifies.  A settle makes at least
    one attempt, so 2,000 settles reach the 2,000 attempts."""
    E, plans = _descent_plans(q, a4, a6, m, r,
                              random.Random(f"settle{q},{m}"))
    f = E.field
    seed = f"settle{q},{a4},{a6},{m}"
    counts = {roots: {"attempts": 0, "certificates": 0}
              for roots in (2, 1, 0)}
    multiples = {roots: 0 for roots in counts}
    settling = []

    def counted(*args):
        multiples[settling[-1]] += 1
        return _x_multiple(*args)

    monkeypatch.setattr(pairing, "_x_multiple", counted)
    oracles = {roots: random.Random(seed) for roots in counts}
    rngs = [(roots, traceable, random.Random(seed))
            for traceable in (True, False) for roots in counts]
    for i in range(2000):
        if counts[2]["attempts"] >= 2000:
            break
        plan = plans[i % len(plans)]
        want = {roots: _oracle_settle(plan[:9] + (plan[9][:roots],), rng,
                                      counts[roots])
                for roots, rng in oracles.items()}
        assert want[0] == want[1] == want[2], i
        assert len({repr(rng.getstate()) for rng in oracles.values()}) == 1
        for roots, traceable, rng in rngs:
            monkeypatch.setattr(f, "traceable", traceable)
            settling.append(roots)
            got = pairing._settle(plan[:9] + (plan[9][:roots],), rng)
            assert got == want[roots], i
            assert rng.getstate() == oracles[roots].getstate(), i
    assert counts[2]["attempts"] >= 2000, counts
    attempts = {roots: c["attempts"] for roots, c in counts.items()}
    certificates = {roots: c["certificates"] for roots, c in counts.items()}
    assert multiples == {roots: 2 * n for roots, n in certificates.items()}
    assert attempts[0] == attempts[1] == attempts[2] == certificates[0]
    assert certificates[0] > certificates[1] > certificates[2], certificates
    assert 0.2 < 1 - certificates[2] / attempts[2] < 0.9, certificates


# random_point(random.Random(2024)) twenty times, as (rank x, rank y), and
# the SHA-256 of repr(getstate()) after them, recorded before the draw and
# the square root were split: the stream must not move
_FROZEN_STREAMS = {
    (101, 4, 1, 3): (
        [(24388171, 12604133), (101631958, 92169758), (71562272, 61132245),
         (85382317, 47145668), (55817408, 8507212), (41544307, 11296777),
         (69706074, 43969715), (103934715, 35350533), (92505884, 102827903),
         (87579827, 80696858), (55285684, 34140945), (103440128, 76029495),
         (97350372, 72321668), (102382782, 71452067), (52385989, 9715426),
         (26997570, 3792942), (57285048, 30553574), (76193838, 60482266),
         (54623280, 8812931), (30228474, 34155065)],
        "0114c68121e98143012c623429da42cae9c4351f9f3c95cc89b9a74d2ea8f6d2"),
    # the fifth point has y = 0: a zero right-hand side still draws a sign
    (7, 3, 3, 2): (
        [(155, 95), (272, 153), (325, 166), (181, 256), (315, 0), (169, 300),
         (105, 54), (334, 105), (272, 153), (210, 263), (178, 78), (63, 149),
         (169, 50), (162, 120), (104, 82), (115, 148), (132, 189), (291, 84),
         (314, 220), (169, 300)],
        "36e2f838f92387650cc2f1c840f7acb2c8ef1d19c961cfff8c61c75c1796ed5e"),
}


@pytest.mark.parametrize("curve", sorted(_FROZEN_STREAMS))
def test_frozen_random_point_stream(curve):
    p, r, a4, a6 = curve
    E = curve_over(p, a4, a6, r=r)
    rng = random.Random(2024)
    got = []
    for _ in range(20):
        P = E.random_point(rng)
        # the rank of a value is its base-p digits, constant first
        got.append(tuple(sum(c * p ** i for i, c in enumerate(z.value))
                         for z in (P.x, P.y)))
    want, state = _FROZEN_STREAMS[curve]
    assert got == want
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == state


def test_pairing_on_a_curve_with_coefficients_outside_the_prime_field():
    """y^2 = x^3 + (2 + t) x + 1 over F_{11^2}, whose E[3] is rational:
    the x-only certificate needs a4 and a6 in F_11, so every attempt runs
    the exact path, and values and states still match the reference."""
    f = get_tower(11, 2)
    E = Curve(f, FieldElement(f, (2, 1)), 1)
    pts = [CurvePoint.infinity()]
    for i in range(f.size):
        x = FieldElement(f, f.unrank(i))
        y = E.rhs(x).sqrt()
        if y is not None:
            pts += [T for T in (E.point(x, y), E.point(x, -y))
                    if scalar_mul(E, 3, T).is_infinity() and T not in pts]
    assert len(pts) == 9
    ours, ref = random.Random(53), random.Random(53)
    for P in pts:
        for Q in pts:
            assert weil_pairing(E, P, Q, 3, ours).value == \
                _oracle_pairing(E, P, Q, 3, ref)[0]
            assert ours.getstate() == ref.getstate()
