import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from weilchar.curves import (Curve, CurvePoint, count_points, extension_order,
                             frobenius_map, point_add, sample_m_torsion,
                             scalar_mul, torsion_basis,
                             torsion_extension_degree, velu_isogeny)
from weilchar.fields import element_order, get_tower
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
