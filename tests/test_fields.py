import random

import pytest

from weilchar.fields import (FieldElement, FieldTower, Poly, PrimeField,
                             _is_prime, dlog_in_mu_m, element_order,
                             legendre_symbol, make_extension, poly_roots)


def fe(tower, level, v):
    return FieldElement(tower, level, tower.from_int(v, level))


def rand_elt(tower, level, rng):
    return FieldElement(tower, level, tower.random_value(level, rng))


def test_is_prime_table():
    primes = {2, 3, 5, 7, 11, 13, 101, 1009, 2221, 120121}
    for n in range(2, 120):
        assert _is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert _is_prime(n)
    for n in (1, 0, -7, 561, 1105, 2465, 120121 * 3):
        assert not _is_prime(n)


def test_legendre_symbol_matches_euler():
    for m in (3, 5, 7, 11, 13, 101):
        for n in range(0, 3 * m):
            want = pow(n, (m - 1) // 2, m)
            want = -1 if want == m - 1 else want
            assert legendre_symbol(n, m) == want


@pytest.mark.parametrize("p,levels", [(7, [2]), (5, [3]), (13, [2, 3])])
def test_tower_axioms(p, levels):
    rng = random.Random(p)
    for r in levels:
        tower = make_extension(FieldTower(PrimeField(p), []), r)
        assert tower.size(1) == p ** r
        for _ in range(40):
            a, b, c = (rand_elt(tower, 1, rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) ** p == a ** p + b ** p
            zero = a - a
            assert a + zero == a
            if a != zero:
                one = a / a
                assert a * (one / a) == one
                assert a * a.inverse() == one


def test_base_field_embeds_in_extension():
    base = FieldTower(PrimeField(7), [])
    tower = make_extension(FieldTower(PrimeField(7), []), 2)
    for v in range(7):
        lifted = FieldElement(tower, 1, tower.lift(base.from_int(v, 0), 0, 1))
        assert lifted == fe(tower, 1, v)
    # lifted elements multiply like the base field does
    a = fe(tower, 1, 3)
    b = fe(tower, 1, 5)
    assert a * b == fe(tower, 1, 15 % 7)


def test_frobenius_fixed_field():
    tower = make_extension(FieldTower(PrimeField(5), []), 3)
    rng = random.Random(2)
    for _ in range(20):
        a = rand_elt(tower, 1, rng)
        assert a ** (5 ** 3) == a
        if a ** 5 == a:
            # fixed by x -> x^5 means it lies in F_5
            assert any(a == fe(tower, 1, v) for v in range(5))


def test_sqrt_on_prime_field():
    t13 = FieldTower(PrimeField(13), [])
    squares = {(v * v) % 13 for v in range(13)}
    for v in range(13):
        s = fe(t13, 0, v).sqrt()
        if v in squares:
            assert s is not None and s * s == fe(t13, 0, v)
        else:
            assert s is None


def test_sqrt_on_extension():
    tower = make_extension(FieldTower(PrimeField(7), []), 2)
    rng = random.Random(3)
    hits = 0
    for _ in range(60):
        a = rand_elt(tower, 1, rng)
        sq = a * a
        s = sq.sqrt()
        assert s is not None and (s == a or s == -a)
        if a.sqrt() is not None:
            hits += 1
    # about half the nonzero elements are squares
    assert 15 <= hits <= 50


def test_poly_arithmetic_and_roots():
    t13 = FieldTower(PrimeField(13), [])
    rng = random.Random(4)
    for _ in range(25):
        coeffs = [rng.randrange(13) for _ in range(4)] + [1]
        f = Poly(t13, 0, coeffs)
        roots = poly_roots(f)
        brute = [v for v in range(13) if f(fe(t13, 0, v)).is_zero()]
        assert sorted(int(z.value) for z in roots) == sorted(brute)
        for z in roots:
            assert f(z).is_zero()
    # degree bookkeeping through products
    f = Poly(t13, 0, [1, 2, 1])
    g = Poly(t13, 0, [3, 1])
    assert (f * g).degree() == 3
    q, r = (f * g).divmod(g)
    assert q == f and r.is_zero()


def test_poly_roots_with_multiplicity_collapse():
    t7 = FieldTower(PrimeField(7), [])
    # (x - 2)^2 (x - 3) has root set {2, 3}
    def x_minus(c):
        return Poly(t7, 0, [(-c) % 7, 1])
    f = x_minus(2) * x_minus(2) * x_minus(3)
    roots = {int(z.value) for z in poly_roots(f)}
    assert roots == {2, 3}


def test_element_order_and_dlog():
    tower = make_extension(FieldTower(PrimeField(7), []), 2)
    # mu_3 lives in F_49 since 3 | 48; find a generator and take dlogs
    rng = random.Random(5)
    z = None
    while z is None:
        a = rand_elt(tower, 1, rng)
        if a.is_zero():
            continue
        cand = a ** (48 // 3)
        if cand != cand / cand:
            z = cand
    assert element_order(z, 3) == 3
    for k in range(3):
        assert dlog_in_mu_m(z, z ** k, 3) == k
    # mu_8 in F_49 as well
    w = None
    while w is None:
        a = rand_elt(tower, 1, rng)
        if a.is_zero():
            continue
        cand = a ** (48 // 8)
        if element_order(cand, 8) == 8:
            w = cand
    for k in range(8):
        assert dlog_in_mu_m(w, w ** k, 8) == k


def test_hash_agrees_with_equality():
    tower = make_extension(FieldTower(PrimeField(13), []), 2)
    a = fe(tower, 0, 5)
    lifted = a.at_level(1)
    assert a == lifted and hash(a) == hash(lifted)
    assert len({a, lifted}) == 1
    assert a == 5 and hash(a) == hash(5)
    # a value outside the prime field keeps its own level
    rng = random.Random(3)
    b = rand_elt(tower, 1, rng)
    while b.value[1] == 0:
        b = rand_elt(tower, 1, rng)
    assert len({b, FieldElement(tower, 1, b.value), a}) == 2
