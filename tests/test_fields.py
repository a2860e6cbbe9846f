import copy
import cProfile
import math
import os
import pstats
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weilchar
from weilchar import curves, fields, pairing, quadforms
from weilchar.fields import (UNROLLED_MUL_MAX_R, FieldElement, FieldTower,
                             SymbolicTower, _is_irreducible, _is_prime,
                             _pdivmod, _pgcd, _pmul, _ppowmod, _psub, _ptrim,
                             _serret, _unrolled_mul,
                             dlog_in_mu_m, element_order, factorize,
                             get_tower, legendre_symbol)
from weilchar.memo import cache_stats, clear_caches
from weilchar.quadforms import class_group


def rand_elt(tower, rng):
    return FieldElement(tower, tower.random_value(rng))


def test_is_prime_table():
    primes = {2, 3, 5, 7, 11, 13, 101, 1009, 2221, 120121}
    for n in range(2, 120):
        assert _is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert _is_prime(n)
    for n in (1, 0, -7, 561, 1105, 2465, 120121 * 3):
        assert not _is_prime(n)


def test_is_prime_runs_one_trial_division_per_modulus(monkeypatch):
    """_is_prime is a memo entry, so over 200 warm operations of
    perfbench's sqrt-recover workload (seed 3), where every chi value asks
    legendre_symbol to check its modulus, factorize runs at most once on
    each modulus."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    from workloads import SqrtRecover
    work = SqrtRecover()
    state = work.setup(3)
    for i in range(work.warm_ops):
        work.op(state, i, warm=True)
    moduli, factored = [], []
    legendre, factor = quadforms.legendre_symbol, fields.factorize

    def checked(n, m):
        moduli.append(m)
        return legendre(n, m)

    def counted(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(quadforms, "legendre_symbol", checked)
    monkeypatch.setattr(fields, "factorize", counted)
    for i in range(200):
        work.op(state, i)
    assert len(moduli) > 100
    assert all(factored.count(m) <= 1 for m in set(moduli)), factored


@pytest.mark.parametrize("p,r,match", [
    (9, 2, "9 is not prime"), (4, 3, "out of the supported range"),
    (2**32 + 15, 2, "out of the supported range"),
])
def test_get_tower_checks_p_before_the_modulus_search(monkeypatch, p, r,
                                                      match):
    """An extension over a p that F_p refuses raises F_p's ValueError
    before make_extension runs (over Z/9 its irreducibility test never
    ends), and leaves no tower behind."""
    def searched(*args):
        raise AssertionError("make_extension ran")

    monkeypatch.setattr(fields, "make_extension", searched)
    built = dict(fields._towers)
    with pytest.raises(ValueError, match=match):
        get_tower(p, r)
    assert fields._towers == built


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
        tower = get_tower(p, r)
        assert tower.size == p ** r
        for _ in range(40):
            a, b, c = (rand_elt(tower, rng) for _ in range(3))
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
    base = get_tower(7, 1)
    tower = get_tower(7, 2)
    for v in range(7):
        lifted = tower(base(v))
        assert lifted == tower(v)
    # lifted elements multiply like the base field does
    a = tower(3)
    b = tower(5)
    assert a * b == tower(15 % 7)


def test_frobenius_fixed_field():
    tower = get_tower(5, 3)
    rng = random.Random(2)
    for _ in range(20):
        a = rand_elt(tower, rng)
        assert a ** (5 ** 3) == a
        if a ** 5 == a:
            # fixed by x -> x^5 means it lies in F_5
            assert any(a == tower(v) for v in range(5))


def test_sqrt_on_prime_field():
    t13 = get_tower(13, 1)
    squares = {(v * v) % 13 for v in range(13)}
    for v in range(13):
        s = t13(v).sqrt()
        if v in squares:
            assert s is not None and s * s == t13(v)
        else:
            assert s is None


def test_sqrt_on_extension():
    tower = get_tower(7, 2)
    rng = random.Random(3)
    hits = 0
    for _ in range(60):
        a = rand_elt(tower, rng)
        sq = a * a
        s = sq.sqrt()
        assert s is not None and (s == a or s == -a)
        if a.sqrt() is not None:
            hits += 1
    # about half the nonzero elements are squares
    assert 15 <= hits <= 50


def _peval(p, coeffs, v):
    return sum(c * v ** i for i, c in enumerate(coeffs)) % p


def test_poly_arithmetic_and_roots():
    p = 13
    rng = random.Random(4)
    for _ in range(25):
        f = [rng.randrange(p) for _ in range(4)] + [1]
        g = _ptrim([rng.randrange(p) for _ in range(3)])
        fg = _pmul(p, f, g)
        for v in range(p):
            assert _peval(p, fg, v) == _peval(p, f, v) * _peval(p, g, v) % p
            assert _peval(p, _psub(p, f, g), v) == \
                (_peval(p, f, v) - _peval(p, g, v)) % p
        if g != [0]:
            assert _pdivmod(p, fg, g) == (f, [0])
        # square-and-multiply against repeated products
        e = rng.randrange(1, 40)
        acc = [1]
        for _ in range(e):
            acc = _pdivmod(p, _pmul(p, acc, g), f)[1]
        assert _ppowmod(p, g, e, f) == acc
        # f is monic and divides fg
        assert _pgcd(p, f, fg) == f
    # degree bookkeeping through products
    f, g = [1, 2, 1], [3, 1]
    assert len(_pmul(p, f, g)) == 4
    assert _pgcd(p, f, _pmul(p, g, [1, 1])) == [1, 1]
    assert _pgcd(p, f, g) == [1]


def _ppowmod_oracle(p, a, e, f):
    """a^e mod f right to left, as _ppowmod ran before it went left to
    right: from [1], with a product by [1] first and a last squaring of
    the base that nothing reads."""
    acc = [1]
    base = _pdivmod(p, a, f)[1]
    while e:
        if e & 1:
            acc = _pdivmod(p, _pmul(p, acc, base), f)[1]
        base = _pdivmod(p, _pmul(p, base, base), f)[1]
        e >>= 1
    return acc


def test_ppowmod_matches_the_right_to_left_oracle(monkeypatch):
    """_ppowmod gives the oracle's power, for e = 0 and 1 among others and
    for a of degree below, at and above deg f, in bit_length(e) - 1
    squarings and popcount(e) - 1 products."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _pmul(*args)

    rng = random.Random(12)
    cases = []
    for p in (5, 13, 2221, 120121):
        for _ in range(25):
            f = _ptrim([rng.randrange(p) for _ in range(rng.randrange(1, 7))]
                       + [1])
            a = _ptrim([rng.randrange(p)
                        for _ in range(rng.randrange(1, 2 * len(f) + 2))])
            for e in (0, 1, 2, 3, p, rng.randrange(4, 10 ** 9)):
                cases.append((p, a, e, f, _ppowmod_oracle(p, a, e, f)))
    assert any(len(a) > len(f) for _, a, _, f, _ in cases)
    monkeypatch.setattr(fields, "_pmul", counted)
    for p, a, e, f, want in cases:
        calls[0] = 0
        assert _ppowmod(p, a, e, f) == want, (p, a, e, f)
        assert calls[0] == (e.bit_length() + bin(e).count("1") - 2 if e
                            else 0)


def test_element_order_and_dlog():
    tower = get_tower(7, 2)
    # mu_3 lives in F_49 since 3 | 48; find a generator and take dlogs
    rng = random.Random(5)
    z = None
    while z is None:
        a = rand_elt(tower, rng)
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
        a = rand_elt(tower, rng)
        if a.is_zero():
            continue
        cand = a ** (48 // 8)
        if element_order(cand, 8) == 8:
            w = cand
    for k in range(8):
        assert dlog_in_mu_m(w, w ** k, 8) == k


def _bsgs(f, b, t, m):
    """Discrete log of t to the base b in mu_m by baby-step giant-step on
    raw values, the way dlog_in_mu_m took it before its table."""
    step = 1
    while step * step < m:
        step += 1
    table = {}
    cur = f.one
    for j in range(step):
        table.setdefault(cur, j)
        cur = f.vmul(cur, b)
    giant = f.vpow(f.vinv(b), step)
    cur = t
    for i in range(step + 1):
        j = table.get(cur)
        if j is not None:
            return (i * step + j) % m
        cur = f.vmul(cur, giant)
    raise ValueError("discrete log not found")


def _of_order(f, m, rng):
    """A raw value of f of exact multiplicative order m (m | q - 1)."""
    assert (f.size - 1) % m == 0
    while True:
        v = f.vpow(f.random_value(rng), (f.size - 1) // m)
        if v != f.zero and all(f.vpow(v, m // ell) != f.one
                               for ell, _ in factorize(m)):
            return v


@pytest.mark.parametrize("p,r,m", [(7, 2, 3), (7, 2, 8), (101, 4, 4),
                                   (101, 2, 17), (31, 3, 9), (2221, 3, 37)])
def test_dlog_table_matches_baby_step_giant_step(p, r, m):
    """Every element of mu_m, against every generator of it: the walk over
    the generator's powers returns the BSGS log, each generator's order is
    taken once, and each keeps its m logs."""
    f = get_tower(p, r)
    b = _of_order(f, m, random.Random(f"mu{p},{r},{m}"))
    gens = [f.vpow(b, k) for k in range(1, m) if math.gcd(k, m) == 1]
    clear_caches()
    for g in gens:
        for k in range(m):
            t = f.vpow(g, k)
            assert dlog_in_mu_m(FieldElement(f, g), FieldElement(f, t), m) \
                == _bsgs(f, g, t, m) == k
    stats = cache_stats()["fields.element_order"]
    assert (stats["misses"], stats["entries"]) == (len(gens), len(gens))
    assert cache_stats()["fields._dlog"]["entries"] == len(gens) * m


def test_dlog_errors_keep_their_messages_and_order():
    """The target is checked before the base, and a base of the wrong
    order raises on every call, since no log is kept for a call that
    raises: only the order of the base of order 2 is kept."""
    f = get_tower(101, 4)
    rng = random.Random(3)
    b = FieldElement(f, _of_order(f, 4, rng))
    square = b * b                       # order 2
    outside = FieldElement(f, _of_order(f, 3, rng))
    clear_caches()
    for _ in range(2):
        with pytest.raises(ValueError, match="target is not an m-th root"):
            dlog_in_mu_m(b, outside, 4)
        with pytest.raises(ValueError, match="target is not an m-th root"):
            dlog_in_mu_m(square, outside, 4)
        with pytest.raises(ValueError, match="base does not have exact order"):
            dlog_in_mu_m(square, b, 4)
        with pytest.raises(ValueError, match="element order does not divide"):
            dlog_in_mu_m(outside, b * b, 4)
    assert cache_stats()["fields._dlog"]["entries"] == 0
    assert cache_stats()["fields.element_order"]["entries"] == 1
    assert dlog_in_mu_m(b, square, 4) == 2


@pytest.mark.parametrize("p,r,m", [(101, 4, 4), (7, 2, 8), (2221, 3, 37)])
def test_a_target_outside_mu_m_raises_cold_and_warm(p, r, m):
    """A target that is no m-th root of unity raises before the base's
    order is taken, and again once that order and the log of every root
    are kept, and keeps no entry."""
    f = get_tower(p, r)
    rng = random.Random(f"outside{p},{r},{m}")
    b = FieldElement(f, _of_order(f, m, rng))
    outside = FieldElement(f, f.zero)
    while outside.is_zero() or outside ** m == f(1):
        outside = FieldElement(f, f.random_value(rng))
    clear_caches()
    with pytest.raises(ValueError, match="target is not an m-th root"):
        dlog_in_mu_m(b, outside, m)
    assert cache_stats()["fields._dlog"]["entries"] == 0
    assert cache_stats()["fields.element_order"]["entries"] == 0
    assert [dlog_in_mu_m(b, b ** k, m) for k in range(m)] == list(range(m))
    assert cache_stats()["fields.element_order"]["entries"] == 1
    assert cache_stats()["fields._dlog"]["entries"] == m
    for _ in range(2):
        with pytest.raises(ValueError, match="target is not an m-th root"):
            dlog_in_mu_m(b, outside, m)
    assert [dlog_in_mu_m(b, b ** k, m) for k in range(m)] == list(range(m))
    stats = cache_stats()["fields._dlog"]
    assert (stats["entries"], stats["hits"]) == (m, m)


def test_hash_agrees_with_equality():
    tower = get_tower(13, 2)
    a = get_tower(13, 1)(5)
    lifted = tower(a)
    assert a == lifted and hash(a) == hash(lifted)
    assert len({a, lifted}) == 1
    assert a == 5 and hash(a) == hash(5)
    # a value outside the prime field keeps its own hash
    rng = random.Random(3)
    b = rand_elt(tower, rng)
    while b.value[1] == 0:
        b = rand_elt(tower, rng)
    assert len({b, FieldElement(tower, b.value), a}) == 2


def test_int_equality_only_for_canonical_representative():
    # equality with an int must agree with hashing, which only the
    # representative in [0, p) can match
    a = get_tower(7, 1)(5)
    assert a == 5 and a != 12 and a != -2
    assert len({a, 5}) == 1
    assert len({a, 12}) == 2
    b = get_tower(7, 2)(5)
    assert b == 5 and b != 12 and len({b, 5}) == 1


# Recorded before the field layer was flattened (the last three before
# polynomials over F_p became int lists): the defining polynomial of each
# extension, the root that sqrt picks for seeded squares (in
# fields with q = 3 mod 4 and with q = 1 mod 4), and so the representation of
# every value an artifact is derived from.
_FROZEN_MODULI = {
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (13, 12): (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (101, 2): (2, 0, 1),
    (2221, 4): (2, 0, 0, 0, 1),
    (23, 12): (5, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (17, 9): (3, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (120121, 13): (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}

# (p, r): [(rank of a, a * a, sqrt(a * a))] for a = unrank(n), n drawn
# from random.Random(f"sqrt{p},{r}")
_FROZEN_SQRT = {
    (7, 1): [
        (3, 2,
         4),
        (1, 1,
         1),
        (3, 2,
         4),
        (5, 4,
         2),
        (6, 1,
         1),
    ],
    (7, 3): [
        (181, (2, 2, 3),
         (1, 3, 4)),
        (108, (1, 5, 6),
         (3, 1, 2)),
        (270, (5, 2, 0),
         (4, 3, 5)),
        (329, (6, 5, 4),
         (0, 2, 1)),
        (70, (2, 5, 2),
         (0, 4, 6)),
    ],
    (13, 12): [
        (10474346375045, (2, 11, 11, 6, 12, 5, 0, 2, 8, 7, 10, 4),
         (6, 8, 2, 4, 12, 8, 3, 8, 4, 1, 3, 8)),
        (6983158091440, (9, 7, 2, 8, 5, 3, 2, 12, 3, 12, 2, 8),
         (2, 7, 0, 5, 0, 10, 0, 5, 7, 5, 2, 10)),
        (16516534036344, (12, 7, 10, 2, 8, 2, 5, 1, 0, 6, 1, 10),
         (9, 10, 7, 0, 10, 1, 2, 7, 7, 3, 11, 4)),
        (5317338433703, (10, 11, 8, 9, 12, 2, 2, 12, 0, 6, 4, 2),
         (3, 3, 4, 1, 9, 0, 7, 7, 8, 6, 1, 11)),
        (11746563351411, (11, 1, 7, 5, 1, 6, 6, 12, 8, 3, 8, 11),
         (5, 2, 9, 5, 4, 6, 8, 0, 9, 2, 7, 6)),
    ],
    (101, 2): [
        (4801, (13, 26),
         (54, 47)),
        (3183, (75, 93),
         (49, 70)),
        (4422, (18, 27),
         (22, 58)),
        (2957, (11, 8),
         (73, 72)),
        (2415, (33, 91),
         (9, 78)),
    ],
}


def test_frozen_moduli():
    for (p, r), modulus in _FROZEN_MODULI.items():
        assert get_tower(p, r).modulus == modulus


def _check_frozen_square_roots(table):
    for (p, r), rows in table.items():
        tower = get_tower(p, r)
        rng = random.Random(f"sqrt{p},{r}")
        for n, square, root in rows:
            assert rng.randrange(1, p ** r) == n
            a = FieldElement(tower, tower.unrank(n))
            assert (a * a).value == square
            assert (a * a).sqrt().value == root


def test_frozen_square_roots():
    _check_frozen_square_roots(_FROZEN_SQRT)


# Recorded, like _FROZEN_SQRT, with the plain Tonelli-Shanks power in
# F_{p^r}, before square roots went through the norm: odd r with s = 4
# (p = 17) and s = 2 (p = 2221), where the loop runs in F_p; even r at the
# ddh field (101, 4); and r = 7 over the criterion-7 prime.
_FROZEN_SQRT_NORM_PATHS = {
    (17, 3): [
        (1479, (8, 7, 13),
         (0, 15, 12)),
        (359, (14, 5, 2),
         (2, 4, 1)),
        (4421, (10, 1, 0),
         (16, 12, 2)),
        (1261, (1, 8, 10),
         (3, 6, 4)),
        (470, (10, 10, 2),
         (6, 7, 16)),
    ],
    (2221, 3): [
        (9567918357, (688, 1472, 542),
         (1385, 1413, 1939)),
        (8513846910, (1327, 2172, 1175),
         (1230, 107, 496)),
        (9948044576, (1474, 1793, 2050),
         (1233, 1547, 2016)),
        (9990905087, (1345, 792, 1191),
         (886, 856, 2025)),
        (678728047, (701, 209, 1339),
         (1552, 1318, 137)),
    ],
    (101, 4): [
        (70728514, (52, 0, 40, 16),
         (32, 49, 65, 68)),
        (68841963, (74, 1, 12, 73),
         (41, 46, 19, 35)),
        (45886310, (66, 75, 34, 75),
         (91, 21, 54, 44)),
        (76522754, (12, 85, 93, 13),
         (3, 50, 27, 74)),
        (53130047, (52, 31, 54, 19),
         (7, 32, 57, 51)),
    ],
    (120121, 7): [
        (55960702759392119714910541462722212,
         (16153, 76890, 62349, 73183, 105971, 80171, 16345),
         (22498, 104838, 81117, 41829, 109363, 103137, 101493)),
        (167861964990362958851839018301067767,
         (113633, 10175, 27492, 96397, 63355, 89277, 61038),
         (104100, 71044, 78362, 84299, 82811, 86354, 55877)),
        (289648551042822297537821639484438932,
         (106039, 34606, 26808, 111624, 91547, 74919, 43984),
         (75874, 42308, 113920, 116263, 70136, 109654, 96417)),
        (168681070787469485609881753447112697,
         (59256, 50878, 16918, 75970, 19124, 68565, 58724),
         (115893, 82681, 94585, 59155, 87988, 45885, 56150)),
        (26892084951358304966597528341421065,
         (59123, 28349, 24699, 48676, 16164, 34203, 114232),
         (103219, 75110, 51750, 38352, 19199, 22862, 111170)),
    ],
}


def test_frozen_square_roots_on_both_paths():
    _check_frozen_square_roots(_FROZEN_SQRT_NORM_PATHS)


# The square root vsqrt took at odd r before every r ran Tonelli-Shanks in
# F_{p^r}, kept as the oracle: q - 1 = (p - 1) M with M odd, so t = t' M
# with t' = (p - 1)/2^s, and the loop runs in F_p on u = N(v)^t'; only the
# guess v^((t+1)/2) = v (v^((p+1)/2))^(p (1 + p^2 + ... + p^(r-3)))
# N(v)^((t'-1)/2) lives in F_{p^r}, one power by (p + 1)/2 and a Frobenius
# chain by steps of phi^2, scaled at the end by an int.

def _frobenius_sum_power_by(field, v, k, step):
    """v^(1 + p^step + ... + p^((k-1) step)) for k >= 1."""
    a, j = v, 1
    for bit in bin(k)[3:]:
        a = field.vmul(a, field.frobenius(a, j * step))
        j *= 2
        if bit == "1":
            a = field.vmul(v, field.frobenius(a, step))
            j += 1
    return a


def _int_tonelli_shanks(p, m, c, u, acc):
    """acc times the corrections b in F_p that bring the error u to 1."""
    while u != 1:
        i, z = 0, u
        while z != 1:
            z = z * z % p
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = b * b % p
        m, c = i, b * b % p
        u = u * c % p
        acc = acc * b % p
    return acc


def _norm_path_sqrt(field, v):
    p, r = field.p, field.r
    assert r % 2
    if v == field.zero:
        return v
    norm = field.vnorm(v)
    if pow(norm, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    t = (field.size - 1) >> s
    n = 2
    while s > 1 and field.vis_square(field.unrank(n)):
        n += 1
    c = None if s == 1 else pow(n, t, p)
    tp = (p - 1) >> s
    scale = _int_tonelli_shanks(p, s, c, pow(norm, tp, p),
                                pow(norm, (tp - 1) // 2, p))
    if r == 1:
        return v * scale % p
    y = field.vpow(v, (p + 1) // 2)
    guess = field.vmul(v, field.frobenius(
        _frobenius_sum_power_by(field, y, (r - 1) // 2, 2)))
    return tuple(a * scale % p for a in guess)


@pytest.mark.parametrize("p,r,count", [
    (7, 3, None), (17, 3, None), (5, 5, None), (13, 1, None), (101, 1, None),
    (2221, 3, 200), (120121, 7, 40)])
def test_odd_degree_roots_match_the_norm_path(p, r, count):
    """At odd r the one Tonelli-Shanks loop in F_{p^r} returns the root
    the norm path returned: on every value of the small fields, and on
    random squares of the larger ones."""
    field = get_tower(p, r)
    if count is None:
        values = [field.unrank(n) for n in range(field.size)]
    else:
        rng = random.Random(f"odd{p},{r}")
        values = [field.vmul(u, u) for u in (field.random_value(rng)
                                             for _ in range(count))]
    squares = 0
    for v in values:
        root = field.vsqrt(v)
        assert root == _norm_path_sqrt(field, v), v
        if root is not None:
            assert field.vmul(root, root) == v
            squares += 1
    assert squares == (len(values) if count else (field.size + 1) // 2)


@pytest.mark.parametrize("p,r", [(101, 4), (13, 1)])
def test_vpow_squares_once_per_bit(monkeypatch, p, r):
    """vpow(u, e) makes bit_length(e) - 1 squarings and popcount(e) - 1
    products, and returns what repeated products do."""
    field = get_tower(p, r)
    calls = []
    vmul = FieldTower.vmul

    def counted(self, u, v):
        calls.append(1)
        return vmul(self, u, v)

    u = field.random_value(random.Random(f"vpow{p},{r}"))
    monkeypatch.setattr(FieldTower, "vmul", counted)
    for e in (1, 2, 3, 4, 37, p, (1 << 59) + 12345):
        calls.clear()
        got = field.vpow(u, e)
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        if e < 64:
            want = field.one
            for _ in range(e):
                want = vmul(field, want, u)
            assert got == want
        else:
            assert got == field.vmul(field.vpow(u, e >> 1),
                                     field.vpow(u, e - (e >> 1)))


def test_compiling_a_kernel_makes_no_frobenius_call(monkeypatch):
    """A traced phi^k reads its rows from the tower's phi^k kernel, so
    building the draw, descent and x-multiple kernels calls no
    FieldTower.frobenius, the method the benchmarks count."""
    towers = [get_tower(120121, 3), get_tower(120121, 7), get_tower(101, 4)]
    calls = []
    frobenius = FieldTower.frobenius

    def counted(self, v, power=1):
        calls.append(power)
        return frobenius(self, v, power)

    clear_caches()
    monkeypatch.setattr(FieldTower, "frobenius", counted)
    for f in towers:
        curves._draw_kernel(f)
    pairing._descent_kernel(towers[2])
    curves._x_multiple_kernel(towers[2], 4)
    assert calls == []
    assert cache_stats()["curves._draw_kernel"]["misses"] == 3


def test_serret_matches_irreducibility_on_every_binomial():
    """Serret's criterion (_serret, ints only) agrees with _is_irreducible
    on every x^r - w, w = 0 included, for p in 5, 7, 13, 31, 101 and
    2 <= r <= 6; a tower built on one is a Kummer tower, whose norm
    descends, exactly where the binomial is irreducible and r = 2^a 3^b."""
    for p in (5, 7, 13, 31, 101):
        for r in range(2, 7):
            for w in range(p):
                modulus = (-w % p,) + (0,) * (r - 1) + (1,)
                irreducible = _is_irreducible(p, modulus)
                assert _serret(p, r, w) == irreducible, (p, r, w)
                kummer = FieldTower(p, r, modulus)._kummer
                assert kummer == (w if irreducible and r != 5 else None)


# the Kummer towers of the warm pairings and of the sqrt fill, two with
# p = 1 mod 4 at r = 12, one with l = 3 twice, and one above
# UNROLLED_MUL_MAX_R
@pytest.mark.parametrize("p,r", [(101, 4), (7, 3), (31, 3), (2221, 3),
                                 (2221, 12), (120121, 12), (37, 9), (13, 16)])
def test_descent_norm_matches_the_frobenius_chain(p, r):
    """On a Kummer tower vnorm descends through the subfields.  It equals
    the Frobenius chain (_frobenius_sum_power, kept as the oracle) on
    zero, one, values of F_p and random values, both as FieldTower.vnorm
    and traced in a kernel of other steps, with Euler's test on it."""
    f = get_tower(p, r)
    assert f._kummer == -f.modulus[0] % p and not any(f.modulus[1:r])
    rng = random.Random(f"descent{p},{r}")
    values = ([f.zero, f.one] + [f.from_int(n) for n in (2, p - 1)]
              + [f.from_int(rng.randrange(p)) for _ in range(5)]
              + [f.random_value(rng) for _ in range(100)])
    t = SymbolicTower(f)
    u, v = t.value("u"), t.value("v")
    kernel = t.compile("u, v", t.vnorm(t.vadd(u, v)), t.vnorm(u),
                       t.vis_nonsquare(u))

    def chain(a):
        n = f._frobenius_sum_power(a, r)
        assert not any(n[1:])
        return n[0]

    for a, b in zip(values, values[1:] + values[:1]):
        n = chain(a)
        assert f.vnorm(a) == n
        assert kernel(a, b) == (chain(f.vadd(a, b)), n,
                                pow(n, (p - 1) // 2, p) == p - 1)


def test_norm_outside_the_prime_field_raises():
    # over x^2 - 1 = (x - 1)(x + 1), not a field, x^p = x and the "norm"
    # of 1 + x is (1 + x)^2 = 2 + 2x; the check must survive python -O
    ring = FieldTower(7, 2, (6, 0, 1))
    assert ring.vnorm((0, 1)) == 1
    with pytest.raises(RuntimeError, match="prime field"):
        ring.vnorm((1, 1))


# The kernels that vmul, vinv, frobenius and vlin replaced, kept as
# oracles: the schoolbook product reduced by the whole modulus, extended
# Euclid by polynomial division, the sparse-row product, and the nested-loop
# linear combination.

def _schoolbook_mul(field, u, v):
    p, d = field.p, field.r
    tmp = [0] * (2 * d - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            tmp[i + j] += a * b
    f = field.modulus
    for i in range(2 * d - 2, d - 1, -1):
        c = tmp[i] % p
        for j in range(d):
            tmp[i - d + j] -= c * f[j]
    return tuple(t % p for t in tmp[:d])


def _euclid_inv(field, u):
    p = field.p
    r0, r1 = list(field.modulus), _ptrim(list(u))
    s0, s1 = [0], [1]
    while len(r1) > 1:
        q, rem = _pdivmod(p, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(p, s0, _pmul(p, q, s1))
    if not r1[0]:
        raise ZeroDivisionError("value not invertible")
    inv_lead = pow(r1[0], p - 2, p)
    return tuple(c * inv_lead % p for c in s1) + field.zero[len(s1):]


def _inplace_euclid_inv(field, u):
    """The library's former vinv: extended Euclid against the modulus on int
    lists over F_p, with s_a u = a and s_b u = b (mod the modulus)
    throughout; each elimination of a's leading term by b updates a and s_a
    in place.  ZeroDivisionError for zero, or when the gcd is not a unit."""
    if u == field.zero:
        raise ZeroDivisionError("inverse of zero")
    p, r = field.p, field.r
    a, b = list(field.modulus), list(u)
    while not b[-1]:
        b.pop()
    sa, sb = [0] * r, [1] + [0] * (r - 1)
    while len(b) > 1:
        db = len(b) - 1
        lead = pow(b[-1], -1, p)
        while len(a) > db:
            c = a.pop() * lead % p
            k = len(a) - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            for j in range(r - k):
                if sb[j]:
                    sa[k + j] = (sa[k + j] - c * sb[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b, sa, sb = b, a, sb, sa
    if not b:
        raise ZeroDivisionError("value not invertible")
    lead = pow(b[0], -1, p)
    return tuple([c * lead % p for c in sb])


def _linear_map(rows, v, p: int) -> tuple:
    """The image of v under the F_p-linear map with the given sparse rows:
    the sum of v_j times row j."""
    acc = [0] * len(v)
    for c, row in zip(v, rows):
        if c:
            for i, x in row:
                acc[i] += c * x
    return tuple([a % p for a in acc])


def _frobenius_rows(field, k: int) -> list:
    """Sparse rows of phi^k: row j holds the nonzero (i, c) of x^(j p^k),
    with x^(p^k) taken by vpow."""
    y = field.vpow((0, 1) + field.zero[2:], field.p ** k)
    rows, g = [], field.one
    for _ in range(field.r):
        rows.append(tuple((i, c) for i, c in enumerate(g) if c))
        g = field.vmul(g, y)
    return rows


def _lin_oracle(field, const: int, terms) -> tuple:
    acc = [const] + [0] * (field.r - 1)
    for c, v in terms:
        for j, a in enumerate(v):
            acc[j] += c * a
    return tuple([a % field.p for a in acc])


_P_MAX = 4294967291     # the largest prime below 2^32, the supported bound


def _cubic_at_p_max():
    # the lex-first cubic search would first scan all p binomials x^3 + c,
    # none irreducible since p = 2 mod 3; x^3 + x + 3 is
    modulus = (3, 1, 0, 1)
    assert _is_irreducible(_P_MAX, modulus)
    return FieldTower(_P_MAX, 3, modulus)


def _reducible_ring():
    # x^2 - 1 = (x - 1)(x + 1): not a field, so some inverses do not exist
    return FieldTower(7, 2, (6, 0, 1))


def _inverse_or_none(inverse, u):
    try:
        return inverse(u)
    except ZeroDivisionError:
        return None


def _kernel_mismatches(field, count: int) -> list:
    """The (kernel, u, v) where a kernel of field disagrees with its oracle:
    the product on every path (vmul, Kronecker, the unrolled code) against
    the schoolbook one, vadd, vsub and vneg against the coefficient-wise
    formulas, vinv against Euclid by polynomial division, phi^k for every
    k in 1..r-1 against the sparse-row product (and against vpow by p^k on
    two operands), and vlin at 1, 2, 3 and 5 terms, with scalars
    negative and out of range, against the nested loop.  Over a reducible
    modulus vinv may raise where Euclid finds a unit, since u phi(...) need
    not lie in F_p there; it must still raise where Euclid does, and what
    it returns must be Euclid's inverse."""
    p, r = field.p, field.r
    is_field = _is_irreducible(p, field.modulus)
    rng = random.Random(f"kernels{p},{r}")
    top = (p - 1,) * r      # every product slot at its largest, r (p-1)^2
    cases = [(top, top), (top, field.one), (field.one, field.zero),
             (field.zero, top), (field.zero, field.zero)]
    cases += [(field.random_value(rng), field.random_value(rng))
              for _ in range(count)]
    unrolled = _unrolled_mul(p, r, field._low_terms)
    frob_rows = {k: _frobenius_rows(field, k) for k in range(1, r)}
    bad = []
    for n, (u, v) in enumerate(cases):
        want = _schoolbook_mul(field, u, v)
        if not (field.vmul(u, v) == field._kron_mul(u, v) == unrolled(u, v)
                == want):
            bad.append(("mul", u, v))
        if field.vadd(u, v) != tuple([(a + b) % p for a, b in zip(u, v)]):
            bad.append(("add", u, v))
        if field.vsub(u, v) != tuple([(a - b) % p for a, b in zip(u, v)]):
            bad.append(("sub", u, v))
        if field.vneg(u) != tuple([-a % p for a in u]):
            bad.append(("neg", u, v))
        inv = _inverse_or_none(field.vinv, u)
        ref = _inverse_or_none(lambda a: _euclid_inv(field, a), u)
        if ((inv != ref if is_field else inv not in (None, ref))
                or inv is not None and field.vmul(u, inv) != field.one):
            bad.append(("inv", u, v))
        for k, rows in frob_rows.items():
            image = field.frobenius(u, k)
            if (image != _linear_map(rows, u, p) or n in (0, 5)
                    and image != field.vpow(u, p ** k)):
                bad.append((f"frobenius^{k}", u, v))
        values = (u, v, top, v, u)
        for terms in (1, 2, 3, 5):
            const = rng.randrange(-p ** 3, p ** 3)
            scaled = tuple((rng.randrange(-p ** 3, p ** 3), w)
                           for w in values[:terms])
            if field.vlin(const, scaled) != _lin_oracle(field, const, scaled):
                bad.append((f"lin{terms}", u, v))
    return bad


# the towers the tests and workloads build, both sides of the product
# crossover, and the two largest supported characteristics
_KERNEL_FIELDS = {
    "7^2": (lambda: get_tower(7, 2), 60),
    "5^3": (lambda: get_tower(5, 3), 60),
    "13^3": (lambda: get_tower(13, 3), 60),
    "17^3": (lambda: get_tower(17, 3), 60),
    "101^2": (lambda: get_tower(101, 2), 60),
    "101^4": (lambda: get_tower(101, 4), 60),
    "101^12": (lambda: get_tower(101, 12), 30),
    "2221^3": (lambda: get_tower(2221, 3), 60),
    "2221^5": (lambda: get_tower(2221, 5), 60),
    "2221^12": (lambda: get_tower(2221, 12), 30),
    "120121^7": (lambda: get_tower(120121, 7), 60),
    "23^max": (lambda: get_tower(23, UNROLLED_MUL_MAX_R), 20),
    "23^max+1": (lambda: get_tower(23, UNROLLED_MUL_MAX_R + 1), 20),
    "23^42": (lambda: get_tower(23, 42), 4),
    "pmax^2": (lambda: get_tower(_P_MAX, 2), 60),
    "pmax^3": (_cubic_at_p_max, 60),
    "x^2-1": (_reducible_ring, 60),
}


@pytest.mark.parametrize("name", list(_KERNEL_FIELDS))
def test_kernels_match_the_schoolbook_oracles(name):
    make, count = _KERNEL_FIELDS[name]
    field = make()
    # binomial and trinomial moduli: one or two nonzero low terms
    assert 1 <= sum(1 for c in field.modulus[:field.r] if c) <= 2
    # one product path per degree, chosen by the crossover alone
    kron = field._mul == field._kron_mul
    assert kron == (field.r > UNROLLED_MUL_MAX_R)
    assert _kernel_mismatches(field, count) == []


def test_kernels_match_the_oracles_under_optimize():
    # the same check with asserts stripped: it reports through its result
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are on')\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_fields import _KERNEL_FIELDS, _kernel_mismatches\n"
        "for name in ('101^4', '2221^5', '120121^7', '23^max',\n"
        "             '23^max+1', 'pmax^3', 'x^2-1'):\n"
        "    make, count = _KERNEL_FIELDS[name]\n"
        "    bad = _kernel_mismatches(make(), count)\n"
        "    if bad:\n"
        "        sys.exit(f'{name}: {bad[:3]}')\n")
    proc = _run_python(["-O", "-c", script])
    assert proc.returncode == 0, proc.stderr


def _run_python(args):
    """A fresh interpreter on args, importing weilchar from this tree."""
    src = str(Path(weilchar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("p,r", [(7, 2), (17, 3), (101, 4), (13, 12),
                                 (2221, 3), (23, 42)])
def test_frobenius_powers_are_p_powers(p, r):
    field = get_tower(p, r)
    rng = random.Random(f"frob{p},{r}")
    for _ in range(3 if r > 12 else 10):
        v = field.random_value(rng)
        for k in range(r + 1):
            assert field.frobenius(v, k) == field.vpow(v, p ** k)
    # powers wrap modulo r, phi^r being the identity
    assert field.frobenius(v, r + 1) == field.frobenius(v, 1)


@pytest.mark.parametrize("p,r", [(7, 2), (17, 3), (101, 4), (13, 12),
                                 (2221, 3), (23, UNROLLED_MUL_MAX_R)])
def test_traced_frobenius_and_unrank_match_the_tower(p, r):
    """SymbolicTower's phi^k and unrank, compiled, give what the tower's
    own frobenius and unrank give, and the norm traces as it runs."""
    field = get_tower(p, r)
    t = SymbolicTower(field)
    n = t.scalar("n")
    x = t.unrank(n)
    images = [t.frobenius(x, k) for k in range(r + 1)]
    kernel = t.compile("n", x, *images, t._frobenius_sum_power(x, r))
    rng = random.Random(f"traced{p},{r}")
    for _ in range(10):
        rank = rng.randrange(field.size)
        v = field.unrank(rank)
        want = [field.frobenius(v, k) for k in range(r + 1)]
        norm = field.vnorm(v)
        assert kernel(rank) == (v, *want, (norm,) + field.zero[1:])


@pytest.mark.parametrize("p,r", [(7, 3), (101, 4), (2221, 3), (13, 12),
                                 (120121, 7), (101, 14)])
def test_traced_square_matches_the_tower_in_fewer_products(p, r):
    """A traced vmul(u, u) takes the squaring form: it gives what the
    tower's vmul(u, u) gives, and its step has fewer multiplications than
    the step of a traced vmul(u, v)."""
    field = get_tower(p, r)
    t = SymbolicTower(field)
    u, v = t.value("u"), t.value("v")
    square, product = t.vmul(u, u), t.vmul(u, v)
    sources = {names: source for source, _, names in t._steps}
    assert sources[square].count("*") < sources[product].count("*")
    kernel = t.compile("u, v", square, product)
    rng = random.Random(f"square{p},{r}")
    for _ in range(20):
        a, b = field.random_value(rng), field.random_value(rng)
        assert kernel(a, b) == (field.vmul(a, a), field.vmul(a, b))
        assert field.vmul(a, a) == field._kron_mul(a, a)


def test_element_order_is_memoized_across_fields():
    """element_order is one memo entry per value and bound: the lift of an
    F_p value to F_{p^r} hits the entry of the F_p value, and an order
    that does not divide the bound raises on every call."""
    clear_caches()
    base, ext = get_tower(13, 1), get_tower(13, 2)
    z = FieldElement(base, 2)                 # 2 has order 12 mod 13
    assert element_order(z, 12) == 12
    assert element_order(ext(z), 12) == 12
    stats = cache_stats()["fields.element_order"]
    assert (stats["misses"], stats["hits"]) == (1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="does not divide"):
            element_order(z, 8)
    assert cache_stats()["fields.element_order"]["entries"] == 1


def _snapshot(obj, names) -> list:
    """(name, value, copy) per attribute: the value to compare by identity,
    and for a list, dict or set a copy that shows a change in place."""
    return [(n, v, copy.copy(v) if isinstance(v, (list, dict, set)) else v)
            for n, v in ((n, getattr(obj, n)) for n in names)]


def _unchanged(obj, snapshot) -> bool:
    return all(getattr(obj, n) is v and v == c for n, v, c in snapshot)


@pytest.mark.parametrize("p,r", [(101, 1), (101, 4), (13, 5), (23, 15)])
def test_towers_and_class_groups_build_lazily_into_the_memo(p, r):
    """frobenius, vsqrt, vlin and ClassGroup.mul leave a tower's attributes
    and a class group's slots as their constructors set them: the Frobenius
    kernels, root constants and products they build are memo entries, and
    after clear_caches() the same calls rebuild them and return the same
    values."""
    f, group = get_tower(p, r), class_group(420)
    tower, slots = _snapshot(f, list(f.__dict__)), _snapshot(group,
                                                             group.__slots__)
    rng = random.Random(f"lazy{p},{r}")
    u, v = f.random_value(rng), f.random_value(rng)
    assert u != f.zero
    h = len(group.forms)

    def calls():
        return ([f.frobenius(u, k) for k in range(r + 1)],
                f.vsqrt(f.vmul(u, u)), f.vlin(-3, ((2, u), (p + 5, v))),
                [group.mul(i, j) for i in range(h) for j in range(h)])

    clear_caches()
    cold = calls()
    kernels = [f._frobenius_kernel(k) for k in range(1, r)]
    constants = f._sqrt_setup()
    stats = cache_stats()
    assert stats["fields.FieldTower._frobenius_kernel"]["entries"] == r - 1
    assert stats["fields.FieldTower._sqrt_setup"]["entries"] == 1
    # (101, 4) is a Kummer tower: its norm kernel too, from the first norm
    assert stats["fields.FieldTower._norm_kernel"]["entries"] == (
        f._kummer is not None)
    assert stats["quadforms.ClassGroup.mul"]["entries"] == h * h
    assert calls() == cold
    assert _unchanged(f, tower) and set(f.__dict__) == {n for n, _, _ in tower}
    assert _unchanged(group, slots)
    clear_caches()
    assert calls() == cold
    assert all(f._frobenius_kernel(k) is not kernel
               for k, kernel in enumerate(kernels, 1))
    assert f._sqrt_setup() == constants and f._sqrt_setup() is not constants
    assert _unchanged(f, tower) and _unchanged(group, slots)


def test_compile_drops_unread_steps():
    """A traced product that no result reads leaves the kernel, and the
    results stay those of the kernel traced without it."""
    field = get_tower(101, 4)
    kernels, unread = [], []
    for dead in (True, False):
        t = SymbolicTower(field)
        u, v = t.value("u"), t.value("v")
        if dead:
            unread = t.vmul(u, u)
        kernels.append(t.compile("u, v", t.vadd(t.vmul(u, v), v)))
    assert unread and not set(unread) & set(kernels[0].__code__.co_varnames)
    assert kernels[0].__code__.co_code == kernels[1].__code__.co_code
    rng = random.Random(4)
    for _ in range(20):
        u, v = field.random_value(rng), field.random_value(rng)
        want = field.vadd(field.vmul(u, v), v)
        assert kernels[0](u, v) == kernels[1](u, v) == want


@pytest.mark.parametrize("p,r", [(13, 12), (101, 2), (7, 4), (2221, 2)])
def test_even_degree_non_residue_search_starts_at_p(monkeypatch, p, r):
    """For even r every n < p is a square, so the search for the
    non-residue of vsqrt tests none of them, and finds the n a search from
    2 finds."""
    field = FieldTower(p, r, get_tower(p, r).modulus)
    n = 2
    while field.vis_square(field.unrank(n)):
        n += 1
    ranks = []
    vis_square = FieldTower.vis_square

    def counted(self, v):
        ranks.append(sum(c * p ** i for i, c in enumerate(v)))
        return vis_square(self, v)

    monkeypatch.setattr(FieldTower, "vis_square", counted)
    s, c, _ = field._sqrt_setup()
    assert min(ranks) == p and max(ranks) == n
    assert c == field.vpow(field.unrank(n), (field.size - 1) >> s)


def _sqrt_setup_by_vpow(field):
    """FieldTower._sqrt_setup as it took c = n^t before, by vpow in
    F_{p^r} at every r."""
    p, r = field.p, field.r
    e = field.size - 1
    s = (e & -e).bit_length() - 1
    t = e >> s
    n = 2 if r % 2 else p
    while s > 1 and field.vis_square(field.unrank(n)):
        n += 1
    c = None if s == 1 else field.vpow(field.unrank(n), t)
    return s, c, tuple((t - 1) // 2 // p ** i % p for i in range(r))


@pytest.mark.parametrize("p,r", [
    (5, 1), (13, 1), (101, 1), (7, 2), (13, 2), (7, 3), (13, 3), (5, 4),
    (101, 4), (17, 5), (7, 6), (13, 12), (2221, 3), (2221, 12),
    (120121, 7), (120121, 11), (120121, 13)])
def test_sqrt_setup_matches_the_power_by_vpow(p, r):
    """c = n^t taken as an int power at odd r and by the base-p digits of
    t at even r is the vpow power, and s and the digits are unchanged;
    the sweep holds towers with s = 1 (no c) and s > 1 at both parities."""
    field = get_tower(p, r)
    assert field._sqrt_setup() == _sqrt_setup_by_vpow(field)


@pytest.mark.parametrize("p, r", [(7, 3), (5, 4)])
def test_inverse_by_the_norm_matches_euclid_on_every_value(p, r):
    field = get_tower(p, r)
    for n in range(1, field.size):
        u = field.unrank(n)
        inv = field.vinv(u)
        assert inv == _inplace_euclid_inv(field, u), u
        assert field.vmul(u, inv) == field.one, u


def test_inverse_over_a_reducible_modulus_raises():
    # x^2 - 1 = (x - 1)(x + 1): 1 + x and x - 1 share a factor with it
    ring = FieldTower(7, 2, (6, 0, 1))
    for u in ((1, 1), (6, 1), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            ring.vinv(u)
    assert ring.vinv((0, 1)) == (0, 1)      # x^2 = 1 here


def test_kernels_are_filed_by_role_and_tower():
    """Each compiled kernel's code is filed under its role and tower, so a
    profile keeps one row per kernel rather than one for them all."""
    f, g = get_tower(101, 4), get_tower(7, 3)
    draw = curves._draw_kernel(f)
    kernels = (draw, pairing._descent_kernel(f),
               curves._x_multiple_kernel(f, 4), f._mul, g._mul,
               f._frobenius_kernel(1))
    assert [k.__code__.co_filename for k in kernels] == [
        "<kernel draw 101^4>", "<kernel descent 101^4>",
        "<kernel x-multiple m=4 101^4>", "<kernel mul 101^4>",
        "<kernel mul 7^3>", "<kernel frobenius^1 101^4>"]
    rng = random.Random(5)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(200):
        draw(f.one, f.one, rng)
    for _ in range(10):
        g._mul(g.one, g.one)
    profile.disable()
    calls = {key[0]: row[0] for key, row in pstats.Stats(profile).stats.items()}
    assert calls["<kernel draw 101^4>"] == 200
    assert calls["<kernel mul 7^3>"] == 10
