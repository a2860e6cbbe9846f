import math
import random
from types import SimpleNamespace

import pytest

import weilchar.attack
from weilchar import pairing
from weilchar.action import (OrientedCurve, SmoothIdeal, apply_smooth_ideal,
                             random_smooth_class, split_prime)
from weilchar.attack import (_cell, _side_pairing, _torsion_basis,
                             adjust_generator, base_side, eval_character,
                             usable_characters)
from weilchar.curves import (_raw, frobenius_map, point_add, scalar_mul,
                             torsion_basis, torsion_extension_degree)
from weilchar.fields import (FieldElement, element_order, get_tower,
                             legendre_symbol)
from weilchar.memo import cache_stats, clear_caches
from weilchar.pairing import weil_pairing
from weilchar.quadforms import (Character, assigned_characters,
                                char_eval_class, char_eval_norm,
                                enumerate_class_group, relation_characters)

CHI3 = Character("chi", 3)
CHI5 = Character("chi", 5)
DELTA = Character("delta", 4)
EPS = Character("epsilon", 8)
DEPS = Character("delta_epsilon", 8)


def test_relation_members():
    # the relation set must sit inside the assigned set and multiply to the
    # trivial character on the class group
    for D in range(3, 400):
        if D % 4 not in (0, 3):
            continue
        rel = relation_characters(D)
        assert all(ch in assigned_characters(D) for ch in rel), D
        for g in enumerate_class_group(D):
            prod = 1
            for ch in rel:
                prod *= char_eval_class(ch, g, D)
            assert prod == 1, (D, g)


class _Fake:
    def __init__(self, tr, N):
        self.sigma_trace, self.sigma_norm = tr, N


def test_adjust_generator_exhaustive():
    for tr in range(-6, 7):
        for N in range(1, 40):
            for m in (3, 5, 7, 4, 8):
                if m % 2 == 0 and tr % 2:
                    continue  # even-modulus characters need an even trace
                need = m if m % 2 else 2
                want = next(k for k in range(m)
                            if math.gcd(N + k * (tr + k), need) == 1)
                got = adjust_generator(_Fake(tr, N), m)
                assert got == want, (tr, N, m)
                assert got <= 1 if m % 2 == 0 else got < m


def test_identity_pairs(oc24):
    rng = random.Random(7)
    res = eval_character(oc24, oc24, CHI3, rng)
    assert res.value == 1 and res.dlog_a == 1
    assert res.extension_degree_used == 3
    res8 = eval_character(oc24, oc24, EPS, rng)
    assert res8.value == 1 and res8.dlog_a in (1, 7)
    assert res8.gamma_mod8 is None


def test_planted_oracle(oc24):
    rng = random.Random(7)
    for trial in range(12):
        ideal = random_smooth_class(oc24, rng)
        target = apply_smooth_ideal(oc24, ideal)
        n = ideal.norm
        for ch in (CHI3, EPS):
            got = eval_character(oc24, target, ch, rng)
            want = char_eval_norm(ch, n)
            assert got.value == want, (trial, ch.label, got.value, want)
            assert got.value == char_eval_class(ch, ideal.class_form, 24)
            assert got.sigma_evals <= 8


def test_supersingular_delta(oc52):
    rng = random.Random(7)
    for e in (1, 2, 3):
        ideal = SmoothIdeal.from_factors([(7, 1, e)], oc52)
        target = apply_smooth_ideal(oc52, ideal)
        got = eval_character(oc52, target, DELTA, rng)
        assert got.value == char_eval_norm(DELTA, 7 ** e) == (-1) ** e
        assert got.dlog_a % 2 == 1
    with pytest.raises(ValueError, match="characteristic"):
        eval_character(oc52, target, Character("chi", 13), rng)


def test_choice_independence(oc40):
    """Ten evaluations of the same pair: the character value is a function
    of the pair alone, and the dlog moves only within its coset."""
    rng = random.Random(7)
    assert oc40.D == 40
    assert split_prime(oc40, 7) == ("split", [3, 6])
    target = apply_smooth_ideal(
        oc40, SmoothIdeal.from_factors([(7, 3, 1)], oc40))
    vals5, dlogs5, vals8, dlogs8 = [], [], [], []
    for _ in range(10):
        r5 = eval_character(oc40, target, CHI5, rng)
        r8 = eval_character(oc40, target, DEPS, rng)
        vals5.append(r5.value)
        dlogs5.append(r5.dlog_a)
        vals8.append(r8.value)
        dlogs8.append(r8.dlog_a)
    assert set(vals5) == {char_eval_norm(CHI5, 7)} == {-1}
    assert set(vals8) == {char_eval_norm(DEPS, 7)} == {-1}
    inv0 = pow(dlogs5[0], -1, 5)
    assert all(legendre_symbol(a * inv0 % 5, 5) == 1 for a in dlogs5)
    # dlog mod 8 is fixed up to multiplication by N(sigma_adjusted)
    k8 = adjust_generator(oc40, 8)
    N8 = oc40.shifted(k8).sigma_norm if k8 else oc40.sigma_norm
    allowed = {dlogs8[0] % 8, dlogs8[0] * N8 % 8}
    assert all(a % 8 in allowed for a in dlogs8), (dlogs8, allowed)


def test_composition(oc24):
    rng = random.Random(7)
    i_a = SmoothIdeal.from_factors([(5, 3, 1)], oc24)
    i_b = SmoothIdeal.from_factors([(5, 3, 2)], oc24)
    E1 = apply_smooth_ideal(oc24, i_a)
    E2 = apply_smooth_ideal(E1, i_b)
    v_full = eval_character(oc24, E2, CHI3, rng).value
    v_a = eval_character(oc24, E1, CHI3, rng).value
    v_b = eval_character(E1, E2, CHI3, rng).value
    assert v_full == v_a * v_b


def test_usable_characters(oc24, oc52):
    assert [c.label for c in usable_characters(oc52)] == ["delta"]
    assert [c.label for c in usable_characters(oc24)] == ["chi_3", "epsilon"]


def test_noneigen_frequency(oc24):
    # a uniform draw from E[3] pairs primitively with sigma of itself
    # unless it lands on the sigma eigenline: 1 - 1/m of the nonzero points
    rng = random.Random(7)
    r3 = torsion_extension_degree(oc24.curve, 3)
    tow = get_tower(7, r3)
    E3 = oc24.curve.over(tow)
    B1, B2 = torsion_basis(E3, 3, oc24.group_order(r3), rng)
    hits = 0
    n_draws = 800
    for _ in range(n_draws):
        P = point_add(E3, scalar_mul(E3, rng.randrange(3), B1),
                      scalar_mul(E3, rng.randrange(3), B2))
        if P.is_infinity():
            continue
        z = weil_pairing(E3, P, oc24.sigma_eval(P, E3), 3, rng)
        if element_order(z.value, 3) == 3:
            hits += 1
    freq = hits / n_draws
    assert abs(freq - (1 - 1 / 3)) < 0.05, freq


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_noneigen_draw_reads_coefficients_as_randrange(monkeypatch, m):
    """Over 10,000 coefficients, _side_pairing reads from a
    random.Random and from a generator whose randrange is its own what two
    randrange(m) calls per cell read, leaving the same state, and each
    coefficient is one call of the generator's randrange."""
    drawn, calls = [], []

    def rejected(*key):
        drawn.extend(key[-2:])
        return None, None, 0, None         # P infinite: draw again

    monkeypatch.setattr(weilchar.attack, "_cell", rejected)
    oc = SimpleNamespace(sigma_trace=0, sigma_norm=1)
    tower = SimpleNamespace(r=1)
    randrange = random.Random.randrange

    def seen(self, *args):
        calls.append(args)
        return randrange(self, *args)

    class Own(random.Random):
        def randrange(self, *args):
            return super().randrange(*args)

    monkeypatch.setattr(random.Random, "randrange", seen)
    for kind in (random.Random, Own):
        drawn.clear()
        calls.clear()
        rng = kind(f"coefficients{m}")
        while len(drawn) < 10000:
            with pytest.raises(RuntimeError, match="no independent point"):
                _side_pairing(oc, m, tower, rng)
        assert calls == [(m,)] * len(drawn)
        replay = random.Random(f"coefficients{m}")
        assert drawn == [randrange(replay, m) for _ in drawn]
        assert rng.getstate() == replay.getstate()


class _Imprimitive(OrientedCurve):
    """sigma = s*pi + c with s > 1, so no adjusted generator is primitive."""

    def __init__(self, oc, scale, shift):
        super().__init__(oc.curve, oc.q, oc.t, 0)
        self._s, self._c = scale, shift

    @property
    def sigma_trace(self):
        return self._s * self.t + 2 * self._c

    @property
    def sigma_norm(self):
        return self._s ** 2 * self.q + self._s * self._c * self.t + self._c ** 2

    def sigma_eval(self, P, E_amb=None):
        fP = frobenius_map(P, self.q)
        return point_add(E_amb, scalar_mul(E_amb, self._s, fP),
                         scalar_mul(E_amb, self._c, P))


def test_imprimitive_rejected(oc24, oc52):
    rng = random.Random(7)
    r3 = torsion_extension_degree(oc24.curve, 3)
    with pytest.raises(RuntimeError, match="imprimitive"):
        _side_pairing(_Imprimitive(oc24, 3, 1), 3, get_tower(7, r3), rng)
    r4 = torsion_extension_degree(oc52.curve, 4)
    with pytest.raises(RuntimeError, match="imprimitive"):
        _side_pairing(_Imprimitive(oc52, 4, 1), 4, get_tower(13, r4), rng)


def test_imprimitive_rejected_after_a_frobenius_draw(oc24, oc52):
    """A draw for the Frobenius sigma fills the sigma cells first; the
    imprimitive sigma on the same curve, an equal instance, reads its own
    cells and is still rejected."""
    for oc, m in ((oc24, 3), (oc52, 4)):
        tower = get_tower(oc.q, torsion_extension_degree(oc.curve, m))
        _side_pairing(oc, m, tower, random.Random(7))
        with pytest.raises(RuntimeError, match="imprimitive"):
            _side_pairing(_Imprimitive(oc, m, 1), m, tower,
                          random.Random(7))


@pytest.mark.parametrize("name,k,m", [("oc24", 0, 3), ("oc52", 0, 4),
                                      ("oc24", 1, 3), ("oc52", 1, 4)])
def test_sigma_cells_are_sigma_of_the_cells(request, name, k, m):
    """The sigma P of a cell record (_cell) is sigma_eval on every cell of
    E[m] that a draw accepts, for Frobenius and for a shifted sigma, and
    the record rejects exactly the cells the draw must, with the sigma
    evaluations it counts; an accepted record's plan holds the raw P and
    sigma P, the checked value e_m(P, sigma P) and, for a finite sigma P,
    the curve's ints of F_p and the root of its descent test.  An
    imprimitive sigma on the same curve, which equals the Frobenius
    instance, reads its own cells."""
    oc = request.getfixturevalue(name).shifted(k)
    r = torsion_extension_degree(oc.curve, m)
    E = oc.curve_in(r)
    f = E.field
    imp = _Imprimitive(oc, 2, 1)
    assert (k == 0) == (imp == oc and hash(imp) == hash(oc))
    for inst in (oc, imp):
        for a in range(m):
            for b in range(m):
                P = _cell(oc, oc.sigma_trace, oc.sigma_norm, m, r, a, b)[0]
                got, cell, evals, plan = _cell(
                    inst, inst.sigma_trace, inst.sigma_norm, m, r, a, b)
                accepted = plan is not None
                assert got == P, (a, b)
                T = scalar_mul(E, m // 2, P)
                if P.is_infinity() or (m % 2 == 0 and T.is_infinity()):
                    assert (evals, accepted) == (0, False), (a, b)
                    if not scalar_mul(E, 2, P).is_infinity():
                        assert cell is None, (a, b)
                elif m % 2 == 0 and inst.sigma_eval(T, E) == T:
                    assert (cell, evals, accepted) == (None, 1, False), (a, b)
                else:
                    assert (evals, accepted) == (2 - m % 2, True), (a, b)
                if cell is not None:
                    assert cell == inst.sigma_eval(P, E), (a, b)
                if accepted:
                    assert plan[:6] == (f, E.a4.value, E.a6.value,
                                        _raw(f, P), _raw(f, cell), m), (a, b)
                    assert plan[6] == weil_pairing(
                        E, P, cell, m, random.Random(0)), (a, b)
                    # sigma P = O pairs to 1 with no certificate
                    ints = ((None, None) if cell.is_infinity() else
                            (oc.curve.a4.value, oc.curve.a6.value))
                    assert plan[7:9] == ints, (a, b)
                    # the descent roots: the first two roots of the cubic
                    # in F_{q^r} (pairing._cubic_roots) where x - e is a
                    # nonzero square at P and sigma P
                    half = (f.size - 1) // 2
                    rational = {f.from_int(x) for x in range(oc.q)
                                if E.rhs(E.field(x)) == 0}
                    roots = (() if cell.is_infinity() else
                             pairing._cubic_roots(f, *plan[7:9]))
                    assert rational <= set(roots) or cell.is_infinity()
                    usable = [x for x in roots if all(
                        (T.x - FieldElement(f, x)) ** half == 1
                        for T in (P, cell))][:2]
                    assert plan[9] == tuple(usable), (a, b)


@pytest.mark.parametrize("name,m", [("oc24", 3), ("oc52", 4)])
def test_torsion_cells_are_the_basis_combinations(request, name, m):
    """The P of each cell record (a, b) is a B1 + b B2 on the memoized
    basis, so a draw read from the memo is the point the two multiples
    would give."""
    oc = request.getfixturevalue(name)
    r = torsion_extension_degree(oc.curve, m)
    E = oc.curve_in(r)
    B1, B2 = _torsion_basis(oc, m, r)
    key = (oc, oc.sigma_trace, oc.sigma_norm, m, r)
    cells = {_cell(*key, a, b)[0] for a in range(m) for b in range(m)}
    for a in range(m):
        for b in range(m):
            want = point_add(E, scalar_mul(E, a, B1), scalar_mul(E, b, B2))
            assert _cell(*key, a, b)[0] == want, (a, b)
    assert len(cells) == m * m, "a basis spans E[m] without repeats"


def _reference_side(oc, m, r, rng):
    """_side_pairing as weil_pairing gives it: each draw reads its cell's
    P and sigma P, skips the cells the record rejects, and pairs them by
    weil_pairing, drawing again at odd m unless the value is primitive."""
    E = oc.curve_in(r)
    key = (oc, oc.sigma_trace, oc.sigma_norm, m, r)
    while True:
        P, sP, _, plan = _cell(*key, rng.randrange(m), rng.randrange(m))
        if plan is not None:
            z = weil_pairing(E, P, sP, m, rng).value
            if m % 2 == 0 or element_order(z, m) == m:
                return z


@pytest.mark.parametrize("name,m", [("oc24", 3), ("oc52", 4)])
def test_side_pairing_from_the_plan_matches_weil_pairing(request, name, m):
    """Over 1,000 warm side pairings, settling the plan of the drawn cell
    record gives the value and generator state that weil_pairing on its
    P and sigma P gives."""
    oc = request.getfixturevalue(name)
    r = torsion_extension_degree(oc.curve, m)
    tower = get_tower(oc.q, r)
    _side_pairing(oc, m, tower, random.Random(0))
    ours, ref = random.Random(f"side{m}"), random.Random(f"side{m}")
    for _ in range(1000):
        z, _ = _side_pairing(oc, m, tower, ours)
        assert z == _reference_side(oc, m, r, ref)
        assert ours.getstate() == ref.getstate()


def _frobenius_order_mod(q: int, t: int, m: int, cap: int) -> int:
    """Order of the Frobenius companion matrix in GL2(Z/m), capped: the
    torsion extension degree when the orientation is primitive at m."""
    a, b, c, d = 0, (-q) % m, 1 % m, t % m
    x, y, z, w = 1 % m, 0, 0, 1 % m
    for r in range(1, cap + 1):
        x, y, z, w = ((x * a + y * c) % m, (x * b + y * d) % m,
                      (z * a + w * c) % m, (z * b + w * d) % m)
        if x == w == 1 % m and y == z == 0:
            return r
    return cap


def test_frobenius_order_frozen(oc24, oc52):
    rng = random.Random(7)
    assert _frobenius_order_mod(7, 2, 3, 18) == 3
    res8 = eval_character(oc24, oc24, EPS, rng)
    assert _frobenius_order_mod(7, 2, 8, 128) == res8.extension_degree_used
    r4 = torsion_extension_degree(oc52.curve, 4)
    assert _frobenius_order_mod(13, 0, 4, 32) == r4 == 4


# single-pair evaluations at fixed seeds, pinned byte for byte: fixture,
# connecting ideal, character, rng seed, to_json() (which holds no timings)
_FROZEN_EVALS = (
    ("oc24", (5, 3, 1), CHI3, 11,
     {"a": 2, "char": {"kind": "chi", "modulus": 3}, "gamma": None, "r": 3,
      "sigma_evals": 2, "value": -1}),
    ("oc24", (5, 3, 1), EPS, 12,
     {"a": 3, "char": {"kind": "epsilon", "modulus": 8}, "gamma": None,
      "r": 8, "sigma_evals": 6, "value": -1}),
    ("oc52", (7, 1, 1), DELTA, 13,
     {"a": 3, "char": {"kind": "delta", "modulus": 4}, "gamma": None,
      "r": 4, "sigma_evals": 8, "value": -1}),
)


def _frozen_eval(request, name, factor, ch, seed):
    oc = request.getfixturevalue(name)
    target = apply_smooth_ideal(oc, SmoothIdeal.from_factors([factor], oc))
    return eval_character(oc, target, ch, random.Random(seed)).to_json()


def test_eval_character_frozen(request):
    for name, factor, ch, seed, want in _FROZEN_EVALS:
        assert _frozen_eval(request, name, factor, ch, seed) == want, ch.label


def test_cold_and_warm_caches_agree(request):
    # steps, bases and extension degrees are memoized; no memo may change
    # what an evaluation returns
    clear_caches()
    assert all(s["entries"] == 0 for s in cache_stats().values())
    cold = [_frozen_eval(request, *case[:4]) for case in _FROZEN_EVALS]
    assert cache_stats()["attack._extension_degree"]["misses"] == 3
    cells = cache_stats()["attack._cell"]
    warm = [_frozen_eval(request, *case[:4]) for case in _FROZEN_EVALS]
    assert cache_stats()["attack._extension_degree"]["misses"] == 3
    assert cache_stats()["attack._cell"]["hits"] > cells["hits"]
    assert cold == warm == [case[4] for case in _FROZEN_EVALS]


def test_kernel_and_table_memos_cold_and_warm(request, monkeypatch):
    """The draw, descent and x-multiple kernels, the mu_m logs, the cell
    records, the checked pairing values, the curves' ints of F_p, the
    element orders, the prime ideals' class indices, the discriminant
    records and their assigned characters are memo.memo entries:
    clear_caches() empties them, a cold evaluation builds them, and a warm
    one reuses them and returns what the cold one did.  The checked
    values and the ints of F_p are reused through the pairing plans of
    the cell records, and the discriminant records through the sets of
    assigned characters, so a warm evaluation looks none of them up, and
    a warm log takes no element order: the warm hits of the orders are
    the side pairing's own calls."""
    names = ("curves._draw_kernel", "pairing._descent_kernel",
             "curves._x_multiple_kernel", "fields._dlog",
             "quadforms.discriminant", "attack._assigned", "attack._cell",
             "pairing._checked",
             "pairing._prime_field_ints", "fields.element_order",
             "action._prime_ideal_class")
    planned = ("pairing._checked", "pairing._prime_field_ints",
               "quadforms.discriminant")
    clear_caches()
    assert all(cache_stats()[name]["entries"] == 0 for name in names)
    cold = [_frozen_eval(request, *case[:4]) for case in _FROZEN_EVALS]
    built = {name: cache_stats()[name]["misses"] for name in names}
    assert all(built.values()), built
    hits = {name: cache_stats()[name]["hits"]
            for name in planned + ("fields.element_order",)}
    orders = []

    def counted(z, bound):
        orders.append(z)
        return element_order(z, bound)

    monkeypatch.setattr(weilchar.attack, "element_order", counted)
    warm = [_frozen_eval(request, *case[:4]) for case in _FROZEN_EVALS]
    assert orders and (cache_stats()["fields.element_order"]["hits"]
                       == hits["fields.element_order"] + len(orders))
    for name in names:
        assert cache_stats()[name]["misses"] == built[name], name
        if name in planned:
            assert cache_stats()[name]["hits"] == hits[name], name
        else:
            assert cache_stats()[name]["hits"] > 0, name
    assert cold == warm == [case[4] for case in _FROZEN_EVALS]


def test_shared_base_side(oc24, oc40):
    rng = random.Random(7)
    side = base_side(oc24, CHI3, rng)
    assert (side.k, side.r) == (adjust_generator(oc24, 3), 3)
    for e in (1, 2):
        target = apply_smooth_ideal(
            oc24, SmoothIdeal.from_factors([(5, 3, e)], oc24))
        got = eval_character(oc24, target, CHI3, rng, side)
        assert got.value == char_eval_norm(CHI3, 5 ** e)
        assert got.sigma_evals > side.sigma_evals
    with pytest.raises(ValueError, match="another base"):
        eval_character(oc24, oc24, EPS, rng, side)
    with pytest.raises(ValueError, match="another base"):
        eval_character(oc40, oc40, CHI3, rng, side)
    with pytest.raises(ValueError, match="not assigned"):
        base_side(oc24, CHI5, rng)
