import math
import random
from fractions import Fraction

import pytest

import weilchar.action
from weilchar.action import (OrientedCurve, SmoothIdeal, _fold_seed,
                             _order_filter, apply_prime_ideal,
                             apply_smooth_ideal, canonical_model, eigen_kernel,
                             gen_ordinary_instance, gen_supersingular_instance,
                             make_instance, prime_ideal_form,
                             random_smooth_class, sampler_primes, split_prime)
from weilchar.curves import (Curve, _draw, _lift, _mul_fp, count_points,
                             frobenius_map, point_add, scalar_mul)
from weilchar.fields import FieldTower, get_tower
from weilchar.memo import cache_stats, clear_caches
from weilchar.quadforms import (QuadForm, assigned_characters, class_number,
                                compose, enumerate_class_group,
                                principal_form)


def test_supersingular_generation(oc52):
    assert oc52.t == 0 and oc52.D == 52 and oc52.q == 13
    assert count_points(oc52.curve) == (14, 0)
    assert oc52.j_invariant().value not in (0, 1728 % 13)
    labels = [c.label for c in assigned_characters(oc52.D)]
    assert labels == ["chi_13", "delta"]
    oc101 = gen_supersingular_instance(101)
    assert count_points(oc101.curve) == (102, 0)


@pytest.mark.parametrize("bad", [7, 11, 15, 4])
def test_supersingular_rejects_wrong_primes(bad):
    with pytest.raises(ValueError):
        gen_supersingular_instance(bad)


def test_ordinary_generation(oc24):
    assert oc24.D == 24 and count_points(oc24.curve) == (6, 2)
    assert [c.label for c in assigned_characters(24)] == ["chi_3", "epsilon"]
    oc_r = gen_ordinary_instance((5, 60), m_target=13, rng=random.Random(5))
    assert oc_r.t != 0 and oc_r.D % 2 == 0
    assert any(m % 2 and e == 1 and m != oc_r.q and m <= 13
               for m, e in oc_r.order_disc.factors)


def test_split_prime_frozen(oc24, oc56):
    # frozen against the characteristic polynomial mod ell
    assert split_prime(oc24, 5) == ("split", [3, 4])
    assert split_prime(oc24, 3) == ("ramified", [1])
    assert split_prime(oc24, 13) == ("inert", [])
    assert split_prime(oc56, 3) == ("split", [1, 2])
    assert split_prime(oc56, 5) == ("split", [2, 4])
    with pytest.raises(ValueError):
        split_prime(oc24, 2)


def test_prime_ideal_form_frozen(oc24, oc56, oc52):
    # hand-reduced representatives of (ell, sigma - lam)
    assert prime_ideal_form(oc24, 5, 3) == QuadForm(2, 0, 3)
    assert prime_ideal_form(oc24, 5, 4) == QuadForm(2, 0, 3)
    assert prime_ideal_form(oc56, 3, 1) == QuadForm(3, 2, 5)
    assert prime_ideal_form(oc56, 3, 2) == QuadForm(3, -2, 5)
    assert prime_ideal_form(oc56, 5, 2) == QuadForm(3, 2, 5)
    assert prime_ideal_form(oc56, 5, 4) == QuadForm(3, -2, 5)
    assert prime_ideal_form(oc52, 7, 1) == QuadForm(2, 2, 7)


def trace6_j_invariants():
    """Every j over F_23 carrying trace exactly 6, by exhaustion."""
    tw23 = get_tower(23, 1)
    js = set()
    for a4 in range(1, 23):
        for a6 in range(1, 23):
            try:
                E = Curve(tw23, a4, a6)
            except ValueError:
                continue
            if E.j_invariant().value in (0, 1728 % 23):
                continue
            if count_points(E)[1] == 6:
                js.add(E.j_invariant().value)
    return js


def test_orbit_walks_class_group(oc56):
    assert oc56.D == 56 and class_number(56) == 4
    expected_js = trace6_j_invariants()
    assert len(expected_js) == 4

    # (3, sigma - 1) generates the order-4 class group, so its orbit must
    # visit all four curves and come home
    orbit = [oc56]
    for _ in range(4):
        orbit.append(apply_prime_ideal(orbit[-1], 3, 1))
    js = [oc.j_invariant().value for oc in orbit]
    assert js[4] == js[0] and len(set(js[:4])) == 4
    assert set(js[:4]) == expected_js
    for oc in orbit:
        assert count_points(oc.curve) == (18, 6)


def test_step_consistency(oc56):
    orbit = [oc56]
    for _ in range(4):
        orbit.append(apply_prime_ideal(orbit[-1], 3, 1))
    js = [oc.j_invariant().value for oc in orbit]

    # same ideal class through a different norm lands on the same curve
    assert apply_prime_ideal(oc56, 5, 2).j_invariant().value == js[1]
    # conjugate eigenvalue inverts the step
    assert apply_prime_ideal(oc56, 3, 2).j_invariant().value == js[3]
    assert apply_prime_ideal(orbit[1], 3, 2).j_invariant().value == js[0]
    # negative exponent means the conjugate ideal
    back = apply_smooth_ideal(oc56, SmoothIdeal.from_factors([(3, 1, -1)], oc56))
    assert back.j_invariant().value == js[3]
    # application order does not matter
    ab = apply_smooth_ideal(
        oc56, SmoothIdeal.from_factors([(3, 1, 1), (5, 2, 1)], oc56))
    ba = apply_smooth_ideal(
        oc56, SmoothIdeal.from_factors([(5, 2, 1), (3, 1, 1)], oc56))
    assert ab.j_invariant().value == ba.j_invariant().value == js[2]
    # class arithmetic agrees with the walk
    two_step = SmoothIdeal.from_factors([(3, 1, 2)], oc56)
    assert two_step.class_form == QuadForm(2, 0, 7) and two_step.norm == 9
    assert apply_smooth_ideal(oc56, two_step).j_invariant().value == js[2]


def test_one_class_by_two_paths_is_one_object(oc56):
    """The class that (3, sigma - 1) and (5, sigma - 2) both reach, alone
    or composed in either order, is one interned instance, a walk round
    the class group ends at its start itself, and a shift is one object
    too, so the memos keyed by them hit by identity."""
    clear_caches()
    via3, via5 = apply_prime_ideal(oc56, 3, 1), apply_prime_ideal(oc56, 5, 2)
    assert via3 is via5 and via3 is not oc56
    start = walk = OrientedCurve(canonical_model(oc56.curve), 23, 6)
    for _ in range(4):
        walk = apply_prime_ideal(walk, 3, 1)
    assert walk is start
    ab = apply_smooth_ideal(
        oc56, SmoothIdeal.from_factors([(3, 1, 1), (5, 2, 1)], oc56))
    ba = apply_smooth_ideal(
        oc56, SmoothIdeal.from_factors([(5, 2, 1), (3, 1, 1)], oc56))
    assert ab is ba
    assert via3.shifted(1) is via5.shifted(1)
    assert via3.shifted(1) == OrientedCurve(via3.curve, 23, 6, 1)


def test_from_factors_matches_composition(oc56, oc120, oc420):
    # the class of a word, read through the record's products and the
    # conjugate eigenvalue, is the one the composition chain of the word's
    # forms gives
    rng = random.Random(12)
    for oc in (oc56, oc120, oc420):
        primes, _ = sampler_primes(oc, 7)
        for ell, lam in primes:
            conj = (oc.sigma_trace - lam) % ell
            assert prime_ideal_form(oc, ell, conj) == \
                prime_ideal_form(oc, ell, lam).inverse()
        for _ in range(20):
            factors = [(ell, lam, rng.randint(-7, 7)) for ell, lam in primes]
            form = principal_form(oc.D)
            for ell, lam, e in factors:
                f = prime_ideal_form(oc, ell, lam)
                for _ in range(abs(e)):
                    form = compose(form, f if e > 0 else f.inverse())
            assert SmoothIdeal.from_factors(factors, oc).class_form == form


def test_from_factors_cold_and_warm_compare_no_forms(oc56, oc120, oc420,
                                                   monkeypatch):
    """A warm SmoothIdeal.from_factors reads each prime ideal's class index
    from its memo, so it compares no forms, and it gives the SmoothIdeal
    the cold call gave."""
    rng = random.Random(13)
    words = []
    for oc in (oc56, oc120, oc420):
        primes, _ = sampler_primes(oc, 7)
        words += [(oc, [(ell, lam, rng.randint(-7, 7)) for ell, lam in primes])
                  for _ in range(10)]
    clear_caches()
    cold = [SmoothIdeal.from_factors(factors, oc) for oc, factors in words]
    compared = [0]
    eq = QuadForm.__eq__

    def counted(self, other):
        compared[0] += 1
        return eq(self, other)

    monkeypatch.setattr(QuadForm, "__eq__", counted)
    warm = [SmoothIdeal.from_factors(factors, oc) for oc, factors in words]
    assert compared[0] == 0
    monkeypatch.undo()
    assert warm == cold


def test_shifted_orientation(oc56):
    rng = random.Random(11)
    oc_sh = oc56.shifted(1)
    assert oc_sh.sigma_trace == 8 and oc_sh.sigma_norm == 30 and oc_sh.D == 56
    assert oc_sh.sigma_kind == "frobenius_shift"
    assert oc56.sigma_kind == "frobenius"
    E2 = oc56.curve_in(2)
    for _ in range(5):
        P = E2.random_point(rng)
        S1 = oc_sh.sigma_eval(P, E2)
        S2 = oc_sh.sigma_eval(S1, E2)
        acc = point_add(E2, S2, scalar_mul(E2, -oc_sh.sigma_trace, S1))
        acc = point_add(E2, acc, scalar_mul(E2, oc_sh.sigma_norm, P))
        assert acc.is_infinity(), "sigma must satisfy its quadratic equation"


def test_eigen_kernel(oc56):
    K = eigen_kernel(oc56, 5, 2)
    assert K.x.field.size == 23 ** 4
    assert frobenius_map(K, 23) == scalar_mul(oc56.curve_in(4), 2, K)
    assert eigen_kernel(oc56, 5, 2) == K
    K3 = eigen_kernel(oc56, 3, 1)
    assert K3.x.field.r == 1 and frobenius_map(K3, 23) == K3


def test_sampler_configs(oc24, oc56, oc52, monkeypatch):
    """Statistical distances frozen by hand convolution over the group."""
    primes24, sd24 = sampler_primes(oc24)
    assert primes24 == [(5, 3)] and sd24 == float(Fraction(1, 22))
    primes56, sd56 = sampler_primes(oc56)
    assert primes56 == [(3, 1), (5, 2)] and sd56 == float(Fraction(3, 484))
    primes52, sd52 = sampler_primes(oc52)
    assert primes52 == [(7, 1)] and sd52 == float(Fraction(1, 22))
    primes52b, sd52b = sampler_primes(oc52, exp_bound=2)
    assert sd52b < 0.05 and len(primes52b) >= 2
    # the memo key does not carry the cap, so the cached config must go
    monkeypatch.setattr(weilchar.action, "DEGREE_CAP", 1)
    clear_caches()
    with pytest.raises(RuntimeError):
        sampler_primes(oc24)


def test_sampled_class_uniformity(oc56):
    counts = {f: 0 for f in enumerate_class_group(56)}
    srng = random.Random(99)
    n = 1200
    for _ in range(n):
        counts[random_smooth_class(oc56, srng).class_form] += 1
    emp = {f: c / n for f, c in counts.items()}
    assert all(abs(v - 0.25) < 0.06 for v in emp.values()), emp


def test_json_round_trips(oc56):
    blob = oc56.to_json()
    assert blob["D"] == 56 and blob["sigma"] == {"kind": "frobenius", "k": 0}
    assert OrientedCurve.from_json(blob) == oc56


def test_oriented_curve_hash_agrees_with_equality(oc56, oc120):
    copies = [OrientedCurve.from_json(oc56.to_json()),
              OrientedCurve(Curve(get_tower(23, 1), oc56.curve.a4.value,
                                  oc56.curve.a6.value), 23, 6),
              oc56.shifted(2).shifted(-2)]
    for other in copies:
        assert other == oc56 and hash(other) == hash(oc56)
    sh = oc56.shifted(1)
    assert sh != oc56 and sh == oc56.shifted(1)
    assert hash(sh) == hash(oc56.shifted(1))
    assert len({oc56, sh, oc120, *copies}) == 3


def test_oriented_curve_equality_reads_every_field(oc56):
    """Instances differing in any one of q, t, sigma_k, a4 and a6, or over
    another object for the same prime field, are unequal; equal ones hash
    alike."""
    a4, a6 = oc56.curve.a4.value, oc56.curve.a6.value
    f = get_tower(23, 1)
    others = [
        OrientedCurve(Curve(get_tower(29, 1), a4, a6), 29, 6),
        OrientedCurve(oc56.curve, 23, 4),
        oc56.shifted(1),
        OrientedCurve(Curve(f, a4 + 1, a6), 23, 6),
        OrientedCurve(Curve(f, a4, a6 + 1), 23, 6),
        OrientedCurve(Curve(FieldTower(23, 1, None), a4, a6), 23, 6),
    ]
    for other in others:
        assert other != oc56 and oc56 != other
    assert len(set(others + [oc56])) == len(others) + 1
    same = OrientedCurve(Curve(f, a4, a6), 23, 6)
    assert same == oc56 and hash(same) == hash(oc56)


def test_sampler_keys_on_the_whole_instance(oc120):
    # D = 120 and D = 108 instances over F_31 whose sigma traces agree: a
    # configuration memoized for one must not serve the other
    other = make_instance(31, 4, random.Random(1)).shifted(-1)
    assert (other.sigma_trace, other.D) == (oc120.sigma_trace, 108)
    sampler_primes(oc120)
    warm = sampler_primes(other)
    clear_caches()
    assert warm == sampler_primes(other)
    ideal = random_smooth_class(other, random.Random(0))
    assert ideal.class_form.disc() == -108


def _least_scaling(p: int, a4: int, a6: int) -> tuple:
    """The least (u^4 a4, u^6 a6) over u in F_p^*, by trying every u."""
    best = (a4, a6)
    for u in range(2, p // 2 + 1):
        u2 = u * u % p
        u4 = u2 * u2 % p
        cand = (a4 * u4 % p, a6 * u4 % p * u2 % p)
        if cand < best:
            best = cand
    return best


def test_canonical_model_is_the_least_scaling():
    # every nonsingular curve over small fields, j = 0 and j = 1728 among
    # them, and a seeded sample of curves over F_2221
    cases = [(p, a4, a6) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                   43, 101)
             for a4 in range(p) for a6 in range(p)]
    rng = random.Random(5)
    cases += [(2221, rng.randrange(2221), rng.randrange(2221))
              for _ in range(40)]
    cases += [(2221, 0, 1), (2221, 3, 0)]
    for p, a4, a6 in cases:
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
            continue
        C = canonical_model(Curve(get_tower(p, 1), a4, a6))
        assert (C.a4.value, C.a6.value) == _least_scaling(p, a4, a6), \
            (p, a4, a6)


def test_canonical_model_memo_cold_equals_warm(oc56):
    # the memo is keyed on (p, a4, a6): a warm call returns an equal curve,
    # and a model that is already canonical comes back as the same object
    # 5 * 2^4 and 7 * 2^6 mod 23: a scaling of (5, 7), so not the least
    E = Curve(oc56.curve.field, 11, 11)
    clear_caches()
    cold = canonical_model(E)
    assert cache_stats()["action._least_model"]["entries"] == 1
    assert (cold.a4.value, cold.a6.value) != (11, 11)
    warm = canonical_model(Curve(E.field, 11, 11))
    assert warm == cold and warm is not cold
    assert cache_stats()["action._least_model"]["hits"] == 1
    assert canonical_model(cold) is cold


def test_canonical_model(oc56, oc52):
    E = oc56.curve
    C = canonical_model(E)
    assert C.j_invariant() == E.j_invariant()
    assert canonical_model(C) == C
    # every u-scaling of the same curve must collapse to one model
    p = 23
    for u in (2, 5, 11, 22):
        u4, u6 = pow(u, 4, p), pow(u, 6, p)
        scaled = Curve(E.field, int(E.a4.value) * u4 % p,
                       int(E.a6.value) * u6 % p)
        assert canonical_model(scaled) == C
    # the quadratic twist shares the zero trace but is not F_q-isomorphic
    Et = oc52.curve
    d = next(d for d in range(2, 13) if pow(d, 6, 13) == 12)
    tw = Curve(Et.field, int(Et.a4.value) * pow(d, 2, 13) % 13,
               int(Et.a6.value) * pow(d, 3, 13) % 13)
    assert count_points(tw) == count_points(Et) == (14, 0)
    assert canonical_model(tw) != canonical_model(Et)


# (q, t, seed) -> ((a4, a6), count_points calls) of make_instance: every
# instance of conftest.py, the oc120 twin at t = 4, and the roster of the
# sqrt-recover benchmark workload; each (a4, a6) frozen from the search that
# built a Curve and a FieldElement point for every candidate, each count
# that of the two-point filter (_order_filter)
_FROZEN_INSTANCES = {
    (7, 2, 1): ((1, 3), 1), (11, 2, 1): ((2, 5), 1),
    (23, 6, 1): ((6, 21), 2), (17, 3, 1): ((4, 11), 1),
    (31, 2, 1): ((4, 20), 2), (2221, 92, 0): ((1668, 2145), 2),
    (239, 30, 1): ((130, 115), 2), (31, 4, 1): ((11, 29), 2),
    (120121, 2, 0): ((108144, 71009), 2),
}


def test_make_instance_frozen_with_its_counts(monkeypatch):
    calls = []

    def counted(E):
        calls.append(E)
        return count_points(E)

    monkeypatch.setattr(weilchar.action, "count_points", counted)
    for (q, t, seed), (coeffs, count) in _FROZEN_INSTANCES.items():
        calls.clear()
        oc = make_instance(q, t, random.Random(seed))
        assert (oc.curve.a4.value, oc.curve.a6.value) == coeffs, (q, t, seed)
        assert len(calls) == count, (q, t, seed)
    for p, coeffs in ((13, (1, 4)), (101, (1, 19)), (1009, (1, 7))):
        oc = gen_supersingular_instance(p)
        assert (oc.curve.a4.value, oc.curve.a6.value) == coeffs, p


def test_make_instance_refuses_uncountable_fields_up_front():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="field too large for exhaustive"):
        make_instance(1000003, 2, rng)
    assert rng.getstate() == state      # no candidate drawn


def test_ordinary_search_refuses_uncountable_ranges_up_front(monkeypatch):
    """A q_range reaching above the countable fields is refused before a
    prime is listed or a candidate drawn."""
    calls = []

    def counted(n):
        calls.append(n)
        if len(calls) > 10_000:
            raise RuntimeError("primes listed before the range was checked")
        return True

    def listed(lo, hi):
        calls.append((lo, hi))
        raise RuntimeError("primes listed before the range was checked")

    monkeypatch.setattr(weilchar.action, "_is_prime", counted)
    monkeypatch.setattr(weilchar.action, "_primes_between", listed)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="field too large for exhaustive"):
        gen_ordinary_instance((5, 10**7), rng=rng)
    assert calls == [] and rng.getstate() == state


def _primes_by_trial_division(lo, hi):
    """The primes of a q_range as gen_ordinary_instance listed them before
    its sieve: every q from max(lo, 5) to hi that passes _is_prime."""
    return [q for q in range(max(lo, 5), hi + 1)
            if weilchar.fields._is_prime(q)]


def test_prime_sieve_lists_what_trial_division_lists():
    """The sieve's list, which rng.choice draws from, equals the trial
    division one on edge ranges, on random ranges below 3,000 and at the
    top of the countable fields."""
    rng = random.Random(17)
    ranges = [(5, 5), (0, 4), (-10, 3), (5, 6), (4, 100), (24, 24),
              (25, 29), (90, 97), (1000, 20000), (999_000, 1_000_000)]
    ranges += [tuple(sorted((rng.randrange(3000), rng.randrange(3000))))
               for _ in range(200)]
    for lo, hi in ranges:
        assert weilchar.action._primes_between(max(lo, 5), hi) == \
            _primes_by_trial_division(lo, hi), (lo, hi)


def _mul_fp_by_pow(p, a4, n, A):
    """[n]A on raw points of F_p as curves._mul_fp computed it with a
    pow(d, -1, p) per slope, before its table of inverses."""
    if n < 0 and A is not None:
        A = A[0], -A[1] % p
    n = abs(n)
    acc = None
    while n and A is not None:
        x2, y2 = A
        if n & 1:
            if acc is None:
                acc = A
            elif acc[0] == x2 and (acc[1] + y2) % p == 0:
                acc = None
            else:
                x1, y1 = acc
                lam = ((y2 - y1) * pow(x2 - x1, -1, p) if x1 != x2 else
                       (3 * x1 * x1 + a4) * pow(2 * y1, -1, p)) % p
                x3 = (lam * lam - x1 - x2) % p
                acc = x3, (lam * (x1 - x3) - y1) % p
        n >>= 1
        if n:
            if not y2:
                break
            lam = (3 * x2 * x2 + a4) * pow(2 * y2, -1, p) % p
            x3 = (lam * lam - 2 * x2) % p
            A = x3, (lam * (x2 - x3) - y2) % p
    return acc


def _order_filter_oracle(q, t, a4, a6):
    """make_instance's order filter as it ran with a square root per
    candidate: the point random_point draws from the candidate's own
    generator, lifted by _lift, multiplied by the whole order
    (q+1-t)(q+1+t)."""
    tw = get_tower(q, 1)
    frng = random.Random(_fold_seed((q, t, a4, a6)))
    drawn = _draw(tw, a4, a6, frng)
    order = (q + 1 - t) * (q + 1 + t)
    return _mul_fp_by_pow(q, a4, order, _lift(tw, drawn)) is None


def _drawn_point_filter(q, t, a4, a6):
    """make_instance's order filter before the two-point test: the point
    random_point would draw from Random(_fold_seed((q, t, a4, a6))), on
    the root-free model (c x, c^2), multiplied by (q+1-t)(q+1+t)."""
    frng = random.Random(_fold_seed((q, t, a4, a6)))
    half, order = (q - 1) // 2, (q + 1 - t) * (q + 1 + t)
    for _ in range(10000):
        x = frng.randrange(q)
        c = ((x * x + a4) * x + a6) % q
        if not c:
            return order % 2 == 0
        if pow(c, half, q) == 1:
            return _mul_fp(q, a4 * c * c % q, order,
                           (c * x % q, c * c % q)) is None
    raise RuntimeError("failed to sample a curve point")


def test_order_filter_matches_the_rooted_filter_on_every_search(monkeypatch):
    """Every search of _FROZEN_INSTANCES gives the same curve, and leaves
    the caller's generator in the same state, under the two-point filter
    as under the drawn-point filter and the rooted one it replaced; the
    two-point filter passes some of the candidates and rejects others."""
    seen = []

    def two_point(q, t, a4, a6):
        seen.append(_order_filter(q, t, a4, a6))
        return seen[-1]

    for (q, t, seed), (coeffs, _) in _FROZEN_INSTANCES.items():
        states = []
        for filt in (two_point, _drawn_point_filter,
                     _order_filter_oracle):
            monkeypatch.setattr(weilchar.action, "_order_filter", filt)
            rng = random.Random(seed)
            oc = make_instance(q, t, rng)
            assert (oc.curve.a4.value, oc.curve.a6.value) == coeffs
            states.append(rng.getstate())
        assert states[0] == states[1] == states[2], (q, t, seed)
    assert len(seen) > 1000 and 0 < sum(seen) < len(seen)


def _filter_cases():
    """Every nonsingular (a4, a6) and usable t over F_5, F_7 and F_13,
    and 2,000 random candidates each over F_101 and F_2221."""
    for q in (5, 7, 13):
        for t in range(-q, q + 1):
            if t == 0 or t * t >= 4 * q:
                continue
            for a4 in range(q):
                for a6 in range(q):
                    if (4 * a4 ** 3 + 27 * a6 * a6) % q:
                        yield q, t, a4, a6
    rng = random.Random("order filter")
    for q in (101, 2221):
        bound = math.isqrt(4 * q - 1)
        n = 0
        while n < 2000:
            t = rng.choice([s for s in range(-bound, bound + 1) if s])
            a4, a6 = rng.randrange(1, q), rng.randrange(1, q)
            if (4 * a4 ** 3 + 27 * a6 * a6) % q:
                n += 1
                yield q, t, a4, a6


def test_order_filter_passes_every_curve_of_trace_t_or_its_negation():
    """The two-point filter passes every case of _filter_cases whose
    curve has trace t or -t by count_points, and rejects some others."""
    traces, verdicts = {}, []
    for q, t, a4, a6 in _filter_cases():
        if (q, a4, a6) not in traces:
            traces[q, a4, a6] = count_points(Curve(get_tower(q, 1), a4, a6))[1]
        verdicts.append(_order_filter(q, t, a4, a6))
        if abs(traces[q, a4, a6]) == abs(t):
            assert verdicts[-1], (q, t, a4, a6)
    assert 0 < sum(verdicts) < len(verdicts)
