"""Acceptance checks for the library's headline claims, one test per claim.

1. The pairing pipeline equals the norm-character oracle on planted ideals.
2. The distinguisher's DDH advantage is 1 - 1/2^s, and collapses on squares.
3. Character values are choice-independent; dlogs move only by squares.
4. The Weil pairing satisfies its defining properties, checked against an
   independent brute-force line-function implementation.
5. Genus theory holds on every discriminant up to 5000.
6. Square-root disambiguation succeeds across 2-ranks 0 through 3.
7. Evaluation cost scales sanely in the character modulus.
"""

import random
import time

from weilchar import curves, fields
from weilchar.action import (SmoothIdeal, apply_smooth_ideal,
                             gen_supersingular_instance, make_instance,
                             random_smooth_class, split_prime)
from weilchar.attack import eval_character
from weilchar.curves import (Curve, count_points, extension_order,
                             frobenius_map, gl2_order, point_add, scalar_mul,
                             torsion_basis, torsion_extension_degree,
                             velu_isogeny)
from weilchar.fields import element_order, get_tower, legendre_symbol
from weilchar.memo import clear_caches
from weilchar.pairing import weil_pairing
from weilchar.quadforms import (Character, char_eval_norm, compose,
                                reduce_form, verify_character_relation)
from weilchar.roots import recover_root


def test_criterion_1_oracle_equivalence(oc24, oc40, oc56_chi7):
    """100/100 planted-ideal trials per parameter set, zero mismatches."""
    rng = random.Random(2024)
    delta = Character("delta", 4)
    sets = {
        "supersingular delta": [
            (gen_supersingular_instance(13), delta, 34),
            (gen_supersingular_instance(101), delta, 33),
            (gen_supersingular_instance(1009), delta, 33),
        ],
        "ordinary chi_m": [
            (oc24, Character("chi", 3), 34),
            (oc40, Character("chi", 5), 33),
            (oc56_chi7, Character("chi", 7), 33),
        ],
        "two-adic on 8 || D": [
            (oc24, Character("epsilon", 8), 50),
            (oc40, Character("delta_epsilon", 8), 50),
        ],
    }
    for name, roster in sets.items():
        trials = mismatches = 0
        for oc, ch, n in roster:
            for _ in range(n):
                ideal = random_smooth_class(oc, rng)
                target = apply_smooth_ideal(oc, ideal)
                got = eval_character(oc, target, ch, rng)
                if got.value != char_eval_norm(ch, ideal.norm):
                    mismatches += 1
                trials += 1
        assert trials == 100 and mismatches == 0, (name, mismatches)


def test_criterion_1_cold_caches(oc24, oc40):
    """Criterion 1 with every memo emptied before each trial, so that no
    result can lean on a warm cache."""
    rng = random.Random(2025)
    delta = Character("delta", 4)
    roster = [(oc24, Character("chi", 3)), (oc24, Character("epsilon", 8)),
              (oc40, Character("chi", 5)),
              (gen_supersingular_instance(13), delta),
              (gen_supersingular_instance(101), delta)]
    for oc, ch in roster:
        for _ in range(3):
            clear_caches()
            ideal = random_smooth_class(oc, rng)
            target = apply_smooth_ideal(oc, ideal)
            got = eval_character(oc, target, ch, rng)
            assert got.value == char_eval_norm(ch, ideal.norm), (oc.D, ch.label)


def test_criterion_2_ddh_advantage(oc52, oc420):
    from weilchar.ddh import run_experiment
    delta = Character("delta", 4)
    rep1 = run_experiment(oc52, 500, [delta], seed=11)
    assert 0.44 <= rep1["advantage"] <= 0.56, rep1["advantage"]
    assert rep1["false_negatives"] == 0
    assert rep1["oracle_mismatches"] == 0

    rep2 = run_experiment(oc420, 500,
                          [Character("chi", 3), Character("chi", 5)],
                          seed=11, exp_bound=7)
    assert 0.69 <= rep2["advantage"] <= 0.81, rep2["advantage"]
    assert rep2["false_negatives"] == 0
    assert rep2["oracle_mismatches"] == 0

    rep3 = run_experiment(oc52, 500, [delta], seed=11, squares_only=True)
    assert rep3["ci_advantage"][0] <= 0.0 <= rep3["ci_advantage"][1]
    assert rep3["false_negatives"] == 0


def test_criterion_3_choice_independence(oc24, oc40, oc56_chi7):
    """20 re-runs per fixed pair: values identical, and for odd moduli every
    pairwise dlog ratio is a quadratic residue."""
    pairs = [
        (oc24, (5, 3), [Character("chi", 3), Character("epsilon", 8)]),
        (oc40, (7, 3), [Character("chi", 5), Character("delta_epsilon", 8)]),
        (oc56_chi7, (3, 1), [Character("chi", 7)]),
    ]
    for oc, (ell, lam), chars in pairs:
        assert lam in split_prime(oc, ell)[1]
        target = apply_smooth_ideal(
            oc, SmoothIdeal.from_factors([(ell, lam, 1)], oc))
        for ch in chars:
            values, dlogs = [], []
            for i in range(20):
                res = eval_character(oc, target, ch, random.Random(7000 + i))
                values.append(res.value)
                dlogs.append(res.dlog_a)
            assert len(set(values)) == 1, (oc.D, ch.label, values)
            if ch.modulus % 2:
                m = ch.modulus
                for i in range(20):
                    for j in range(i + 1, 20):
                        ratio = dlogs[i] * pow(dlogs[j], -1, m) % m
                        assert legendre_symbol(ratio, m) == 1, \
                            (oc.D, ch.label, dlogs[i], dlogs[j])


# five curves over five base fields; ell is the degree of the test isogeny
# and m the pairing level, coprime to ell, with E[m] rational in degree r <= 4
_PAIRING_ROSTER = [
    # (q, a4, a6, ell, m)
    (11, 1, 7, 5, 3),
    (13, 1, 2, 3, 4),
    (17, 1, 5, 3, 5),
    (19, 1, 1, 7, 3),
    (23, 1, 7, 3, 5),
]


def _pairing_site(q, a4, a6, ell, m, rng):
    """Curve, m-torsion basis, and degree-ell isogeny, all over F_{q^r}."""
    probe = Curve(get_tower(q, 1), a4, a6)
    N, t = count_points(probe)
    r = torsion_extension_degree(probe, m)
    tw = get_tower(q, r)
    E0 = Curve(get_tower(q, 1), a4, a6)
    K = None
    while K is None or K.is_infinity():
        K = scalar_mul(E0, N // ell, E0.random_point(rng))
    phi = velu_isogeny(E0, K, ell)
    E = E0.over(tw)
    P, Q = torsion_basis(E, m, extension_order(q, t, r), rng)
    return E, P, Q, phi, phi.codomain.over(tw)


def test_criterion_4_pairing_properties():
    """Five pairing laws, each on >= 200 randomized cases over >= 5 curves,
    then an exhaustive E[3] table against an independent implementation."""
    rng = random.Random(1234)
    counts = {"bilinear": 0, "alternating": 0, "nondegenerate": 0,
              "galois": 0, "isogeny": 0}
    for (q, a4, a6, ell, m) in _PAIRING_ROSTER:
        E, P, Q, phi, C = _pairing_site(q, a4, a6, ell, m, rng)
        z = weil_pairing(E, P, Q, m, rng).value
        assert element_order(z, m) == m
        one = z / z

        def combo(u, v):
            return point_add(E, scalar_mul(E, u, P), scalar_mul(E, v, Q))

        for _ in range(40):
            a, b = rng.randrange(m), rng.randrange(m)
            got = weil_pairing(E, scalar_mul(E, a, P),
                               scalar_mul(E, b, Q), m, rng).value
            assert got == z ** (a * b), (q, m, a, b)
            counts["bilinear"] += 1

            T = combo(rng.randrange(m), rng.randrange(m))
            assert weil_pairing(E, T, T, m, rng).value == one
            counts["alternating"] += 1

            u, v = rng.randrange(m), rng.randrange(m)
            while (u, v) == (0, 0):
                u, v = rng.randrange(m), rng.randrange(m)
            T = combo(u, v)
            zp = weil_pairing(E, T, P, m, rng).value
            zq = weil_pairing(E, T, Q, m, rng).value
            assert zp != one or zq != one, (q, m, u, v)
            counts["nondegenerate"] += 1

            T, U = combo(rng.randrange(m), rng.randrange(m)), \
                combo(rng.randrange(m), rng.randrange(m))
            base = weil_pairing(E, T, U, m, rng).value
            moved = weil_pairing(E, frobenius_map(T, q),
                                 frobenius_map(U, q), m, rng).value
            assert moved == base ** q
            counts["galois"] += 1

            iT, iU = phi(T), phi(U)
            assert weil_pairing(C, iT, iU, m, rng).value == base ** ell
            counts["isogeny"] += 1
    assert all(n >= 200 for n in counts.values()), counts

    _exhaustive_table_check(rng)


# ---- independent reference pairing: affine integer arithmetic mod 19 on
# y^2 = x^3 + 2x + 12, full rational 3-torsion, no shared code with the
# library implementation

_BP, _BA4, _BA6 = 19, 2, 12


def _b_add(A, B):
    if A is None:
        return B
    if B is None:
        return A
    (x1, y1), (x2, y2) = A, B
    if x1 == x2 and (y1 + y2) % _BP == 0:
        return None
    if A == B:
        lam = (3 * x1 * x1 + _BA4) * pow(2 * y1, -1, _BP) % _BP
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, _BP) % _BP
    x3 = (lam * lam - x1 - x2) % _BP
    return (x3, (lam * (x1 - x3) - y1) % _BP)


def _b_mul(k, A):
    R = None
    for _ in range(k):
        R = _b_add(R, A)
    return R


def _b_line(U, V, X):
    """Value at X of the line through U and V over the vertical at U+V."""
    if U is None or V is None:
        return 1
    (xu, yu), (xv, yv) = U, V
    if xu == xv and (yu + yv) % _BP == 0:
        return (X[0] - xu) % _BP
    if U == V:
        lam = (3 * xu * xu + _BA4) * pow(2 * yu, -1, _BP) % _BP
    else:
        lam = (yv - yu) * pow(xv - xu, -1, _BP) % _BP
    num = (X[1] - yu - lam * (X[0] - xu)) % _BP
    W = _b_add(U, V)
    return num * pow((X[0] - W[0]) % _BP, -1, _BP) % _BP


def _b_f3(A, X):
    """f with divisor 3(A) - (3A) - 2(O), evaluated at X."""
    return _b_line(A, A, X) * _b_line(_b_mul(2, A), A, X) % _BP


def _b_pairing(P, Q, points):
    """e_3(P, Q) = f_P(D_Q) / f_Q(D_P) with shifted disjoint divisors."""
    if P is None or Q is None:
        return 1
    for S in points:
        A, B = _b_add(P, S), S
        if A is None:
            continue
        for T in points:
            Cp, Dp = _b_add(Q, T), T
            if Cp is None or len({A, B, Cp, Dp}) < 4:
                continue
            try:
                num = _b_f3(A, Cp) * pow(_b_f3(A, Dp), -1, _BP) \
                    * _b_f3(B, Dp) * pow(_b_f3(B, Cp), -1, _BP) % _BP
                den = _b_f3(Cp, A) * pow(_b_f3(Cp, B), -1, _BP) \
                    * _b_f3(Dp, B) * pow(_b_f3(Dp, A), -1, _BP) % _BP
                e = num * pow(den, -1, _BP) % _BP
            except ValueError:
                continue  # an evaluation hit a zero or pole; shift again
            if pow(e, 3, _BP) == 1 and e != 0:
                return e
    raise AssertionError(f"no admissible shifts for {P}, {Q}")


def _exhaustive_table_check(rng):
    points = []
    for x in range(_BP):
        rhs = (x ** 3 + _BA4 * x + _BA6) % _BP
        for y in range(_BP):
            if y * y % _BP == rhs:
                points.append((x, y))
    assert len(points) == 17  # N = 18 including infinity
    tors = [None] + [A for A in points if _b_mul(3, A) is None]
    assert len(tors) == 9

    E = Curve(get_tower(_BP, 1), _BA4, _BA6)

    def lift(A):
        from weilchar.curves import CurvePoint
        return CurvePoint.infinity() if A is None else E.point(A[0], A[1])

    for P in tors:
        for Q in tors:
            lib = int(weil_pairing(E, lift(P), lift(Q), 3, rng).value.value)
            assert lib == _b_pairing(P, Q, points), (P, Q)


def test_criterion_5_genus_theory():
    """Relation, counts, and kernel-equals-squares on every D <= 5000."""
    t0 = time.perf_counter()
    checked = 0
    for D in range(3, 5001):
        if D % 4 not in (0, 3):
            continue
        rep = verify_character_relation(D)
        assert rep["ok"], (D, rep)
        assert rep["two_torsion"] == 2 ** (rep["mu"] - 1)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 2500
    assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_6_square_root_recovery(oc59, oc24, oc120, oc420):
    rng = random.Random(9)
    ranks = []
    for oc, exp_bound in ((oc59, 5), (oc24, 5), (oc120, 5), (oc420, 7)):
        rep = verify_character_relation(oc.D)
        ranks.append(rep["mu"] - 1)
        successes = 0
        for _ in range(50):
            ideal = random_smooth_class(oc, rng, exp_bound=exp_bound)
            target = apply_smooth_ideal(oc, ideal)
            c = ideal.class_form
            rec = recover_root(oc, target, compose(c, c), rng=rng)
            assert rec.candidates_tested <= 2 ** (len(rec.P2) + 1)
            if oc.D == 24:
                # with every odd prime of D below the bound the character
                # filter pins the root uniquely
                assert rec.candidates_tested == 1
            if rec.recovered == reduce_form(c):
                successes += 1
        assert successes == 50, (oc.D, successes)
    assert ranks == [0, 1, 2, 3]


def test_criterion_7_complexity_sanity():
    """Identity-pair evaluations at one large q: wall clock is monotone in m,
    sigma evaluations stay bounded, and r divides #GL_2(Z/m) with r <= 2m^2."""
    oc = make_instance(120121, 2, random.Random(0))
    rng = random.Random(4)
    walls = []
    for m in (3, 5, 7, 11, 13):
        t0 = time.perf_counter()
        res = eval_character(oc, oc, Character("chi", m), rng)
        walls.append(time.perf_counter() - t0)
        assert res.value == 1
        assert res.sigma_evals <= 8
        r = res.extension_degree_used
        assert gl2_order(m) % r == 0
        assert r <= 2 * m * m
    assert walls == sorted(walls), [f"{w:.3f}" for w in walls]


def test_criterion_7_op_counts(monkeypatch):
    """Beside the wall-clock gate, a count that does not depend on the
    machine: the F_p polynomial products (fields._pmul) of each rung of the
    same ladder, counted from outside with the memos cold, grow strictly
    with m.  They cover the division polynomial, the torsion degree and,
    when the process has not built it yet, the modulus of F_{q^r}: a fresh
    process reads 272/416/560/846/988, one with the towers built
    191/308/425/657/772.  clear_caches() does not make the process fresh
    again, since fields.get_tower keeps its towers outside the memo (field
    identity must outlive it), so the counts depend on what ran before.
    F_{q^r} products are not counted, as they do not grow with m (the m = 3
    pairings take more than the m = 5 ones)."""
    calls = [0]
    pmul = fields._pmul

    def counted(*args):
        calls[0] += 1
        return pmul(*args)

    # the library imports by name, so both namespaces hold the function
    monkeypatch.setattr(fields, "_pmul", counted)
    monkeypatch.setattr(curves, "_pmul", counted)
    clear_caches()
    oc = make_instance(120121, 2, random.Random(0))
    rng = random.Random(4)
    counts = []
    for m in (3, 5, 7, 11, 13):
        before = calls[0]
        assert eval_character(oc, oc, Character("chi", m), rng).value == 1
        counts.append(calls[0] - before)
    assert all(a < b for a, b in zip(counts, counts[1:])), counts
