"""Evaluating assigned characters at the unknown ideal class between two
oriented curves.

The engine behind everything else here: with sigma adjusted to a norm prime
to the character modulus m, the two pairings e_m(P, sigma P) on E and
e_m(P', sigma' P') on E' differ exactly by the norm of the connecting ideal
times a value the character cannot see (a represented norm of a principal
ideal), so one small discrete log in mu_m yields the character value.
"""

import math
import random
import time
from typing import NamedTuple, Optional

from .action import OrientedCurve, _fold_seed
from .curves import (_raw, _reads_by_getrandbits, gl2_order, point_add,
                     scalar_mul, torsion_basis, torsion_extension_degree)
from .fields import (FieldElement, FieldTower, dlog_in_mu_m, element_order,
                     get_tower)
from .memo import memo
from .pairing import _plan, _settle
from .quadforms import (Character, assigned_characters, char_eval_norm,
                        char_table)


class CharEvalResult:
    """One character value together with the dlog it came from."""

    def __init__(self, char: Character, value: int, dlog_a: int,
                 extension_degree_used: int, gamma_mod8: Optional[int],
                 sigma_evals: int, timings_ms: dict):
        self.char, self.value, self.dlog_a = char, value, dlog_a
        self.extension_degree_used = extension_degree_used
        self.gamma_mod8, self.sigma_evals = gamma_mod8, sigma_evals
        self.timings_ms = timings_ms

    def to_json(self) -> dict:
        return {
            "char": self.char.to_json(),
            "value": self.value,
            "a": self.dlog_a,
            "r": self.extension_degree_used,
            "gamma": self.gamma_mod8,
            "sigma_evals": self.sigma_evals,
        }


def adjust_generator(oc, m: int) -> int:
    """Smallest shift k making N(sigma + k) coprime to an odd modulus m, or
    odd for m in {4, 8}. The quadratic N + k(tr + k) mod m cannot vanish on
    every k below the bound, so the scan always lands."""
    if m in (4, 8):
        need, bound = 2, 2
    elif m % 2 and m > 1:
        need, bound = m, m
    else:
        raise ValueError(f"unsupported character modulus {m}")
    tr, N = oc.sigma_trace, oc.sigma_norm
    for k in range(bound):
        if math.gcd(N + k * (tr + k), need) == 1:
            return k
    raise RuntimeError(f"no usable shift below {bound} for modulus {m}")


@memo
def _torsion_basis(oc: OrientedCurve, m: int, r: int) -> tuple:
    """Basis of E[m] over F_{q^r}, found on a generator seeded by the model,
    r and m, so the caller's randomness stream is the same whether or not
    the basis was memoized."""
    rng = random.Random(_fold_seed((oc.q, r, int(oc.curve.a4.value),
                                    int(oc.curve.a6.value), m)))
    return torsion_basis(oc.curve_in(r), m, oc.group_order(r), rng)


@memo
def _cell(oc: OrientedCurve, trace: int, norm: int, m: int, r: int, a: int,
          b: int) -> tuple:
    """The record of the cell (a, b) of E[m] over F_{q^r}: (P, sigma P, n,
    plan), P = a B1 + b B2 on the memoized basis, n the sigma evaluations
    a draw of the cell counts and plan the pairing._plan of e_m(P, sigma P)
    when a draw accepts P, else None.  A draw rejects P when it is
    infinite, or for even m when (m/2)P, read from its own cell, is
    infinite (n = 0) or fixed by sigma (n = 1); sigma P is then None but
    for P in E[2], whose sigma the cells over it read.  sigma's trace and
    norm are in the key because equality does not see an orientation that
    overrides sigma_eval (one scaled by s > 1) on the same curve."""
    E = oc.curve_in(r)
    B1, B2 = _torsion_basis(oc, m, r)
    P = point_add(E, scalar_mul(E, a, B1), scalar_mul(E, b, B2))
    if P.is_infinity():
        return P, None, 0, None
    if m % 2 == 0:
        h = m // 2
        if a % h == b % h == 0:
            return P, oc.sigma_eval(P, E), 0, None
        T, sT, _, _ = _cell(oc, trace, norm, m, r, h * a % m, h * b % m)
        if T.is_infinity():
            return P, None, 0, None
        if sT == T:
            return P, None, 1, None
    sP = oc.sigma_eval(P, E)
    f = E.field
    return P, sP, 2 - m % 2, _plan(f, E.a4.value, E.a6.value, _raw(f, P),
                                   _raw(f, sP), m)


def _side_pairing(oc, m: int, tower, rng) -> tuple:
    """(z, n): z = e_m(P, sigma P) for P rejection-sampled uniform over
    E[m] until (P, sigma P) generates, n the sigma evaluations counted.

    P = aB1 + bB2 is drawn as its coefficients, a first, and each draw
    reads one memoized record of its cell (_cell), so each of the m^2
    points of E[m], its sigma image and the plan of their pairing are
    computed at most once per basis and orientation.  For m = 4 and 8 the
    record has already decided whether sigma moves (m/2)P; for odd m a
    finite P generates when e_m(P, sigma P), settled from the record's
    plan, is primitive."""
    key = (oc, oc.sigma_trace, oc.sigma_norm, m, tower.r)
    plain, getrandbits, bits = (_reads_by_getrandbits(rng), rng.getrandbits,
                                m.bit_length())
    sigma_evals = 0
    for _ in range(64):
        if plain:       # randrange(m) twice, as randrange reads them
            a = getrandbits(bits)
            while a >= m:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= m:
                b = getrandbits(bits)
        else:
            a, b = rng.randrange(m), rng.randrange(m)
        _, _, evals, plan = _cell(*key, a, b)
        sigma_evals += evals
        if plan is None:
            continue
        z = _settle(plan, rng).value
        if m % 2 == 0 or element_order(z, m) == m:
            return z, sigma_evals
    raise RuntimeError(
        f"no independent point in 64 draws: the orientation acts by a scalar "
        f"on the {m}-torsion (imprimitive sigma or wrong modulus)")


@memo
def _extension_degree(oc: OrientedCurve, m: int) -> int:
    """torsion_extension_degree of the instance curve at m, memoized so
    that one division-polynomial computation serves every evaluation
    against the same base curve."""
    return torsion_extension_degree(oc.curve, m)


class BaseSide(NamedTuple):
    """The half of a character evaluation that sees only the base curve:
    the shift k of sigma, the torsion degree r, its tower, and the base
    pairing z = e_m(P, sigma P).  One record serves every target compared
    against the same base; timings_ms holds what building it cost."""

    oc: OrientedCurve
    char: Character
    k: int
    r: int
    tower: FieldTower
    z: FieldElement
    sigma_evals: int
    timings_ms: dict


@memo
def _assigned(D: int) -> frozenset:
    """The assigned characters of discriminant -D as a set; ValueError,
    which the memo does not keep, when -D is no discriminant."""
    return frozenset(assigned_characters(D))


def base_side(ocE: OrientedCurve, char: Character, rng) -> BaseSide:
    """Base half of eval_character: its checks on the base and character,
    the shift, the torsion degree, and the base pairing, drawn from rng in
    the order eval_character draws them."""
    m = char.modulus
    q = ocE.q
    if math.gcd(m, q) != 1:
        raise ValueError(
            f"modulus {m} shares a factor with the characteristic {q}; "
            f"{char.label} cannot be evaluated on this instance")
    if char not in _assigned(ocE.D):
        raise ValueError(f"{char.label} is not assigned to discriminant -{ocE.D}")

    times = {}
    t0 = time.perf_counter()
    k = adjust_generator(ocE, m)
    A = ocE if k == 0 else ocE.shifted(k)
    t1 = time.perf_counter()
    times["adjust_ms"] = (t1 - t0) * 1000

    r = _extension_degree(ocE, m)
    if gl2_order(m) % r:
        raise RuntimeError(
            f"extension degree {r} does not divide #GL2(Z/{m})")
    if r > 2 * m * m:
        raise RuntimeError(
            f"extension degree {r} exceeds the element-order bound 2*{m}^2")
    tower = get_tower(q, r)
    t2 = time.perf_counter()
    times["extension_ms"] = (t2 - t1) * 1000

    z, sigma_evals = _side_pairing(A, m, tower, rng)
    times["side_base_ms"] = (time.perf_counter() - t2) * 1000
    return BaseSide(ocE, char, k, r, tower, z, sigma_evals, times)


def eval_character(ocE: OrientedCurve, ocE2: OrientedCurve, char: Character,
                   rng, base: Optional[BaseSide] = None) -> CharEvalResult:
    """Algorithm behind the attack: two pairings, one dlog, one symbol.

    ocE2 must be a curve in the orbit of ocE; the result is the character
    value at the class sending ocE to ocE2.  base, from base_side(ocE, char,
    ...), supplies the base pairing so that several targets share it;
    without it the base side is built here, drawing from rng first.  The
    result's timings_ms cover the work of this call only."""
    m = char.modulus
    if (ocE2.q, ocE2.t, ocE2.sigma_k) != (ocE.q, ocE.t, ocE.sigma_k):
        raise ValueError("instances do not share field, trace, and sigma data")
    t0 = time.perf_counter()
    if base is None:
        base = base_side(ocE, char, rng)
        times = dict(base.timings_ms)
    elif base.char != char or (base.oc is not ocE and base.oc != ocE):
        raise ValueError(
            "the base side was built for another base curve or character")
    else:
        times = {}

    t1 = time.perf_counter()
    B = ocE2 if base.k == 0 else ocE2.shifted(base.k)
    z2, sigma_evals = _side_pairing(B, m, base.tower, rng)
    t2 = time.perf_counter()
    times["side_target_ms"] = (t2 - t1) * 1000

    a = dlog_in_mu_m(base.z, z2, m)
    if math.gcd(a, m) != 1:
        raise RuntimeError("dlog landed outside the unit group")
    value = char_eval_norm(char, a)
    gamma = a % 8 if (m == 8 and ocE.D % 32 == 0) else None
    t3 = time.perf_counter()
    times["dlog_ms"] = (t3 - t2) * 1000
    times["total_ms"] = (t3 - t0) * 1000
    return CharEvalResult(char, value, a % m, base.r, gamma,
                          base.sigma_evals + sigma_evals, times)


def usable_characters(oc: OrientedCurve) -> list:
    """Assigned characters that are both evaluable (modulus coprime to q)
    and nontrivial on the class group, per enumeration."""
    return [ch for ch in assigned_characters(oc.D)
            if math.gcd(ch.modulus, oc.q) == 1 and -1 in char_table(oc.D, ch)]
