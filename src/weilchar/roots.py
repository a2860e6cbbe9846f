"""Square-root disambiguation in the class group.

Knowing [c]^2 and the oriented pair (E, E') with E' = [c]E leaves
#cl(O)[2] square roots to tell apart.  Characters of small odd primes
dividing D, read off the pair itself, cut the candidate set down to a
subgroup G with #G <= 2^(#P2+1); the survivors are settled by applying
each candidate class and comparing j-invariants.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .action import (OrientedCurve, _least_model, apply_smooth_ideal,
                     smooth_in_class)
from .attack import eval_character
from .memo import memo
from .quadforms import (Character, QuadForm, assigned_characters,
                        char_table, class_group, discriminant, reduce_form,
                        two_torsion_and_sqrt)


class RootRecovery(NamedTuple):
    target_square: QuadForm
    bound_B: int
    P1: tuple                      # odd primes filtered by characters
    P2: tuple                      # odd primes left to the residual group
    residual_group_size: int
    recovered: QuadForm
    candidates_tested: int
    char_values: dict
    timings_ms: dict

    def to_json(self) -> dict:
        return {
            "target_square": self.target_square.to_json(),
            "B": self.bound_B,
            "P1": list(self.P1),
            "P2": list(self.P2),
            "residual_group_size": self.residual_group_size,
            "recovered": self.recovered.to_json(),
            "candidates_tested": self.candidates_tested,
            "char_values": self.char_values,
        }


def _model(oc: OrientedCurve) -> tuple:
    """p and the (a4, a6) of the canonical model of oc's curve over F_p."""
    E = oc.curve
    p = E.field.p
    return p, _least_model(p, int(E.a4.value), int(E.a6.value))


@memo
def _class_model(oc: OrientedCurve, form: QuadForm) -> tuple:
    """_model of the class of form applied to oc."""
    return _model(apply_smooth_ideal(oc, smooth_in_class(oc, form)))


def choose_bound(factorization) -> int:
    """B = min(2^omega, max(ell_i | ell_i <= 2^(omega - i))) where omega
    counts every distinct prime of D, the ell_i are the odd ones in
    increasing order, and max of an empty set is +infinity."""
    factors = [(int(p), int(e)) for p, e in factorization]
    omega = len(factors)
    odd = sorted(p for p, _ in factors if p % 2)
    cap = 2 ** omega
    fitting = [ell for i, ell in enumerate(odd, start=1)
               if ell <= 2 ** (omega - i)]
    if not fitting:
        return cap
    return min(cap, max(fitting))


def recover_root(ocE: OrientedCurve, ocE2: OrientedCurve, c_squared: QuadForm,
                 B="auto", *, rng, use_two_adic: bool = False) -> RootRecovery:
    """Find the class [c] with [c]E = E' among the square roots of c_squared.

    Odd primes ell | D up to B contribute a character value chi_ell([c])
    evaluated on the curve pair; a prime equal to the field characteristic
    cannot be evaluated and is pushed into P2, growing the residual group
    instead of failing.  use_two_adic additionally filters by the assigned
    delta/epsilon characters.
    """
    D = ocE.D
    factors = discriminant(D).factors
    if B != "auto" and (type(B) is not int or B < 0):
        raise ValueError("the bound B must be 'auto' or an int at least 0, "
                         f"not {B!r}")
    bound = choose_bound(factors) if B == "auto" else B

    timings: dict = {}
    t0 = time.perf_counter()
    odd_primes = sorted(p for p, _ in factors if p % 2)
    P1, P2 = [], []
    for ell in odd_primes:
        if ell <= bound and ell != ocE.q:
            P1.append(ell)
        else:
            P2.append(ell)

    filter_chars = [Character("chi", ell) for ell in P1]
    if use_two_adic:
        filter_chars += [ch for ch in assigned_characters(D)
                         if ch.kind != "chi"]
    values = {}
    for ch in filter_chars:
        values[ch.label] = eval_character(ocE, ocE2, ch, rng).value
    timings["characters_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    _, root = two_torsion_and_sqrt(D, c_squared)
    if root is None:
        raise ValueError("the target class is not a square in cl(O)")
    # class indices throughout: the record's products and character tables
    group = class_group(D)
    tables = [(char_table(D, ch), values[ch.label]) for ch in filter_chars]
    r = group.index[root]
    adjusted = next((k for k in (group.mul(r, s) for s in group.span)
                     if all(tab[k] == v for tab, v in tables)), None)
    if adjusted is None:
        raise RuntimeError("no candidate matched the character filter: "
                           "the pair is not connected by a root of the target")

    G = [s for s in group.span if all(tab[s] == 1 for tab, _ in tables)]
    if len(G) > 2 ** (len(P2) + 1):
        raise RuntimeError(
            f"{len(G)} two-torsion classes survive the character filter, "
            f"above the bound 2^{len(P2) + 1}")
    timings["sqrt_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    # twists share a j-invariant when t = 0, so compare full models: one
    # canonical model per F_q-isomorphism class keeps the match unique
    target_model = _model(ocE2)
    # indices follow the (a, b, c) order of the enumeration
    candidates = [group.forms[k] for k in sorted(group.mul(adjusted, s)
                                                 for s in G)]
    matches = [cand for cand in candidates
               if _class_model(ocE, cand) == target_model]
    timings["verify_ms"] = (time.perf_counter() - t0) * 1000.0

    if not matches:
        raise RuntimeError("no candidate matched: inputs are inconsistent "
                           "with E' = [c]E for a root of the target")
    if len(matches) > 1:
        raise RuntimeError("multiple candidates matched: the action failed "
                           "to separate classes (internal error)")
    return RootRecovery(
        target_square=reduce_form(c_squared),
        bound_B=bound,
        P1=tuple(P1),
        P2=tuple(P2),
        residual_group_size=len(G),
        recovered=matches[0],
        candidates_tested=len(candidates),
        char_values=values,
        timings_ms=timings,
    )
