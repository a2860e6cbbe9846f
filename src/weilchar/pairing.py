"""Weil pairing on m-torsion via Miller's algorithm.

e_m(P, Q) is computed as f_{D_P}(D_Q) / f_{D_Q}(D_P) with shifted divisors
D_P = (P+S) - (S) and D_Q = (Q+R) - (R); the function for a shifted divisor
is the translated Miller function, so every evaluation happens at honest
affine points, scalar normalizations cancel in the ratios, and no
correction-at-infinity bookkeeping is needed. Degenerate line evaluations
trigger a resample of the shift points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve, CurvePoint, point_add, scalar_mul
from .fields import FieldElement


class DegenerateEvaluation(Exception):
    """An intermediate line vanished at an evaluation point; reshift and retry."""


@dataclass(frozen=True)
class PairingValue:
    value: FieldElement
    modulus: int

    def __post_init__(self):
        one = self.value / self.value
        if self.value ** self.modulus != one:
            raise ValueError("pairing value is not a root of unity of the stated order")


def line_value(E: Curve, T: CurvePoint, U: CurvePoint, X: CurvePoint) -> FieldElement:
    """Value at X of the line through T and U (tangent if T == U).

    The line through anything and infinity is the vertical through the finite
    point; the line through infinity twice is the constant 1.
    """
    if X.is_infinity():
        raise ValueError("lines are only evaluated at affine points")
    one = E.a4 - E.a4 + 1
    if T.is_infinity() and U.is_infinity():
        return one
    if T.is_infinity():
        return X.x - U.x
    if U.is_infinity():
        return X.x - T.x
    if T.x == U.x and T.y == -U.y:
        # vertical line, covers the order-2 tangent case too
        return X.x - T.x
    if T == U:
        lam = (3 * T.x * T.x + E.a4) / (2 * T.y)
    else:
        lam = (U.y - T.y) / (U.x - T.x)
    return (X.y - T.y) - lam * (X.x - T.x)


def _miller_at(E: Curve, P: CurvePoint, m: int, X: CurvePoint) -> FieldElement:
    """f_{m,P}(X), where div(f_{m,P}) = m(P) - m(infinity), for P in E[m].

    Raises DegenerateEvaluation if an intermediate line or vertical vanishes
    at X; callers treat that as a request for fresh shift points.
    """
    if P.is_infinity():
        raise ValueError("the Miller function needs a finite base point")
    if X.is_infinity():
        raise ValueError("evaluate the Miller function at affine points only")
    one = E.a4 - E.a4 + 1
    f = one
    T = P
    for bit in bin(m)[3:]:
        num = line_value(E, T, T, X)
        T2 = point_add(E, T, T)
        den = line_value(E, T2, -T2, X) if not T2.is_infinity() else one
        if num.is_zero() or den.is_zero():
            raise DegenerateEvaluation()
        f = f * f * num / den
        T = T2
        if bit == "1":
            num = line_value(E, T, P, X)
            T1 = point_add(E, T, P)
            den = line_value(E, T1, -T1, X) if not T1.is_infinity() else one
            if num.is_zero() or den.is_zero():
                raise DegenerateEvaluation()
            f = f * num / den
            T = T1
    if not T.is_infinity():
        raise ValueError(f"base point does not have order dividing {m}")
    return f


def weil_pairing(E: Curve, P: CurvePoint, Q: CurvePoint, m: int, rng) -> PairingValue:
    """e_m(P, Q) for P, Q in E[m]; the value is a root of unity of order
    dividing m, primitive exactly when (P, Q) is a basis of E[m]."""
    if not (scalar_mul(E, m, P).is_infinity() and scalar_mul(E, m, Q).is_infinity()):
        raise ValueError(f"both arguments must be {m}-torsion points")
    one = E.a4 - E.a4 + 1
    if P.is_infinity() or Q.is_infinity():
        return PairingValue(one, m)
    for _ in range(200):
        R = E.random_point(rng)
        S = E.random_point(rng)
        # evaluation points for the two shifted divisors
        e1 = point_add(E, point_add(E, Q, R), -S)   # (Q+R) - S
        e2 = point_add(E, R, -S)                    # R - S
        e3 = point_add(E, point_add(E, P, S), -R)   # (P+S) - R
        e4 = point_add(E, S, -R)                    # S - R
        if any(T.is_infinity() or T == P or T == Q for T in (e1, e2, e3, e4)):
            continue
        try:
            top = _miller_at(E, P, m, e1) / _miller_at(E, P, m, e2)
            bot = _miller_at(E, Q, m, e3) / _miller_at(E, Q, m, e4)
        except DegenerateEvaluation:
            continue
        if bot.is_zero():
            continue
        return PairingValue(top / bot, m)
    raise RuntimeError("could not find nondegenerate shift points for the pairing")
