"""Weil pairing on m-torsion via Miller's algorithm.

e_m(P, Q) is computed as f_{D_P}(D_Q) / f_{D_Q}(D_P) with shifted divisors
D_P = (P+S) - (S) and D_Q = (Q+R) - (R); the function for a shifted divisor
is the translated Miller function, so every evaluation happens at honest
affine points, scalar normalizations cancel in the ratios, and no
correction-at-infinity bookkeeping is needed.

Each base point is walked once: the walk over [k]P takes its slopes from
the group law (curves._add_raw, on raw field values), evaluates every line
and vertical at both evaluation points into one numerator and one
denominator, and divides once at the end.  A line or vertical that
vanishes at an evaluation point makes the walk return None, and the
pairing draws fresh shift points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curves import Curve, CurvePoint, _add_raw, _raw, point_add
from .fields import FieldElement


@dataclass(frozen=True)
class PairingValue:
    value: FieldElement
    modulus: int

    def __post_init__(self):
        if self.value ** self.modulus != 1:
            raise ValueError("pairing value is not a root of unity of the stated order")


def _miller_ratio(E: Curve, P: CurvePoint, m: int, X1: CurvePoint,
                  X2: CurvePoint) -> Optional[FieldElement]:
    """f_{m,P}(X1) / f_{m,P}(X2), where div(f_{m,P}) = m(P) - m(infinity),
    for finite P and affine X1, X2; None if a line or vertical of the walk
    vanishes at X1 or X2.  Raises ValueError unless [m]P = O.

    f_{2k} = f_k^2 l_{T,T} / v_{2T} and f_{k+1} = f_k l_{T,P} / v_{T+P},
    where the line through a point and infinity is the vertical through the
    point, and the line or vertical through infinity alone is 1.  The walk
    runs on raw values of E's field (curves._add_raw) and wraps only the
    ratio.
    """
    f = E.field
    a4 = E.a4.value
    P = _raw(f, P)
    x1, y1 = _raw(f, X1)
    x2, y2 = _raw(f, X2)
    # num = f(X1) times the verticals at X2; den = f(X2) times those at X1
    num = den = f.one
    T = P
    for bit in bin(m)[3:]:
        num, den = f.vmul(num, num), f.vmul(den, den)
        # a doubling with the current T, then an addition of P on a 1 bit
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
    # a factor that vanished once keeps its accumulator at zero
    if num == f.zero or den == f.zero:
        return None
    return FieldElement(f, f.vmul(num, f.vinv(den)))


def weil_pairing(E: Curve, P: CurvePoint, Q: CurvePoint, m: int, rng) -> PairingValue:
    """e_m(P, Q) for P, Q in E[m]; the value is a root of unity of order
    dividing m, primitive exactly when (P, Q) is a basis of E[m].  The
    walks raise ValueError unless both arguments lie in E[m]."""
    if P.is_infinity() or Q.is_infinity():
        # e_m is 1 here and no shift points are drawn; each line of a walk
        # at its own base point vanishes there, so it only checks the order
        for T in (P, Q):
            if not T.is_infinity():
                _miller_ratio(E, T, m, T, T)
        return PairingValue(E.field(1), m)
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
        top = _miller_ratio(E, P, m, e1, e2)
        bot = _miller_ratio(E, Q, m, e3, e4)
        if top is None or bot is None:
            continue
        return PairingValue(top / bot, m)
    raise RuntimeError("could not find nondegenerate shift points for the pairing")
