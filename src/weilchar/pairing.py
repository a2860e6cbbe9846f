"""Weil pairing on m-torsion via Miller's algorithm.

e_m(P, Q) is computed as f_{D_P}(D_Q) / f_{D_Q}(D_P) with shifted divisors
D_P = (P+S) - (S) and D_Q = (Q+R) - (R); the function for a shifted divisor
is the translated Miller function, so every evaluation happens at honest
affine points, scalar normalizations cancel in the ratios, and no
correction-at-infinity bookkeeping is needed.

Everything after the draw of R and S runs on raw field values: the four
shift points come from the group law (curves._add_raw), with S - R taken as
the negative of R - S since the group law is exact, and the degeneracy
checks compare raw points.  Each base point is walked once: the walk over
[k]P takes its slopes from the group law, evaluates every line and
vertical at both evaluation points into one numerator and one denominator,
and hands back the pair.  The value num_P den_Q / (den_P num_Q) then costs
one inversion for the whole pairing.  A line or vertical that vanishes at
an evaluation point zeroes its accumulator, and the pairing draws fresh
shift points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve, CurvePoint, _add_raw, _raw
from .fields import FieldElement, FieldTower


@dataclass(frozen=True)
class PairingValue:
    value: FieldElement
    modulus: int

    def __post_init__(self):
        if self.value ** self.modulus != 1:
            raise ValueError("pairing value is not a root of unity of the stated order")


def _miller_ratio(f: FieldTower, a4, P, m: int, X1, X2) -> tuple:
    """(num, den) with num / den = f_{m,P}(X1) / f_{m,P}(X2), where
    div(f_{m,P}) = m(P) - m(infinity), for a finite raw point P and affine
    raw points X1, X2 of f; num or den is zero if a line or vertical of the
    walk vanishes at X1 or X2.  Raises ValueError unless [m]P = O.

    f_{2k} = f_k^2 l_{T,T} / v_{2T} and f_{k+1} = f_k l_{T,P} / v_{T+P},
    where the line through a point and infinity is the vertical through the
    point, and the line or vertical through infinity alone is 1.
    """
    x1, y1 = X1
    x2, y2 = X2
    # num = f(X1) times the verticals at X2; den = f(X2) times those at X1
    num = den = f.one
    T = P
    for i, bit in enumerate(bin(m)[3:]):
        if i:
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
    return num, den


def weil_pairing(E: Curve, P: CurvePoint, Q: CurvePoint, m: int, rng) -> PairingValue:
    """e_m(P, Q) for P, Q in E[m]; the value is a root of unity of order
    dividing m, primitive exactly when (P, Q) is a basis of E[m].  The
    walks raise ValueError unless both arguments lie in E[m]."""
    f = E.field
    a4 = E.a4.value
    P, Q = _raw(f, P), _raw(f, Q)
    if P is None or Q is None:
        # e_m is 1 here and no shift points are drawn; each line of a walk
        # at its own base point vanishes there, so it only checks the order
        for T in (P, Q):
            if T is not None:
                _miller_ratio(f, a4, T, m, T, T)
        return PairingValue(FieldElement(f, f.one), m)
    for _ in range(200):
        R = _raw(f, E.random_point(rng))
        S = _raw(f, E.random_point(rng))
        mR = (R[0], f.vneg(R[1]))
        mS = (S[0], f.vneg(S[1]))
        # evaluation points for the two shifted divisors
        e1 = _add_raw(f, a4, _add_raw(f, a4, Q, R)[0], mS)[0]   # (Q+R) - S
        e2 = _add_raw(f, a4, R, mS)[0]                          # R - S
        e3 = _add_raw(f, a4, _add_raw(f, a4, P, S)[0], mR)[0]   # (P+S) - R
        if e2 is None:
            continue
        e4 = (e2[0], f.vneg(e2[1]))                             # S - R
        if any(T is None or T == P or T == Q for T in (e1, e2, e3, e4)):
            continue
        num_p, den_p = _miller_ratio(f, a4, P, m, e1, e2)
        num_q, den_q = _miller_ratio(f, a4, Q, m, e3, e4)
        # a factor that vanished once keeps its accumulator at zero
        if f.zero in (num_p, den_p, num_q, den_q):
            continue
        value = f.vmul(f.vmul(num_p, den_q),
                       f.vinv(f.vmul(den_p, num_q)))
        return PairingValue(FieldElement(f, value), m)
    raise RuntimeError("could not find nondegenerate shift points for the pairing")
