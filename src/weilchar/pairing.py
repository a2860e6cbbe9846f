"""Weil pairing on m-torsion via Miller's algorithm.

The value is Miller's unshifted formula (Miller, J. Cryptology 17, 2004):
for finite P != Q in E[m], e_m(P, Q) = (-1)^m f_{m,P}(Q) / f_{m,Q}(P),
where div(f_{m,P}) = m(P) - m(O) and f_{m,P} is the product of the
lines of its Miller walk over the product of the verticals.  Lines and
verticals are monic in y and x, so f_{m,P} is normalized at infinity as
the formula needs.  Each walk evaluates at the other point once
(_miller_values) and the value costs one inversion.  A line or vertical of
the walk of P vanishes only at multiples of P, so a zero factor means Q is
in <P> or P in <Q>, and the value is 1.

The pairing makes the random draws of the shifted-divisor pairing it
replaced.  That one evaluated f_{D_P}(D_Q) / f_{D_Q}(D_P) with
D_P = (P+S) - (S) and D_Q = (Q+R) - (R) for random points R and S, and
drew again until the points e1 = Q + D, e2 = D, e3 = P - D and e4 = -D,
with D = R - S, were finite, differed from P and Q, and were zeros of no
line or vertical of either walk.  For P, Q in E[m] every one of those
failures puts D in E[m], since a zero of the walk of P is a multiple of
P and one of the walk of Q a multiple of Q.  So [m]R = [m]S, and
x([m]R) != x([m]S) certifies the attempt.  Each draw is
Curve.draw_point (x, squareness test, sign bit; no square root), and
_x_multiple takes x([m]R) x-only in projective form, with no inversion,
for m = 2^k starting from the draw's c (Brier and Joye, PKC 2002).

Only when the certificate is inconclusive are the roots taken and the
shifted attempt run exactly (_shifted_value), to decide whether to draw
again.  Arguments outside E[m] make the unshifted walks raise; every
attempt then runs the exact path, which raises ValueError on the attempt
where the shifted pairing did.

A pairing is a plan (_plan: the raw P, Q, a4 and a6, the checked
unshifted value, and a4, a6 as the ints of F_p the certificate scales by)
that _settle settles.  Settling makes every draw, the certificate and the
exact fallback, since they decide what the generator yields, and
arguments outside E[m] raise on every call.  weil_pairing builds a plan
and settles it; attack keeps the plan of each accepted cell of E[m] in the
cell's record, so a warm side pairing converts no point and looks up no
memo.  The unshifted value is memoized (memo.memo) on the tower, a4 and
the raw P, Q and m, as the attack pairs few distinct arguments
(fixed-argument reuse: Costello and Stebila, LATINCRYPT 2010); a finite P
and a4 fix a6, so the key is whole.  So are the checked PairingValue
(_checked) and the curve's a4, a6 as ints of F_p (_prime_field_ints).

Each attempt is one call of _replay, which draws R, then S, as
Curve.draw_point does, and certifies them.  Where the tower's product is
unrolled (fields.SymbolicTower, 2 <= r <= UNROLLED_MUL_MAX_R), each draw is
one call of a kernel of curves (_draw_kernel: the rejection loop, reading
the generator as randrange does, around each candidate's x, c = x^3 +
a4 x + a6 and the norm N(c) that decides squareness), and the certificate
is one kernel per tower and m (_separation_kernel), _x_multiple traced
for both points with a4 and a6 as int arguments, so one kernel serves
every curve over the tower.  It returns the decision x([m]R) != x([m]S).
Other towers, and generators with a randrange of their own, run the same
routines interpreted.
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import Curve, CurvePoint, _add_raw, _draw, _lift, _raw
from .fields import FieldElement, FieldTower, SymbolicTower
from .memo import memo


class PairingValue(NamedTuple("PairingValue", [("value", FieldElement),
                                                ("modulus", int)])):
    __slots__ = ()

    def __new__(cls, value: FieldElement, modulus: int):
        f = value.field
        if f.vpow(value.value, modulus) != f.one:
            raise ValueError("pairing value is not a root of unity of the stated order")
        return super().__new__(cls, value, modulus)


@memo
def _checked(f: FieldTower, value, m: int) -> PairingValue:
    """The PairingValue of the raw value of f, checked when first built."""
    return PairingValue(FieldElement(f, value), m)


def _miller_values(f: FieldTower, a4, P, m: int, X) -> tuple:
    """(lines, verticals): the products of the lines and of the verticals
    of the walk for f_{m,P} at the affine raw point X of f, for a finite
    raw point P, so f_{m,P}(X) = lines / verticals when neither is zero.
    Raises ValueError unless [m]P = O.

    f_{2k} = f_k^2 l_{T,T} / v_{2T} and f_{k+1} = f_k l_{T,P} / v_{T+P},
    where the line through a point and infinity is the vertical through the
    point, and the line or vertical through infinity alone is 1.
    """
    x, y = X
    lines = verticals = f.one
    T = P
    for i, bit in enumerate(bin(m)[3:]):
        if i:
            lines, verticals = f.vmul(lines, lines), f.vmul(verticals, verticals)
        # a doubling with the current T, then an addition of P on a 1 bit
        for U in ((T, P) if bit == "1" else (T,)):
            if T is None and U is None:
                continue
            S, lam = _add_raw(f, a4, T, U)
            if lam is None:
                line = f.vsub(x, (U if T is None else T)[0])
            else:
                tx, ty = T
                line = f.vsub(f.vsub(y, ty), f.vmul(lam, f.vsub(x, tx)))
            lines = f.vmul(lines, line)
            if S is not None:
                verticals = f.vmul(verticals, f.vsub(x, S[0]))
            T = S
    if T is not None:
        raise ValueError(f"base point does not have order dividing {m}")
    return lines, verticals


@memo
def _unshifted_value(f: FieldTower, a4, P, Q, m: int):
    """e_m(P, Q) for finite raw P, Q by the unshifted formula; raises
    ValueError unless both lie in E[m]."""
    lp, vp = _miller_values(f, a4, P, m, Q)
    lq, vq = _miller_values(f, a4, Q, m, P)
    if f.zero in (lp, vp, lq, vq):
        return f.one
    value = f.vmul(f.vmul(lp, vq), f.vinv(f.vmul(vp, lq)))
    return f.vneg(value) if m % 2 else value


def _shifted_value(f: FieldTower, a4, P, Q, m: int, R, S):
    """e_m(P, Q) = f_P(e1) / f_P(e2) / (f_Q(e3) / f_Q(e4)) for the shift
    points R, S, or None when they are degenerate (see the module
    docstring); raises ValueError unless P and Q lie in E[m]."""
    mR = (R[0], f.vneg(R[1]))
    mS = (S[0], f.vneg(S[1]))
    e1 = _add_raw(f, a4, _add_raw(f, a4, Q, R)[0], mS)[0]   # (Q+R) - S
    e2 = _add_raw(f, a4, R, mS)[0]                          # R - S
    e3 = _add_raw(f, a4, _add_raw(f, a4, P, S)[0], mR)[0]   # (P+S) - R
    if e2 is None:
        return None
    e4 = (e2[0], f.vneg(e2[1]))                             # S - R
    if any(T is None or T == P or T == Q for T in (e1, e2, e3, e4)):
        return None
    l1, v1 = _miller_values(f, a4, P, m, e1)
    l2, v2 = _miller_values(f, a4, P, m, e2)
    l3, v3 = _miller_values(f, a4, Q, m, e3)
    l4, v4 = _miller_values(f, a4, Q, m, e4)
    # f_P(e1) / f_P(e2) = num_p / den_p, f_Q(e3) / f_Q(e4) = num_q / den_q
    num_p, den_p = f.vmul(l1, v2), f.vmul(v1, l2)
    num_q, den_q = f.vmul(l3, v4), f.vmul(v3, l4)
    if f.zero in (num_p, den_p, num_q, den_q):
        return None
    return f.vmul(f.vmul(num_p, den_q), f.vinv(f.vmul(den_p, num_q)))


def _lin(f: FieldTower, const: int, terms):
    """const + the sum of c v over the (c, v) in terms: raw values v of f
    scaled by ints c, reduced once; by f's compiled kernel for r > 1."""
    if f.r == 1:
        return (const + sum(c * v for c, v in terms)) % f.p
    return f.lin_kernel(len(terms))(const, terms)


def _x_multiple(f: FieldTower, a4: int, a6: int, m: int, x, c) -> tuple:
    """x([m]R) as (X, Z) with X / Z = x([m]R), m >= 2, for R = (x, y) on
    y^2 = x^3 + a4 x + a6 with c = y^2, a4 and a6 given as ints of F_p.
    Z = 0 exactly when [m]R = O, and then X != 0.  No inversion.

    For m = 2^k n with n odd, x([n]R) = x - psi_{n-1} psi_{n+1} / psi_n^2
    from the division values at x, then k x-only doublings:
    x(2R) = ((x^2 - a4)^2 - 8 a6 x) / (4c), taken from x and c for n = 1."""
    k = (m & -m).bit_length() - 1
    n = m >> k
    if n == 1:
        t = _lin(f, -a4, ((1, f.vmul(x, x)),))
        X, Z = (_lin(f, 0, ((1, f.vmul(t, t)), (-8 * a6, x))),
                _lin(f, 0, ((4, c),)))
        k -= 1
    else:
        fm1, fn, fp1 = _division_values(f, a4, a6, n, x, c)
        # psi_n = f_n and psi_{n-1} psi_{n+1} = (2y)^2 f_{n-1} f_{n+1}
        Z = f.vmul(fn, fn)
        X = _lin(f, 0, ((1, f.vmul(x, Z)),
                        (-4, f.vmul(c, f.vmul(fm1, fp1)))))
    for _ in range(k):
        XX, ZZ, XZ = f.vmul(X, X), f.vmul(Z, Z), f.vmul(X, Z)
        XZ3 = f.vmul(XZ, ZZ)
        t = _lin(f, 0, ((1, XX), (-a4, ZZ)))
        X, Z = (_lin(f, 0, ((1, f.vmul(t, t)), (-8 * a6, XZ3))),
                _lin(f, 0, ((4, f.vmul(XZ, XX)), (4 * a4, XZ3),
                            (4 * a6, f.vmul(ZZ, ZZ)))))
    return X, Z


def _division_values(f: FieldTower, a4: int, a6: int, n: int, x, c) -> tuple:
    """(f_{n-1}, f_n, f_{n+1}) at x for odd n >= 3, where psi_j = f_j for
    odd j and 2y f_j for even j, by the recurrences of
    curves._division_f on values, with F = (2y)^2 = 4c."""
    x2 = f.vmul(x, x)
    x3 = f.vmul(x2, x)
    x4 = f.vmul(x2, x2)
    vals = {
        0: f.zero, 1: f.one, 2: f.one,
        3: _lin(f, -a4 * a4, ((3, x4), (6 * a4, x2), (12 * a6, x))),
        4: _lin(f, -2 * (8 * a6 * a6 + a4 ** 3),
                ((2, f.vmul(x3, x3)), (10 * a4, x4), (40 * a6, x3),
                 (-10 * a4 * a4, x2), (-8 * a4 * a6, x))),
    }
    F = _lin(f, 0, ((4, c),))
    F2 = f.vmul(F, F)
    mul = f.vmul

    def get(j: int):
        if j in vals:
            return vals[j]
        h = j // 2
        if j % 2:
            u = mul(get(h + 2), mul(get(h), mul(get(h), get(h))))
            v = mul(get(h - 1), mul(get(h + 1), mul(get(h + 1), get(h + 1))))
            if h % 2:
                v = mul(F2, v)
            else:
                u = mul(F2, u)
            val = f.vsub(u, v)
        else:
            val = mul(get(h), f.vsub(
                mul(get(h + 2), mul(get(h - 1), get(h - 1))),
                mul(get(h - 2), mul(get(h + 1), get(h + 1)))))
        vals[j] = val
        return val

    return get(n - 1), get(n), get(n + 1)


def _separated(f: FieldTower, a4: int, a6: int, m: int, R, S) -> bool:
    """Whether x([m]R) != x([m]S) for the draw_point tuples R and S,
    which certifies their shifted attempt nondegenerate; by
    _separation_kernel for a traceable f."""
    if f.traceable:
        return _separation_kernel(f, m)(a4, a6, R[0], R[1], S[0], S[1])
    XR, ZR = _x_multiple(f, a4, a6, m, R[0], R[1])
    XS, ZS = _x_multiple(f, a4, a6, m, S[0], S[1])
    return f.vmul(XR, ZS) != f.vmul(XS, ZR)


@memo
def _separation_kernel(f: FieldTower, m: int):
    """_separated compiled for the traceable f and m: kernel(A, B, xR, cR,
    xS, cS) traces _x_multiple on the ints A, B of every curve over f."""
    t = SymbolicTower(f)
    A, B = t.scalar("A"), t.scalar("B")
    XR, ZR = _x_multiple(t, A, B, m, t.value("xR"), t.value("cR"))
    XS, ZS = _x_multiple(t, A, B, m, t.value("xS"), t.value("cS"))
    return t.compile("A, B, xR, cR, xS, cS",
                     t.differ(t.vmul(XR, ZS), t.vmul(XS, ZR)),
                     role=f"certificate m={m}")


@memo
def _prime_field_ints(f: FieldTower, a4, a6) -> tuple:
    """The raw coefficients a4, a6 of a curve over f as ints of F_p;
    ValueError, which the memo does not keep, if either lies outside."""
    return tuple(FieldElement(f, v).descend().value for v in (a4, a6))


def _replay(f: FieldTower, a4, a6, A, B, m: int, rng) -> tuple:
    """One attempt of weil_pairing: R, then S, drawn as Curve.draw_point
    draws them, and whether x([m]R) != x([m]S) (_separated) for the ints
    A, B of F_p of a4, a6, or False when A is None."""
    R, S = _draw(f, a4, a6, rng), _draw(f, a4, a6, rng)
    return R, S, A is not None and _separated(f, A, B, m, R, S)


def _plan(f: FieldTower, a4, a6, P, Q, m: int) -> tuple:
    """The plan of e_m(P, Q) for raw points P, Q of f on y^2 = x^3 + a4 x
    + a6 (raw a4, a6): (f, a4, a6, P, Q, m, value, A, B), value the
    checked unshifted value and A, B the ints of F_p of a4, a6 that the
    certificate scales by.  A and B are None, and so is value unless P or
    Q is infinity, when no attempt can be certified: the walks raised (P
    or Q outside E[m]) or a4 or a6 lies outside F_p.  Raises ValueError
    when P or Q is infinity and the other lies outside E[m]."""
    head = (f, a4, a6, P, Q, m)
    if P is None or Q is None:
        # e_m is 1 here; the walk only checks the order
        for T in (P, Q):
            if T is not None:
                _miller_values(f, a4, T, m, T)
        return head + (_checked(f, f.one, m), None, None)
    try:
        value = _unshifted_value(f, a4, P, Q, m)
        A, B = _prime_field_ints(f, a4, a6)
    except ValueError:
        return head + (None, None, None)
    return head + (_checked(f, value, m), A, B)


def _settle(plan: tuple, rng) -> PairingValue:
    """e_m(P, Q) of a _plan, drawing from rng: none for P or Q infinite,
    else attempts (_replay) until one is certified, which gives the
    unshifted value, or its exact shifted value is defined.  Raises
    ValueError unless P and Q lie in E[m]."""
    f, a4, a6, P, Q, m, value, A, B = plan
    if P is None or Q is None:
        return value
    for _ in range(200):
        R, S, certified = _replay(f, a4, a6, A, B, m, rng)
        if certified:
            return value
        shifted = _shifted_value(f, a4, P, Q, m, _lift(f, R), _lift(f, S))
        if shifted is not None:
            return _checked(f, shifted, m)
    raise RuntimeError("could not find nondegenerate shift points for the pairing")


def weil_pairing(E: Curve, P: CurvePoint, Q: CurvePoint, m: int, rng) -> PairingValue:
    """e_m(P, Q) for P, Q in E[m]; the value is a root of unity of order
    dividing m, primitive exactly when (P, Q) is a basis of E[m].  Raises
    ValueError unless both arguments lie in E[m]."""
    f = E.field
    return _settle(_plan(f, E.a4.value, E.a6.value, _raw(f, P), _raw(f, Q),
                         m), rng)
