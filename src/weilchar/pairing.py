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
line or vertical of either walk.  Every one of those failures puts D in
<P, Q>, since a zero of the walk of P is a multiple of P and one of the
walk of Q a multiple of Q.  A nondegenerate attempt gives the unshifted
value and reads nothing more, so one certified nondegenerate returns it
with every value, draw and generator state unchanged.  Two certificates
run, cheaper first:

- The descent tests (_descent_separates).  For a root e in F_q of the
  cubic, the order-2 Tate pairing with (e, 0), R -> (x_R - e)^((q-1)/2)
  on E(F_q), q = p^r, is a homomorphism to +-1 that needs no y, and is
  nontrivial as (e, 0) is a nonzero point of E(F_q)[2] (2-isogeny
  descent: Silverman, AEC X.4; Castryck, Sotakova and Vercauteren,
  CRYPTO 2020); Euler's test on the norm N(x_R - e) decides it.  The
  plan keeps up to two roots (_descent_roots), in F_p or, at even r, in
  F_{p^2}, each only where x - e is a nonzero square at P and at Q, so
  its character is 1 on <P, Q> (for odd m every root is kept: P, Q lie
  in 2E).  A degenerate attempt, D in <P, Q>, thus has equal values at
  R and S, and N((x_R - e)(x_S - e)) a non-residue certifies the
  attempt: about half of all attempts by one root, and about half of
  the rest by a second, whose character is independent of the first.
- The x-multiple certificate (_separated): D in <P, Q> lies in E[m], so
  [m]R = [m]S, and x([m]R) != x([m]S) certifies the attempt.
  curves._x_multiple takes x([m]R) x-only in projective form, with no
  inversion, from the draw's x and c (Brier and Joye, PKC 2002).

Each draw is Curve.draw_point (x, squareness test, sign bit; no square
root).  Only when both are inconclusive are the roots taken and the
shifted attempt run exactly (_shifted_value), to decide whether to draw
again.  Arguments outside E[m] make the unshifted walks raise; every
attempt then runs the exact path, which raises ValueError on the attempt
where the shifted pairing did.

A pairing is a plan (_plan: the raw P, Q, a4 and a6, the checked
unshifted value, a4, a6 as the ints of F_p the certificate scales by, and
the descent roots) that _settle settles.  Settling makes every draw, the
certificates and the exact fallback, since they decide what the generator
yields, and arguments outside E[m] raise on every call.  weil_pairing
builds a plan and settles it; attack keeps the plan of each accepted cell
of E[m] in the cell's record, so a warm side pairing converts no point
and looks up no memo.  Nothing else asks twice for one pairing's
unshifted value, so it is not memoized; the checked PairingValue
(_checked), the curve's a4, a6 as ints of F_p (_prime_field_ints) and the
cubic's roots (_rational_roots in F_p, _cubic_roots in F_q) are memoized
(memo.memo).

An attempt has three parts, which _settle picks once per pairing: the
draw, the descent test and the certificate.  Where the tower's product is
unrolled (fields.SymbolicTower, 2 <= r <= UNROLLED_MUL_MAX_R) and the
generator's randrange is random.Random's, each is a kernel: the draw
kernel of curves (_draw_kernel: the rejection loop, reading the generator
as randrange does), _descent_kernel (one per tower) and
_certificate_kernel (one per tower and m, _x_multiple traced for both
points, taking x^3 = c - a4 x - a6 without a product); roots, a4 and a6
are arguments, so each serves every curve over the tower.  Elsewhere the
same routines run interpreted, with the same draws and the same verdict.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .curves import (Curve, CurvePoint, _add_raw, _draw, _draw_kernel,
                     _lift, _raw, _reads_by_getrandbits, _x_multiple)
from .fields import (FieldElement, FieldTower, SymbolicTower, _pdivmod,
                     _pgcd, _ppowmod, _psub)
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


def _separated(f: FieldTower, m: int, A: int, B: int, xR, cR, xS, cS) -> bool:
    """Whether x([m]R) != x([m]S) for the x and c of two draws and the
    ints A, B of F_p of a4, a6, which certifies their shifted attempt
    nondegenerate."""
    XR, ZR = _x_multiple(f, A, B, m, xR, cR)
    XS, ZS = _x_multiple(f, A, B, m, xS, cS)
    return f.vmul(XR, ZS) != f.vmul(XS, ZR)


def _descent_separates(f: FieldTower, e, xR, xS) -> bool:
    """Whether N((xR - e)(xS - e)) is a nonzero non-residue of F_p, for
    the x of two draws and a root e of the cubic, raw values of f: the
    order-2 Tate pairing with (e, 0) then differs at R and S (see the
    module docstring).  RuntimeError if the norm lies outside F_p (a
    reducible modulus)."""
    return f.vis_nonsquare(f.vmul(f.vsub(xR, e), f.vsub(xS, e)))


@memo
def _descent_kernel(f: FieldTower):
    """_descent_separates traced for the traceable f: kernel(e, xR, xS)
    for any root e, so one kernel serves every curve over f."""
    t = SymbolicTower(f)
    return t.compile("e, xR, xS", _descent_separates(
        t, t.value("e"), t.value("xR"), t.value("xS")), role="descent")


@memo
def _certificate_kernel(f: FieldTower, m: int):
    """_separated traced for the traceable f and m: kernel(A, B, xR, cR,
    xS, cS) for the ints A, B of F_p and the x and c of two draws."""
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


@memo
def _rational_roots(p: int, A: int, B: int) -> tuple:
    """The roots in F_p of x^3 + A x + B, least first: g = gcd(x^p - x,
    the cubic) has one linear factor per root, and splits by
    gcd((x + a)^((p-1)/2) - 1, g) for a = 0, 1, ... in turn (Cantor and
    Zassenhaus, Math. Comp. 36, 1981), which reads no generator."""
    cubic, x = [B, A, 0, 1], [0, 1]
    factors = [_pgcd(p, cubic, _psub(p, _ppowmod(p, x, p, cubic), x))]
    roots = []
    for g in factors:
        a = 0
        while len(g) > 2:
            h = _ppowmod(p, [a, 1], (p - 1) // 2, g)
            h = _pgcd(p, g, _psub(p, h, [1]))
            if 1 < len(h) < len(g):
                factors.append(h)
                g = _pdivmod(p, g, h)[0]
            a += 1
        roots += [-g[0] % p] if len(g) == 2 else []
    return tuple(sorted(roots))


@memo
def _cubic_roots(f: FieldTower, A: int, B: int) -> tuple:
    """Roots in F_q of x^3 + A x + B, as raw values of f: those in F_p,
    least first (_rational_roots), then, where exactly one, e, lies in
    F_p and r is even, the roots (-e + d)/2 and (-e - d)/2 of the
    quadratic factor x^2 + e x + e^2 + A, d a square root of its
    discriminant -3e^2 - 4A (f.vsqrt), which lie in F_{p^2} inside F_q.
    An irreducible cubic has its roots in F_{p^3}, left out here."""
    rational = _rational_roots(f.p, A, B)
    roots = [f.from_int(e) for e in rational]
    if len(rational) == 1 and f.r % 2 == 0:
        e, half = rational[0], (f.p + 1) // 2
        d = f.vsqrt(f.from_int(-3 * e * e - 4 * A))
        roots += [f.vlin(-e * half, ((s * half, d),)) for s in (1, -1)]
    return tuple(roots)


def _descent_roots(f: FieldTower, A: int, B: int, P, Q) -> tuple:
    """The first two roots of _cubic_roots, raw values of f, with x - e a
    nonzero square at the finite raw points P and Q.  The three roots'
    characters multiply to 1, so two distinct ones are independent and a
    third adds nothing."""
    return tuple([e for e in _cubic_roots(f, A, B)
                  if all(f.vis_square(f.vsub(T[0], e)) for T in (P, Q))][:2])


def _plan(f: FieldTower, a4, a6, P, Q, m: int) -> tuple:
    """The plan of e_m(P, Q) for raw points P, Q of f on y^2 = x^3 + a4 x
    + a6 (raw a4, a6): (f, a4, a6, P, Q, m, value, A, B, roots), value
    the checked unshifted value, A, B the ints of F_p of a4, a6 that the
    certificate scales by and roots those of the descent tests
    (_descent_roots), a tuple of at most two.  Where no attempt can be
    certified, A and B are None and roots is empty: P or Q is infinity
    (value 1), the walks raised (P or Q outside E[m]; value None) or a4
    or a6 lies outside F_p (value None).  Raises ValueError when P or Q
    is infinity and the other lies outside E[m]."""
    head = (f, a4, a6, P, Q, m)
    if P is None or Q is None:
        # e_m is 1 here; the walk only checks the order
        for T in (P, Q):
            if T is not None:
                _miller_values(f, a4, T, m, T)
        return head + (_checked(f, f.one, m), None, None, ())
    try:
        value = _unshifted_value(f, a4, P, Q, m)
        A, B = _prime_field_ints(f, a4, a6)
    except ValueError:
        return head + (None, None, None, ())
    return head + (_checked(f, value, m), A, B,
                   _descent_roots(f, A, B, P, Q))


def _settle(plan: tuple, rng) -> PairingValue:
    """e_m(P, Q) of a _plan, drawing from rng: none for P or Q infinite,
    else attempts until one is certified, which gives the unshifted value,
    or its exact shifted value is defined.  An attempt draws R, then S,
    and runs the descent test with each root in turn, then the x-multiple
    certificate, as kernels where the tower is traceable and rng reads as
    random.Random does, else interpreted.  Raises ValueError unless P and
    Q lie in E[m]."""
    f, a4, a6, P, Q, m, value, A, B, roots = plan
    if P is None or Q is None:
        return value
    if f.traceable and _reads_by_getrandbits(rng):
        draw, descent, certificate = (_draw_kernel(f), _descent_kernel(f),
                                      _certificate_kernel(f, m))
    else:
        draw, descent, certificate = (partial(_draw, f),
                                      partial(_descent_separates, f),
                                      partial(_separated, f, m))
    for _ in range(200):
        R, S = draw(a4, a6, rng), draw(a4, a6, rng)
        if A is not None:
            for e in roots:
                if descent(e, R[0], S[0]):
                    return value
            if certificate(A, B, R[0], R[1], S[0], S[1]):
                return value
        shifted = _shifted_value(f, a4, P, Q, m, _lift(f, R), _lift(f, S))
        if shifted is not None:
            return _checked(f, shifted, m)
    raise RuntimeError("could not find nondegenerate shift points for the pairing")


def weil_pairing(E: Curve, P: CurvePoint, Q: CurvePoint, m: int, rng) -> PairingValue:
    """e_m(P, Q) for P, Q in E[m]; the value is a root of unity of order
    dividing m, primitive exactly when (P, Q) is a basis of E[m].  It
    draws shift points from rng until an attempt is certified, by the
    descent test or by x([m]R) != x([m]S), or its exact shifted value is
    defined (see the module docstring).  Raises ValueError unless m is an
    int at least 1 and both arguments lie in E[m]."""
    if type(m) is not int or m < 1:
        raise ValueError(f"the order m must be an int at least 1, not {m!r}")
    f = E.field
    return _settle(_plan(f, E.a4.value, E.a6.value, _raw(f, P), _raw(f, Q),
                         m), rng)
