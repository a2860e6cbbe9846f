"""Short Weierstrass curves y^2 = x^3 + a4 x + a6 over F_p or F_{p^r},
with division polynomials, torsion sampling, and Velu isogenies.

Characteristic is always at least 5 here, so the short form loses nothing.

The group law is written once for every field, in _add_raw, on raw field
values: a point is an (x, y) pair of raw coordinates or None for infinity.
point_add, scalar_mul and the Miller walk in pairing run on it and build
FieldElement and CurvePoint objects only for what they return.
Over F_p, scalar_mul runs _mul_fp, the same formulas written out on ints,
each inverse read from a table per p (_inverses) filled on first use.  It is
the inner loop of the instance search (action._order_filter), which runs it on
y^2 = x^3 + a4 c^2 x + a6 c^3: (x, y) -> (c x, c^(3/2) y) is an isomorphism
onto that model and takes the drawn point (x, sqrt c) to (c x, +-c^2), of the
same order, so the verdict needs no square root.

The division-polynomial recurrences are written once too (_division_chain),
for int-list polynomials (_division_f, the torsion degree) and for values at
a point (_division_values, x([m]R) in _x_multiple, pairing's certificate).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .fields import (FieldElement, FieldTower, SymbolicTower, _is_prime,
                     _pdivmod, _pgcd, _pmul, _ppowmod, _psub, factorize)
from .memo import memo


class CurvePoint:
    """Affine point or the point at infinity (x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Optional[FieldElement], y: Optional[FieldElement]):
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity():
            return hash("inf")
        return hash((self.x, self.y))

    def __neg__(self):
        if self.is_infinity():
            return self
        return CurvePoint(self.x, -self.y)

    def __repr__(self):
        if self.is_infinity():
            return "CurvePoint(inf)"
        return f"CurvePoint({self.x.value}, {self.y.value})"


class Curve:
    """y^2 = x^3 + a4 x + a6 over F_p or F_{p^r}; the coefficients are ints
    or elements that the field takes in (see FieldTower.__call__)."""

    def __init__(self, field: FieldTower, a4, a6):
        self.field = field
        self.a4 = field(a4)
        self.a6 = field(a6)
        disc = 4 * self.a4 ** 3 + 27 * self.a6 ** 2
        if disc.is_zero():
            raise ValueError("singular curve (discriminant zero)")

    def __eq__(self, other):
        return (isinstance(other, Curve) and other.field is self.field
                and other.a4 == self.a4 and other.a6 == self.a6)

    def __repr__(self):
        return f"Curve({self.field!r}, a4={self.a4.value}, a6={self.a6.value})"

    def rhs(self, x: FieldElement) -> FieldElement:
        return x ** 3 + self.a4 * x + self.a6

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity():
            return True
        return P.y * P.y == self.rhs(P.x)

    def point(self, x, y) -> CurvePoint:
        P = CurvePoint(self.field(x), self.field(y))
        if not self.contains(P):
            raise ValueError("point is not on the curve")
        return P

    def j_invariant(self) -> FieldElement:
        num = 4 * self.a4 ** 3
        return 1728 * num / (num + 27 * self.a6 ** 2)

    def over(self, field: FieldTower) -> "Curve":
        """The same equation over another field of the same characteristic;
        away from its own field the coefficients must lie in F_p."""
        return self if field is self.field else Curve(field, self.a4, self.a6)

    def draw_point(self, rng) -> tuple:
        """What random_point takes from rng, without its root (_draw)."""
        return _draw(self.field, self.a4.value, self.a6.value, rng)

    def random_point(self, rng) -> CurvePoint:
        return _point(self.field, _lift(self.field, self.draw_point(rng)))


def _draw(f: FieldTower, a4, a6, rng) -> tuple:
    """(x, c, sign, norm) for y^2 = x^3 + a4 x + a6 with raw a4, a6: x and
    c = x^3 + a4 x + a6 raw values of f, x of rank randrange(size), drawn
    again until c is a square or zero, sign = randrange(2) the bit that
    picks the root of c (see _lift), and norm the int N(c) that decided
    squareness, kept for the root.  For a traceable f and an rng whose
    randrange is random.Random's, the whole loop is one _draw_kernel call,
    which reads rng as randrange does; any other tower or rng runs the
    same steps interpreted."""
    if f.traceable and _reads_by_getrandbits(rng):
        return _draw_kernel(f)(a4, a6, rng)
    p = f.p
    for _ in range(10000):
        x = f.random_value(rng)
        c = _rhs(f, x, a4, a6)
        norm = f.vnorm(c)
        if norm and pow(norm, (p - 1) // 2, p) != 1:
            continue
        return x, c, rng.randrange(2), norm
    raise RuntimeError("failed to sample a curve point")


def _reads_by_getrandbits(rng) -> bool:
    """Whether rng.randrange(n) is random.Random's, which for n > 0 reads
    rng.getrandbits(n.bit_length()) until the value is below n: then a
    caller may read it so itself, with no Python frames per draw."""
    cls = type(rng)
    return (cls.randrange is random.Random.randrange
            and cls._randbelow is random.Random._randbelow_with_getrandbits)


def _rhs(f, x, a4, a6):
    """c = (x^2 + a4) x + a6 on raw values of a FieldTower f, or of a
    fields.SymbolicTower standing in for one."""
    return f.vadd(f.vmul(f.vadd(f.vmul(x, x), a4), x), a6)


@memo
def _draw_kernel(f: FieldTower):
    """_draw compiled for the traceable f: kernel(a4, a6, rng) is the
    (x, c, sign, norm) of _draw on the raw a4 and a6 of any curve over f.
    Each candidate's x from its rank, c = _rhs and N(c) (SymbolicTower.vnorm:
    by descent on a Kummer tower, else the chain and its check that the
    norm lies in F_p) run straight-line, Euler's test inline, and the rank
    and the sign are read by rng.getrandbits exactly as randrange(size)
    and randrange(2) read them."""
    t = SymbolicTower(f)
    x = t.unrank(t.scalar("n"))
    c = _rhs(t, x, t.value("a4"), t.value("a6"))
    p, size, bits = f.p, f.size, f.size.bit_length()
    return t.compile("a4, a6, rng", x, c, t.vnorm(c), role="draw", loop=f"""\
    getrandbits = rng.getrandbits
    for _ in range(10000):
        n = getrandbits({bits})
        while n >= {size}:
            n = getrandbits({bits})
{{steps}}        norm = {{2}}
        if norm and pow(norm, {(p - 1) // 2}, {p}) != 1:
            continue
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        return {{0}}, {{1}}, sign, norm
    raise RuntimeError("failed to sample a curve point")
""")


def _lift(f: FieldTower, drawn: tuple):
    """The raw point of a draw_point tuple: (x, y) with y the square root
    of c that vsqrt returns, negated when the sign bit is set."""
    x, c, sign, norm = drawn
    y = f.vsqrt(c, norm)
    return x, f.vneg(y) if sign else y


def _raw(f: FieldTower, P: CurvePoint):
    """P as a raw point of f: None for infinity, else the pair of raw
    coordinate values.  A point over f's prime field embeds; any other
    field raises as f(x) does (TypeError, or ValueError off F_p)."""
    if P.is_infinity():
        return None
    return f(P.x).value, f(P.y).value


def _point(f: FieldTower, A) -> CurvePoint:
    """The CurvePoint of a raw point of f."""
    if A is None:
        return CurvePoint.infinity()
    return CurvePoint(FieldElement(f, A[0]), FieldElement(f, A[1]))


def _add_raw(f: FieldTower, a4, A, B) -> tuple:
    """The group law on raw points of f for y^2 = x^3 + a4 x + a6 (a4 a
    raw value): (A + B, slope of the line through A and B), the tangent's
    when A == B.  The slope is None when that line is vertical or A or B
    is infinity (None).  This is the one point-addition formula; the
    public functions and the Miller walk wrap it."""
    if A is None:
        return B, None
    if B is None:
        return A, None
    x1, y1 = A
    x2, y2 = B
    if x1 == x2:
        if f.vadd(y1, y2) == f.zero:
            return None, None
        # doubling: (3 x^2 + a4) / (2 y)
        xx = f.vmul(x1, x1)
        lam = f.vmul(f.vadd(f.vadd(f.vadd(xx, xx), xx), a4),
                     f.vinv(f.vadd(y1, y1)))
    else:
        lam = f.vmul(f.vsub(y2, y1), f.vinv(f.vsub(x2, x1)))
    x3 = f.vsub(f.vsub(f.vmul(lam, lam), x1), x2)
    return (x3, f.vsub(f.vmul(lam, f.vsub(x1, x3)), y1)), lam


def point_add(E: Curve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q; points over E's prime field embed in E's field."""
    f = E.field
    return _point(f, _add_raw(f, E.a4.value, _raw(f, P), _raw(f, Q))[0])


def scalar_mul(E: Curve, n: int, P: CurvePoint) -> CurvePoint:
    f = E.field
    if f.r == 1:
        return _point(f, _mul_fp(f.p, E.a4.value, n, _raw(f, P)))
    if n < 0:
        return scalar_mul(E, -n, -P)
    a4 = E.a4.value
    acc = None
    add = _raw(f, P)
    while n:
        if n & 1:
            acc = _add_raw(f, a4, acc, add)[0]
        n >>= 1
        if n:
            add = _add_raw(f, a4, add, add)[0]
    return _point(f, acc)


def _mul_fp(p: int, a4: int, n: int, A):
    """[n]A for a raw point A of F_p on y^2 = x^3 + a4 x + a6: scalar_mul's
    double-and-add with _add_raw's formulas on ints, each slope's inverse
    read from _inverses(p).  A base with y = 0 has order 2, so the
    doublings stop there; no inverse is of 0, since a sum reaching
    infinity and a y = 0 doubling are settled first."""
    if n < 0 and A is not None:
        A = A[0], -A[1] % p
    n = abs(n)
    inv = _inverses(p)
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
                if x1 != x2:
                    num, d = y2 - y1, (x2 - x1) % p
                else:
                    num, d = 3 * x1 * x1 + a4, 2 * y1 % p
                v = inv[d]
                if not v:
                    v = inv[d] = pow(d, -1, p)
                lam = num * v % p
                x3 = (lam * lam - x1 - x2) % p
                acc = x3, (lam * (x1 - x3) - y1) % p
        n >>= 1
        if n:
            if not y2:
                break
            d = 2 * y2 % p
            v = inv[d]
            if not v:
                v = inv[d] = pow(d, -1, p)
            lam = (3 * x2 * x2 + a4) * v % p
            x3 = (lam * lam - 2 * x2) % p
            A = x3, (lam * (x2 - x3) - y2) % p
    return acc


class _Uncached:
    """The inverse table of a field above 10^6: every entry reads 0, so
    _mul_fp computes each inverse, and nothing is kept."""

    __slots__ = ()

    def __getitem__(self, d):
        return 0

    def __setitem__(self, d, v):
        pass


@memo
def _inverses(p: int):
    """Entry d is 0 until _mul_fp first needs 1/d in F_p, then pow(d, -1,
    p): 4 bytes per element of F_p, filled lazily, as _root_counts holds
    its table per p.  Fields above 10^6 get no table (_Uncached)."""
    if p > 10**6:
        return _Uncached()
    return memoryview(bytearray(4 * p)).cast("I")


def frobenius_map(P: CurvePoint, q: int) -> CurvePoint:
    """Raise both coordinates to the q-th power; q must be a power of the
    characteristic of the point's field."""
    if P.is_infinity():
        return P
    p = P.x.field.p
    k = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise ValueError(f"{q} is not a power of the characteristic {p}")
        qq //= p
        k += 1
    return CurvePoint(P.x.frobenius(k), P.y.frobenius(k))


@memo
def _root_counts(p: int) -> bytes:
    """Entry c is 1 + chi(c), the number of y in F_p with y^2 = c."""
    table = bytearray(p)
    for y in range(1, (p + 1) // 2):
        table[y * y % p] = 2
    table[0] = 1
    return bytes(table)


def _check_countable(size: int) -> None:
    """count_points sweeps every x, so it refuses fields above 10^6."""
    if size > 10**6:
        raise ValueError("field too large for exhaustive point counting")


def count_points(E: Curve) -> tuple:
    """(group order, trace) by exhaustive x-sweep (see _check_countable)."""
    field = E.field
    S = field.size
    _check_countable(S)
    n = 1  # infinity
    if field.r == 1:
        p = field.p
        roots = _root_counts(p)
        a4, a6 = E.a4.value, E.a6.value
        n += sum([roots[(x * (x * x + a4) + a6) % p] for x in range(p)])
    else:
        for i in range(S):
            c = _rhs(field, field.unrank(i), E.a4.value, E.a6.value)
            if c == field.zero:
                n += 1
            elif field.vis_square(c):
                n += 2
    t = S + 1 - n
    if t * t > 4 * S:
        raise RuntimeError("trace outside the Hasse interval")
    return n, t


def extension_order(q: int, t: int, r: int) -> int:
    """#E(F_{q^r}) from #E(F_q) = q + 1 - t by the trace recurrence."""
    t_prev, t_cur = 2, t
    for _ in range(r - 1):
        t_prev, t_cur = t_cur, t * t_cur - q * t_prev
    return q**r + 1 - t_cur


@memo
def gl2_order(m: int) -> int:
    """#GL_2(Z/mZ)."""
    out = 1
    for d, k in factorize(m):
        out *= d ** (4 * k - 3) * (d - 1) * (d * d - 1)
    return out


def _division_seeds(A, B) -> tuple:
    """f_3 and f_4 for y^2 = x^3 + A x + B, each as (constant, terms), terms
    the (power, coefficient) pairs of x^1 and up, identically zero ones left
    out; A and B are ints, or the ints of a traced kernel (fields._Scalar)."""
    return ((-A * A, ((1, 12 * B), (2, 6 * A), (4, 3))),
            (-2 * (8 * B * B + A ** 3), ((1, -8 * A * B), (2, -10 * A * A),
                                         (3, 40 * B), (4, 10 * A), (6, 2))))


def _division_chain(mul, sub, F2, f: dict):
    """get(n) = f_n by the recurrences, kept in f, which holds f_0 ... f_4;
    mul, sub and F2 = F^2 = (2y)^4 are of the ring the f_j lie in: int-list
    polynomials over F_p (_division_f) or values at x (_division_values)."""
    def get(n: int):
        if n in f:
            return f[n]
        k = n // 2
        if n % 2:
            # psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3; the
            # even-index pair carries (2y)^4 = F^2
            u = mul(get(k + 2), mul(get(k), mul(get(k), get(k))))
            v = mul(get(k - 1), mul(get(k + 1), mul(get(k + 1), get(k + 1))))
            if k % 2:
                v = mul(F2, v)
            else:
                u = mul(F2, u)
            val = sub(u, v)
        else:
            # psi_{2k} = psi_k (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2)
            # / (2y); the factors of 2y cancel for either parity of k
            val = mul(get(k), sub(
                mul(get(k + 2), mul(get(k - 1), get(k - 1))),
                mul(get(k - 2), mul(get(k + 1), get(k + 1)))))
        f[n] = val
        return val

    return get


def _division_f(p: int, A: int, B: int, m: int) -> list:
    """f_m over F_p for y^2 = x^3 + A x + B, where the m-th division
    polynomial is psi_m = f_m for odd m and 2y f_m for even m.  With
    F = (2y)^2 = 4 (x^3 + A x + B) the recurrences stay in x alone
    (Washington, Elliptic Curves, section 3.2)."""
    F = [4 * B % p, 4 * A % p, 0, 4]
    f = {0: [0], 1: [1], 2: [1]}
    for j, (const, terms) in enumerate(_division_seeds(A, B), 3):
        f[j] = [const % p] + [0] * terms[-1][0]
        for k, c in terms:
            f[j][k] = c % p
    # _pmul is looked up here on each call, so a patched one counts them all
    return _division_chain(lambda a, b: _pmul(p, a, b),
                           lambda a, b: _psub(p, a, b), _pmul(p, F, F), f)(m)


def _division_values(f: FieldTower, a4, a6, n: int, x, c) -> tuple:
    """(f_{n-1}, f_n, f_{n+1}) at x, for odd n >= 3, c = x^3 + a4 x + a6 and
    ints a4, a6 of F_p, on raw values of f or of a SymbolicTower for it.
    x^3 = c - a4 x - a6 takes no product."""
    x2 = f.vmul(x, x)
    x3 = f.vlin(-a6, ((1, c), (-a4, x)))
    powers = {1: x, 2: x2, 3: x3, 4: f.vmul(x2, x2), 6: f.vmul(x3, x3)}
    vals = {0: f.zero, 1: f.one, 2: f.one}
    for j, (const, terms) in enumerate(_division_seeds(a4, a6), 3):
        vals[j] = f.vlin(const, tuple((a, powers[k]) for k, a in terms))
    F = f.vlin(0, ((4, c),))
    get = _division_chain(f.vmul, f.vsub, f.vmul(F, F), vals)
    return get(n - 1), get(n), get(n + 1)


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
        t = f.vlin(-a4, ((1, f.vmul(x, x)),))
        X, Z = (f.vlin(0, ((1, f.vmul(t, t)), (-8 * a6, x))),
                f.vlin(0, ((4, c),)))
        k -= 1
    else:
        fm1, fn, fp1 = _division_values(f, a4, a6, n, x, c)
        # psi_n = f_n and psi_{n-1} psi_{n+1} = (2y)^2 f_{n-1} f_{n+1}
        Z = f.vmul(fn, fn)
        X = f.vlin(0, ((1, f.vmul(x, Z)),
                       (-4, f.vmul(c, f.vmul(fm1, fp1)))))
    for _ in range(k):
        XX, ZZ, XZ = f.vmul(X, X), f.vmul(Z, Z), f.vmul(X, Z)
        XZ3 = f.vmul(XZ, ZZ)
        t = f.vlin(0, ((1, XX), (-a4, ZZ)))
        X, Z = (f.vlin(0, ((1, f.vmul(t, t)), (-8 * a6, XZ3))),
                f.vlin(0, ((4, f.vmul(XZ, XX)), (4 * a4, XZ3),
                           (4 * a6, f.vmul(ZZ, ZZ)))))
    return X, Z


def division_polynomial(E: Curve, m: int) -> list:
    """For odd m, the classical m-division polynomial in x. For even m in
    {2, 4, 8}, the x-coordinate polynomial of the full m-torsion (the
    2-torsion cubic folded in).  Coefficients are ints mod p, constant
    first; E must be defined over a prime field."""
    if m < 1:
        raise ValueError("m must be positive")
    if E.field.r != 1:
        raise ValueError("division polynomials need a curve over a prime field")
    p, A, B = E.field.p, E.a4.value, E.a6.value
    if m % 2:
        return _division_f(p, A, B, m)
    if m not in (2, 4, 8):
        raise ValueError("even m supported only for m in {2, 4, 8}")
    # cubic * psi_m / y = cubic * 2 f_m
    return _pmul(p, [2 * B % p, 2 * A % p, 0, 2], _division_f(p, A, B, m))


def torsion_extension_degree(E: Curve, m: int) -> int:
    """Smallest r with E[m] fully rational over the degree-r extension of the
    curve's own field, read off from the splitting of the division polynomial
    and of the y-coordinate squares.  E must be defined over a prime field."""
    p = E.field.p
    if math.gcd(m, p) != 1:
        raise ValueError("m must be coprime to the characteristic")
    # remainders modulo psi do not depend on its leading coefficient
    psi = division_polynomial(E, m)
    cubic = [E.a6.value, E.a4.value, 0, 1]
    shared = _pgcd(p, psi, cubic)
    psi1 = _pdivmod(p, psi, shared)[0] if len(shared) > 1 else psi
    x = _pdivmod(p, [0, 1], psi)[1]
    one = _pdivmod(p, [1], psi1)[1]

    cap = gl2_order(m)
    cur = [0, 1]                # x^(p^r) mod psi
    ypow = one                  # cubic^((p^r-1)/2) mod psi1
    step = _ppowmod(p, cubic, (p - 1) // 2, psi1)
    r = 0
    while r < cap:
        r += 1
        cur = _ppowmod(p, cur, p, psi)
        ypow = _pdivmod(p, _pmul(p, _ppowmod(p, ypow, p, psi1), step),
                        psi1)[1]
        if cur == x and ypow == one:
            if cap % r:
                raise RuntimeError("torsion field degree does not divide #GL2")
            return r
    raise RuntimeError(f"no extension of degree up to {cap} splits the {m}-torsion")


def sample_m_torsion(E: Curve, m: int, order: int, rng) -> CurvePoint:
    """A uniform-ish point of exact order m (a prime power), given the group
    order of E over its field of definition."""
    fac = factorize(m)
    if len(fac) != 1:
        raise ValueError("m must be a prime power")
    ell, k = fac[0]
    e = 0
    n = order
    while n % ell == 0:
        n //= ell
        e += 1
    if e < k:
        raise ValueError(f"the {m}-torsion is not rational here")
    cof = order // ell**e
    for _ in range(64):
        R = E.random_point(rng)
        Q = scalar_mul(E, cof, R)
        if Q.is_infinity():
            continue
        # ell-adic order of Q
        chain = [Q]
        while not chain[-1].is_infinity():
            chain.append(scalar_mul(E, ell, chain[-1]))
        j = len(chain) - 1
        if j < k:
            continue
        return chain[j - k]
    raise RuntimeError("torsion sampling failed; group order is inconsistent")


def torsion_basis(E: Curve, m: int, order: int, rng) -> tuple:
    """Two generators of E[m] = (Z/m)^2 for a prime power m, assuming the full
    m-torsion is rational over E's field of size `order` + trace."""
    ell = factorize(m)[0][0]
    P = sample_m_torsion(E, m, order, rng)
    S1 = scalar_mul(E, m // ell, P)
    line = [CurvePoint.infinity()]
    for _ in range(ell - 1):
        line.append(point_add(E, line[-1], S1))
    for _ in range(100):
        Q = sample_m_torsion(E, m, order, rng)
        if scalar_mul(E, m // ell, Q) not in line:
            return P, Q
    raise RuntimeError("no independent torsion point found; is E[m] rational here?")


class Isogeny:
    """Separable isogeny with cyclic kernel of odd prime order, via Velu."""

    def __init__(self, domain: Curve, codomain: Curve, degree: int,
                 kernel_points: list):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self._kernel_points = kernel_points  # all ell-1 finite kernel points

    def __call__(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity():
            return CurvePoint.infinity()
        # compute in the larger of the point's and the kernel's field; the
        # coordinates of the other embed in mixed arithmetic
        field = max(P.x.field, self._kernel_points[0].x.field,
                    key=lambda f: f.r)
        E = self.domain.over(field)
        xs, ys = P.x, P.y
        for Q in self._kernel_points:
            T = point_add(E, P, Q)
            if T.is_infinity():
                return CurvePoint.infinity()   # P was a kernel point
            xs = xs + (T.x - Q.x)
            ys = ys + (T.y - Q.y)
        return CurvePoint(xs, ys)


def velu_isogeny(E: Curve, K: CurvePoint, ell: int) -> Isogeny:
    """The quotient isogeny E -> E/<K> for K of odd prime order ell.

    The kernel must be stable under the Frobenius of E's own field, and the
    codomain is expressed back over E's field.
    """
    if ell == 2 or not _is_prime(ell):
        raise ValueError("kernel order must be an odd prime")
    if K.is_infinity():
        raise ValueError("kernel generator must be finite")
    field = K.x.field
    Eh = E.over(field)
    if not Eh.contains(K):
        raise ValueError("kernel generator is not on the curve")
    # K, 2K, ..., (ell-1)K; for prime ell, [ell]K = O with K finite means
    # order exactly ell
    mults = [K]
    for _ in range(ell - 2):
        mults.append(point_add(Eh, mults[-1], K))
    if not point_add(Eh, mults[-1], K).is_infinity():
        raise ValueError(f"kernel generator does not have order {ell}")

    if frobenius_map(K, E.field.size) not in mults:
        raise ValueError("kernel is not Frobenius-stable over the base field")

    A, B = Eh.a4, Eh.a6
    t_acc = None
    w_acc = None
    for Q in mults[:(ell - 1) // 2]:
        tq = 6 * Q.x * Q.x + 2 * A
        uq = 4 * Q.y * Q.y
        wq = uq + Q.x * tq
        t_acc = tq if t_acc is None else t_acc + tq
        w_acc = wq if w_acc is None else w_acc + wq
    A2 = A - 5 * t_acc
    B2 = B - 7 * w_acc

    if field is not E.field:
        # the stable kernel makes the codomain's coefficients lie in F_p
        A2, B2 = A2.descend(), B2.descend()
    return Isogeny(E, Curve(E.field, A2, B2), ell, mults)
