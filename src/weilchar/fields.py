"""Exact arithmetic in prime fields and in towers of extension fields.

Everything is plain-integer arithmetic: an element of the bottom field is an
int in [0, p), and an element of level i is a tuple of level-(i-1) values
(coefficients, constant first) modulo the level's defining polynomial.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Union


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def legendre_symbol(n: int, m: int) -> int:
    """Legendre symbol (n/m) for an odd prime m, via Euler's criterion."""
    if m < 3 or m % 2 == 0 or not _is_prime(m):
        raise ValueError(f"modulus {m} is not an odd prime")
    n %= m
    if n == 0:
        return 0
    e = pow(n, (m - 1) // 2, m)
    return 1 if e == 1 else -1


class PrimeField:
    """The bottom field F_p. Characteristic at least 5, p below 2^32."""

    def __init__(self, p: int):
        if not (5 <= p < 2**32):
            raise ValueError(f"characteristic {p} out of the supported range")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class _ExtLevel:
    """One extension step: degree and monic defining polynomial.

    modulus holds the degree+1 coefficients (constant first, leading 1) as
    raw values of the previous level.
    """

    def __init__(self, degree: int, modulus: tuple):
        self.degree = degree
        self.modulus = modulus
        self.frob_basis = None  # lazy: images t^(p*j) for the level-1 fast path


class FieldTower:
    """A tower F_p = L_0 < L_1 < ... < L_k of successive extensions.

    Raw values: int at level 0, tuples of lower-level values above. The
    public face is FieldElement; the v* methods work on raw values and are
    what the hot paths use.
    """

    def __init__(self, base: PrimeField, levels: tuple = ()):
        self.base = base
        self.levels = tuple(levels)
        self._sizes = [base.p]
        for lv in self.levels:
            self._sizes.append(self._sizes[-1] ** lv.degree)
        self._nonresidue = {}  # level -> raw value, for square roots

    # -- structure ---------------------------------------------------------

    @property
    def p(self) -> int:
        return self.base.p

    def depth(self) -> int:
        return len(self.levels)

    def size(self, level: int) -> int:
        return self._sizes[level]

    def degree_over_base(self, level: int) -> int:
        d = 1
        for lv in self.levels[:level]:
            d *= lv.degree
        return d

    def __eq__(self, other):
        if not isinstance(other, FieldTower):
            return False
        return (self.base == other.base
                and [(l.degree, l.modulus) for l in self.levels]
                == [(l.degree, l.modulus) for l in other.levels])

    def __hash__(self):
        return hash((self.base, tuple((l.degree, l.modulus) for l in self.levels)))

    def __repr__(self):
        degs = "x".join(str(l.degree) for l in self.levels) or "1"
        return f"FieldTower(p={self.p}, degrees={degs})"

    # -- raw value arithmetic ----------------------------------------------

    def zero(self, level: int):
        if level == 0:
            return 0
        d = self.levels[level - 1].degree
        z = self.zero(level - 1)
        return tuple(z for _ in range(d))

    def one(self, level: int):
        if level == 0:
            return 1
        d = self.levels[level - 1].degree
        z = self.zero(level - 1)
        return (self.one(level - 1),) + tuple(z for _ in range(d - 1))

    def from_int(self, n: int, level: int):
        if level == 0:
            return n % self.p
        d = self.levels[level - 1].degree
        z = self.zero(level - 1)
        return (self.from_int(n, level - 1),) + tuple(z for _ in range(d - 1))

    def is_zero(self, v, level: int) -> bool:
        if level == 0:
            return v == 0
        return all(self.is_zero(c, level - 1) for c in v)

    def vadd(self, level: int, u, v):
        if level == 0:
            return (u + v) % self.p
        return tuple(self.vadd(level - 1, a, b) for a, b in zip(u, v))

    def vsub(self, level: int, u, v):
        if level == 0:
            return (u - v) % self.p
        return tuple(self.vsub(level - 1, a, b) for a, b in zip(u, v))

    def vneg(self, level: int, u):
        if level == 0:
            return (-u) % self.p
        return tuple(self.vneg(level - 1, a) for a in u)

    def vmul(self, level: int, u, v):
        if level == 0:
            return (u * v) % self.p
        if level == 1:
            return self._mul1(u, v)
        lev = self.levels[level - 1]
        d = lev.degree
        low = level - 1
        z = self.zero(low)
        tmp = [z] * (2 * d - 1)
        for i, a in enumerate(u):
            if self.is_zero(a, low):
                continue
            for j, b in enumerate(v):
                tmp[i + j] = self.vadd(low, tmp[i + j], self.vmul(low, a, b))
        # reduce by the monic modulus
        f = lev.modulus
        for i in range(2 * d - 2, d - 1, -1):
            c = tmp[i]
            if self.is_zero(c, low):
                continue
            for j in range(d):
                tmp[i - d + j] = self.vsub(low, tmp[i - d + j],
                                           self.vmul(low, c, f[j]))
        return tuple(tmp[:d])

    def _mul1(self, u, v):
        # level-1 fast path: coefficients are plain ints
        p = self.p
        lev = self.levels[0]
        d = lev.degree
        tmp = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    tmp[i + j] += a * b
        f = lev.modulus
        for i in range(2 * d - 2, d - 1, -1):
            c = tmp[i] % p
            if c:
                for j in range(d):
                    tmp[i - d + j] -= c * f[j]
        return tuple(t % p for t in tmp[:d])

    def vscale(self, level: int, u, c_low):
        """Multiply a level value by a scalar from the level below."""
        if level == 0:
            raise ValueError("no level below the base")
        return tuple(self.vmul(level - 1, a, c_low) for a in u)

    def vpow(self, level: int, u, e: int):
        if e < 0:
            return self.vpow(level, self.vinv(level, u), -e)
        acc = self.one(level)
        base = u
        while e:
            if e & 1:
                acc = self.vmul(level, acc, base)
            base = self.vmul(level, base, base)
            e >>= 1
        return acc

    def vinv(self, level: int, u):
        if self.is_zero(u, level):
            raise ZeroDivisionError("inverse of zero")
        if level == 0:
            return pow(u, self.p - 2, self.p)
        # extended Euclid against the defining polynomial, one level down
        low = level - 1
        lev = self.levels[level - 1]
        f = list(lev.modulus)
        a = list(u) + [self.zero(low)]
        s0, s1 = [self.zero(low)], [self.one(low)]
        r0, r1 = f, a
        while True:
            r1 = self._ptrim(low, r1)
            if len(r1) == 1 and not self.is_zero(r1[0], low):
                inv_lead = self.vinv(low, r1[0])
                out = [self.vmul(low, c, inv_lead) for c in s1]
                out += [self.zero(low)] * (lev.degree - len(out))
                return tuple(out[:lev.degree])
            if all(self.is_zero(c, low) for c in r1):
                raise ZeroDivisionError("value not invertible")
            q, r = self._pdivmod(low, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self._psub(low, s0, self._pmul(low, q, s1))

    def lift(self, v, from_level: int, to_level: int):
        while from_level < to_level:
            d = self.levels[from_level].degree
            z = self.zero(from_level)
            v = (v,) + tuple(z for _ in range(d - 1))
            from_level += 1
        return v

    def try_descend(self, v, from_level: int, to_level: int):
        """Return v as a value of the lower level, or None if it does not lie there."""
        while from_level > to_level:
            low = from_level - 1
            if any(not self.is_zero(c, low) for c in v[1:]):
                return None
            v = v[0]
            from_level -= 1
        return v

    def rank(self, v, level: int) -> int:
        """Position of v in the constant-first enumeration of the level."""
        if level == 0:
            return v
        s = self.size(level - 1)
        n = 0
        for c in reversed(v):
            n = n * s + self.rank(c, level - 1)
        return n

    def unrank(self, n: int, level: int):
        if level == 0:
            return n % self.p
        s = self.size(level - 1)
        d = self.levels[level - 1].degree
        out = []
        for _ in range(d):
            out.append(self.unrank(n % s, level - 1))
            n //= s
        return tuple(out)

    def random_value(self, level: int, rng):
        return self.unrank(rng.randrange(self.size(level)), level)

    # -- frobenius ----------------------------------------------------------

    def frobenius(self, v, level: int, power: int = 1):
        """v^(p^power). Linear-map fast path at level 1."""
        if level == 0 or power == 0:
            return v
        if level == 1:
            lev = self.levels[0]
            if lev.frob_basis is None:
                d = lev.degree
                x = tuple(1 if i == 1 else 0 for i in range(d))
                tp = self.vpow(1, x, self.p)
                basis = [self.one(1)]
                for _ in range(d - 1):
                    basis.append(self.vmul(1, basis[-1], tp))
                lev.frob_basis = basis
            out = v
            for _ in range(power):
                acc = self.zero(1)
                for c, b in zip(out, lev.frob_basis):
                    if c:
                        acc = self.vadd(1, acc, tuple((c * x) % self.p for x in b))
                out = acc
            return out
        out = v
        for _ in range(power):
            out = self.vpow(level, out, self.p)
        return out

    # -- square roots --------------------------------------------------------

    def vsqrt(self, v, level: int):
        """A square root of v at the given level, or None if v is a non-square."""
        if self.is_zero(v, level):
            return v
        q = self.size(level)
        e = self.vpow(level, v, (q - 1) // 2)
        if e != self.one(level):
            return None
        if q % 4 == 3:
            return self.vpow(level, v, (q + 1) // 4)
        # Tonelli-Shanks with a deterministic non-residue
        nr = self._nonresidue.get(level)
        if nr is None:
            n = 2
            while True:
                cand = self.unrank(n, level)
                if self.vpow(level, cand, (q - 1) // 2) != self.one(level):
                    nr = cand
                    break
                n += 1
            self._nonresidue[level] = nr
        s, t = 0, q - 1
        while t % 2 == 0:
            s += 1
            t //= 2
        m = s
        c = self.vpow(level, nr, t)
        u = self.vpow(level, v, t)
        r = self.vpow(level, v, (t + 1) // 2)
        one = self.one(level)
        while u != one:
            i, z = 0, u
            while z != one:
                z = self.vmul(level, z, z)
                i += 1
            b = self.vpow(level, c, 1 << (m - i - 1))
            m, c = i, self.vmul(level, b, b)
            u = self.vmul(level, u, c)
            r = self.vmul(level, r, b)
        return r

    # -- list-of-raw-values polynomial helpers (used by vinv and Poly) -------

    def _ptrim(self, level: int, a: list) -> list:
        while len(a) > 1 and self.is_zero(a[-1], level):
            a = a[:-1]
        return a

    def _padd(self, level: int, a: list, b: list) -> list:
        n = max(len(a), len(b))
        z = self.zero(level)
        out = [(a[i] if i < len(a) else z) for i in range(n)]
        for i, c in enumerate(b):
            out[i] = self.vadd(level, out[i], c)
        return self._ptrim(level, out)

    def _psub(self, level: int, a: list, b: list) -> list:
        return self._padd(level, a, [self.vneg(level, c) for c in b])

    def _pmul(self, level: int, a: list, b: list) -> list:
        if (len(a) == 1 and self.is_zero(a[0], level)) or \
           (len(b) == 1 and self.is_zero(b[0], level)):
            return [self.zero(level)]
        z = self.zero(level)
        out = [z] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if self.is_zero(c, level):
                continue
            for j, d in enumerate(b):
                out[i + j] = self.vadd(level, out[i + j], self.vmul(level, c, d))
        return self._ptrim(level, out)

    def _pdivmod(self, level: int, num: list, den: list):
        den = self._ptrim(level, den)
        if len(den) == 1 and self.is_zero(den[0], level):
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = self.vinv(level, den[-1])
        rem = list(num)
        dd = len(den) - 1
        z = self.zero(level)
        if len(rem) - 1 < dd:
            return [z], self._ptrim(level, rem)
        quo = [z] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if self.is_zero(c, level):
                continue
            f = self.vmul(level, c, inv_lead)
            quo[i - dd] = f
            for j in range(dd + 1):
                rem[i - dd + j] = self.vsub(level, rem[i - dd + j],
                                            self.vmul(level, f, den[j]))
        return self._ptrim(level, quo), self._ptrim(level, rem)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def enc(v, level):
            if level == 0:
                return str(v)
            return [enc(c, level - 1) for c in v]
        return {
            "p": str(self.p),
            "levels": [[enc(c, i) for c in lv.modulus]
                       for i, lv in enumerate(self.levels)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FieldTower":
        base = PrimeField(int(data["p"]))
        tower = cls(base)
        for mod in data["levels"]:
            def dec(x):
                if isinstance(x, list):
                    return tuple(dec(c) for c in x)
                return int(x)
            coeffs = tuple(dec(c) for c in mod)
            tower = tower._with_level(len(coeffs) - 1, coeffs)
        return tower

    def _with_level(self, degree: int, modulus: tuple) -> "FieldTower":
        return FieldTower(self.base, self.levels + (_ExtLevel(degree, modulus),))


class FieldElement:
    """A value at some level of a FieldTower, with operator arithmetic."""

    __slots__ = ("tower", "level", "value")

    def __init__(self, tower: FieldTower, level: int, value):
        self.tower = tower
        self.level = level
        self.value = value

    # coercion: ints embed anywhere, lower levels lift to higher
    def _pair(self, other):
        if isinstance(other, int):
            return self.value, self.tower.from_int(other, self.level), self.level
        if not isinstance(other, FieldElement) or other.tower != self.tower:
            return NotImplemented
        lv = max(self.level, other.level)
        return (self.tower.lift(self.value, self.level, lv),
                self.tower.lift(other.value, other.level, lv), lv)

    def __add__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        u, v, lv = pr
        return FieldElement(self.tower, lv, self.tower.vadd(lv, u, v))

    __radd__ = __add__

    def __sub__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        u, v, lv = pr
        return FieldElement(self.tower, lv, self.tower.vsub(lv, u, v))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.tower, self.level,
                            self.tower.vneg(self.level, self.value))

    def __mul__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        u, v, lv = pr
        return FieldElement(self.tower, lv, self.tower.vmul(lv, u, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        u, v, lv = pr
        return FieldElement(self.tower, lv,
                            self.tower.vmul(lv, u, self.tower.vinv(lv, v)))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        return FieldElement(self.tower, self.level,
                            self.tower.vpow(self.level, self.value, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.level,
                            self.tower.vinv(self.level, self.value))

    def __eq__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        u, v, _ = pr
        return u == v

    def __hash__(self):
        # equality lifts across levels and embeds ints, so hash the value at
        # the lowest level it lies in: a level-0 value hashes as its int
        tower, level, v = self.tower, self.level, self.value
        while level:
            low = tower.try_descend(v, level, level - 1)
            if low is None:
                break
            v, level = low, level - 1
        return hash(v)

    def __repr__(self):
        return f"FieldElement(level={self.level}, {self.value})"

    def is_zero(self) -> bool:
        return self.tower.is_zero(self.value, self.level)

    def frobenius(self, power: int = 1) -> "FieldElement":
        return FieldElement(self.tower, self.level,
                            self.tower.frobenius(self.value, self.level, power))

    def sqrt(self) -> Optional["FieldElement"]:
        r = self.tower.vsqrt(self.value, self.level)
        if r is None:
            return None
        return FieldElement(self.tower, self.level, r)

    def rank(self) -> int:
        return self.tower.rank(self.value, self.level)

    def at_level(self, level: int) -> "FieldElement":
        if level >= self.level:
            return FieldElement(self.tower, level,
                                self.tower.lift(self.value, self.level, level))
        v = self.tower.try_descend(self.value, self.level, level)
        if v is None:
            raise ValueError("value does not lie in the requested subfield")
        return FieldElement(self.tower, level, v)

    def to_json(self):
        def enc(v, level):
            if level == 0:
                return str(v)
            return [enc(c, level - 1) for c in v]
        return enc(self.value, self.level)

    @classmethod
    def from_json(cls, tower: FieldTower, level: int, data) -> "FieldElement":
        def dec(x):
            if isinstance(x, list):
                return tuple(dec(c) for c in x)
            return int(x)
        return cls(tower, level, dec(data))


class Poly:
    """Dense polynomial over one level of a tower, constant-first coefficients."""

    __slots__ = ("tower", "level", "coeffs")

    def __init__(self, tower: FieldTower, level: int, coeffs: Iterable):
        self.tower = tower
        self.level = level
        cs = [c.value if isinstance(c, FieldElement) else tower.from_int(c, level)
              if isinstance(c, int) else c for c in coeffs]
        cs = tower._ptrim(level, cs or [tower.zero(level)])
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls, tower: FieldTower, level: int) -> "Poly":
        return cls(tower, level, [tower.zero(level), tower.one(level)])

    def degree(self) -> int:
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.tower.is_zero(self.coeffs[0], self.level)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.level == self.level
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __add__(self, other):
        return Poly(self.tower, self.level,
                    self.tower._padd(self.level, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        return Poly(self.tower, self.level,
                    self.tower._psub(self.level, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return Poly(self.tower, self.level,
                    [self.tower.vneg(self.level, c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly(self.tower, self.level, [other])
        return Poly(self.tower, self.level,
                    self.tower._pmul(self.level, list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        q, r = self.tower._pdivmod(self.level, list(self.coeffs), list(other.coeffs))
        return (Poly(self.tower, self.level, q), Poly(self.tower, self.level, r))

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.tower.vinv(self.level, self.coeffs[-1])
        return Poly(self.tower, self.level,
                    [self.tower.vmul(self.level, c, inv) for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        acc = Poly(self.tower, self.level, [self.tower.one(self.level)])
        base = self % mod
        while e:
            if e & 1:
                acc = (acc * base) % mod
            base = (base * base) % mod
            e >>= 1
        return acc

    def __call__(self, x) -> FieldElement:
        xv = x.value if isinstance(x, FieldElement) else self.tower.from_int(x, self.level)
        lv = max(self.level, x.level if isinstance(x, FieldElement) else 0)
        xv = self.tower.lift(xv, x.level, lv) if isinstance(x, FieldElement) else xv
        acc = self.tower.zero(lv)
        for c in reversed(self.coeffs):
            acc = self.tower.vadd(lv, self.tower.vmul(lv, acc, xv),
                                  self.tower.lift(c, self.level, lv))
        return FieldElement(self.tower, lv, acc)

    def element_coeffs(self) -> list:
        return [FieldElement(self.tower, self.level, c) for c in self.coeffs]

    def __repr__(self):
        return f"Poly(level={self.level}, deg={self.degree()})"

    def to_json(self):
        return [FieldElement(self.tower, self.level, c).to_json() for c in self.coeffs]


def make_extension(tower: FieldTower, r: int) -> FieldTower:
    """Extend the top level by degree r with the lexicographically first monic
    irreducible polynomial (coefficients enumerated constant-first)."""
    if r < 1:
        raise ValueError("extension degree must be positive")
    if r == 1:
        return tower
    top = tower.depth()
    s = tower.size(top)
    n = 0
    while True:
        digits = []
        m = n
        for _ in range(r):
            digits.append(tower.unrank(m % s, top))
            m //= s
        coeffs = tuple(digits) + (tower.one(top),)
        if _is_irreducible(tower, top, coeffs, r, s):
            return tower._with_level(r, coeffs)
        n += 1
        if n > s**r:
            raise RuntimeError("no irreducible polynomial found (impossible)")


def _is_irreducible(tower: FieldTower, level: int, coeffs: tuple, r: int, s: int) -> bool:
    # f (degree r) is irreducible over a field of size s iff it shares no root
    # with x^(s^i) - x for every i up to r//2
    f = Poly(tower, level, list(coeffs))
    x = Poly.x(tower, level)
    cur = x
    for _ in range(r // 2):
        cur = cur.powmod(s, f)
        if not f.gcd(cur - x).degree() == 0:
            return False
    return True


def element_order(z: FieldElement, bound: int) -> int:
    """Exact multiplicative order of z, given a multiple `bound` of it."""
    if (z ** bound) != 1:
        raise ValueError(f"element order does not divide {bound}")
    order = bound
    n, fac = bound, []
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac.append(d)
            n //= d
        d += 1
    if n > 1:
        fac.append(n)
    for q in set(fac):
        while order % q == 0 and (z ** (order // q)) == 1:
            order //= q
    return order


def dlog_in_mu_m(base: FieldElement, target: FieldElement, m: int) -> int:
    """Discrete log of target to the given base inside the order-m roots of
    unity, by baby-step giant-step."""
    if (target ** m) != 1:
        raise ValueError("target is not an m-th root of unity")
    if element_order(base, m) != m:
        raise ValueError("base does not have exact order m")
    step = 1
    while step * step < m:
        step += 1
    table = {}
    cur = FieldElement(base.tower, base.level, base.tower.one(base.level))
    for j in range(step):
        table.setdefault((cur.level, cur.value), j)
        cur = cur * base
    giant = base.inverse() ** step
    cur = target
    for i in range(step + 1):
        j = table.get((cur.level, cur.value))
        if j is not None:
            return (i * step + j) % m
        cur = cur * giant
    raise ValueError("discrete log not found in the root-of-unity subgroup")


def poly_roots(f: Poly) -> list:
    """All roots of f in its own level, sorted by the canonical element order.

    Splits off the linear part with gcd(f, x^q - x), then applies
    equal-degree splitting with a deterministic sweep of shifts.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every root")
    tower, level = f.tower, f.level
    if f.degree() == 0:
        return []
    q = tower.size(level)
    x = Poly.x(tower, level)
    g = f.gcd(x.powmod(q, f) - x)
    roots = []
    stack = [g]
    shift = 1
    while stack:
        h = stack.pop()
        if h.degree() <= 0:
            continue
        if h.degree() == 1:
            h = h.monic()
            roots.append(tower.vneg(level, h.coeffs[0]))
            continue
        # split with (x+c)^((q-1)/2) - 1 for successive shifts c
        while True:
            c = tower.unrank(shift % q, level)
            shift += 1
            base = Poly(tower, level, [c, tower.one(level)])
            w = base.powmod((q - 1) // 2, h) - Poly(tower, level, [tower.one(level)])
            d = h.gcd(w)
            if 0 < d.degree() < h.degree():
                stack.append(d)
                stack.append(h // d)
                break
    roots.sort(key=lambda v: tower.rank(v, level))
    return [FieldElement(tower, level, v) for v in roots]
