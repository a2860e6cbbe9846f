"""Exact arithmetic in a prime field F_p and in one extension F_{p^r}.

Everything is plain-integer arithmetic: an element of F_p is an int in
[0, p), and an element of F_{p^r} is a tuple of r such ints, the
coefficients (constant first) of a polynomial modulo the field's monic
defining polynomial.  F_p sits inside every F_{p^r} as the constants.

Each F_{p^r} compiles its own kernels: straight-line Python formatted from
p, r and the modulus, as in field code generated per modulus (fiat-crypto;
Erbsen et al., IEEE S&P 2019).  Sums, differences and negations are
unrolled at every r and built with the field, as is the product, which
takes one of two paths fixed by r alone:

- up to UNROLLED_MUL_MAX_R, the unrolled schoolbook product, which reduces
  from the top through the nonzero low terms of the modulus only;
- above it, Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009):
  both operands pack into one int each, one bigint product carries every
  coefficient product in its own slot, and the 2r - 1 slots reduce the
  same way.

The unrolled product makes r^2 small-int products against one bigint
product and the packing, so it wins at small r (4x at (101, 4), 2x at
(120121, 7)) and loses at large r: the two tie near r = 14-16 for
p >= 101, and at r = 42, the README's chi_7 run, Kronecker is about 1.8x
faster (bench/run.py).  It folds the high coefficients down unreduced,
by the modulus terms in [0, p); signed terms (c0 -= 2 c4) ran 3-5% slower
at p = 120121, a negative multi-digit sum costing Python's % more.
Inverses go through the norm, on the Frobenius chain the square roots use.
Each Frobenius power phi^k in use compiles on first use,
at any r, from its sparse rows.  These kernels and the square-root constants
are memo entries: a tower keeps no state beyond what its constructor sets.

Where the product is unrolled, 2 <= r <= UNROLLED_MUL_MAX_R, whole raw
routines compile as well.  SymbolicTower stands in for the tower and
records, from the same source generators, what a routine run on it does,
phi^k included, so the norm traces as it runs; its compile makes one
straight-line kernel of the steps a result reads, with no call per field
operation.  pairing compiles a shift attempt's parts this way: curves'
point draw, the rejection loop around each candidate's x from its rank,
c = x^3 + a4 x + a6 and N(c), the descent test and curves' x([m]R), run
once per point, so each formula is written once, in the routine.  A traced
product asked for twice is one step, and a traced square takes the
squaring form (Hankerson, Menezes and Vanstone, Guide to ECC, 2.3),
r (r + 1)/2 products for r^2; lazy reduction of traced sums and maps
was prototyped and left out, as it gained nothing above noise.
A discrete log in mu_m walks the powers of the base once, and is kept per
base and target.

Square roots lean on the Frobenius x -> x^p, a linear map on coefficients.
The norm N(v) = v^(1 + p + ... + p^(r-1)) lies in F_p and decides
squareness there, since v^((q-1)/2) = N(v)^((p-1)/2).  The root is then
Tonelli-Shanks in F_{p^r} at every r, its one power taken by base-p digits
over the Frobenius images.

On a Kummer tower, x^r - w with r = 2^a 3^b irreducible by Serret's
criterion (the lex-first modulus wherever such a binomial exists, as at
every tower of the warm pairings), the norm descends through the
subfields F_p[x^l] by closed forms, traced; elsewhere it is vinv's chain.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .memo import memo


@memo
def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list:
    """Sorted [(prime, exponent), ...] by trial division."""
    if n <= 0:
        raise ValueError("positive integers only")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def legendre_symbol(n: int, m: int) -> int:
    """Legendre symbol (n/m) for an odd prime m, via Euler's criterion."""
    if m < 3 or m % 2 == 0 or not _is_prime(m):
        raise ValueError(f"modulus {m} is not an odd prime")
    n %= m
    if n == 0:
        return 0
    e = pow(n, (m - 1) // 2, m)
    return 1 if e == 1 else -1


# -- polynomials over F_p as trimmed int lists, constant first ----------------

def _ptrim(a: list) -> list:
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _psub(p: int, a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pmul(p: int, a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _ptrim([c % p for c in out])


def _pdivmod(p: int, num: list, den: list):
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p)
    rem = list(num)
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return [0], rem
    quo = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c * inv_lead % p
        quo[i - dd] = f
        for j in range(dd + 1):
            rem[i - dd + j] = (rem[i - dd + j] - f * den[j]) % p
    return _ptrim(quo), _ptrim(rem)


def _pgcd(p: int, a: list, b: list) -> list:
    """The monic gcd of a and b."""
    while b != [0]:
        a, b = b, _pdivmod(p, a, b)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _ppowmod(p: int, a: list, e: int, f: list) -> list:
    """a^e mod f left to right from a mod f: bit_length(e) - 1 squarings
    and popcount(e) - 1 products."""
    if not e:
        return [1]
    base = acc = _pdivmod(p, a, f)[1]
    for bit in bin(e)[3:]:
        acc = _pdivmod(p, _pmul(p, acc, acc), f)[1]
        if bit == "1":
            acc = _pdivmod(p, _pmul(p, acc, base), f)[1]
    return acc


def _serret(p: int, r: int, w: int) -> bool:
    """Whether x^r - w is irreducible over F_p, on ints, by Serret's
    criterion (Lidl and Niederreiter, Finite Fields, Thm 3.75): w != 0 has
    an order e in F_p^* that every prime of r divides and (p - 1)/e does
    not, and p = 1 mod 4 if 4 divides r."""
    if not w % p:
        return False
    e = p - 1
    for q, _ in factorize(e):
        while e % q == 0 and pow(w, e // q, p) == 1:
            e //= q
    return (all(e % q == 0 and (p - 1) // e % q for q, _ in factorize(r))
            and (r % 4 != 0 or p % 4 == 1))


_towers: dict = {}

# SymbolicTower compiles a traced kernel in segments of about this many
# characters of source, the size of the unrolled product at r = 14: no
# segment takes more compile memory than a tower's own kernels may
SEGMENT_CHARS = 3000

# vmul runs the unrolled schoolbook product up to this degree and Kronecker
# substitution above it; the two tie near r = 14-16 for p >= 101 and near
# r = 20-24 for p = 23 (the layers workload of bench/run.py)
UNROLLED_MUL_MAX_R = 14


def get_tower(p: int, r: int = 1) -> "FieldTower":
    """F_p for r = 1, else F_{p^r}: one shared object per (p, r), so fields
    compare by identity and each builds its modulus, Frobenius basis and
    square-root non-residue once.  The table is not a memo.memo and
    clear_caches() leaves it alone: a tower built again would be a second
    field that elements of the first do not embed in."""
    tower = _towers.get((p, r))
    if tower is None:
        if r < 1:
            raise ValueError("extension degree must be positive")
        if r == 1:
            if not (5 <= p < 2**32):
                raise ValueError(f"characteristic {p} out of the supported range")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            tower = FieldTower(p, 1, None)
        else:
            get_tower(p, 1)         # checks p before the modulus search
            tower = FieldTower(p, r, make_extension(p, r))
        _towers[(p, r)] = tower
    return tower


class FieldTower:
    """F_p (r = 1) or F_{p^r} with the given monic modulus; build it with
    get_tower.

    Raw values: an int in [0, p) for F_p, a tuple of r such ints for
    F_{p^r}.  The public face is FieldElement; the v* methods work on raw
    values and are what the hot paths use.
    """

    def __init__(self, p: int, r: int, modulus: Optional[tuple]):
        self.p = p
        self.r = r
        self.size = p ** r
        self.modulus = modulus
        self.base = self if r == 1 else get_tower(p, 1)
        self.zero = 0 if r == 1 else (0,) * r
        self.one = 1 if r == 1 else (1,) + (0,) * (r - 1)
        # vmul runs the unrolled product, so SymbolicTower can stand in
        self.traceable = 1 < r <= UNROLLED_MUL_MAX_R
        self._kummer = None     # w of a Kummer tower x^r = w (vnorm)
        if r == 1:
            self._mul = lambda u, v: u * v % p
            self._add = lambda u, v: (u + v) % p
            self._sub = lambda u, v: (u - v) % p
            self._neg = lambda u: -u % p
            return
        # _kron_mul: a slot holds a product coefficient, at most r (p-1)^2
        w = 2 * (p - 1).bit_length() + r.bit_length()
        self._slot, self._slot_mask = w, (1 << w) - 1
        self._slot_shifts = tuple(w * i for i in range(2 * r - 1))
        # x^r = sum of these (j, -f_j) over the nonzero low terms f_j
        self._low_terms = tuple((j, -c % p)
                                for j, c in enumerate(modulus[:r]) if c)
        # x^r = w with r = 2^a 3^b, a field by Serret's criterion
        w = -modulus[0] % p
        if (self._low_terms == ((0, w),) and _serret(p, r, w)
                and {q for q, _ in factorize(r)} <= {2, 3}):
            self._kummer = w
        self._mul = (_unrolled_mul(p, r, self._low_terms)
                     if self.traceable else self._kron_mul)
        u, v = _names(r, "u"), _names(r, "v")
        uv = _unpack(r, "u") + _unpack(r, "v")
        self._add, self._sub = (_compile(f"{name} {p}^{r}", "u, v", uv
                                         + _returns(_termwise(p, u, op, v)))
                                for name, op in (("add", "+"), ("sub", "-")))
        self._neg = _compile(f"neg {p}^{r}", "u", _unpack(r, "u") + _returns(
            f"-u{i} % {p}" for i in range(r)))

    def __repr__(self):
        return f"FieldTower(p={self.p}, r={self.r})"

    def __call__(self, x) -> "FieldElement":
        """x as an element of this field: an int is reduced mod p, an F_p
        element embeds, an element of another field descends to F_p first
        (ValueError if it lies outside)."""
        if not isinstance(x, FieldElement):
            return FieldElement(self, self.from_int(x))
        if x.field is self:
            return x
        x = x.descend()
        if x.field is not self.base:
            raise TypeError(f"{x.field!r} is not the prime field of {self!r}")
        return x if self.r == 1 else FieldElement(self, self.from_int(x.value))

    # -- raw value arithmetic ----------------------------------------------

    def from_int(self, n: int):
        if self.r == 1:
            return n % self.p
        return (n % self.p,) + self.zero[1:]

    # vadd, vsub, vneg and vmul stay methods of the class, so a wrapper set
    # on the class sees every call; each runs the kernel built for the tower

    def vadd(self, u, v):
        return self._add(u, v)

    def vsub(self, u, v):
        return self._sub(u, v)

    def vneg(self, u):
        return self._neg(u)

    def vmul(self, u, v):
        """u v: the unrolled schoolbook product for r up to
        UNROLLED_MUL_MAX_R, Kronecker substitution (_kron_mul) above."""
        return self._mul(u, v)

    def _kron_mul(self, u, v):
        """u v by Kronecker substitution: each operand packs into one int
        with a coefficient per slot of 2 bitlen(p - 1) + bitlen(r) bits,
        wide enough for r (p - 1)^2, so one bigint product holds the 2r - 1
        product coefficients uncarried.  They unpack by fixed shifts and
        reduce from the top through the nonzero low terms of the monic
        modulus only (one or two for the lex-first moduli used here)."""
        p = self.p
        r = self.r
        w = self._slot
        a = b = 0
        for c in reversed(u):
            a = a << w | c
        for c in reversed(v):
            b = b << w | c
        prod = a * b
        mask = self._slot_mask
        out = [prod >> s & mask for s in self._slot_shifts]
        low = self._low_terms
        for i in range(2 * r - 2, r - 1, -1):
            c = out[i] % p
            if c:
                i -= r
                for j, f in low:
                    out[i + j] += c * f
        return tuple([c % p for c in out[:r]])

    def vpow(self, u, e: int):
        """u^e left to right from u: bit_length(e) - 1 squarings and
        popcount(e) - 1 products."""
        if e < 0:
            return self.vpow(self.vinv(u), -e)
        if not e:
            return self.one
        acc = u
        for bit in bin(e)[3:]:
            acc = self.vmul(acc, acc)
            if bit == "1":
                acc = self.vmul(acc, u)
        return acc

    def vinv(self, u):
        """1/u by the norm (Itoh and Tsujii, Inform. and Comput. 78, 1988):
        b = phi(u^(1 + p + ... + p^(r-2))) makes u b = N(u), an int, so
        1/u = b / N(u).  ZeroDivisionError for zero, or when u b is not a
        nonzero int (a reducible modulus), so a returned value times u is
        always one."""
        if u == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.r == 1:
            return pow(u, -1, p)
        b = self.frobenius(self._frobenius_sum_power(u, self.r - 1))
        n = self.vmul(u, b)
        if any(n[1:]) or not n[0]:
            raise ZeroDivisionError("value not invertible")
        s = pow(n[0], -1, p)
        return tuple([c * s % p for c in b])

    def unrank(self, n: int):
        p = self.p
        if self.r == 1:
            return n % p
        out = []
        for _ in range(self.r):
            out.append(n % p)
            n //= p
        return tuple(out)

    def random_value(self, rng):
        return self.unrank(rng.randrange(self.size))

    # -- frobenius ----------------------------------------------------------

    def frobenius(self, v, power: int = 1):
        """v^(p^power), a linear map on the coefficients: phi^k for
        k = power mod r runs as straight-line code, compiled on first use
        (_frobenius_kernel)."""
        k = power % self.r
        if not k:
            return v
        return self._frobenius_kernel(k)(v)

    @memo
    def _frobenius_kernel(self, k: int):
        """phi^k compiled from its sparse rows: row j holds the
        nonzero coefficients of phi^k(x^j) = y^j, with y = x^p for k = 1
        and y = phi(phi(...phi(x))) by phi's kernel otherwise; for a
        binomial modulus every row has one entry."""
        x = (0, 1) + self.zero[2:]
        if k == 1:
            y = self.vpow(x, self.p)
        else:
            step, y = self._frobenius_kernel(1), x
            for _ in range(k):
                y = step(y)
        powers = [self.one, y]
        for _ in range(self.r - 2):
            powers.append(self.vmul(powers[-1], y))
        return _compile(
            f"frobenius^{k} {self.p}^{self.r}", "v", _unpack(self.r, "v")
            + _returns(_linear_map(self.p, powers, _names(self.r, "v"))))

    def vlin(self, const: int, terms):
        """const + the sum of c w over the (c, w) in terms: raw values w
        scaled by ints c, reduced once."""
        p = self.p
        if self.r == 1:
            return (const + sum(c * w for c, w in terms)) % p
        sums = [sum(c * w[i] for c, w in terms) for i in range(self.r)]
        sums[0] += const
        return tuple([a % p for a in sums])

    # -- norm and square roots ----------------------------------------------

    def _frobenius_sum_power(self, v, k: int):
        """v^(1 + p + ... + p^(k-1)) for k >= 1.

        a_j = v^(1 + ... + p^(j-1)) follows the bits of k:
        a_2j = a_j * phi^j(a_j) and a_(j+1) = v * phi(a_j)."""
        a, j = v, 1
        for bit in bin(k)[3:]:
            a = self.vmul(a, self.frobenius(a, j))
            j *= 2
            if bit == "1":
                a = self.vmul(v, self.frobenius(a))
                j += 1
        return a

    def _digit_power(self, v, digits):
        """v^e for the exponent e with the given base-p digits, least first:
        the product of phi^i(v)^(digit i), all r images sharing one
        squaring chain of at most log2 p steps."""
        images = [v]
        for _ in digits[1:]:
            images.append(self.frobenius(images[-1]))
        acc = None
        for bit in range(max(digits).bit_length() - 1, -1, -1):
            if acc is not None:
                acc = self.vmul(acc, acc)
            for g, d in zip(images, digits):
                if d >> bit & 1:
                    acc = g if acc is None else self.vmul(acc, g)
        return self.one if acc is None else acc

    def vnorm(self, v) -> int:
        """N(v) = v^(1 + p + ... + p^(r-1)), the norm of v to F_p, as an int
        in [0, p): by descent on a Kummer tower (_norm_kernel), else by
        about log2 r multiplications and r Frobenius maps.  The descent is
        the determinant of multiplication by v, an int of F_p on any ring
        F_p[x]/(x^r - w), and the norm exactly where x^r - w is
        irreducible, so only towers Serret's criterion proves fields take
        it.  The chain raises RuntimeError if its power lies outside F_p
        (a reducible modulus, such as x^2 - 1 or x^2 - 2 over F_7)."""
        if self.r == 1:
            return v
        if self._kummer:
            return self._norm_kernel()(v)
        a = self._frobenius_sum_power(v, self.r)
        if any(a[1:]):
            raise RuntimeError(f"norm of {v} does not lie in the prime field")
        return a[0]

    @memo
    def _norm_kernel(self):
        """SymbolicTower.vnorm compiled on the first norm: kernel(v) = N(v)."""
        t = SymbolicTower(self)
        return t.compile("v", t.vnorm(t.value("v")), role="norm")

    def vis_square(self, v) -> bool:
        """Whether v is a nonzero square, by Euler's criterion in F_p:
        v^((q-1)/2) = N(v)^((p-1)/2)."""
        p = self.p
        return pow(self.vnorm(v), (p - 1) // 2, p) == 1

    def vis_nonsquare(self, v) -> bool:
        """Whether v is a non-square (zero is not one), by Euler's
        criterion on N(v) as in vis_square."""
        p = self.p
        return pow(self.vnorm(v), (p - 1) // 2, p) == p - 1

    @memo
    def _sqrt_setup(self) -> tuple:
        """(s, c, digits) for vsqrt: q - 1 = 2^s t with t odd; c = n^t for
        the first non-residue n in rank order (None when s = 1); the r
        base-p digits of (t - 1)/2, least first.  At odd r, n < p and c
        is the int n^t mod p; at even r, c is the power by the base-p
        digits of t over the Frobenius images of n (_digit_power)."""
        p, r = self.p, self.r
        e = self.size - 1
        s = (e & -e).bit_length() - 1
        t = e >> s
        n = 2 if r % 2 else p     # for even r every n < p is a square
        while s > 1 and self.vis_square(self.unrank(n)):
            n += 1
        c = None
        if s > 1:
            c = (self.from_int(pow(n, t, p)) if r % 2 else self._digit_power(
                self.unrank(n), [t // p ** i % p for i in range(r)]))
        return s, c, tuple((t - 1) // 2 // p ** i % p for i in range(r))

    def vsqrt(self, v, norm: Optional[int] = None):
        """A square root of v, or None if v is a non-square.

        Squareness is decided first, by the norm in F_p (see vis_square);
        a caller that has taken N(v) already passes it as norm.
        The root is the Tonelli-Shanks one for q - 1 = 2^s t, t odd (Cohen,
        A Course in Computational Algebraic Number Theory, Alg. 1.5.1):
        from w = v^((t-1)/2), taken by the base-p digits of its exponent
        over the r Frobenius images of v (_digit_power), the guess v w
        times the corrections that bring its error u = v w^2 = v^t to 1,
        which are powers of c = n^t for a fixed non-residue n."""
        if v == self.zero:
            return v
        p = self.p
        if norm is None:
            norm = self.vnorm(v)
        if pow(norm, (p - 1) // 2, p) != 1:
            return None
        s, c, digits = self._sqrt_setup()
        w = self._digit_power(v, digits)
        root = self.vmul(v, w)
        u = self.vmul(root, w)
        # c has order 2^s and u an order dividing 2^(s-1)
        while u != self.one:
            i, z = 0, u
            while z != self.one:
                z = self.vmul(z, z)
                i += 1
            b = c
            for _ in range(s - i - 1):
                b = self.vmul(b, b)
            s, c = i, self.vmul(b, b)
            u = self.vmul(u, c)
            root = self.vmul(root, b)
        return root


def _times_y(c: int, z: tuple, w: int, k: int) -> tuple:
    """The vlin terms of c y^k z for an s-tuple z of F_p[y]/(y^s - w), k < s
    or s = 1: z shifts up k places, wrapping past y^(s-1) times w."""
    s = len(z)
    if s == 1:
        return ((c * w ** k, z),)
    return ((c, (0,) * k + z[:s - k]), (c * w, z[s - k:] + (0,) * (s - k)))


def _compile(role: str, args: str, body: str, **scope):
    """kernel(args) with the given straight-line body; scope holds the
    globals the body calls.  Its code is filed as <kernel role>, so
    profilers and tracebacks tell kernels apart."""
    exec(compile(f"def kernel({args}):\n{body}", f"<kernel {role}>", "exec"),
         scope)
    return scope["kernel"]


def _names(r: int, name: str) -> list:
    """The names name0, name1, ... of r coefficients."""
    return [f"{name}{i}" for i in range(r)]


def _unpack(r: int, name: str, value: str = "") -> str:
    """The line unpacking the r coefficients of value (default name) into
    name0, name1, ..."""
    return ("    " + "".join(f"{a}, " for a in _names(r, name))
            + f"= {value or name}\n")


def _tuple(coefficients) -> str:
    return "(" + "".join(f"{c}, " for c in coefficients) + ")"


def _returns(coefficients) -> str:
    return f"    return {_tuple(coefficients)}\n"


# Source generators: each formats one formula on coefficient names, and
# both the kernels of a tower and SymbolicTower are built from them.  In a
# SymbolicTower a coefficient may also be an int constant.

def _reduced(p: int, terms: list) -> str:
    """The source of the sum of c * name over the (c, name) in terms, mod
    p, each of c and name an int, a name or a _Scalar; terms with c = 0
    or name = 0 drop out."""
    terms = [f"{name}" if c == 1 else f"{c} * {name}"
             for c, name in terms if c and name != 0]
    return f"({' + '.join(terms)}) % {p}" if terms else "0"


def _termwise(p: int, u, op: str, v) -> list:
    """The coefficients of u + v or u - v (op "+" or "-")."""
    return [f"({a} {op} {b}) % {p}" for a, b in zip(u, v)]


def _combination(p: int, r: int, const, terms) -> list:
    """The r coefficients of const + the sum of c w over the (c, w) in
    terms, for const and c as _reduced takes them."""
    sums = [[(c, w[i]) for c, w in terms] for i in range(r)]
    sums[0].insert(0, (1, const))
    return [_reduced(p, terms) for terms in sums]


def _linear_map(p: int, images: list, v) -> list:
    """The coefficients of the linear map sending x^j to images[j], at v."""
    return [_reduced(p, [(g[i], v[j]) for j, g in enumerate(images)])
            for i in range(len(images))]


def _product(p: int, r: int, low_terms: tuple, u, v) -> tuple:
    """(lines, coefficients) of the schoolbook product of u and v: lines
    set the 2r - 1 product coefficients c0, c1, ..., then from the top
    fold each c_k (k >= r), unreduced, down through the low terms (j, f)
    of x^r = sum f x^j.  For u = v, c_k = sum over i < j of d_i u_j, plus
    u_(k/2)^2, with d_i = 2 u_i.  The source holds only the ints p, r and
    those terms."""
    sq = u == v
    lines = "".join(f"    d{i} = 2 * {u[i]}\n" for i in range(r - 1) if sq)
    for k in range(2 * r - 1):
        top = k // 2 if sq else min(k, r - 1)
        lines += f"    c{k} = " + " + ".join(
            f"{f'd{i}' if sq and 2 * i < k else u[i]} * {v[k - i]}"
            for i in range(max(0, k - r + 1), top + 1)) + "\n"
    for k in range(2 * r - 2, r - 1, -1):
        lines += "".join(f"    c{k - r + j} += {f} * c{k}\n"
                         for j, f in low_terms)
    return lines, [f"c{i} % {p}" for i in range(r)]


def _unrolled_mul(p: int, r: int, low_terms: tuple):
    """The schoolbook product (_product) as a kernel."""
    lines, coefficients = _product(p, r, low_terms, _names(r, "u"),
                                   _names(r, "v"))
    return _compile(f"mul {p}^{r}", "u, v", _unpack(r, "u") + _unpack(r, "v")
                    + lines + _returns(coefficients))


class SymbolicTower:
    """A stand-in for a traceable FieldTower f (2 <= r <=
    UNROLLED_MUL_MAX_R), or for a Kummer tower of any r whose norm it
    traces, that records instead of computing.

    Its values are tuples of r coefficient names, besides the constants one
    and zero of f, and its scalars (_Scalar) name int expressions.  vmul,
    vadd, vsub, vlin, frobenius and unrank each record their result
    as one step: its source, formatted by the generators f's kernels are
    compiled from, and the names it reads and writes.  So a raw routine of
    f, run once here on inputs declared by value and scalar, leaves the
    straight-line body of a kernel of f, which compile returns.  Products
    and sums with one or zero fold away, and a product asked for again
    reads the names of its first step."""

    def __init__(self, f: FieldTower):
        if not (f.traceable or f._kummer):
            raise ValueError(f"{f!r} has no unrolled product to trace")
        self.p, self.r = f.p, f.r
        self.zero, self.one = f.zero, f.one
        self._low_terms, self._kummer = f._low_terms, f._kummer
        self._frobenius_kernel = f._frobenius_kernel
        self._inputs = []       # the lines unpacking the value arguments
        self._steps = []        # (source, names read, names written)
        self._scalars = {}      # expression -> its _Scalar
        self._products = {}     # (u, v) -> the names of u v
        self._count = itertools.count(1)

    def _fresh(self) -> str:
        return f"_{next(self._count)}"

    def _bind(self, coefficients, operands, lines: str = "") -> tuple:
        """Record lines, then the fresh names of the result's coefficients,
        as a step reading operands."""
        names = tuple(_names(self.r, self._fresh() + "_"))
        self._steps.append((lines + "".join(
            f"    {a} = {c}\n" for a, c in zip(names, coefficients)),
            _read(*operands), names))
        return names

    def _scalar(self, expression: str, *operands) -> "_Scalar":
        s = self._scalars.get(expression)
        if s is None:
            s = self._scalars[expression] = _Scalar(self, self._fresh())
            self._steps.append((f"    {s} = {expression}\n",
                                _read(*operands), (s.name,)))
        return s

    # -- kernel arguments ---------------------------------------------------

    def value(self, name: str) -> tuple:
        """The raw value passed as argument name."""
        self._inputs.append(_unpack(self.r, name + "_", name))
        return tuple(_names(self.r, name + "_"))

    def scalar(self, name: str) -> "_Scalar":
        """The int passed as argument name."""
        return _Scalar(self, name)

    # -- the FieldTower methods the traced routines call ---------------------

    def vmul(self, u, v):
        if self.zero in (u, v):
            return self.zero
        if self.one in (u, v):
            return v if u == self.one else u
        uv = self._products.get((u, v))
        if uv is None:
            # the product's own names c0, c1, ... and d0, d1, ... die in its
            # step, so every product reuses them
            lines, coefficients = _product(self.p, self.r, self._low_terms,
                                           u, v)
            uv = self._products[u, v] = self._bind(coefficients, (u, v), lines)
        return uv

    def vadd(self, u, v):
        if self.zero in (u, v):
            return v if u == self.zero else u
        return self._bind(_termwise(self.p, u, "+", v), (u, v))

    def vsub(self, u, v):
        if v == self.zero:
            return u
        return self._bind(_termwise(self.p, u, "-", v), (u, v))

    def vlin(self, const, terms):
        return self._bind(_combination(self.p, self.r, const, terms),
                          (const, *terms))

    def frobenius(self, v, power: int = 1):
        """phi^k for k = power mod r, one linear step: the images of the
        powers of x under f's phi^k kernel are its rows."""
        k = power % self.r
        if not k:
            return v
        phi = self._frobenius_kernel(k)
        images = [phi(tuple(int(i == j) for i in range(self.r)))
                  for j in range(self.r)]
        return self._bind(_linear_map(self.p, images, v), (v,))

    def unrank(self, n: "_Scalar") -> tuple:
        """The value of rank n, its base-p digits."""
        p = self.p
        return self._bind([f"{n} // {p ** i} % {p}" if i else f"{n} % {p}"
                           for i in range(self.r)], (n,))

    _frobenius_sum_power = FieldTower._frobenius_sum_power

    def vnorm(self, v) -> "_Scalar":
        """The int of FieldTower.vnorm: the descent on a Kummer tower, in
        F_p by construction, else the chain and a step raising
        FieldTower.vnorm's RuntimeError if it lies outside F_p."""
        if self._kummer:
            return _Scalar(self, self._descent_norm(v))
        n = self._frobenius_sum_power(v, self.r)
        s = _Scalar(self, self._fresh())
        self._steps.append((
            f"    if {' or '.join(map(str, n[1:]))}:\n"
            f"        raise RuntimeError('norm of %s does not lie in the prime"
            f" field' % ({_tuple(v)},))\n"
            f"    {s} = {n[0]}\n", _read(n, v), (s.name,)))
        return s

    def vis_nonsquare(self, v) -> "_Scalar":
        """The bool of FieldTower.vis_nonsquare: Euler's test on vnorm."""
        p = self.p
        n = self.vnorm(v)
        return self._scalar(f"pow({n}, {(p - 1) // 2}, {p}) == {p - 1}", n)

    def _descent_norm(self, v) -> str:
        """The name of N(v) on a Kummer tower x^r = w: while r > 1, with
        l = 2 while r is even, then 3, v = a + b x (+ c x^2) for a, b, c of
        L = F_p[y]/(y^(r/l) - w), y = x^l, the subfield F_{p^(r/l)}, and
        N(v) = N_L(a^2 - y b^2), or N_L(a^3 + y b^3 + y^2 c^3 - 3 y a b c):
        the determinant of multiplication by v over L."""
        w, s = self._kummer, self.r
        while s > 1:
            l = 2 if s % 2 == 0 else 3
            s //= l
            # L, as a copy that records into this tower's steps and names
            g = object.__new__(SymbolicTower)
            g.__dict__.update(self.__dict__, r=s, zero=(0,) * s,
                              one=(1,) + (0,) * (s - 1),
                              _low_terms=((0, w),))
            a = [v[i::l] for i in range(l)]
            sq = [g.vmul(b, b) for b in a]
            if l == 2:
                v = g.vlin(0, ((1, sq[0]), *_times_y(-1, sq[1], w, 1)))
            else:
                abc = g.vmul(a[0], g.vmul(a[1], a[2]))
                v = g.vlin(0, ((1, g.vmul(sq[0], a[0])),
                               *_times_y(1, g.vmul(sq[1], a[1]), w, 1),
                               *_times_y(1, g.vmul(sq[2], a[2]), w, 2),
                               *_times_y(-3, abc, w, 1)))
        return v[0]

    def compile(self, args: str, *results, role: str = "traced",
                loop: Optional[str] = None):
        """kernel(args) running the recorded steps and returning results,
        values or scalars, filed under role and the tower (see _compile).

        loop, when given, is the kernel's body instead: source with one
        loop, whose body holds the field {steps}, where the steps run one
        level deeper than the kernel's own body, and the fields {0}, {1},
        ... for the results.

        Compiling takes peak memory in proportion to the source compiled at
        once, about 130 bytes a character, so the steps go in segments of
        about SEGMENT_CHARS: each but the last is a function of the names
        it reads from earlier ones, returning the names later ones read,
        and the kernel calls them in turn, then runs the last inline.  A
        step whose names nothing reads is left out."""
        name = f"{role} {self.p}^{self.r}"
        live, needed = [], _read(*results)
        for source, reads, writes in reversed(self._steps):
            if needed.intersection(writes):
                live.append((source, reads, writes))
                needed |= reads
        segments = [["", set(), set()]]     # source, names read, written
        for source, reads, writes in reversed(live):
            if segments[-1][0] and (len(segments[-1][0]) + len(source)
                                    > SEGMENT_CHARS):
                segments.append(["", set(), set()])
            segments[-1][0] += source
            segments[-1][1] |= reads
            segments[-1][2].update(writes)
        last = segments.pop()
        needed = _read(*results) | last[1]
        calls, scope = [], {}
        for i in range(len(segments) - 1, -1, -1):
            source, reads, writes = segments[i]
            outs = sorted(writes & needed)
            ins = ", ".join(sorted(reads - writes))
            scope[f"_segment{i}"] = _compile(f"{name} segment {i}", ins,
                                             source + _returns(outs))
            calls.append(f"    {''.join(f'{o}, ' for o in outs)}"
                         f"= _segment{i}({ins})\n")
            needed |= reads
        outs = [_tuple(x) if isinstance(x, tuple) else str(x)
                for x in results]
        steps = "".join(reversed(calls)) + last[0]
        body = (f"{steps}    return {', '.join(outs)}\n" if loop is None else
                loop.format(*outs, steps="".join(
                    "    " + line for line in steps.splitlines(True))))
        return _compile(name, args, "".join(self._inputs) + body, **scope)


class _Scalar:
    """An int of a SymbolicTower kernel, by name: an argument, or an
    expression the tower binds on first use."""

    __slots__ = ("tower", "name")

    def __init__(self, tower: SymbolicTower, name: str):
        self.tower = tower
        self.name = name

    def __str__(self):
        return self.name

    def __add__(self, other):
        return self.tower._scalar(f"{self} + {other}", self, other)

    def __mul__(self, other):
        return self.tower._scalar(f"{self} * {other}", self, other)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self.tower._scalar(f"-{self}", self)

    def __pow__(self, e: int):
        return self.tower._scalar(f"{self} ** {e}", self)


def _read(*operands) -> set:
    """The names among operands: coefficient names of values (in pairs or
    tuples of them, as vlin's terms) and scalars."""
    names = set()
    for x in operands:
        if isinstance(x, _Scalar):
            names.add(x.name)
        elif isinstance(x, tuple):
            names |= _read(*x)
        elif isinstance(x, str):
            names.add(x)
    return names


class FieldElement:
    """An element of F_p or F_{p^r}, with operator arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldTower, value):
        self.field = field
        self.value = value

    # coercion: ints embed anywhere, F_p elements embed into F_{p^r}
    def _pair(self, other):
        f = self.field
        if isinstance(other, FieldElement):
            g = other.field
            if g is f:
                return f, self.value, other.value
            if g.base is f:
                return g, g.from_int(self.value), other.value
            if f.base is g:
                return f, self.value, f.from_int(other.value)
            return NotImplemented
        if isinstance(other, int):
            return f, self.value, f.from_int(other)
        return NotImplemented

    # op(f, u, v) on the coerced values; each op is looked up on FieldTower
    # per call, so a wrapper set on the class sees every call
    def _apply(self, other, op):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        f, u, v = pr
        return FieldElement(f, op(f, u, v))

    def __add__(self, other):
        return self._apply(other, FieldTower.vadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, FieldTower.vsub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, self.field.vneg(self.value))

    def __mul__(self, other):
        return self._apply(other, FieldTower.vmul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, lambda f, u, v: f.vmul(u, f.vinv(v)))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.vpow(self.value, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.vinv(self.value))

    def __eq__(self, other):
        if isinstance(other, int):
            # only the canonical representative in [0, p) is equal, since
            # only it hashes alike
            f = self.field
            return 0 <= other < f.p and self.value == f.from_int(other)
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        return pr[1] == pr[2]

    def __hash__(self):
        # equality embeds F_p and ints, so a value lying in F_p hashes as
        # its int wherever it lives
        v = self.value
        if self.field.r > 1 and not any(v[1:]):
            v = v[0]
        return hash(v)

    def __repr__(self):
        return f"FieldElement(p={self.field.p}, r={self.field.r}, {self.value})"

    def is_zero(self) -> bool:
        return self.value == self.field.zero

    def descend(self) -> "FieldElement":
        """This element as an element of F_p; ValueError if it lies outside."""
        f = self.field
        if f.r == 1:
            return self
        if any(self.value[1:]):
            raise ValueError("value does not lie in the prime field")
        return FieldElement(f.base, self.value[0])

    def frobenius(self, power: int = 1) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius(self.value, power))

    def sqrt(self) -> Optional["FieldElement"]:
        r = self.field.vsqrt(self.value)
        if r is None:
            return None
        return FieldElement(self.field, r)


def make_extension(p: int, r: int) -> tuple:
    """The modulus of F_{p^r}: the lexicographically first monic irreducible
    polynomial of degree r over F_p (coefficients enumerated constant-first),
    as a tuple of r + 1 ints."""
    if r < 2:
        raise ValueError("extension degree must be at least 2")
    for n in range(p ** r):
        digits = []
        m = n
        for _ in range(r):
            digits.append(m % p)
            m //= p
        coeffs = tuple(digits) + (1,)
        if _is_irreducible(p, coeffs):
            return coeffs
    raise RuntimeError("no irreducible polynomial found (impossible)")


def _is_irreducible(p: int, coeffs) -> bool:
    # f (degree r) is irreducible over F_p iff it shares no root with
    # x^(p^i) - x for every i up to r//2
    f = list(coeffs)
    x = [0, 1]
    cur = x
    for _ in range((len(f) - 1) // 2):
        cur = _ppowmod(p, cur, p, f)
        if len(_pgcd(p, f, _psub(p, cur, x))) != 1:
            return False
    return True


@memo
def element_order(z: FieldElement, bound: int) -> int:
    """Exact multiplicative order of z, given a multiple `bound` of it
    (the same in every field holding z)."""
    f, v = z.field, z.value
    if f.vpow(v, bound) != f.one:
        raise ValueError(f"element order does not divide {bound}")
    order = bound
    for q, _ in factorize(bound):
        while order % q == 0 and f.vpow(v, order // q) == f.one:
            order //= q
    return order


def dlog_in_mu_m(base: FieldElement, target: FieldElement, m: int) -> int:
    """Discrete log of target to the given base inside the order-m roots of
    unity (_dlog)."""
    pair = base._pair(target)
    if pair is NotImplemented:
        raise TypeError(f"{target!r} and {base!r} share no field")
    return _dlog(*pair, m)


@memo
def _dlog(f: FieldTower, b, t, m: int) -> int:
    """The log of the raw value t to the raw base b in mu_m: t^m = 1 is
    checked, then b's exact order m (element_order), in that order, so a
    target outside is reported before a base of the wrong order; then b's
    powers are walked to t, which they reach, being all m roots of x^m - 1.
    Kept per (b, t), so a warm dlog takes one lookup; a call that raises
    keeps nothing, so the entries are at most m per base."""
    if f.vpow(t, m) != f.one:
        raise ValueError("target is not an m-th root of unity")
    if element_order(FieldElement(f, b), m) != m:
        raise ValueError("base does not have exact order m")
    j, cur = 0, f.one
    while cur != t:
        j, cur = j + 1, f.vmul(cur, b)
    return j
