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
faster (bench/fields.py).  It folds the high coefficients down unreduced,
by the modulus terms in [0, p); signed terms (c0 -= 2 c4) ran 3-5% slower
at p = 120121, a negative multi-digit sum costing Python's % more.
Inverses are extended Euclid on int lists,
updated in place.  Two more kinds are compiled on first use, at any r: each
Frobenius power phi^k in use, from its sparse rows, and the linear
combination const + sum of c v at each term count (lin_kernel, for the
pairing's x-only certificate).

Where the product is unrolled, 2 <= r <= UNROLLED_MUL_MAX_R, whole raw
routines compile as well.  SymbolicTower stands in for the tower and
records, from the same source generators, what a routine run on it does,
phi^k included, so the norm traces as it runs; its compile makes one
straight-line kernel of the steps a result reads, with no call per field
operation.  curves compiles each candidate of its point draws this way
(x from its rank, c = x^3 + a4 x + a6 and N(c)) and pairing its x([m]R)
certificate, so each formula is written once, in the routine.  A traced
square takes the squaring form (Hankerson, Menezes and Vanstone, Guide to
ECC, 2.3), r (r + 1)/2 products for r^2; lazy reduction of traced sums
and maps was prototyped and left out, as it gained nothing above noise.
Discrete logs in mu_m are lookups in a memoized table of the powers of
the base.

Square roots lean on the Frobenius x -> x^p, a linear map on coefficients.
The norm N(v) = v^(1 + p + ... + p^(r-1)) lies in F_p and decides
squareness there, since v^((q-1)/2) = N(v)^((p-1)/2).  For odd r the
Tonelli-Shanks loop also runs in F_p, on ints, and only its first guess is
a power in F_{p^r}; for even r the loop stays in F_{p^r} and its power is
taken by base-p digits over the Frobenius images.
"""

from __future__ import annotations

from typing import Optional

from .memo import memo


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
    """a^e mod f by square-and-multiply."""
    acc = [1]
    base = _pdivmod(p, a, f)[1]
    while e:
        if e & 1:
            acc = _pdivmod(p, _pmul(p, acc, base), f)[1]
        base = _pdivmod(p, _pmul(p, base, base), f)[1]
        e >>= 1
    return acc


_towers: dict = {}

# SymbolicTower compiles a traced kernel in segments of about this many
# characters of source, the size of the unrolled product at r = 14: no
# segment takes more compile memory than a tower's own kernels may
SEGMENT_CHARS = 3000

# vmul runs the unrolled schoolbook product up to this degree and Kronecker
# substitution above it; the two tie near r = 14-16 for p >= 101 and near
# r = 20-24 for p = 23 (bench/fields.py)
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
        self._frob = {}           # power k -> compiled phi^k, lazy
        self._lins = {}           # term count -> compiled lin_kernel, lazy
        self._sqrt_consts = None  # lazy: _sqrt_setup()
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
        self._mul = (_unrolled_mul(p, r, self._low_terms)
                     if self.traceable else self._kron_mul)
        u, v = _names(r, "u"), _names(r, "v")
        uv = _unpack(r, "u") + _unpack(r, "v")
        self._add = _compile("u, v", uv + _returns(_termwise(p, u, "+", v)))
        self._sub = _compile("u, v", uv + _returns(_termwise(p, u, "-", v)))
        self._neg = _compile("u", _unpack(r, "u") + _returns(
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
        if e < 0:
            return self.vpow(self.vinv(u), -e)
        acc = self.one
        base = u
        while e:
            if e & 1:
                acc = self.vmul(acc, base)
            base = self.vmul(base, base)
            e >>= 1
        return acc

    def vinv(self, u):
        """1/u by extended Euclid against the modulus on int lists over F_p,
        with s_a u = a and s_b u = b (mod the modulus) throughout; each
        elimination of a's leading term by b updates a and s_a in place.
        ZeroDivisionError for zero, or when the gcd is not a unit (a
        reducible modulus)."""
        if u == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        r = self.r
        if r == 1:
            return pow(u, -1, p)
        a, b = list(self.modulus), list(u)
        while not b[-1]:
            b.pop()
        sa, sb = [0] * r, [1] + [0] * (r - 1)
        while len(b) > 1:
            db = len(b) - 1
            lead = pow(b[-1], -1, p)
            while len(a) > db:
                c = a.pop() * lead % p
                k = len(a) - db
                for j in range(db):
                    a[k + j] = (a[k + j] - c * b[j]) % p
                for j in range(r - k):
                    if sb[j]:
                        sa[k + j] = (sa[k + j] - c * sb[j]) % p
                while a and not a[-1]:
                    a.pop()
            a, b, sa, sb = b, a, sb, sa
        if not b:
            raise ZeroDivisionError("value not invertible")
        lead = pow(b[0], -1, p)
        return tuple([c * lead % p for c in sb])

    def rank(self, v) -> int:
        """Position of v in the constant-first enumeration of the field."""
        if self.r == 1:
            return v
        n = 0
        for c in reversed(v):
            n = n * self.p + c
        return n

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
        return (self._frob.get(k) or self._frobenius_kernel(k))(v)

    def _frobenius_kernel(self, k: int):
        """phi^k compiled from its sparse rows, cached: row j holds the
        nonzero coefficients of phi^k(x^j) = y^j, with y = x^p for k = 1
        and y = phi(phi(...phi(x))) by phi's kernel otherwise; for a
        binomial modulus every row has one entry."""
        x = (0, 1) + self.zero[2:]
        if k == 1:
            y = self.vpow(x, self.p)
        else:
            step, y = self._frob.get(1) or self._frobenius_kernel(1), x
            for _ in range(k):
                y = step(y)
        powers = [self.one, y]
        for _ in range(self.r - 2):
            powers.append(self.vmul(powers[-1], y))
        self._frob[k] = kernel = _compile("v", _unpack(self.r, "v") + _returns(
            _linear_map(self.p, powers, _names(self.r, "v"))))
        return kernel

    def lin_kernel(self, n: int):
        """For r > 1, kernel(const, terms): const + the sum of c w over the
        n pairs (c, w) in terms, ints c and raw values w, reduced once;
        compiled on first use for each n."""
        kernel = self._lins.get(n)
        if kernel is None:
            r, ts = self.r, range(n)
            body = "    " + "".join(f"(c{t}, w{t}), " for t in ts) + "= terms\n"
            body += "".join(_unpack(r, f"w{t}_", f"w{t}") for t in ts)
            body += _returns(_combination(self.p, r, "const", [
                (f"c{t}", _names(r, f"w{t}_")) for t in ts]))
            self._lins[n] = kernel = _compile("const, terms", body)
        return kernel

    # -- norm and square roots ----------------------------------------------

    def _frobenius_sum_power(self, v, k: int, step: int = 1):
        """v^(1 + p^step + p^(2 step) + ... + p^((k-1) step)) for k >= 1.

        a_j = v^(1 + ... + p^((j-1) step)) follows the bits of k:
        a_2j = a_j * phi^(j step)(a_j) and a_(j+1) = v * phi^step(a_j)."""
        a, j = v, 1
        for bit in bin(k)[3:]:
            a = self.vmul(a, self.frobenius(a, j * step))
            j *= 2
            if bit == "1":
                a = self.vmul(v, self.frobenius(a, step))
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
        in [0, p), by about log2 r multiplications and r Frobenius maps."""
        if self.r == 1:
            return v
        return _norm_int(v, self._frobenius_sum_power(v, self.r))

    def vis_square(self, v) -> bool:
        """Whether v is a nonzero square, by Euler's criterion in F_p:
        v^((q-1)/2) = N(v)^((p-1)/2)."""
        p = self.p
        return pow(self.vnorm(v), (p - 1) // 2, p) == 1

    def _sqrt_setup(self) -> tuple:
        """(s, c, digits) for vsqrt: q - 1 = 2^s t with t odd; c = n^t for
        the first non-residue n in rank order (None when s = 1), an int for
        odd r; for even r the base-p digits of (t - 1)/2, least first."""
        p, r = self.p, self.r
        # for odd r, (q - 1)/(p - 1) = 1 + p + ... + p^(r-1) is odd, so
        # q - 1 and p - 1 have the same 2-part
        e = p - 1 if r % 2 else self.size - 1
        s = (e & -e).bit_length() - 1
        t = (self.size - 1) >> s
        n = 2 if r % 2 else p     # for even r every n < p is a square
        while s > 1 and self.vis_square(self.unrank(n)):
            n += 1
        if s == 1:
            c = None
        elif r % 2:
            c = pow(n, t, p)    # n < p: a non-residue of F_p stays one
        else:
            c = self.vpow(self.unrank(n), t)
        digits = None if r % 2 else self.unrank((t - 1) // 2)
        return s, c, digits

    def vsqrt(self, v, norm: Optional[int] = None):
        """A square root of v, or None if v is a non-square.

        Squareness is decided first, by the norm in F_p (see vis_square);
        a caller that has taken N(v) already passes it as norm.
        The root is the Tonelli-Shanks one for q - 1 = 2^s t, t odd: the
        guess v^((t+1)/2) times the corrections that bring its error
        u = v^t to 1, which are powers of c = n^t for a fixed non-residue
        n.  Two paths compute that same root:

        - odd r (r = 1 included): q - 1 = (p - 1) M with M odd, so
          t = t' M with t' = (p - 1)/2^s.  u = N(v)^t' and c lie in F_p,
          so the loop runs on ints.  Only the guess lives in F_{p^r}:
          v^((t+1)/2) = v * (v^((p+1)/2))^(p (1 + p^2 + ... + p^(r-3)))
          * N(v)^((t'-1)/2), one power by (p + 1)/2 and a Frobenius chain,
          scaled at the end by an int.
        - even r: the loop runs in F_{p^r} from w = v^((t-1)/2), guess
          v w and error u = v w^2; w is taken by the base-p digits of its
          exponent over the r Frobenius images of v (_digit_power)."""
        if v == self.zero:
            return v
        p, r = self.p, self.r
        if norm is None:
            norm = self.vnorm(v)
        if pow(norm, (p - 1) // 2, p) != 1:
            return None
        if self._sqrt_consts is None:
            self._sqrt_consts = self._sqrt_setup()
        s, c, digits = self._sqrt_consts
        if r % 2:
            tp = (p - 1) >> s
            scale = _tonelli_shanks(lambda a, b: a * b % p, 1, s, c,
                                    pow(norm, tp, p),
                                    pow(norm, (tp - 1) // 2, p))
            if r == 1:
                return v * scale % p
            y = self.vpow(v, (p + 1) // 2)
            guess = self.vmul(v, self.frobenius(
                self._frobenius_sum_power(y, (r - 1) // 2, 2)))
            return tuple(a * scale % p for a in guess)
        w = self._digit_power(v, digits)
        guess = self.vmul(v, w)
        return _tonelli_shanks(self.vmul, self.one, s, c,
                               self.vmul(guess, w), guess)


def _norm_int(v, a) -> int:
    """N(v) as an int, given as the raw value a of F_{p^r};
    RuntimeError if a lies outside F_p."""
    if any(a[1:]):
        raise RuntimeError(f"norm of {v} does not lie in the prime field")
    return a[0]


def _compile(args: str, body: str, **scope):
    """kernel(args) with the given straight-line body; scope holds the
    globals the body calls."""
    exec(f"def kernel({args}):\n{body}", scope)
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
    return _compile("u, v", _unpack(r, "u") + _unpack(r, "v") + lines
                    + _returns(coefficients))


class SymbolicTower:
    """A stand-in for a traceable FieldTower f (2 <= r <=
    UNROLLED_MUL_MAX_R) that records instead of computing.

    Its values are tuples of r coefficient names, besides the constants one
    and zero of f, and its scalars (_Scalar) name int expressions.  vmul,
    vadd, vsub, frobenius, unrank and lin_kernel each record their result
    as one step: its source, formatted by the generators f's kernels are
    compiled from, and the names it reads and writes.  So a raw routine of
    f, run once here on inputs declared by value and scalar, leaves the
    straight-line body of a kernel of f, which compile returns.  Products
    and sums with one or zero fold away."""

    def __init__(self, f: FieldTower):
        if not f.traceable:
            raise ValueError(f"{f!r} has no unrolled product to trace")
        self.p, self.r = f.p, f.r
        self.zero, self.one = f.zero, f.one
        self._low_terms = f._low_terms
        self._frobenius = f.frobenius
        self._inputs = []       # the lines unpacking the value arguments
        self._steps = []        # (source, names read, names written)
        self._scalars = {}      # expression -> its _Scalar
        self._count = 0

    def _fresh(self) -> str:
        self._count += 1
        return f"_{self._count}"

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
        # the product's own names c0, c1, ... and d0, d1, ... die in its
        # step, so every product reuses them
        lines, coefficients = _product(self.p, self.r, self._low_terms, u, v)
        return self._bind(coefficients, (u, v), lines)

    def vadd(self, u, v):
        if self.zero in (u, v):
            return v if u == self.zero else u
        return self._bind(_termwise(self.p, u, "+", v), (u, v))

    def vsub(self, u, v):
        if v == self.zero:
            return u
        return self._bind(_termwise(self.p, u, "-", v), (u, v))

    def lin_kernel(self, n: int):
        def kernel(const, terms):
            return self._bind(_combination(self.p, self.r, const, terms),
                              (const, *terms))
        return kernel

    def frobenius(self, v, power: int = 1):
        """phi^k for k = power mod r, one linear step: the images of the
        powers of x under f's phi^k are its rows."""
        k = power % self.r
        if not k:
            return v
        images = [self._frobenius(tuple(int(i == j) for i in range(self.r)),
                                  k) for j in range(self.r)]
        return self._bind(_linear_map(self.p, images, v), (v,))

    def unrank(self, n: "_Scalar") -> tuple:
        """The value of rank n, its base-p digits."""
        p = self.p
        return self._bind([f"{n} // {p ** i} % {p}" if i else f"{n} % {p}"
                           for i in range(self.r)], (n,))

    _frobenius_sum_power = FieldTower._frobenius_sum_power

    # -- what FieldTower callers do in Python on the values ------------------

    def differ(self, u, v) -> "_Scalar":
        """The bool u != v."""
        return self._scalar(" or ".join(f"{a} != {b}" for a, b in zip(u, v)),
                            u, v)

    def compile(self, args: str, *results):
        """kernel(args) running the recorded steps and returning results,
        values or scalars.

        Compiling takes peak memory in proportion to the source compiled at
        once, about 130 bytes a character, so the steps go in segments of
        about SEGMENT_CHARS: each but the last is a function of the names
        it reads from earlier ones, returning the names later ones read,
        and the kernel calls them in turn, then runs the last inline.  A
        step whose names nothing reads is left out."""
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
        calls = []
        scope = {}
        for i in range(len(segments) - 1, -1, -1):
            source, reads, writes = segments[i]
            outs = sorted(writes & needed)
            ins = ", ".join(sorted(reads - writes))
            scope[f"_segment{i}"] = _compile(ins, source + _returns(outs))
            calls.append(f"    {''.join(f'{o}, ' for o in outs)}"
                         f"= _segment{i}({ins})\n")
            needed |= reads
        out = ", ".join(_tuple(x) if isinstance(x, tuple) else str(x)
                        for x in results)
        return _compile(args, "".join(self._inputs) + "".join(reversed(calls))
                        + last[0] + f"    return {out}\n", **scope)


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
    tuples of them, as lin_kernel's terms) and scalars."""
    names = set()
    for x in operands:
        if isinstance(x, _Scalar):
            names.add(x.name)
        elif isinstance(x, tuple):
            names |= _read(*x)
        elif isinstance(x, str):
            names.add(x)
    return names


def _tonelli_shanks(mul, one, m: int, c, u, acc):
    """The Tonelli-Shanks loop: acc times the corrections b that bring the
    error u to one.  c has order 2^m and u an order dividing 2^(m-1)."""
    while u != one:
        i, z = 0, u
        while z != one:
            z = mul(z, z)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = mul(b, b)
        m, c = i, mul(b, b)
        u = mul(u, c)
        acc = mul(acc, b)
    return acc


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

    def __add__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        f, u, v = pr
        return FieldElement(f, f.vadd(u, v))

    __radd__ = __add__

    def __sub__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        f, u, v = pr
        return FieldElement(f, f.vsub(u, v))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, self.field.vneg(self.value))

    def __mul__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        f, u, v = pr
        return FieldElement(f, f.vmul(u, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pr = self._pair(other)
        if pr is NotImplemented:
            return NotImplemented
        f, u, v = pr
        return FieldElement(f, f.vmul(u, f.vinv(v)))

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

    def rank(self) -> int:
        return self.field.rank(self.value)


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
    unity, looked up in the table of the powers of base (_mu_table)."""
    pair = base._pair(target)
    if pair is NotImplemented:
        raise TypeError(f"{target!r} and {base!r} share no field")
    f, b, t = pair
    if f.vpow(t, m) != f.one:
        raise ValueError("target is not an m-th root of unity")
    return _mu_table(f, b, m)[t]


@memo
def _mu_table(f: FieldTower, b, m: int) -> dict:
    """{b^j: j for 0 <= j < m} for a raw value b of f of exact order m,
    checked first (ValueError otherwise).  The m powers are distinct roots
    of x^m - 1, so they are all of them: every m-th root of unity of f has
    its log here."""
    if element_order(FieldElement(f, b), m) != m:
        raise ValueError("base does not have exact order m")
    table = {}
    cur = f.one
    for j in range(m):
        table[cur] = j
        cur = f.vmul(cur, b)
    return table
