"""Binary quadratic forms, class groups of imaginary quadratic orders, and
the genus characters attached to them.

Forms (a, b, c) are positive definite of discriminant b^2 - 4ac = -D < 0,
always primitive. Class groups are handled by full enumeration of reduced
forms, which is the honest ground truth at this scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fields import factorize, legendre_symbol
from .memo import memo


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def inverse(self) -> "QuadForm":
        return reduce_form(QuadForm(self.a, -self.b, self.c))

    def represented_value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def to_json(self):
        return [self.a, self.b, self.c]


def reduce_form(form: QuadForm) -> QuadForm:
    """Gauss reduction. Preserves the class, lands on the unique reduced
    representative."""
    a, b, c = form.a, form.b, form.c
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise ValueError("only positive definite forms of negative discriminant")
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * a * r
            c2 = (b2 * b2 - disc) // (4 * a)
            b, c = b2, c2
            continue
        break
    if (abs(b) == a or a == c) and b < 0:
        b = -b
    return QuadForm(a, b, c)


def principal_form(D: int) -> QuadForm:
    if D % 4 == 0:
        return QuadForm(1, 0, D // 4)
    if D % 4 == 3:
        return QuadForm(1, 1, (1 + D) // 4)
    raise ValueError(f"-{D} is not a discriminant")


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Dirichlet composition of primitive forms of one discriminant,
    returned reduced."""
    disc = f1.disc()
    if disc != f2.disc():
        raise ValueError("cannot compose forms of different discriminants")
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2
    g0, _, w = _xgcd(a1, a2)
    g, x, t = _xgcd(g0, s)
    a3 = (a1 * a2) // (g * g)
    # g = gcd(a1, a2, s); v2 is the coefficient of a2 in its Bezout identity
    v2 = x * w
    b3 = b2 + 2 * (a2 // g) * (v2 * ((b1 - b2) // 2) - t * c2)
    b3 %= 2 * a3
    c3 = (b3 * b3 - disc) // (4 * a3)
    return reduce_form(QuadForm(a3, b3, c3))


@memo
def enumerate_class_group(D: int) -> tuple:
    """All reduced primitive forms of discriminant -D, canonically ordered."""
    if D <= 0 or D % 4 not in (0, 3):
        raise ValueError(f"-{D} is not a discriminant")
    out = []
    amax = math.isqrt(D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            form = QuadForm(a, b, c)
            if form.is_reduced() and form.is_primitive():
                out.append(form)
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return tuple(out)


def class_number(D: int) -> int:
    return len(enumerate_class_group(D))


class ClassGroup:
    """cl(O) for one discriminant -D, classes named by their index in
    ``enumerate_class_group(D)``.  Index 0 is the principal class, the only
    reduced form with a = 1.

    - ``forms[i]`` and ``index[form]`` translate between the two;
    - ``square[i]`` is the index of class i squared;
    - ``root[j]`` is the first i with ``square[i] == j``, None off the
      squares;
    - ``basis`` takes each 2-torsion class, in enumeration order, that the
      classes before it do not generate; ``span`` lists the subgroup they
      generate, each basis class times the span so far appended in turn;
    - ``mul(i, j)`` composes on first use only, a memo entry, so the
      products of a group are never built eagerly."""

    __slots__ = ("forms", "index", "square", "root", "basis", "span")

    def __init__(self, D: int):
        self.forms = forms = enumerate_class_group(D)
        self.index = index = {f: i for i, f in enumerate(forms)}
        # tuples, and no products until mul: the genus sweep keeps one
        # record for each of its 2,500 discriminants
        self.square = tuple(index[compose(g, g)] for g in forms)
        root = [None] * len(forms)
        for i in reversed(range(len(forms))):
            root[self.square[i]] = i
        self.root = tuple(root)
        basis, span = [], [0]
        for i, s in enumerate(self.square):
            if s == 0 and i not in span:
                basis.append(i)
                span += [index[compose(forms[i], forms[k])] for k in span]
        self.basis, self.span = tuple(basis), tuple(span)

    @memo
    def mul(self, i: int, j: int) -> int:
        """Index of the product of classes i and j."""
        return self.index[compose(self.forms[i], self.forms[j])]


@memo
def class_group(D: int) -> ClassGroup:
    """The class group of discriminant -D, built on first use."""
    return ClassGroup(D)


class Character(NamedTuple):
    """One assigned character of the order of discriminant -D."""

    kind: str      # 'chi' | 'delta' | 'epsilon' | 'delta_epsilon'
    modulus: int   # the odd prime m for 'chi'; 4 for delta; 8 otherwise

    @property
    def label(self) -> str:
        return f"chi_{self.modulus}" if self.kind == "chi" else self.kind

    def to_json(self):
        return {"kind": self.kind, "modulus": self.modulus}


class Discriminant:
    """Discriminant -D of an imaginary quadratic order, with its factorization
    and character inventory."""

    def __init__(self, D: int):
        if D <= 0 or D % 4 not in (0, 3):
            raise ValueError(f"-{D} is not a discriminant")
        self.D = D
        self.factors = factorize(D)
        self.two_exp = next((e for (p, e) in self.factors if p == 2), 0)
        self.odd_part = D >> self.two_exp
        self.odd_primes = [(p, e) for (p, e) in self.factors if p != 2]

    def __repr__(self):
        return f"Discriminant(-{self.D})"


@memo
def discriminant(D: int) -> Discriminant:
    """The Discriminant of -D, built once per D and shared: read it, never
    change it."""
    return Discriminant(D)


def assigned_characters(D: int) -> list:
    """The assigned characters of the order of discriminant -D = -2^f * d."""
    disc = discriminant(D)
    f, d = disc.two_exp, disc.odd_part
    chars = [Character("chi", p) for (p, _) in disc.odd_primes]
    if f == 2 and d % 4 == 1:
        chars.append(Character("delta", 4))
    elif f == 3:
        chars.append(Character("delta_epsilon", 8) if d % 4 == 1
                     else Character("epsilon", 8))
    elif f == 4:
        chars.append(Character("delta", 4))
    elif f >= 5:
        chars.append(Character("delta", 4))
        chars.append(Character("epsilon", 8))
    return chars


def char_eval_norm(char: Character, n: int) -> int:
    """Evaluate a character at an integer coprime to its modulus."""
    if char.kind == "chi":
        v = legendre_symbol(n, char.modulus)
        if v == 0:
            raise ValueError(f"{n} is not coprime to {char.modulus}")
        return v
    if n % 2 == 0:
        raise ValueError(f"{n} is not coprime to {char.modulus}")
    if char.kind == "delta":
        return -1 if (n - 1) // 2 % 2 else 1
    if char.kind == "epsilon":
        return -1 if (n * n - 1) // 8 % 2 else 1
    if char.kind == "delta_epsilon":
        return -1 if ((n + 2) ** 2 - 9) // 8 % 2 else 1
    raise ValueError(f"unknown character kind {char.kind!r}")


def find_coprime_value(form: QuadForm, modulus: int) -> int:
    """Smallest-search value form(x, y), |x|, |y| <= 20, coprime to modulus."""
    for s in range(1, 41):
        for x in range(0, s + 1):
            y = s - x
            if x > 20 or y > 20:
                continue
            for sx, sy in ((1, 1), (1, -1)):
                n = form.represented_value(sx * x, sy * y)
                if n != 0 and math.gcd(n, modulus) == 1:
                    return n
    raise ValueError(f"no represented value coprime to {modulus} in the search box")


def char_eval_class(char: Character, form: QuadForm, D: int) -> int:
    """Character value on an ideal class, through a represented norm coprime
    to 2D. Well defined exactly because the character is assigned."""
    n = find_coprime_value(form, 2 * D)
    return char_eval_norm(char, n)


@memo
def char_table(D: int, char: Character) -> tuple:
    """The values of an assigned character on the classes of discriminant
    -D, by class index."""
    return tuple(char_eval_class(char, g, D)
                 for g in enumerate_class_group(D))


def relation_characters(D: int) -> list:
    """The assigned characters whose product is trivial on every class.

    Odd-prime characters enter when their prime divides D to an odd power;
    the even-part member is delta for d = 1 mod 4, epsilon for odd f, fused
    into delta_epsilon when f = 3 brings in both."""
    disc = discriminant(D)
    f, d = disc.two_exp, disc.odd_part
    rel = [Character("chi", p) for (p, e) in disc.odd_primes if e % 2]
    if f == 3:
        rel.append(Character("delta_epsilon", 8) if d % 4 == 1
                   else Character("epsilon", 8))
    else:
        if f >= 2 and d % 4 == 1:
            rel.append(Character("delta", 4))
        if f % 2:
            rel.append(Character("epsilon", 8))
    return rel


def verify_character_relation(D: int) -> dict:
    """Check the multiplicative relation tying the assigned characters together,
    and the genus-theory counts, on the full class group of discriminant -D.

    Returns a report dict with an 'ok' flag.
    """
    group = class_group(D)
    chars = assigned_characters(D)
    mu = len(chars)
    norms = [find_coprime_value(g, 2 * D) for g in group.forms]

    rel = relation_characters(D)
    relation_ok = all(math.prod(char_eval_norm(ch, n) for ch in rel) == 1
                      for n in norms)

    squares = sorted(set(group.square))
    two_torsion = group.square.count(0)
    # every valid -D has at least one assigned character, so mu >= 1
    counts_ok = (len(group.forms) == len(squares) * 2 ** (mu - 1)
                 and two_torsion == 2 ** (mu - 1))

    # joint kernel of the assigned characters equals the squares
    kernel = [i for i, n in enumerate(norms)
              if all(char_eval_norm(ch, n) == 1 for ch in chars)]
    kernel_ok = kernel == squares

    return {
        "D": D,
        "ok": relation_ok and counts_ok and kernel_ok,
        "relation_ok": relation_ok,
        "counts_ok": counts_ok,
        "kernel_is_squares": kernel_ok,
        "h": len(group.forms),
        "mu": mu,
        "squares": len(squares),
        "two_torsion": two_torsion,
    }


def two_torsion_and_sqrt(D: int, target: QuadForm):
    """Basis of the 2-torsion subgroup and the first square root of target
    in enumeration order (or None), read off ``class_group(D)``."""
    group = class_group(D)
    i = group.index.get(reduce_form(target))
    root = None if i is None else group.root[i]
    return ([group.forms[b] for b in group.basis],
            None if root is None else group.forms[root])
