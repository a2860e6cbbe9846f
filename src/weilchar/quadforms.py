"""Binary quadratic forms, class groups of imaginary quadratic orders, and
the genus characters attached to them.

Forms (a, b, c) are positive definite of discriminant b^2 - 4ac = -D < 0,
always primitive. Class groups are handled by full enumeration of reduced
forms, which is the honest ground truth at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class QuadForm:
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
    if a <= 0 or form.disc() >= 0:
        raise ValueError("only positive definite forms of negative discriminant")
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * a * r
            c2 = (b2 * b2 - form.disc()) // (4 * a)
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
    if f1.disc() != f2.disc():
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
    c3 = (b3 * b3 + (-f1.disc())) // (4 * a3)
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


@dataclass(frozen=True)
class Character:
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

    def characters(self) -> list:
        return assigned_characters(self.D)

    def __repr__(self):
        return f"Discriminant(-{self.D})"


def assigned_characters(D: int) -> list:
    """The assigned characters of the order of discriminant -D = -2^f * d."""
    disc = Discriminant(D) if not isinstance(D, Discriminant) else D
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


def find_coprime_value(form: QuadForm, modulus: int, box: int = 20) -> int:
    """Smallest-search value represented by the form and coprime to modulus."""
    for s in range(1, 2 * box + 1):
        for x in range(0, s + 1):
            y = s - x
            if x > box or y > box:
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


def relation_characters(D) -> list:
    """The assigned characters whose product is trivial on every class.

    Odd-prime characters enter when their prime divides D to an odd power;
    the even-part member is delta for d = 1 mod 4, epsilon for odd f, fused
    into delta_epsilon when f = 3 brings in both."""
    disc = D if isinstance(D, Discriminant) else Discriminant(D)
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
    disc = Discriminant(D)
    group = enumerate_class_group(D)
    chars = assigned_characters(D)
    mu = len(chars)

    rel = relation_characters(disc)
    relation_ok = all(
        math.prod(char_eval_norm(ch, n) for ch in rel) == 1
        for n in (find_coprime_value(g, 2 * D) for g in group))

    squares = sorted({compose(g, g) for g in group},
                     key=lambda q: (q.a, q.b, q.c))
    two_torsion = [g for g in group if compose(g, g) == principal_form(D)]
    # every valid -D has at least one assigned character, so mu >= 1
    counts_ok = (len(group) == len(squares) * 2 ** (mu - 1)
                 and len(two_torsion) == 2 ** (mu - 1))

    # joint kernel of the assigned characters equals the squares
    kernel = [g for g in group
              if all(char_eval_class(ch, g, D) == 1 for ch in chars)]
    kernel_ok = sorted(kernel, key=lambda q: (q.a, q.b, q.c)) == list(squares)

    return {
        "D": D,
        "ok": relation_ok and counts_ok and kernel_ok,
        "relation_ok": relation_ok,
        "counts_ok": counts_ok,
        "kernel_is_squares": kernel_ok,
        "h": len(group),
        "mu": mu,
        "squares": len(squares),
        "two_torsion": len(two_torsion),
    }


def two_torsion_and_sqrt(D: int, target: QuadForm):
    """Basis of the 2-torsion subgroup and one square root of target (or None),
    both found by scanning the enumerated class group."""
    group = enumerate_class_group(D)
    one = principal_form(D)
    target = reduce_form(target)
    two_torsion = [g for g in group if compose(g, g) == one]

    basis = []
    span = {one}
    for g in two_torsion:
        if g in span:
            continue
        basis.append(g)
        span |= {compose(g, s) for s in span}

    root = None
    for g in group:
        if compose(g, g) == target:
            root = g
            break
    return basis, root
