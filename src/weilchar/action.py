"""Class-group action on Frobenius-oriented curves.

Instances are curves over a prime field F_q oriented by sigma = pi_q + k, so
the order Z[sigma] has discriminant t^2 - 4q = -D regardless of the shift k.
Ideals are applied by locating Frobenius eigenpoints over the smallest usable
extension and running Velu's formulas; all codomains descend back to F_q.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .curves import (Curve, CurvePoint, _check_countable, _mul_fp,
                     count_points, extension_order, frobenius_map, point_add,
                     sample_m_torsion, scalar_mul, velu_isogeny)
from .fields import FieldElement, _is_prime, get_tower
from .memo import memo
from .quadforms import (Discriminant, QuadForm, class_group, compose,
                        discriminant, principal_form, reduce_form)

# the split primes the action uses: odd, at most SMOOTH_BOUND, with both
# eigenline extension degrees at most DEGREE_CAP
DEGREE_CAP = 12
SMOOTH_BOUND = 50
# the curves gen_ordinary_instance draws before it gives up
SEARCH_DRAWS = 4000


class OrientedCurve:
    """A curve over F_q together with sigma = pi_q + k orienting Z[sigma]."""

    def __init__(self, curve: Curve, q: int, t: int, sigma_k: int = 0):
        if curve.field.r != 1:
            raise ValueError("instances live over the prime field")
        self.curve = curve
        self.q = q
        self.t = t
        self.sigma_k = sigma_k
        D = 4 * q - t * t
        if D <= 0:
            raise ValueError("trace out of the imaginary range")
        self.D = D
        # every memo keyed by an instance hashes it and compares it on a hit
        self._key = (q, t, sigma_k, curve.a4.value, curve.a6.value)
        self._hash = hash(self._key)

    @property
    def sigma_kind(self) -> str:
        return "frobenius" if self.sigma_k == 0 else "frobenius_shift"

    @property
    def sigma_trace(self) -> int:
        return self.t + 2 * self.sigma_k

    @property
    def sigma_norm(self) -> int:
        return self.q + self.sigma_k * self.t + self.sigma_k ** 2

    @property
    def order_disc(self) -> Discriminant:
        return discriminant(self.D)

    def group_order(self, r: int = 1) -> int:
        return extension_order(self.q, self.t, r)

    @memo
    def curve_in(self, r: int) -> Curve:
        """The instance curve base-changed to F_{q^r}, built once per
        model and degree."""
        return self.curve.over(get_tower(self.q, r))

    def sigma_eval(self, P: CurvePoint, E_amb: Optional[Curve] = None) -> CurvePoint:
        """ι(sigma)(P) = pi_q(P) + [k]P."""
        fP = frobenius_map(P, self.q)
        if self.sigma_k == 0:
            return fP
        if E_amb is None:
            raise ValueError("the shifted evaluation needs the ambient curve")
        return point_add(E_amb, fP, scalar_mul(E_amb, self.sigma_k, P))

    @memo
    def shifted(self, extra_k: int) -> "OrientedCurve":
        return OrientedCurve(self.curve, self.q, self.t, self.sigma_k + extra_k)

    def j_invariant(self) -> FieldElement:
        return self.curve.j_invariant()

    def __eq__(self, other):
        return (isinstance(other, OrientedCurve) and other._key == self._key
                and other.curve.field is self.curve.field)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"OrientedCurve(q={self.q}, t={self.t}, D={self.D}, "
                f"a4={self.curve.a4.value}, a6={self.curve.a6.value})")

    def to_json(self) -> dict:
        return {
            "p": self.q,
            "curve": {"a4": int(self.curve.a4.value), "a6": int(self.curve.a6.value)},
            "sigma": {"kind": self.sigma_kind, "k": self.sigma_k},
            "trace": self.sigma_trace,
            "norm": self.sigma_norm,
            "D": self.D,
            "factors": [[p, e] for p, e in self.order_disc.factors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "OrientedCurve":
        """The instance a record describes, after checking that the record
        is one that to_json of a generated instance could have written."""
        q = data["p"]
        k = data["sigma"]["k"]
        for name, v in (("p", q), ("trace", data["trace"]), ("sigma.k", k)):
            if type(v) is not int:
                raise ValueError(f"{name} = {v!r} is not an int")
        tw = get_tower(q, 1)
        t = data["trace"] - 2 * k
        a4, a6 = data["curve"]["a4"], data["curve"]["a6"]
        for name, v in (("a4", a4), ("a6", a6)):
            if type(v) is not int or not 0 <= v < q:
                raise ValueError(f"coefficient {name} = {v!r} is not an "
                                 f"int in [0, {q})")
        E = Curve(tw, a4, a6)
        if E.j_invariant().value in (0, 1728 % q):
            raise ValueError("j-invariant 0 or 1728: the instance generators "
                             "never produce these curves")
        oc = cls(E, q, t, k)
        # every key, the derived D, norm, factors and sigma kind included,
        # must hold what to_json writes for this instance, types included
        want = oc.to_json()
        for key in sorted(set(data) | set(want)):
            if key not in data or key not in want or not _same(data[key],
                                                               want[key]):
                raise ValueError(f"inconsistent instance data: {key!r} is "
                                 f"not what to_json writes for the instance")
        # the trace must be the curve's own, not its twist's: a few points,
        # drawn from a generator seeded by the record, must be killed by
        # the group order
        rng = random.Random(_fold_seed((q, t, a4, a6)))
        for _ in range(8):
            if not scalar_mul(E, q + 1 - t, E.random_point(rng)).is_infinity():
                raise ValueError(f"trace {t} does not match the curve: "
                                 f"#E(F_q) is not {q + 1 - t}")
        return oc


def _same(a, b) -> bool:
    """a == b with equal types throughout, so True is not 1 and [1] is not
    (1,); lists and dicts compare item by item."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class SmoothIdeal(NamedTuple):
    """Product of split prime ideals (ell, sigma - lambda)^e with its reduced
    form image; negative exponents mean the conjugate ideal."""

    factors: tuple
    class_form: QuadForm

    @property
    def norm(self) -> int:
        n = 1
        for ell, _, e in self.factors:
            n *= ell ** abs(e)
        return n

    @classmethod
    def from_factors(cls, factors, oc: OrientedCurve) -> "SmoothIdeal":
        group = class_group(oc.D)
        k = 0
        for ell, lam, e in factors:
            # the conjugate eigenvalue gives the inverse class
            use = lam if e > 0 else (oc.sigma_trace - lam) % ell
            f = _prime_ideal_class(oc, ell, use)
            for _ in range(abs(e)):
                k = group.mul(k, f)
        return cls(tuple((ell, lam, e) for ell, lam, e in factors),
                   group.forms[k])


@memo
def prime_ideal_form(oc: OrientedCurve, ell: int, lam: int) -> QuadForm:
    """Reduced form of the ideal (ell, sigma - lam): (ell, b, *) with
    b = 2*lam - tr(sigma) mod 2*ell."""
    tr, N = oc.sigma_trace, oc.sigma_norm
    if (lam * lam - tr * lam + N) % ell:
        raise ValueError(f"{lam} is not an eigenvalue mod {ell}")
    b = (2 * lam - tr) % (2 * ell)
    c4 = b * b + oc.D
    if c4 % (4 * ell):
        raise RuntimeError("form dictionary arithmetic broke")
    return reduce_form(QuadForm(ell, b, c4 // (4 * ell)))


@memo
def _prime_ideal_class(oc: OrientedCurve, ell: int, lam: int) -> int:
    """The class index of prime_ideal_form(oc, ell, lam), memoized so that
    a warm lookup compares no forms."""
    return class_group(oc.D).index[prime_ideal_form(oc, ell, lam)]


def gen_supersingular_instance(p: int) -> OrientedCurve:
    """Exhaustive search for a supersingular curve over F_p, p = 1 mod 4; the
    instance is oriented by pi_p with D = 4p and assigned characters
    {chi_p, delta}, which agree on every class."""
    if p > 10**4 or not _is_prime(p) or p < 5:
        raise ValueError("p must be a desk-scale prime at least 5")
    if p % 4 != 1:
        raise ValueError("p = 3 mod 4 leaves no nontrivial attackable character")
    tw = get_tower(p, 1)
    for a4 in range(1, p):
        for a6 in range(1, p):
            try:
                E = Curve(tw, a4, a6)
            except ValueError:
                continue
            N, t = count_points(E)
            if t != 0:
                continue
            j = E.j_invariant().value
            if j in (0, 1728 % p):
                continue
            return OrientedCurve(E, p, 0)
    raise RuntimeError(f"no supersingular curve with plain j-invariant over F_{p}")


def make_instance(q: int, t: int, rng) -> OrientedCurve:
    """Random-search a curve over F_q with exact trace t (using the quadratic
    twist when the negated trace shows up).  Before the O(q) exact count, a
    candidate must pass _order_filter: the point random_point would draw
    has order dividing (q+1-t)(q+1+t), as on the sought curve or its
    twist.  No square root is taken: for c = x^3 + a4 x + a6 a nonzero
    square, (x, y) -> (u^2 x, u^3 y) with u^2 = c maps the curve
    isomorphically onto y^2 = x^3 + a4 c^2 x + a6 c^3 and the point
    (x, sqrt(c)) to (c x, +-c^2), so the filter multiplies that point,
    whose order, and so the verdict, is the same."""
    if not _is_prime(q) or q < 5:
        raise ValueError("q must be a prime of at least 5")
    if t == 0 or t % q == 0:
        raise ValueError("ordinary instances need a trace coprime to q")
    if t * t >= 4 * q:
        raise ValueError("trace outside the Hasse interval")
    _check_countable(q)
    tw = get_tower(q, 1)
    nonsquare = next(c for c in range(2, q)
                     if pow(c, (q - 1) // 2, q) == q - 1)
    for _ in range(40 * q):
        # a4, a6 != 0 also keeps the j-invariant off 0 and 1728
        a4 = rng.randrange(1, q)
        a6 = rng.randrange(1, q)
        if (4 * a4 ** 3 + 27 * a6 * a6) % q == 0:
            continue
        if not _order_filter(q, t, a4, a6):
            continue
        E = Curve(tw, a4, a6)
        N, tc = count_points(E)
        if tc == -t:
            a4, a6 = (a4 * nonsquare**2) % q, (a6 * nonsquare**3) % q
            E = Curve(tw, a4, a6)
            _, tc = count_points(E)
        if tc == t:
            return OrientedCurve(E, q, t)
    raise RuntimeError(f"no curve with trace {t} found over F_{q}")


def _order_filter(q: int, t: int, a4: int, a6: int) -> bool:
    """Whether the point P that random_point would draw on y^2 = x^3 +
    a4 x + a6 from Random(_fold_seed((q, t, a4, a6))) has order dividing
    (q+1-t)(q+1+t), as every point of the curve with trace t or of its
    twist does.  x is read as _draw reads it, randrange(q) until c = x^3 +
    a4 x + a6 is 0 or a square, and the sign bit is left unread.  For
    c = 0, P = (x, 0) has order 2; otherwise the multiple runs on the
    root-free model of make_instance's docstring."""
    frng = random.Random(_fold_seed((q, t, a4, a6)))
    half, order = (q - 1) // 2, (q + 1 - t) * (q + 1 + t)
    for _ in range(10000):
        x = frng.randrange(q)
        c = ((x * x + a4) * x + a6) % q
        if not c:
            return order % 2 == 0
        if pow(c, half, q) == 1:
            return _mul_fp(q, a4 * c * c % q, order,
                           (c * x % q, c * c % q)) is None
    raise RuntimeError("failed to sample a curve point")


def _primes_between(lo: int, hi: int) -> list:
    """The primes q with lo <= q <= hi, in order, by a sieve of
    Eratosthenes over a bytearray."""
    if hi < max(lo, 2):
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(hi) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, hi + 1, d)))
    return [q for q in range(max(lo, 2), hi + 1) if sieve[q]]


def gen_ordinary_instance(q_range, m_target: Optional[int] = None, *,
                          rng) -> OrientedCurve:
    """Random search over primes in q_range for an ordinary instance whose
    discriminant has a usable odd prime divisor (m exactly dividing D,
    m != q, and m <= m_target when a bound is given), of SEARCH_DRAWS
    curves at most.  A range reaching above the fields count_points
    sweeps is refused before any prime is listed."""
    lo, hi = q_range
    _check_countable(hi)
    primes = _primes_between(max(lo, 5), hi)
    if not primes:
        raise ValueError("no usable primes in the requested range")
    best_D = 0
    for _ in range(SEARCH_DRAWS):
        q = rng.choice(primes)
        tw = get_tower(q, 1)
        a4 = rng.randrange(1, q)
        a6 = rng.randrange(1, q)
        try:
            E = Curve(tw, a4, a6)
        except ValueError:
            continue
        if E.j_invariant().value in (0, 1728 % q):
            continue
        N, t = count_points(E)
        if t == 0 or t % q == 0:
            continue
        D = 4 * q - t * t
        best_D = max(best_D, D)
        ok_m = None
        for m, e in Discriminant(D).factors:
            if m == 2 or m == q or e != 1:
                continue
            if m_target is not None and m > m_target:
                continue
            ok_m = m
            break
        if ok_m is None:
            continue
        return OrientedCurve(E, q, t)
    raise RuntimeError(
        f"search budget exhausted without a usable instance; largest D scanned was {best_D}")


def split_prime(oc: OrientedCurve, ell: int):
    """Splitting of ell in Z[sigma]: ("split", [lam, lam']), ("ramified",
    [lam]), or ("inert", [])."""
    if ell == 2 or not _is_prime(ell):
        raise ValueError("only odd primes split into usable ideals here")
    tr, N = oc.sigma_trace, oc.sigma_norm
    roots = sorted({x for x in range(ell) if (x * x - tr * x + N) % ell == 0})
    if len(roots) == 2:
        return ("split", roots)
    if len(roots) == 1:
        return ("ramified", roots)
    return ("inert", [])


def _mult_order(a: int, n: int) -> int:
    x = a % n
    if math.gcd(x, n) != 1:
        raise ValueError("order of a noninvertible residue")
    k = 1
    while x != 1:
        x = (x * a) % n
        k += 1
        if k > n:
            raise RuntimeError("order computation ran away")
    return k


def _fold_seed(key: tuple) -> int:
    s = 0x9E3779B9
    for v in key:
        s = (s * 1000003 + v) % (1 << 63)
    return s


def eigen_kernel(oc: OrientedCurve, ell: int, lam: int) -> CurvePoint:
    """A point K of order ell with sigma(K) = [lam]K, over the smallest
    extension carrying the eigenline.

    Sampling runs on a generator seeded by the model, ell and the Frobenius
    eigenvalue, so the caller's randomness stream is untouched and repeat
    calls return equal points."""
    tr, N = oc.sigma_trace, oc.sigma_norm
    if (lam * lam - tr * lam + N) % ell:
        raise ValueError(f"{lam} is not an eigenvalue of sigma mod {ell}")
    if ell == 2 or ell % oc.q == 0 or oc.D % ell == 0:
        raise ValueError("kernel primes must be odd, split, and unramified")
    lam_pi = (lam - oc.sigma_k) % ell          # eigenvalue of the Frobenius
    other_pi = (oc.t - lam_pi) % ell
    rng = random.Random(_fold_seed((oc.q, oc.t, int(oc.curve.a4.value),
                                    int(oc.curve.a6.value), ell, lam_pi)))
    k_deg = _mult_order(lam_pi, ell)
    Ek = oc.curve_in(k_deg)
    Nk = oc.group_order(k_deg)
    other_rational = pow(other_pi, k_deg, ell) == 1
    for _ in range(64):
        R = sample_m_torsion(Ek, ell, Nk, rng)
        if other_rational:
            T = point_add(Ek, frobenius_map(R, oc.q),
                          scalar_mul(Ek, -other_pi, R))
            if T.is_infinity():
                continue
        else:
            T = R
        if frobenius_map(T, oc.q) != scalar_mul(Ek, lam_pi, T):
            raise RuntimeError(
                f"no eigenpoint for eigenvalue {lam} mod {ell}: inconsistent data")
        return T
    raise RuntimeError(f"eigenpoint sampling failed for ell={ell}")


def canonical_model(curve: Curve) -> Curve:
    """The least (a4, a6) among the u-scalings (u^4 a4, u^6 a6), one fixed
    model per F_q-isomorphism class.  Short Weierstrass isomorphisms are
    exactly these scalings, so pinning the model makes walks that arrive at
    the same class through different isogeny routes cache-identical.

    The least a4' is the least k >= 1 with w = k/a4 a fourth power u^4;
    the scalings reaching it multiply a6 by x^3 = w x for the square roots
    x of w that are squares themselves, and the least product is a6'.
    When a4 = 0 the least a6' is the least k >= 1 with k/a6 a sixth power."""
    a4, a6 = int(curve.a4.value), int(curve.a6.value)
    best = _least_model(curve.field.p, a4, a6)
    if best == (a4, a6):
        return curve
    return Curve(curve.field, best[0], best[1])


@memo
def _least_model(p: int, a4: int, a6: int) -> tuple:
    """canonical_model's (a4, a6), keyed on ints since Curve does not hash."""
    if not a4:
        return 0, _least_power_multiple(a6, 6, p)[0]
    field = get_tower(p)
    k, w = _least_power_multiple(a4, 4, p)
    x = field.vsqrt(w)
    return k, min(a6 * w * y % p for y in (x, p - x) if field.vis_square(y))


def _least_power_multiple(a: int, d: int, p: int) -> tuple:
    """(k, k/a) for the least k >= 1 with k/a a d-th power in F_p^*."""
    e = (p - 1) // math.gcd(d, p - 1)
    inv = pow(a, p - 2, p)
    k = 1
    while pow(k * inv % p, e, p) != 1:
        k += 1
    return k, k * inv % p


@memo
def apply_prime_ideal(oc: OrientedCurve, ell: int, lam: int) -> OrientedCurve:
    """The action of the class of (ell, sigma - lam): quotient by the
    eigenline and carry the orientation over to the codomain, interned."""
    _interned(oc)
    K = eigen_kernel(oc, ell, lam)
    phi = velu_isogeny(oc.curve, K, ell)
    return _interned(OrientedCurve(canonical_model(phi.codomain), oc.q, oc.t,
                                   oc.sigma_k))


@memo
def _interned(oc: OrientedCurve) -> OrientedCurve:
    """The first instance equal to oc, so memos keyed by it hit by
    identity: a class reached by two ideal paths is one object."""
    return oc


def apply_smooth_ideal(oc: OrientedCurve, ideal: SmoothIdeal) -> OrientedCurve:
    """Sequential application of the ideal's prime factors; conjugate
    eigenvalues serve the negative exponents."""
    cur = oc
    for ell, lam, e in ideal.factors:
        use = lam if e > 0 else (cur.sigma_trace - lam) % ell
        for _ in range(abs(e)):
            cur = apply_prime_ideal(cur, ell, use)
    return cur


def _usable_split_primes(oc: OrientedCurve) -> list:
    """Split primes we can afford to act by, sorted cheapest first: odd,
    coprime to qD, with both eigenline extension degrees within the cap.
    Entries are (cost, ell, lam)."""
    candidates = []
    for ell in range(3, SMOOTH_BOUND + 1, 2):
        if not _is_prime(ell) or oc.q % ell == 0 or oc.D % ell == 0:
            continue
        kind, roots = split_prime(oc, ell)
        if kind != "split":
            continue
        lam, lam2 = roots
        cost = max(_mult_order((lam - oc.sigma_k) % ell, ell),
                   _mult_order((lam2 - oc.sigma_k) % ell, ell))
        if cost > DEGREE_CAP:
            continue
        candidates.append((cost, ell, lam))
    candidates.sort()
    return candidates


@memo
def _class_words(oc: OrientedCurve) -> dict:
    """Each class reached by the usable split primes, mapped to a shortest
    word (ell, lam, +-1)* reaching it (breadth-first over the class group)."""
    gens = []
    for _, ell, lam in _usable_split_primes(oc):
        f = prime_ideal_form(oc, ell, lam)
        gens.append((ell, lam, 1, f))
        gens.append((ell, lam, -1, f.inverse()))
    words = {principal_form(oc.D): ()}
    frontier = [principal_form(oc.D)]
    while frontier:
        nxt = []
        for base in frontier:
            for ell, lam, sign, f in gens:
                reached = compose(base, f)
                if reached in words:
                    continue
                words[reached] = words[base] + ((ell, lam, sign),)
                nxt.append(reached)
        frontier = nxt
    return words


def smooth_in_class(oc: OrientedCurve, form: QuadForm) -> SmoothIdeal:
    """A smooth ideal in the given class, as a short word in the usable split
    primes."""
    words = _class_words(oc)
    target = reduce_form(form)
    if target not in words:
        raise RuntimeError(
            f"no smooth representative: the split primes below {SMOOTH_BOUND} "
            f"generate a proper subgroup")
    merged: dict = {}
    for ell, lam, sign in words[target]:
        merged[(ell, lam)] = merged.get((ell, lam), 0) + sign
    factors = [(ell, lam, e) for (ell, lam), e in sorted(merged.items()) if e]
    return SmoothIdeal.from_factors(factors, oc)


@memo
def sampler_primes(oc: OrientedCurve, exp_bound: int = 5):
    """The validated sampler configuration: ([(ell, lambda)], exact statistical
    distance of the sampled class distribution from uniform).

    The primes are the shortest prefix of the cheapest usable split primes
    whose exponent-vector distribution over cl(O) is close to uniform.  The
    distribution is computed exactly by convolving the per-prime uniform
    exponent laws through the enumerated class group; the empirical
    10h-sample check the tests run is implied by it."""
    if exp_bound < 1:
        raise ValueError(f"exp_bound must be a positive int, not {exp_bound}")
    candidates = _usable_split_primes(oc)
    if len(candidates) < 2:
        raise RuntimeError("fewer than two usable split primes below the bound")
    group = class_group(oc.D)
    h = len(group.forms)

    def deviation(primes):
        dist = [0] * h
        dist[0] = 1
        total = 1
        for _, ell, lam in primes:
            steps = [group.index[SmoothIdeal.from_factors([(ell, lam, e)],
                                                          oc).class_form]
                     for e in range(-exp_bound, exp_bound + 1)]
            new = [0] * h
            for c, w in enumerate(dist):
                if not w:
                    continue
                for s in steps:
                    new[group.mul(c, s)] += w
            dist = new
            total *= 2 * exp_bound + 1
        # class c has weight dist[c] / total, so the distance from uniform,
        # S / (2 total h) with S = sum |dist[c] h - total|, rounds only once
        return sum(abs(w * h - total) for w in dist), total, all(dist)

    for take in range(1, len(candidates) + 1):
        chosen = candidates[:take]
        S, total, full = deviation(chosen)
        if full and 10 * S < total * h:     # the distance is below 5/100
            return [(ell, lam) for _, ell, lam in chosen], S / (2 * total * h)
    raise RuntimeError(
        "the usable split primes only reach a skewed or proper part of cl(O)")


def random_smooth_class(oc: OrientedCurve, rng, exp_bound: int = 5) -> SmoothIdeal:
    """A near-uniform random class as a smooth ideal: uniform exponents in
    [-exp_bound, exp_bound] over an enumeration-validated set of split primes."""
    primes, _ = sampler_primes(oc, exp_bound)
    factors = []
    for ell, lam in primes:
        e = rng.randint(-exp_bound, exp_bound)
        if e:
            factors.append((ell, lam, e))
    return SmoothIdeal.from_factors(factors, oc)
