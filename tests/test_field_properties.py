"""Property tests for F_p and F_{p^r}, p in {5, 7, 13, 101} and r <= 4.

Draws are derandomized so that every run checks the same cases.
"""

from hypothesis import given, settings, strategies as st

from weilchar.fields import FieldElement, get_tower

FIELDS = [(p, r) for p in (5, 7, 13, 101) for r in (1, 2, 3, 4)]

props = settings(max_examples=200, deadline=None, derandomize=True,
                 database=None)


@st.composite
def elements(draw, n=1):
    """A field from FIELDS and n of its elements, drawn by rank."""
    p, r = draw(st.sampled_from(FIELDS))
    field = get_tower(p, r)
    ranks = draw(st.lists(st.integers(0, field.size - 1), min_size=n,
                          max_size=n))
    return (field,) + tuple(FieldElement(field, field.unrank(k))
                            for k in ranks)


@props
@given(elements(3))
def test_ring_axioms(draw):
    field, a, b, c = draw
    zero, one = field(0), field(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and -a + a == zero
    assert (a - b) + b == a


@props
@given(elements(2))
def test_inverse(draw):
    field, a, b = draw
    if a.is_zero():
        return
    assert a * a.inverse() == 1 and a.inverse().inverse() == a
    assert (b / a) * a == b
    assert a ** -1 == a.inverse()


@props
@given(elements(1))
def test_frobenius_is_the_p_power_of_order_r(draw):
    field, a = draw
    p, r = field.p, field.r
    assert a.frobenius() == a ** p
    assert a.frobenius(r) == a
    # the class of x generates F_{p^r}, so no smaller power fixes it
    x = FieldElement(field, field.unrank(p)) if r > 1 else a
    assert all(x.frobenius(k) != x for k in range(1, r))


@props
@given(elements(1))
def test_sqrt_of_a_square(draw):
    field, a = draw
    s = (a * a).sqrt()
    assert s is not None and s ** 2 == a * a
    assert s == a or s == -a


@props
@given(elements(1))
def test_rank_round_trip(draw):
    field, a = draw
    # the rank is the value's base-p digits, constant first
    digits = (a.value,) if field.r == 1 else a.value
    rank = sum(c * field.p ** i for i, c in enumerate(digits))
    assert field.unrank(rank) == a.value
    assert 0 <= rank < field.size


@props
@given(st.sampled_from([(p, r) for p, r in FIELDS if r > 1]),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_prime_field_embeds_homomorphically(pr, m, n):
    p, r = pr
    base, field = get_tower(p, 1), get_tower(p, r)
    u, v = base(m), base(n)
    U, V = field(u), field(v)
    assert field(u + v) == U + V and field(u * v) == U * V
    assert field(u - v) == U - V
    # an embedded value equals and hashes like its F_p element and its int
    assert U == u and hash(U) == hash(u) == hash(u.value)
    assert len({U, u, u.value}) == 1
    assert U.descend().field is base and U.descend() == u
    # mixed arithmetic lands in the extension
    w = FieldElement(field, field.unrank(m + p * n))
    assert (w + u).field is field and w + u == w + U and w * u == w * U


@props
@given(elements(1))
def test_sqrt_exists_exactly_for_squares(draw):
    """Euler's criterion decides sqrt, from s = 1 (F_7, F_{7^3}) up to
    s >= 4 (F_{5^4}), where q - 1 = 2^s t with t odd."""
    field, a = draw
    if a.is_zero():
        return
    euler = a ** ((field.size - 1) // 2)
    assert (a.sqrt() is None) == (euler != 1)
    assert field.vis_square(a.value) == (euler == 1)


@props
@given(elements(2))
def test_norm_is_a_multiplicative_map_to_the_prime_field(draw):
    field, a, b = draw
    p = field.p
    n = field.vnorm(a.value)
    assert isinstance(n, int) and 0 <= n < p
    assert a ** ((field.size - 1) // (p - 1)) == n
    assert field.vnorm((a * b).value) == n * field.vnorm(b.value) % p


@props
@given(elements(2), st.integers(0, 9))
def test_frobenius_powers_are_ring_maps(draw, k):
    field, a, b = draw
    assert (a + b).frobenius(k) == a.frobenius(k) + b.frobenius(k)
    assert (a * b).frobenius(k) == a.frobenius(k) * b.frobenius(k)
    assert a.frobenius(k) == a ** (field.p ** k)
