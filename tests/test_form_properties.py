"""Property tests for form composition and reduction at D in {56, 120,
420, 404}: the class group laws on reduced forms, and reduction landing on
the one reduced form of a class from any form in it.

Draws are derandomized so that every run checks the same cases.
"""

from hypothesis import given, settings, strategies as st

from weilchar.quadforms import (QuadForm, compose, enumerate_class_group,
                                principal_form, reduce_form)

DISCS = (56, 120, 420, 4 * 101)

props = settings(max_examples=100, deadline=None, derandomize=True,
                 database=None)


@st.composite
def forms(draw, n=1):
    """A discriminant from DISCS and n reduced forms of it."""
    D = draw(st.sampled_from(DISCS))
    group = enumerate_class_group(D)
    return (D,) + tuple(draw(st.sampled_from(group)) for _ in range(n))


@props
@given(forms(1))
def test_identity_and_inverse(draw):
    D, g = draw
    one = principal_form(D)
    assert compose(g, one) == g and compose(one, g) == g
    assert compose(g, g.inverse()) == one
    assert compose(g.inverse(), g) == one


@props
@given(forms(3))
def test_commutative_and_associative(draw):
    _, f, g, h = draw
    assert compose(f, g) == compose(g, f)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@props
@given(forms(1), st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_reduction_is_idempotent_on_a_class(draw, shifts):
    _, g = draw
    # move g around its class by (x, y) -> (y, -x) and x -> x + t y
    a, b, c = g.a, g.b, g.c
    for t in shifts:
        a, b, c = c, -b, a
        a, b, c = a, b + 2 * a * t, c + b * t + a * t * t
    f = QuadForm(a, b, c)
    assert f.disc() == g.disc()
    assert reduce_form(f) == g
    assert reduce_form(reduce_form(f)) == reduce_form(f)
