import random

import pytest

from weilchar.action import (SmoothIdeal, apply_smooth_ideal,
                             random_smooth_class, smooth_in_class)
from weilchar.quadforms import (Discriminant, compose, enumerate_class_group,
                                principal_form, reduce_form)
from weilchar.roots import choose_bound, recover_root


def test_choose_bound_table():
    # hand evaluation: largest ell with 2^(omega-1) > 2^ceil(log2 ell) stays
    assert choose_bound([(2, 2), (3, 1)]) == 4
    assert choose_bound([(2, 3), (3, 1)]) == 4
    assert choose_bound([(2, 2), (3, 1), (5, 1), (7, 1)]) == 3
    assert choose_bound([(2, 2), (13, 1)]) == 4
    assert choose_bound([(59, 1)]) == 2
    assert choose_bound([(2, 2), (3, 1), (5, 1), (7, 1), (11, 1)]) == 5
    assert choose_bound(Discriminant(420).factors) == 3
    assert choose_bound([(2, 2), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]) == 7


def test_smooth_in_class_covers_group(oc120, oc420):
    for oc in (oc120, oc420):
        for cls in enumerate_class_group(oc.D):
            assert smooth_in_class(oc, cls).class_form == cls, (oc.D, cls)


def plant_and_recover(oc, rng, **kw):
    ideal = random_smooth_class(oc, rng, exp_bound=kw.pop("exp_bound", 5))
    target = apply_smooth_ideal(oc, ideal)
    c = ideal.class_form
    c_sq = compose(c, c)
    rec = recover_root(oc, target, c_sq, rng=rng, **kw)
    assert rec.recovered == reduce_form(c), (oc.D, c, rec.recovered)
    assert compose(rec.recovered, rec.recovered) == reduce_form(c_sq)
    assert rec.candidates_tested <= 2 ** (len(rec.P2) + 1)
    assert rec.candidates_tested == rec.residual_group_size
    return rec


def test_rank1_single_candidate(oc24):
    rng = random.Random(5)
    for _ in range(6):
        rec = plant_and_recover(oc24, rng)
        assert rec.bound_B == 4 and rec.P1 == (3,) and rec.P2 == ()
        assert rec.candidates_tested == 1


def test_rank1_filter_free(oc40):
    # D = 40 = 8*5: the lone odd prime exceeds B, recovery runs filter-free
    rng = random.Random(5)
    for _ in range(4):
        rec = plant_and_recover(oc40, rng)
        assert rec.P1 == () and rec.P2 == (5,)
        assert rec.candidates_tested == 2


def test_rank2(oc120):
    rng = random.Random(5)
    assert oc120.D == 120
    for _ in range(6):
        rec = plant_and_recover(oc120, rng)
        assert rec.bound_B == 3 and rec.P1 == (3,) and rec.P2 == (5,)
        assert rec.residual_group_size <= 4


def test_rank3(oc420):
    # cl(O) = (Z/2)^3 for D = 420, so every square is principal
    rng = random.Random(5)
    for _ in range(3):
        rec = plant_and_recover(oc420, rng, exp_bound=7)
        assert rec.target_square == principal_form(420)
        assert rec.P1 == (3,) and rec.P2 == (5, 7)
        assert rec.residual_group_size == 4


def test_rank0_odd_class_number(oc59):
    rng = random.Random(5)
    assert oc59.D == 59
    for _ in range(4):
        rec = plant_and_recover(oc59, rng)
        assert rec.bound_B == 2 and rec.P1 == () and rec.P2 == (59,)
        assert rec.candidates_tested == 1


def test_supersingular_skips_characteristic(oc52):
    rng = random.Random(5)
    for _ in range(3):
        rec = plant_and_recover(oc52, rng)
        assert rec.P1 == () and rec.P2 == (13,)
        assert rec.residual_group_size == 2


def test_two_adic_toggle_shrinks_group(oc420):
    rng = random.Random(5)
    rec_plain = plant_and_recover(oc420, rng, exp_bound=7)
    rec_tight = plant_and_recover(oc420, rng, exp_bound=7, use_two_adic=True)
    assert rec_tight.residual_group_size < rec_plain.residual_group_size
    assert "delta" in rec_tight.char_values


def test_explicit_bound_override(oc420):
    rng = random.Random(5)
    rec = plant_and_recover(oc420, rng, exp_bound=7, B=7)
    assert rec.P1 == (3, 5, 7) and rec.P2 == ()
    assert rec.residual_group_size <= 2
    d = rec.to_json()
    assert d["B"] == 7 and d["recovered"] == rec.recovered.to_json()


@pytest.mark.parametrize("B", [-0.5, 2.5, "3", True],
                         ids=["negative-float", "float", "string", "bool"])
def test_bound_is_auto_or_an_int_at_least_0(oc24, B):
    """A bound that is not 'auto' or an int at least 0 raises, where it
    was once truncated by int() (-0.5 to 0, 2.5 to 2, "3" to 3, True
    to 1)."""
    with pytest.raises(ValueError, match="'auto' or an int at least 0"):
        recover_root(oc24, oc24, principal_form(24), B=B,
                     rng=random.Random(5))


@pytest.mark.parametrize("B", [0, 3])
def test_integer_bounds_run(oc24, B):
    rec = plant_and_recover(oc24, random.Random(5), B=B)
    assert rec.bound_B == B


def test_nonsquare_target_rejected(oc56):
    rng = random.Random(5)
    group = enumerate_class_group(56)
    squares = {compose(g, g) for g in group}
    nonsquare = next(g for g in group if g not in squares)
    with pytest.raises(ValueError, match="square"):
        recover_root(oc56, oc56, nonsquare, rng=rng)


def test_inconsistent_pair_rejected(oc56):
    rng = random.Random(5)
    group = enumerate_class_group(56)
    i1 = SmoothIdeal.from_factors([(3, 1, 1)], oc56)
    other = apply_smooth_ideal(oc56, i1)
    # a square target none of whose roots is the actual connector
    bad = None
    for g in group:
        sq = compose(g, g)
        roots = [r for r in group if compose(r, r) == sq]
        if all(r != i1.class_form for r in roots):
            bad = sq
            break
    assert bad is not None
    with pytest.raises(RuntimeError, match="matched"):
        recover_root(oc56, other, bad, rng=rng)
