import json
import random

import pytest

from weilchar.action import SmoothIdeal, make_instance
from weilchar.attack import eval_character, usable_characters
from weilchar.ddh import (DdhTriple, PublicTriple, distinguish, run_experiment,
                          sample_triple)
from weilchar.fields import get_tower
from weilchar.pairing import PairingValue
from weilchar.quadforms import Character, QuadForm


def test_triple_invariants(oc52):
    rng = random.Random(11)
    tri = sample_triple(oc52, "dh", rng)
    assert tri.ground_truth == "dh"
    na, nb, nc = tri.hidden_norms
    assert nc == na * nb
    view = tri.public_view()
    assert isinstance(view, PublicTriple)
    assert not hasattr(view, "hidden_norms")
    assert sample_triple(oc52, "random", rng).ground_truth == "random"
    with pytest.raises(ValueError):
        sample_triple(oc52, "both", rng)


def test_dh_triples_never_rejected(oc52):
    # a genuine dh triple satisfies every usable character identity, so the
    # distinguisher must answer dh regardless of its own randomness
    chars = usable_characters(oc52)
    assert [c.label for c in chars] == ["delta"]
    for s in range(8):
        tri = sample_triple(oc52, "dh", random.Random(100 + s))
        assert distinguish(tri, chars, random.Random(s)) == "dh"


def test_shared_base_keeps_guesses(oc52):
    # one base side per character must guess exactly as three independent
    # evaluations, each drawing its own base pairing, would
    chars = usable_characters(oc52)
    for s in range(20):
        mode = "dh" if s % 2 == 0 else "random"
        tri = sample_triple(oc52, mode, random.Random(200 + s))
        rng = random.Random(s)
        independent = "dh"
        for ch in chars:
            va, vb, vc = (eval_character(oc52, t, ch, rng).value
                          for t in (tri.t1, tri.t2, tri.t3))
            if vc != va * vb:
                independent = "random"
        assert distinguish(tri, chars, random.Random(s)) == independent, s


def test_trivial_class_group_refused():
    oc12 = make_instance(7, 4, random.Random(0))
    assert oc12.D == 12
    with pytest.raises(ValueError):
        sample_triple(oc12, "random", random.Random(1))


def test_experiment_report(oc52):
    chars = usable_characters(oc52)
    rep = run_experiment(oc52, 60, chars, seed=7)
    assert rep["false_negatives"] == 0, rep["confusion"]
    assert rep["oracle_mismatches"] == 0
    assert 0.25 < rep["advantage"] < 0.75, rep["advantage"]
    assert rep["ci_advantage"][0] <= rep["advantage"] <= rep["ci_advantage"][1]
    assert rep["p_guess_dh_given_dh"] == 1.0
    assert rep["confusion"]["dh"]["dh"] == 30
    assert abs(rep["success_rate"] - (0.5 + rep["advantage"] / 2)) < 1e-12


def test_report_determinism(oc52):
    chars = usable_characters(oc52)
    rep = run_experiment(oc52, 60, chars, seed=7)
    rep2 = run_experiment(oc52, 60, chars, seed=7)
    assert json.dumps(rep, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    rep3 = run_experiment(oc52, 60, chars, seed=8)
    assert json.dumps(rep, sort_keys=True) != json.dumps(rep3, sort_keys=True)


def test_squares_only_collapse(oc52):
    # restricted to squares the characters are blind: all guesses are dh
    chars = usable_characters(oc52)
    rep = run_experiment(oc52, 20, chars, seed=3, squares_only=True)
    assert rep["advantage"] == 0.0
    assert rep["p_guess_dh_given_dh"] == 1.0
    assert rep["p_guess_dh_given_random"] == 1.0
    assert rep["ci_advantage"][0] <= 0.0 <= rep["ci_advantage"][1]
    assert rep["false_negatives"] == 0 and rep["oracle_mismatches"] == 0


def test_trivial_character_null_result():
    # chi_3 is assigned to D = 48 but kills no class, so it cannot separate
    oc48 = make_instance(13, 2, random.Random(2))
    assert oc48.D == 48
    chi3 = Character("chi", 3)
    assert chi3 not in usable_characters(oc48)
    rep = run_experiment(oc48, 16, [chi3], seed=5)
    assert rep["advantage"] == 0.0 and rep["false_negatives"] == 0
    assert rep["oracle_mismatches"] == 0


def _records(oc52, oc56):
    """(record type, field names, fields, other values field by field)."""
    f = get_tower(13, 1)
    return [
        (QuadForm, "a b c", (1, 0, 7), (2, 1, 8)),
        (Character, "kind modulus", ("chi", 3), ("delta", 5)),
        (SmoothIdeal, "factors class_form", (((5, 2, 1),), QuadForm(2, 1, 3)),
         (((5, 2, -1),), QuadForm(2, -1, 3))),
        (PairingValue, "value modulus", (f(12), 2), (f(1), 4)),
        (DdhTriple, "base t1 t2 t3 ground_truth hidden_norms",
         (oc52, oc52, oc52, oc52, "dh", (5, 7, 35)),
         (oc56, oc56, oc56, oc56, "random", (5, 7, 3))),
    ]


def test_records_compare_hash_and_print_by_their_fields(oc52, oc56):
    """Records are equal exactly when their fields are, hash as the tuple
    of their fields (so set and dict orders follow the fields), print as
    Name(field=value, ...) and refuse assignment to a field."""
    assert repr(QuadForm(1, 0, 7)) == "QuadForm(a=1, b=0, c=7)"
    for cls, names, fields, others in _records(oc52, oc56):
        names = names.split()
        x = cls(*fields)
        assert x == cls(*fields) and hash(x) == hash(fields)
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, fields)) + ")"
        for i, name in enumerate(names):
            changed = fields[:i] + (others[i],) + fields[i + 1:]
            assert x != cls(*changed), (cls, name)
            with pytest.raises(AttributeError):
                setattr(x, name, others[i])
            assert getattr(x, name) == fields[i]
    with pytest.raises(ValueError):
        PairingValue(get_tower(13, 1)(2), 4)  # 2^4 = 3 != 1 mod 13
