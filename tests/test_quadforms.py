import math
import random

import pytest

from weilchar.quadforms import (Character, Discriminant, QuadForm,
                                assigned_characters, char_eval_class,
                                char_eval_norm, class_number, compose,
                                enumerate_class_group, factorize,
                                find_coprime_value, principal_form,
                                reduce_form, relation_characters,
                                two_torsion_and_sqrt,
                                verify_character_relation)

SMALL_D = (23, 24, 40, 52, 56, 84, 120, 231, 420)


def test_factorize():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(2, 10 ** 6)
        facs = factorize(n)
        prod = 1
        for p, e in facs:
            assert all(p % d for d in range(2, p))
            prod *= p ** e
        assert prod == n
        assert [p for p, _ in facs] == sorted(p for p, _ in facs)


def test_discriminant_validation():
    for D in (24, 23, 3, 4, 420):
        Discriminant(D)
    for D in (0, -24, 5, 6, 13):
        with pytest.raises(ValueError):
            Discriminant(D)


def test_reduction_properties():
    rng = random.Random(2)
    for D in SMALL_D:
        for _ in range(40):
            a = rng.randrange(1, 30)
            b = rng.randrange(-40, 40)
            if (b * b + D) % (4 * a):
                continue
            f = QuadForm(a, b, (b * b + D) // (4 * a))
            if not f.is_primitive():
                continue
            r = reduce_form(f)
            assert r.is_reduced()
            assert r.disc() == f.disc() == -D
            assert reduce_form(r) == r


def test_class_numbers_frozen():
    known = {23: 3, 24: 2, 40: 2, 47: 5, 52: 2, 56: 4, 59: 3, 84: 4,
             120: 4, 404: 14, 420: 8}
    for D, h in known.items():
        assert class_number(D) == h, D


def test_group_axioms_via_enumeration():
    rng = random.Random(3)
    for D in SMALL_D:
        group = enumerate_class_group(D)
        one = principal_form(D)
        assert one in group
        gset = set(group)
        for g in group:
            assert compose(g, one) == g
            assert compose(g, g.inverse()) == one
            for h in group:
                assert compose(g, h) in gset
                assert compose(g, h) == compose(h, g)
        for _ in range(10):
            a, b, c = (rng.choice(group) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_assigned_characters_table():
    # one row per two-adic case: f = 0, 2 (d = 1 mod 4), 3 (both d classes),
    # 4, and >= 5
    assert [c.label for c in assigned_characters(23)] == ["chi_23"]
    assert [c.label for c in assigned_characters(52)] == ["chi_13", "delta"]
    assert [c.label for c in assigned_characters(24)] == ["chi_3", "epsilon"]
    assert [c.label for c in assigned_characters(40)] == ["chi_5", "delta_epsilon"]
    assert [c.label for c in assigned_characters(48)] == ["chi_3", "delta"]
    assert [c.label for c in assigned_characters(96)] == ["chi_3", "delta", "epsilon"]
    assert [c.label for c in assigned_characters(420)] == \
        ["chi_3", "chi_5", "chi_7", "delta"]
    assert [c.label for c in assigned_characters(236)] == ["chi_59"]


def test_char_eval_norm_frozen_and_multiplicative():
    table = [
        ("chi", 3, 2, -1), ("chi", 5, 2, -1), ("chi", 5, 4, 1),
        ("chi", 7, 2, 1), ("chi", 7, 3, -1),
        ("delta", 4, 3, -1), ("delta", 4, 5, 1), ("delta", 4, 7, -1),
        ("epsilon", 8, 3, -1), ("epsilon", 8, 5, -1), ("epsilon", 8, 7, 1),
        ("delta_epsilon", 8, 3, 1), ("delta_epsilon", 8, 5, -1),
        ("delta_epsilon", 8, 7, -1),
    ]
    for kind, modulus, n, want in table:
        assert char_eval_norm(Character(kind, modulus), n) == want
    rng = random.Random(4)
    for ch in (Character("chi", 5), Character("delta", 4),
               Character("epsilon", 8), Character("delta_epsilon", 8)):
        for _ in range(40):
            a = rng.randrange(1, 200)
            b = rng.randrange(1, 200)
            if math.gcd(a * b, ch.modulus) != 1:
                continue
            assert char_eval_norm(ch, a * b) == \
                char_eval_norm(ch, a) * char_eval_norm(ch, b)
            assert char_eval_norm(ch, a + ch.modulus) == char_eval_norm(ch, a)


def test_char_eval_class_well_defined():
    rng = random.Random(5)
    for D in (24, 40, 56, 120):
        chars = assigned_characters(D)
        for g in enumerate_class_group(D):
            for ch in chars:
                base = char_eval_class(ch, g, D)
                assert base in (-1, 1)
                # composing with a square leaves every character fixed
                for h in enumerate_class_group(D):
                    assert char_eval_class(ch, compose(g, compose(h, h)), D) \
                        == base
                n = find_coprime_value(g, 2 * D)
                assert math.gcd(n, 2 * D) == 1
                assert char_eval_norm(ch, n) == base


def test_characters_are_homomorphisms():
    for D in (56, 120, 420):
        group = enumerate_class_group(D)
        for ch in assigned_characters(D):
            for g in group:
                for h in group:
                    assert char_eval_class(ch, compose(g, h), D) == \
                        char_eval_class(ch, g, D) * char_eval_class(ch, h, D)


def test_relation_product_trivial():
    for D in range(3, 200):
        if D % 4 not in (0, 3):
            continue
        rel = relation_characters(D)
        assigned = assigned_characters(D)
        assert all(ch in assigned for ch in rel)
        for g in enumerate_class_group(D):
            prod = 1
            for ch in rel:
                prod *= char_eval_class(ch, g, D)
            assert prod == 1, (D, g)


def test_verify_character_relation_reports():
    for D in SMALL_D:
        rep = verify_character_relation(D)
        assert rep["ok"], rep
        assert rep["h"] == class_number(D)
        assert rep["two_torsion"] == 2 ** (rep["mu"] - 1)


def test_two_torsion_and_sqrt():
    for D in (24, 56, 120, 420):
        group = enumerate_class_group(D)
        one = principal_form(D)
        basis, _ = two_torsion_and_sqrt(D, one)
        mu = len(assigned_characters(D))
        assert len(basis) == mu - 1
        span = {one}
        for b in basis:
            assert compose(b, b) == one
            span |= {compose(b, s) for s in span}
        assert len(span) == 2 ** len(basis)
        squares = {compose(g, g) for g in group}
        for g in group:
            _, root = two_torsion_and_sqrt(D, g)
            if g in squares:
                assert root is not None and compose(root, root) == g
            else:
                assert root is None


def test_character_serialization():
    assert Character("chi", 7).to_json() == {"kind": "chi", "modulus": 7}
    assert Character("delta", 4).to_json() == {"kind": "delta", "modulus": 4}
    assert QuadForm(2, 0, 3).to_json() == [2, 0, 3]
