import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weilchar
from weilchar.memo import cache_stats, clear_caches
from weilchar.quadforms import (Character, Discriminant, QuadForm,
                                assigned_characters, char_eval_class,
                                char_eval_norm, char_table, class_group,
                                class_number, compose, discriminant,
                                enumerate_class_group,
                                factorize, find_coprime_value, principal_form,
                                reduce_form, relation_characters,
                                two_torsion_and_sqrt,
                                verify_character_relation)

SMALL_D = (23, 24, 40, 52, 56, 84, 120, 231, 420)
# the record's checks: 2-ranks 0 to 3 and h = 14, then every 50th valid D
RECORD_D = (24, 56, 59, 120, 404, 420) + tuple(
    D for D in range(3, 5001) if D % 4 in (0, 3))[::50]


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


def _scan_two_torsion_and_sqrt(D, target):
    """The linear scan two_torsion_and_sqrt ran before the class-group
    record: the oracle for its basis and root."""
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


def _span(basis, D):
    """The 2-torsion list recover_root built before the class-group record:
    the oracle for the record's span order."""
    out = [principal_form(D)]
    for g in basis:
        out += [compose(g, s) for s in out]
    return out


@pytest.mark.parametrize("D", RECORD_D)
def test_two_torsion_and_sqrt_matches_scan(D):
    group = enumerate_class_group(D)
    # every class as the target, and a form of another discriminant
    others = QuadForm(1, 1, 1) if D != 3 else QuadForm(1, 0, 1)
    for target in group + (others,):
        assert two_torsion_and_sqrt(D, target) == \
            _scan_two_torsion_and_sqrt(D, target), (D, target)
    record = class_group(D)
    assert [group[i] for i in record.square] == [compose(g, g) for g in group]
    assert record.forms == group
    assert all(record.index[g] == i for i, g in enumerate(group))
    basis, _ = two_torsion_and_sqrt(D, group[0])
    span = _span(basis, D)
    assert [group[s] for s in record.span] == span
    assert record.square.count(0) == len(span) == 2 ** len(basis)
    # recover_root's candidates are a root times the span, in this order
    for i, g in enumerate(group):
        assert [group[record.mul(i, s)] for s in record.span] == \
            [compose(g, s) for s in span], (D, g)


@pytest.mark.parametrize("D", RECORD_D)
def test_char_table_matches_direct_evaluation(D):
    group = enumerate_class_group(D)
    for ch in assigned_characters(D):
        assert char_table(D, ch) == tuple(
            char_eval_norm(ch, find_coprime_value(g, 2 * D)) for g in group)


def test_class_group_record_cold_equals_warm():
    D = 420
    group = enumerate_class_group(D)
    chars = assigned_characters(D)

    def read():
        record = class_group(D)
        return ([two_torsion_and_sqrt(D, g) for g in group],
                [char_table(D, ch) for ch in chars],
                record.square, record.root, record.basis, record.span,
                [[record.mul(i, j) for j in range(len(group))]
                 for i in range(len(group))],
                [verify_character_relation(D)])

    clear_caches()
    cold = read()
    stats = cache_stats()
    assert stats["quadforms.class_group"]["entries"] == 1
    assert stats["quadforms.char_table"]["entries"] == len(chars)
    assert read() == cold
    assert cache_stats()["quadforms.class_group"]["hits"] > 0
    clear_caches()
    assert cache_stats()["quadforms.class_group"]["entries"] == 0
    assert read() == cold


def test_discriminant_record_is_shared():
    """One Discriminant per D, equal to a fresh one; an invalid D raises on
    every call and leaves no entry."""
    clear_caches()
    for D in (24, 420, 8784):
        disc = discriminant(D)
        fresh = Discriminant(D)
        assert discriminant(D) is disc
        assert (disc.factors, disc.two_exp, disc.odd_part, disc.odd_primes) \
            == (fresh.factors, fresh.two_exp, fresh.odd_part, fresh.odd_primes)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not a discriminant"):
            discriminant(25)
    assert cache_stats()["quadforms.discriminant"]["entries"] == 3


def test_compose_refuses_mixed_discriminants():
    f, g = principal_form(24), principal_form(23)
    for _ in range(3):
        with pytest.raises(ValueError):
            compose(f, g)
    # the check is a raise, not an assert, so it holds under python -O
    src = str(Path(weilchar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("from weilchar.quadforms import compose, principal_form\n"
              "for _ in range(3):\n"
              "    try:\n"
              "        compose(principal_form(24), principal_form(23))\n"
              "    except ValueError:\n"
              "        continue\n"
              "    raise SystemExit('composed')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
