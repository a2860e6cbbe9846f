"""Command-line front end for reproducible runs.

Five subcommands: gen-instance, eval-char, ddh-experiment, sqrt-recover and
selftest.  Every run is a pure function of (command, params, seed), and every
file the tool writes is JSON with integers rendered as decimal strings, so
artifacts round-trip across languages without precision loss.

Exit codes: 0 ok, 1 selftest failure, 2 infeasible parameters, 3 attack-layer
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import action, attack, ddh, pairing, quadforms, roots
from .curves import Curve, point_add, scalar_mul, torsion_basis
from .fields import FieldElement, get_tower
from .quadforms import Character, QuadForm, class_number, reduce_form

INSTANCE_SCHEMA = "weilchar/instance/v1"
PAIR_SCHEMA = "weilchar/pair/v1"
EVAL_SCHEMA = "weilchar/eval/v1"
REPORT_SCHEMA = "weilchar/ddh-report/v1"
RECOVERY_SCHEMA = "weilchar/recovery/v1"

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INFEASIBLE = 2
EXIT_ATTACK = 3


class CommandError(Exception):
    """Failure with a designated process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- JSON layer

def _stringify(obj):
    """Ints (but not bools) become decimal strings, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _destring(obj):
    """Tolerant inverse of _stringify: ASCII decimal strings become ints."""
    if isinstance(obj, str):
        body = obj[1:] if obj[:1] == "-" else obj
        return int(obj) if body.isascii() and body.isdigit() else obj
    if isinstance(obj, list):
        return [_destring(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _destring(v) for k, v in obj.items()}
    return obj


def render_json(payload) -> str:
    return json.dumps(_stringify(payload), sort_keys=True, indent=2) + "\n"


def write_json(path, payload) -> None:
    text = render_json(payload)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_record(path, schema: str, payload: dict) -> None:
    """Write payload, stamped with schema, as the --out record at path."""
    write_json(path, {**payload, "schema": schema})
    print(f"wrote {schema} to {path}")


def read_json(path) -> dict:
    """The JSON object in the file at path; every input file holds one."""
    try:
        with open(path) as fh:
            data = _destring(json.load(fh))
    except OSError as exc:
        raise CommandError(EXIT_INFEASIBLE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CommandError(EXIT_INFEASIBLE, f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise CommandError(EXIT_INFEASIBLE, f"{path} nests too deeply")
    if not isinstance(data, dict):
        raise CommandError(EXIT_INFEASIBLE,
                           f"{path} must hold a JSON object at its top level")
    return data


# ------------------------------------------------------------ shared loaders

def _config_value(config: dict, key: str, kind: type, default=None):
    """config[key] (default when absent), which must have type kind: a JSON
    number or decimal string is an int, true and false are bools."""
    value = config.get(key, default)
    if type(value) is not kind:
        raise CommandError(EXIT_INFEASIBLE, f"config key {key!r} must be "
                           f"of type {kind.__name__}, not {value!r}")
    return value


def parse_char_label(label: str) -> Character:
    label = label.strip()
    if label.startswith("chi_"):
        try:
            return Character("chi", int(label[4:]))
        except ValueError:
            pass
    elif label == "delta":
        return Character("delta", 4)
    elif label == "epsilon":
        return Character("epsilon", 8)
    elif label == "delta_epsilon":
        return Character("delta_epsilon", 8)
    raise CommandError(EXIT_INFEASIBLE, f"unknown character label {label!r} "
                       "(expected chi_<m>, delta, epsilon or delta_epsilon)")


def read_chars(flag, listed, allowed, refusal: str):
    """The characters named in flag, a comma-separated --chars, or else in
    listed, a file's label list, or None when both are absent, so that the
    caller keeps its default.  Every command reads a list alike: an empty
    one exits 2, then a repeated label, then one not in allowed, with its
    label and refusal."""
    if flag is not None:
        listed = [s for s in flag.split(",") if s.strip()]
    elif listed is None:
        return None
    if not listed:
        raise CommandError(EXIT_INFEASIBLE, "the character list is empty")
    chars = [parse_char_label(s) for s in listed]
    labels = [ch.label for ch in chars]
    for label in labels:
        if labels.count(label) > 1:
            raise CommandError(EXIT_INFEASIBLE, f"{label} is listed twice")
    for label in labels:
        if label not in allowed:
            raise CommandError(EXIT_INFEASIBLE, f"{label} {refusal}")
    return chars


def character_inventory(oc) -> dict:
    assigned = quadforms.assigned_characters(oc.D)
    usable = attack.usable_characters(oc)
    return {"assigned": [ch.label for ch in assigned],
            "usable": [ch.label for ch in usable]}


def load_instance(source) -> action.OrientedCurve:
    """Accept a path, an instance payload, or a bare curve record."""
    if isinstance(source, str):
        source = read_json(source)
    if not isinstance(source, dict):
        raise CommandError(EXIT_INFEASIBLE, "instance must be a path or object")
    data = source.get("instance", source)
    try:
        return action.OrientedCurve.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CommandError(EXIT_INFEASIBLE, f"bad instance data: {exc}")


def load_pair(payload):
    """(base, target, oracle-or-None) from a pair or instance payload.

    An instance file stands for the identity pair (E, E)."""
    schema = payload.get("schema")
    if schema == INSTANCE_SCHEMA:
        base = load_instance(payload)
        return base, base, None
    if schema != PAIR_SCHEMA:
        raise CommandError(EXIT_INFEASIBLE,
                           f"unrecognized input schema {schema!r}")
    base = load_instance(payload.get("base"))
    target = load_instance(payload.get("target"))
    if (base.q, base.sigma_trace, base.sigma_k) != \
            (target.q, target.sigma_trace, target.sigma_k):
        raise CommandError(EXIT_INFEASIBLE,
                           "pair halves do not share a sigma descriptor")
    oracle = payload.get("oracle")
    values = (oracle.get("char_values", {}) if isinstance(oracle, dict)
              else None)
    if oracle is not None and not (
            isinstance(values, dict)
            and all(type(v) is int and v in (1, -1) for v in values.values())):
        raise CommandError(EXIT_INFEASIBLE,
                           "'oracle' must be an object whose 'char_values' "
                           "maps character labels to +1 or -1")
    return base, target, oracle


def _form_from_triple(triple) -> QuadForm:
    try:
        a, b, c = (int(v) for v in triple)
    except (TypeError, ValueError):
        raise CommandError(EXIT_INFEASIBLE, "a form must be three integers a,b,c")
    return QuadForm(a, b, c)


# ------------------------------------------------------------- gen-instance

def _instance_payload(oc) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "instance": oc.to_json(),
        "characters": character_inventory(oc),
        "class_number": class_number(oc.D),
    }


def _pair_payload(base, rng, exp_bound: int) -> dict:
    ideal = action.random_smooth_class(base, rng, exp_bound=exp_bound)
    target = action.apply_smooth_ideal(base, ideal)
    usable = attack.usable_characters(base)
    char_values = {ch.label: quadforms.char_eval_norm(ch, ideal.norm)
                   for ch in usable if math.gcd(ideal.norm, ch.modulus) == 1}
    square = reduce_form(quadforms.compose(ideal.class_form, ideal.class_form))
    planted = reduce_form(ideal.class_form)
    return {
        "schema": PAIR_SCHEMA,
        "base": base.to_json(),
        "target": target.to_json(),
        "characters": character_inventory(base),
        "square_class": [square.a, square.b, square.c],
        "oracle": {
            "factors": [list(f) for f in ideal.factors],
            "norm": ideal.norm,
            "char_values": char_values,
            "planted_class": [planted.a, planted.b, planted.c],
        },
    }


def cmd_gen_instance(args) -> int:
    config = read_json(args.config) if args.config else {}
    mode = config.get("mode", "supersingular")
    rng = random.Random(args.seed)
    plant = _config_value(config, "plant", bool, False)
    try:
        if mode == "supersingular":
            if "p" not in config:
                raise ValueError("supersingular mode needs config key 'p'")
            p = _config_value(config, "p", int)
            oc = action.gen_supersingular_instance(p)
        elif mode == "ordinary":
            if "q" in config:
                q = _config_value(config, "q", int)
                t = _config_value(config, "t", int)
                oc = action.make_instance(q, t, rng)
            elif "q_range" in config:
                q_range = config["q_range"]
                if not (isinstance(q_range, list) and len(q_range) == 2
                        and all(type(v) is int for v in q_range)):
                    raise CommandError(EXIT_INFEASIBLE,
                                       "config key 'q_range' must be a list "
                                       f"of two integers, not {q_range!r}")
                m_target = (None if config.get("m_target") is None
                            else _config_value(config, "m_target", int))
                oc = action.gen_ordinary_instance(
                    tuple(q_range), m_target, rng,
                    budget=_config_value(config, "budget", int, 4000))
            else:
                raise ValueError("ordinary mode needs 'q'+'t' or 'q_range'")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if plant:
            exp_bound = _config_value(config, "exp_bound", int, 5)
            payload = _pair_payload(oc, rng, exp_bound)
        else:
            payload = _instance_payload(oc)
    except (ValueError, RuntimeError) as exc:
        raise CommandError(EXIT_INFEASIBLE, f"infeasible parameters: {exc}")
    write_json(args.out, payload)
    if args.out != "-":
        kind = "pair" if payload["schema"] == PAIR_SCHEMA else "instance"
        print(f"wrote {kind} to {args.out}: q={oc.q} t={oc.sigma_trace} "
              f"D={oc.D} h={class_number(oc.D)} "
              f"usable={','.join(payload['characters']['usable']) or 'none'}")
    return EXIT_OK


# ---------------------------------------------------------------- eval-char

def cmd_eval_char(args) -> int:
    payload = read_json(args.input)
    base, target, oracle = load_pair(payload)
    characters = payload.get("characters", {})
    usable = (characters.get("usable", []) if isinstance(characters, dict)
              else None)
    if not (isinstance(usable, list) and all(isinstance(s, str)
                                             for s in usable)):
        raise CommandError(EXIT_INFEASIBLE,
                           "'characters' must be an object whose 'usable' is "
                           "a list of character labels")
    assigned = {ch.label for ch in quadforms.assigned_characters(base.D)}
    chars = read_chars(args.chars, usable or None, assigned,
                       f"is not assigned for D={base.D}")
    if chars is None:
        raise CommandError(EXIT_INFEASIBLE, "no characters requested or usable")
    for ch in chars:
        if math.gcd(ch.modulus, base.q) != 1:
            raise CommandError(
                EXIT_ATTACK,
                f"character {ch.label} is not evaluable here: its modulus "
                f"shares a factor with the field characteristic {base.q}, "
                "but evaluation needs norms prime to the modulus")
    rng = random.Random(args.seed)
    print(f"pair: q={base.q} t={base.sigma_trace} D={base.D}"
          + ("  (identity pair)" if base is target else ""))
    values = {}
    matches = {}
    for ch in chars:
        try:
            res = attack.eval_character(base, target, ch, rng)
        except (ValueError, RuntimeError) as exc:
            raise CommandError(EXIT_ATTACK,
                               f"evaluation failed at {ch.label}: {exc}")
        values[ch.label] = res
        ms = res.timings_ms["total_ms"]
        line = (f"  {ch.label:<14} {res.value:+d}   dlog ratio {res.dlog_a}"
                f"   r={res.extension_degree_used}"
                f"   sigma evals {res.sigma_evals}   {ms:.0f} ms")
        if oracle and ch.label in oracle.get("char_values", {}):
            want = oracle["char_values"][ch.label]
            matches[ch.label] = (res.value == want)
            line += "   oracle ok" if res.value == want else \
                    f"   ORACLE MISMATCH (file says {want:+d})"
        print(line)
    if args.out:
        write_record(args.out, EVAL_SCHEMA, {
            "pair": {"base": base.to_json(), "target": target.to_json()},
            "values": {k: v.to_json() for k, v in values.items()},
            "oracle_match": matches or None,
        })
    if matches and not all(matches.values()):
        bad = [k for k, ok in matches.items() if not ok]
        raise CommandError(EXIT_ATTACK,
                           "values disagree with the pair's oracle field: "
                           + ", ".join(bad))
    return EXIT_OK


# ----------------------------------------------------------- ddh-experiment

def cmd_ddh_experiment(args) -> int:
    config = read_json(args.config) if args.config else {}
    source = config.get("instance")
    if source is None:
        raise CommandError(EXIT_INFEASIBLE,
                           "ddh-experiment needs config key 'instance' "
                           "(a path or an instance object)")
    base = load_instance(source)
    trials = (args.trials if args.trials is not None
              else _config_value(config, "trials", int, 100))
    seed = (args.seed if args.seed is not None
            else _config_value(config, "seed", int, 0))
    squares_only = (_config_value(config, "squares_only", bool, False)
                    or args.squares_only)
    exp_bound = _config_value(config, "exp_bound", int, 5)

    listed = config.get("chars")
    if not (args.chars is not None or listed is None
            or isinstance(listed, list)
            and all(isinstance(s, str) for s in listed)):
        raise CommandError(EXIT_INFEASIBLE,
                           "config key 'chars' must be a list of "
                           f"character labels, not {listed!r}")
    usable = attack.usable_characters(base)
    chars = read_chars(args.chars, listed, {ch.label for ch in usable},
                       "is unusable on this instance (must be assigned, prime "
                       "to q, and nontrivial on the class group)") or usable

    if class_number(base.D) == 1:
        raise CommandError(EXIT_INFEASIBLE,
                           f"class group of D={base.D} is trivial; "
                           "the experiment is degenerate")
    if not chars:
        raise CommandError(EXIT_INFEASIBLE,
                           "no nontrivial usable characters on this instance")
    try:
        report = {**ddh.run_experiment(base, trials, chars, seed,
                                       squares_only=squares_only,
                                       exp_bound=exp_bound),
                  "schema": REPORT_SCHEMA}
    except ValueError as exc:
        raise CommandError(EXIT_INFEASIBLE, str(exc))
    except RuntimeError as exc:
        raise CommandError(EXIT_ATTACK, f"experiment failed: {exc}")

    if args.json:
        sys.stdout.write(render_json(report))
    else:
        _print_ddh_table(report)
    if args.out:
        write_record(args.out, REPORT_SCHEMA, report)
    return EXIT_OK


def _print_ddh_table(report) -> None:
    inst = report["instance"]
    print(f"ddh-experiment: q={inst['p']} D={inst['D']} "
          f"chars=[{','.join(report['chars'])}] trials={report['trials']} "
          f"seed={report['seed']} squares_only={report['squares_only']}")
    conf = report["confusion"]
    print(f"  {'mode':<8} {'trials':>7} {'guessed dh':>11} {'accuracy':>9}")
    for mode in ("dh", "random"):
        n = conf[mode]["dh"] + conf[mode]["random"]
        correct = conf[mode][mode]
        acc = correct / n if n else 0.0
        print(f"  {mode:<8} {n:>7} {conf[mode]['dh']:>11} {acc:>9.3f}")
    lo, hi = report["ci_advantage"]
    print(f"  advantage {report['advantage']:+.3f}   95% CI [{lo:+.3f}, {hi:+.3f}]")
    print(f"  false negatives {report['false_negatives']}   "
          f"oracle mismatches {report['oracle_mismatches']}")


# ------------------------------------------------------------- sqrt-recover

def cmd_sqrt_recover(args) -> int:
    payload = read_json(args.input)
    base, target, oracle = load_pair(payload)
    if args.square:
        square = _form_from_triple(args.square.split(","))
    elif payload.get("square_class"):
        square = _form_from_triple(payload["square_class"])
    else:
        raise CommandError(EXIT_INFEASIBLE,
                           "no target square: pass --square a,b,c or use a "
                           "pair file carrying square_class")
    if square.disc() != -base.D:
        raise CommandError(EXIT_INFEASIBLE,
                           f"target square has discriminant {square.disc()}, "
                           f"instance needs {-base.D}")
    planted = oracle.get("planted_class") if oracle else None
    if planted:
        planted = _form_from_triple(planted)
        if planted.a <= 0 or planted.disc() != -base.D:
            raise CommandError(EXIT_INFEASIBLE, "oracle planted_class "
                               f"{planted} is not positive definite of "
                               f"discriminant {-base.D}")
        planted = reduce_form(planted)
    try:
        bound = "auto" if args.bound == "auto" else int(args.bound)
    except ValueError:
        raise CommandError(EXIT_INFEASIBLE,
                           "--bound must be 'auto' or an integer")
    rng = random.Random(args.seed)
    try:
        rec = roots.recover_root(base, target, square, B=bound, rng=rng,
                                 use_two_adic=args.two_adic)
    except ValueError as exc:
        raise CommandError(EXIT_INFEASIBLE, str(exc))
    except RuntimeError as exc:
        raise CommandError(EXIT_ATTACK, f"recovery failed: {exc}")

    got = rec.recovered
    print(f"recovered class ({got.a}, {got.b}, {got.c}) for D={base.D}")
    print(f"  B={rec.bound_B} P1={list(rec.P1)} P2={list(rec.P2)} "
          f"residual group size {rec.residual_group_size} "
          f"candidates tested {rec.candidates_tested}")
    if rec.char_values:
        vals = "  ".join(f"{k}={v:+d}" for k, v in sorted(rec.char_values.items()))
        print(f"  filter values: {vals}")
    if planted:
        ok = planted == got
        print("  matches the planted class" if ok
              else "  DOES NOT match the planted class")
        if not ok:
            raise CommandError(EXIT_ATTACK,
                               "recovered class differs from the planted one")
    if args.out:
        write_record(args.out, RECOVERY_SCHEMA, rec.to_json())
    return EXIT_OK


# ----------------------------------------------------------------- selftest
#
# The checks reach the core routines through module namespaces on purpose:
# a harness can swap weilchar.pairing.weil_pairing or
# weilchar.quadforms.char_eval_norm and watch the right check go red.
# Expected values are frozen literals, never recomputed via the code under
# test.

# y^2 = x^3 + 2x + 12 over F_19 has full rational 3-torsion (order 18);
# the cases pin the pairing's sign convention, not just its axioms
_PAIRING_TABLE = {
    "p": 19, "a4": 2, "a6": 12, "m": 3,
    "cases": [
        ((2, 10), (3, 11), 11),
        ((3, 11), (2, 10), 7),
        ((2, 10), (2, 10), 1),
    ],
}

_CHAR_TABLE = [
    ("chi", 3, 2, -1),
    ("chi", 5, 2, -1),
    ("chi", 5, 4, 1),
    ("chi", 7, 2, 1),
    ("chi", 7, 3, -1),
    ("delta", 4, 3, -1),
    ("delta", 4, 5, 1),
    ("delta", 4, 7, -1),
    ("epsilon", 8, 3, -1),
    ("epsilon", 8, 5, -1),
    ("epsilon", 8, 7, 1),
    ("delta_epsilon", 8, 3, 1),
    ("delta_epsilon", 8, 5, -1),
    ("delta_epsilon", 8, 7, -1),
]

_BOUND_TABLE = [
    ([(2, 2), (3, 1)], 4),
    ([(2, 3), (3, 1)], 4),
    ([(2, 3), (5, 1)], 4),
    ([(2, 2), (3, 1), (5, 1), (7, 1)], 3),
    ([(59, 1)], 2),
    ([(2, 2), (3, 1), (5, 1), (7, 1), (11, 1)], 5),
    ([(2, 2), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)], 7),
]


def _selftest_curve() -> Curve:
    return Curve(get_tower(_PAIRING_TABLE["p"], 1), _PAIRING_TABLE["a4"],
                 _PAIRING_TABLE["a6"])


def _check_field_axioms() -> list:
    problems = []
    tw = get_tower(7, 2)
    rng = random.Random(2)
    for _ in range(25):
        a = FieldElement(tw, tw.random_value(rng))
        b = FieldElement(tw, tw.random_value(rng))
        c = FieldElement(tw, tw.random_value(rng))
        if a * (b + c) != a * b + a * c:
            problems.append("distributivity failed in F_49")
            break
        if (a * b) * c != a * (b * c):
            problems.append("associativity failed in F_49")
            break
        if (a + b) ** 7 != a ** 7 + b ** 7:
            problems.append("Frobenius is not additive in F_49")
            break
        zero = a - a
        if a != zero:
            one = a / a
            if a * (one / a) != one:
                problems.append("multiplicative inverse failed in F_49")
                break
    return problems


def _check_pairing_properties() -> list:
    problems = []
    E = _selftest_curve()
    rng = random.Random(3)
    P, Q = torsion_basis(E, 3, 18, rng)
    zPQ = pairing.weil_pairing(E, P, Q, 3, rng).value
    one = zPQ / zPQ
    if zPQ == one:
        problems.append("non-degeneracy failed: e_3(P, Q) = 1 on a basis")
    for i in range(3):
        for j in range(3):
            if i == j == 0:
                continue
            T = point_add(E, scalar_mul(E, i, P), scalar_mul(E, j, Q))
            if pairing.weil_pairing(E, T, T, 3, rng).value != one:
                problems.append(f"alternation failed at {i}P+{j}Q")
            if pairing.weil_pairing(E, T, Q, 3, rng).value != zPQ ** i:
                problems.append(f"bilinearity failed at e_3({i}P+{j}Q, Q)")
    return problems


def _check_pairing_convention() -> list:
    problems = []
    E = _selftest_curve()
    m = _PAIRING_TABLE["m"]
    for (xy1, xy2, expect) in _PAIRING_TABLE["cases"]:
        P = E.point(xy1[0], xy1[1])
        Q = E.point(xy2[0], xy2[1])
        got = int(pairing.weil_pairing(E, P, Q, m, random.Random(9)).value.value)
        if got != expect:
            problems.append(f"e_{m}({xy1}, {xy2}) = {got}, frozen value is "
                            f"{expect}: the pairing convention drifted")
    return problems


def _check_character_tables() -> list:
    problems = []
    for kind, modulus, n, expect in _CHAR_TABLE:
        got = quadforms.char_eval_norm(Character(kind, modulus), n)
        if got != expect:
            label = Character(kind, modulus).label
            problems.append(f"{label}({n}) = {got}, frozen value is {expect}")
    return problems


def _check_genus_relation() -> list:
    problems = []
    for D in (23, 24, 40, 84, 120, 231):
        rep = quadforms.verify_character_relation(D)
        if not rep["ok"]:
            detail = ", ".join(k for k in ("relation_ok", "counts_ok",
                                           "kernel_is_squares") if not rep[k])
            problems.append(f"D={D}: {detail}")
    return problems


def _check_bound_table() -> list:
    problems = []
    for factors, expect in _BOUND_TABLE:
        got = roots.choose_bound(list(factors))
        if got != expect:
            problems.append(f"choose_bound({factors}) = {got}, "
                            f"frozen value is {expect}")
    return problems


def _check_oracle_equivalence() -> list:
    problems = []
    rng = random.Random(17)
    oc = action.make_instance(7, 2, rng)  # D = 24, h = 2
    chi3 = Character("chi", 3)
    for trial in range(3):
        ideal = action.random_smooth_class(oc, rng)
        moved = action.apply_smooth_ideal(oc, ideal)
        got = attack.eval_character(oc, moved, chi3, rng).value
        want = quadforms.char_eval_norm(chi3, ideal.norm)
        if got != want:
            problems.append(f"trial {trial}: pipeline gave {got:+d} but the "
                            f"norm oracle says {want:+d} (norm {ideal.norm})")
    return problems


_SELFTEST_CHECKS = [
    ("field axioms", _check_field_axioms),
    ("pairing properties", _check_pairing_properties),
    ("pairing convention", _check_pairing_convention),
    ("character tables", _check_character_tables),
    ("genus relation", _check_genus_relation),
    ("bound table", _check_bound_table),
    ("oracle equivalence", _check_oracle_equivalence),
]


def cmd_selftest(args) -> int:
    failed = []
    for name, fn in _SELFTEST_CHECKS:
        try:
            problems = fn()
        except Exception as exc:  # a broken invariant may also just raise
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failed.append(name)
            print(f"{name:<22} FAIL")
            for p in problems:
                print(f"    {p}")
        else:
            print(f"{name:<22} ok")
    total = len(_SELFTEST_CHECKS)
    if failed:
        print(f"selftest: {total - len(failed)}/{total} passed; "
              f"failing: {', '.join(failed)}")
        return EXIT_SELFTEST
    print(f"selftest: {total}/{total} passed")
    return EXIT_OK


# --------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weilchar",
        description="Genus-theory characters of oriented curves: instance "
                    "generation, character evaluation, DDH experiments, and "
                    "class-group square-root recovery.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance",
                       help="generate an oriented-curve instance or a planted "
                            "pair, with its character inventory")
    g.add_argument("--config", help="JSON params: {'mode':'supersingular',"
                   "'p':101} or {'mode':'ordinary','q':...,'t':...} or "
                   "{'mode':'ordinary','q_range':[lo,hi],'m_target':m}; add "
                   "'plant':true for a pair file with an oracle field")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="-", help="output path ('-' for stdout)")
    g.set_defaults(run=cmd_gen_instance)

    e = sub.add_parser("eval-char",
                       help="evaluate assigned characters at the unknown "
                            "class connecting a pair (an instance file is "
                            "the identity pair)")
    e.add_argument("input", help="instance or pair file")
    e.add_argument("--chars", help="comma-separated labels, e.g. chi_3,delta "
                                   "(default: the file's usable list)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", help="also write the result JSON here")
    e.set_defaults(run=cmd_eval_char)

    d = sub.add_parser("ddh-experiment",
                       help="run a balanced dh/random distinguishing "
                            "experiment and report the advantage")
    d.add_argument("--config", help="JSON: {'instance': path-or-object, "
                                    "'trials':n, 'seed':n, 'chars':[...], "
                                    "'exp_bound':n}")
    d.add_argument("--trials", type=int)
    d.add_argument("--seed", type=int)
    d.add_argument("--chars")
    d.add_argument("--squares-only", action="store_true", dest="squares_only",
                   help="sample all classes from cl(O)^2")
    d.add_argument("--json", action="store_true",
                   help="print the full report as JSON instead of the "
                        "summary table")
    d.add_argument("--out", help="also write the report JSON here")
    d.set_defaults(run=cmd_ddh_experiment)

    r = sub.add_parser("sqrt-recover",
                       help="disambiguate a class-group square root using "
                            "characters evaluated on a curve pair")
    r.add_argument("input", help="pair file")
    r.add_argument("--square", help="target square as a,b,c "
                                    "(default: the file's square_class)")
    r.add_argument("--bound", default="auto",
                   help="odd-prime filter bound B >= 0 (default: auto)")
    r.add_argument("--two-adic", action="store_true", dest="two_adic",
                   help="also filter by the assigned two-adic characters")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", help="also write the recovery JSON here")
    r.set_defaults(run=cmd_sqrt_recover)

    sub.add_parser("selftest", help="run the invariant suite at small "
                   "parameters").set_defaults(run=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
