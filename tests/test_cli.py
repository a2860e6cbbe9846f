import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weilchar
import weilchar.pairing
import weilchar.quadforms
from weilchar import attack, cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stringify_round_trip():
    payload = {"n": 2 ** 80, "neg": -7, "ok": True, "bad": False,
               "txt": "chi_3", "nest": [{"k": [1, "2", -3]}, None, 0.5]}
    blob = cli._stringify(payload)
    assert blob["n"] == str(2 ** 80) and blob["neg"] == "-7"
    assert blob["ok"] is True and blob["bad"] is False
    assert blob["nest"][0]["k"] == ["1", "2", "-3"]
    back = cli._destring(json.loads(json.dumps(blob)))
    assert back["n"] == 2 ** 80 and back["neg"] == -7
    assert back["ok"] is True and back["txt"] == "chi_3"
    assert back["nest"][0]["k"] == [1, 2, -3] and back["nest"][2] == 0.5


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "7/7 passed" in out


def test_selftest_flags_pairing_drift(capsys, monkeypatch):
    # swapping the pairing arguments preserves bilinearity and alternation
    # but not the frozen convention values
    orig = weilchar.pairing.weil_pairing

    def swapped(E, P, Q, m, rng=None):
        return orig(E, Q, P, m, rng)

    monkeypatch.setattr(weilchar.pairing, "weil_pairing", swapped)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    line = next(l for l in out.splitlines() if "failing:" in l)
    assert "pairing convention" in line
    assert "pairing properties" not in line


def test_selftest_flags_character_drift(capsys, monkeypatch):
    orig = weilchar.quadforms.char_eval_norm

    def flipped(ch, n):
        v = orig(ch, n)
        return -v if ch.kind == "chi" else v

    monkeypatch.setattr(weilchar.quadforms, "char_eval_norm", flipped)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    line = next(l for l in out.splitlines() if "failing:" in l)
    assert "character tables" in line
    assert "oracle equivalence" in line


def test_selftest_clean_after_restore(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0 and "7/7 passed" in out


@pytest.fixture()
def pair24(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "ordinary", "q": 7, "t": 2, "plant": True}))
    out = tmp_path / "pair24.json"
    code, _, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                              "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


# the README's command sequence, each with the name its output is kept
# under; eval-char's per-character milliseconds are dropped before hashing
_README_RUNS = [
    ("gen-pair", ["gen-instance", "--config", "cfg.json", "--out",
                  "pair.json"]),
    ("eval-char", ["eval-char", "pair.json", "--chars", "chi_7,epsilon",
                   "--seed", "7", "--out", "eval.json"]),
    ("gen-instance", ["gen-instance", "--config", "ss.json", "--out",
                      "inst.json"]),
    ("ddh-experiment", ["ddh-experiment", "--config", "ddh.json", "--trials",
                        "500", "--json", "--out", "report.json"]),
    ("sqrt-recover", ["sqrt-recover", "pair.json", "--square", "1,0,14",
                      "--seed", "9", "--out", "sqrt.json"]),
    ("selftest", ["selftest"]),
]
_README_DIGESTS = {
    "gen-pair": "99c44265b18af982b43ef989ab9da27a9b5510d6b37e96d2a71e45d689abcc5c",
    "eval-char": "b5d32a602fff8d18e334757fe44cee716d510ded133fb3caf5f830ed71d076ac",
    "gen-instance": "96360a4358f6a1e47f4480cdb1e3e978de3ff276d5aea80f77ccfcb24da07e0c",
    "ddh-experiment": "5890164d4ed0760969ba86dc4a719c562b82250b15407ce70941201f96beb334",
    "sqrt-recover": "004035d853a70f452cc4f43e8c014ae2f7e2c52f9e7b56c9a74badc8910157b1",
    "selftest": "8779e196f5524c968f7aa294725fa630b99d1ece5e2317b3b47f6078e34c3b31",
    "pair.json": "20e424e48c83f5302fc29d857a382723f44ab8451fc1d060484efe3f63ea8104",
    "eval.json": "6db01f399373ee24d40104fc4d0d4c4d6817a6f5c1628d05546c63aa80c6f0a9",
    "inst.json": "30809a43f2de1be6e119ae773deaaf76a3b9b26a3c5a204e8536bfa2fe07aa94",
    "report.json": "303a64528836d50b00036cd7e3c981085074181ddff9206cd905dc508458ab9f",
    "sqrt.json": "aea1a5baaad757c41116843f74b47da71368cff9d72542393e7edfd269463eaa",
}


def test_readme_artifacts_are_byte_identical(tmp_path, capsys, monkeypatch):
    """The README runs, with its configs, print the same reports and write
    the same files, byte for byte, as the recorded sha256 digests say."""
    monkeypatch.chdir(tmp_path)
    for name, config in (
            ("cfg.json", {"mode": "ordinary", "q": "23", "t": "6",
                          "plant": True}),
            ("ss.json", {"mode": "supersingular", "p": "101"}),
            ("ddh.json", {"instance": "inst.json", "seed": "11",
                          "chars": ["delta"]})):
        (tmp_path / name).write_text(json.dumps(config))
    outputs = {}
    for name, argv in _README_RUNS:
        code, out, err = run(capsys, argv)
        assert code == 0 and not err, (name, err)
        outputs[name] = re.sub(r"\d+ ms\b", "ms", out)
    for path in ("pair.json", "eval.json", "inst.json", "report.json",
                 "sqrt.json"):
        outputs[path] = (tmp_path / path).read_text()
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in outputs.items()} == _README_DIGESTS


def test_gen_instance_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "ordinary", "q": 23, "t": 6, "plant": True}))
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    for path, seed in ((a, "1"), (b, "1"), (c, "2")):
        code, out, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                                    "--seed", seed, "--out", str(path)])
        assert code == 0 and "wrote pair" in out
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)


def test_gen_instance_q_range_output_is_frozen(tmp_path, capsys):
    """An ordinary search over a q_range draws q from the range's primes,
    so the instance a seed makes is fixed by that list: the file and the
    report are the ones recorded when the primes were listed by trial
    division."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "ordinary", "q_range": [1000, 300000], "m_target": 11}))
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                                   "--seed", "4", "--out", str(out)])
    assert code == 0
    assert stdout == (f"wrote instance to {out}: q=271939 t=-748 D=528252 "
                      "h=210 usable=chi_3,chi_44021\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0522aa732519b6b17a0b16192e975b4f3324bd4dd7cf6e5e8aa88d4a8b281ead"


def test_gen_instance_inventory(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "supersingular", "p": 101}))
    code, out, _ = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 0
    payload = cli._destring(json.loads(out))
    assert payload["schema"] == "weilchar/instance/v1"
    assert payload["instance"]["D"] == 404
    assert payload["characters"]["assigned"] == ["chi_101", "delta"]
    assert payload["characters"]["usable"] == ["delta"]
    assert payload["class_number"] == 14


def test_gen_instance_rejects_bad_params(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "supersingular", "p": 103}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2 and "infeasible" in err
    cfg.write_text(json.dumps({"mode": "montgomery", "p": 101}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2 and "unknown mode" in err
    # above the point-count cap the search is refused before it starts
    cfg.write_text(json.dumps({"mode": "ordinary", "q": 1000003, "t": 2}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2
    assert "field too large for exhaustive point counting" in err


def test_eval_char_identity_pair(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "ordinary", "q": 7, "t": 2}))
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                              "--out", str(inst)])
    assert code == 0
    code, out, _ = run(capsys, ["eval-char", str(inst)])
    assert code == 0
    assert "identity pair" in out
    assert out.count("+1") == 2  # chi_3 and epsilon both evaluate to +1


def test_eval_char_planted_pair(pair24, tmp_path, capsys):
    res = tmp_path / "eval.json"
    code, out, _ = run(capsys, ["eval-char", str(pair24), "--out", str(res)])
    assert code == 0
    assert out.count("oracle ok") == 2
    written = cli._destring(json.loads(res.read_text()))
    assert written["schema"] == "weilchar/eval/v1"
    assert set(written["oracle_match"].values()) == {True}
    assert "timings_ms" not in json.dumps(written)


def test_eval_char_prints_total_time(pair24, capsys, monkeypatch):
    # total_ms already covers the stages, so the stage sum would double it
    real = attack.eval_character

    def stubbed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.timings_ms = {"adjust_ms": 100.0, "side_base_ms": 400.0,
                          "side_target_ms": 500.0, "total_ms": 1234.0}
        return res

    monkeypatch.setattr(attack, "eval_character", stubbed)
    code, out, _ = run(capsys, ["eval-char", str(pair24)])
    assert code == 0
    assert out.count("1234 ms") == 2 and "2234 ms" not in out


def test_attack_guard_survives_optimize(pair24):
    # python -O strips asserts; the degree check must still raise, and the
    # CLI must still exit with the attack-layer code
    script = (
        "import sys\n"
        "from weilchar import attack, cli\n"
        "attack.torsion_extension_degree = lambda E, m: 7\n"
        f"sys.exit(cli.main(['eval-char', {str(pair24)!r}, "
        "'--chars', 'chi_3']))\n")
    src = str(Path(weilchar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "does not divide #GL2(Z/3)" in proc.stderr


def _cli_import(script: str) -> set:
    """The names script prints, run in a fresh process that imports
    weilchar.cli from this checkout after setting before = set(sys.modules)."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import weilchar.cli\n" + script)
    src = str(Path(weilchar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_dataclasses():
    """Every CLI run pays the library import, so it loads neither
    dataclasses nor the introspection modules that come with it."""
    loaded = _cli_import("print(' '.join(sorted(set(sys.modules) - before)))")
    assert "weilchar.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}, loaded


def test_cli_import_loads_no_fractions():
    """The sampler's distance is exact in ints, so the import holds none
    of fractions and the decimal and numbers modules it brings."""
    loaded = _cli_import("print(' '.join(sorted(sys.modules)))")
    assert "weilchar.cli" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}, loaded


def test_cli_import_loads_no_array():
    """The F_p inverses of curves._inverses live in a bytearray's
    memoryview, so the import that set-up times holds no array module."""
    loaded = _cli_import("print(' '.join(sorted(sys.modules)))")
    assert "weilchar.cli" in loaded and "array" not in loaded, loaded


def test_cli_import_loads_no_textwrap():
    """SymbolicTower indents a kernel's steps itself, so the import that
    set-up times compiles none of textwrap's patterns."""
    loaded = _cli_import("print(' '.join(sorted(sys.modules)))")
    assert "weilchar.cli" in loaded and "textwrap" not in loaded, loaded


def test_a_character_list_is_read_alike(tmp_path, capsys):
    """eval-char and ddh-experiment read a character list by one rule: a
    repeated label exits 2 and names it, an empty --chars or an empty
    list given in the file exits 2, and an absent list keeps each
    command's default."""
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "supersingular", "p": 13},
                                 trials=4)
    inst = tmp_path / "inst.json"
    for argv in (["eval-char", str(inst)], ["ddh-experiment", "--config",
                                            str(cfg)]):
        code, _, err = run(capsys, argv + ["--chars", "delta, delta"])
        assert code == 2 and "delta is listed twice" in err, err
        for flag in (",", "", " , "):
            code, _, err = run(capsys, argv + ["--chars", flag])
            assert code == 2 and "the character list is empty" in err, err
        code, _, err = run(capsys, argv)
        assert code == 0, err
    cfg.write_text(json.dumps({"instance": str(inst), "chars": []}))
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 2 and "the character list is empty" in err, err
    data = json.loads(inst.read_text())
    data["characters"]["usable"] = []
    inst.write_text(json.dumps(data))
    code, _, err = run(capsys, ["eval-char", str(inst)])
    assert code == 2 and "no characters requested or usable" in err, err


def test_eval_char_rejects_bad_moduli(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "supersingular", "p": 13}))
    inst = tmp_path / "inst13.json"
    code, _, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                              "--out", str(inst)])
    assert code == 0
    # the modulus of chi_13 collides with the characteristic
    code, _, err = run(capsys, ["eval-char", str(inst), "--chars", "chi_13"])
    assert code == 3 and "characteristic" in err
    code, _, err = run(capsys, ["eval-char", str(inst), "--chars", "chi_5"])
    assert code == 2 and "not assigned" in err
    code, _, err = run(capsys, ["eval-char", str(inst), "--chars", "zeta_3"])
    assert code == 2 and "unknown character label" in err


def _write_instance_config(tmp_path, capsys, gen_cfg, **extra):
    inst = tmp_path / "inst.json"
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(gen_cfg))
    code, _, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                              "--out", str(inst)])
    assert code == 0
    ddh_cfg = tmp_path / "ddh.json"
    ddh_cfg.write_text(json.dumps({"instance": str(inst), **extra}))
    return ddh_cfg


def test_ddh_trivial_group_refused(tmp_path, capsys):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "ordinary", "q": 7, "t": 4})
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 2 and "trivial" in err


def test_ddh_unusable_char_refused(tmp_path, capsys):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "ordinary", "q": 13, "t": 2})
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg),
                                "--chars", "chi_3", "--trials", "4"])
    assert code == 2 and "unusable" in err


def test_ddh_table_output(tmp_path, capsys):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "supersingular", "p": 13},
                                 trials=8, seed=4)
    code, out, _ = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 0
    assert "advantage" in out and "false negatives 0" in out


def test_ddh_json_squares_only(tmp_path, capsys):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "supersingular", "p": 13},
                                 trials=8, seed=4)
    code, out, _ = run(capsys, ["ddh-experiment", "--config", str(cfg),
                                "--squares-only", "--json"])
    assert code == 0
    report = cli._destring(json.loads(out))
    assert report["schema"] == "weilchar/ddh-report/v1"
    assert report["advantage"] == 0.0
    assert report["ci_advantage"][0] <= 0.0 <= report["ci_advantage"][1]


def test_sqrt_recover_planted_pair(pair24, tmp_path, capsys):
    res = tmp_path / "rec.json"
    code, out, _ = run(capsys, ["sqrt-recover", str(pair24),
                                "--out", str(res)])
    assert code == 0
    assert "matches the planted class" in out
    written = cli._destring(json.loads(res.read_text()))
    assert written["schema"] == "weilchar/recovery/v1"
    assert "timings_ms" not in json.dumps(written)


def test_sqrt_recover_rejects_nonsquare(pair24, capsys):
    # (2, 0, 3) is the nonprincipal class of D = 24, not a square
    code, _, err = run(capsys, ["sqrt-recover", str(pair24),
                                "--square", "2,0,3"])
    assert code == 2 and "square" in err


def test_sqrt_recover_bound_is_auto_or_an_integer(pair24, capsys):
    code, out, _ = run(capsys, ["sqrt-recover", str(pair24), "--bound", "3"])
    assert code == 0 and "B=3 " in out and "matches the planted class" in out
    for bound in ("x", "2.5", ""):
        code, out, err = run(capsys, ["sqrt-recover", str(pair24),
                                      "--bound", bound])
        assert code == 2 and not out, (bound, out)
        assert "--bound must be 'auto' or an integer" in err, err
    code, out, err = run(capsys, ["sqrt-recover", str(pair24),
                                  "--bound", "-3"])
    assert code == 2 and not out and "at least 0, not -3" in err, (out, err)
    code, out, _ = run(capsys, ["sqrt-recover", str(pair24), "--bound", "0"])
    assert code == 0 and "B=0 " in out and "matches the planted class" in out


def test_sqrt_recover_rejects_wrong_disc(pair24, capsys):
    code, _, err = run(capsys, ["sqrt-recover", str(pair24),
                                "--square", "1,0,1"])
    assert code == 2 and "discriminant" in err


@pytest.mark.parametrize("planted", [["-2", "0", "-7"], ["0", "0", "7"],
                                     ["1", "0", "7"]],
                         ids=["negative-definite", "zero-a", "wrong-disc"])
def test_sqrt_recover_rejects_a_planted_class_off_the_group(
        pair24, tmp_path, capsys, planted):
    data = json.loads(pair24.read_text())
    data["oracle"]["planted_class"] = planted
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, ["sqrt-recover", str(bad)])
    assert code == 2 and "planted_class" in err, err
    assert "not positive definite of discriminant -24" in err, err


@pytest.mark.parametrize("exp_bound", [0, -3])
def test_nonpositive_exp_bound_exits_2(tmp_path, capsys, exp_bound):
    message = f"exp_bound must be a positive int, not {exp_bound}"
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "ordinary", "q": 7, "t": 2},
                                 trials=4, exp_bound=exp_bound)
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 2 and message in err, err
    gen = tmp_path / "plant.json"
    gen.write_text(json.dumps({"mode": "ordinary", "q": 7, "t": 2,
                               "plant": True, "exp_bound": exp_bound}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(gen)])
    assert code == 2 and message in err, err


@pytest.fixture()
def readme_pair(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "ordinary", "q": "23", "t": "6",
                               "plant": True, "seed": "1"}))
    out = tmp_path / "pair.json"
    code, _, _ = run(capsys, ["gen-instance", "--config", str(cfg),
                              "--out", str(out)])
    assert code == 0
    return out


def test_readme_pair_loads(readme_pair):
    base, target, oracle = cli.load_pair(cli.read_json(str(readme_pair)))
    assert (base.q, base.t, base.D) == (23, 6, 56)
    assert (target.q, target.t) == (23, 6) and oracle is not None


def _set(key, value):
    def mutate(record):
        if key in ("a4", "a6"):
            record["curve"][key] = value(int(record["curve"][key]))
        else:
            record[key] = value(int(record[key]))
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_set("a4", lambda a4: str(a4 + 23)), "not an int in [0, 23)"),
    (_set("a6", lambda a6: "-1"), "not an int in [0, 23)"),
    (_set("a4", lambda a4: "nine"), "not an int in [0, 23)"),
    (_set("a4", lambda a4: "0"), "j-invariant 0 or 1728"),
    (_set("a6", lambda a6: "0"), "j-invariant 0 or 1728"),
    # the twist's trace gives the same discriminant
    (_set("trace", lambda t: str(-t)), "does not match the curve"),
], ids=["a4-unreduced", "a6-negative", "a4-not-int", "j-0", "j-1728",
        "twist-trace"])
def test_malformed_instance_exits_2(readme_pair, tmp_path, capsys, mutate,
                                    message):
    data = json.loads(readme_pair.read_text())
    mutate(data["base"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, ["eval-char", str(bad), "--chars", "epsilon",
                                "--seed", "7"])
    assert code == 2 and "bad instance data" in err and message in err, err


@pytest.mark.parametrize("top", ["[]", "[1, 2]", "null", "7", '"pair"'],
                         ids=["empty-list", "list", "null", "number",
                              "string"])
@pytest.mark.parametrize("argv", [
    ["eval-char", "{}"],
    ["sqrt-recover", "{}", "--square", "1,0,14"],
    ["ddh-experiment", "--config", "{}"],
    ["gen-instance", "--config", "{}"],
], ids=["eval-char", "sqrt-recover", "ddh-experiment", "gen-instance"])
def test_non_object_input_exits_2(tmp_path, capsys, top, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(top)
    code, _, err = run(capsys, [a.format(bad) for a in argv])
    assert code == 2 and "must hold a JSON object" in err, err


@pytest.mark.parametrize("characters", [
    [], ["chi_3"], None, 3, {"usable": "chi_3"}, {"usable": None},
    {"usable": [3]},
], ids=["list", "label-list", "null", "number", "usable-string",
        "usable-null", "usable-ints"])
def test_mistyped_characters_exits_2(readme_pair, tmp_path, capsys,
                                     characters):
    data = json.loads(readme_pair.read_text())
    data["characters"] = characters
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, ["eval-char", str(bad), "--seed", "7"])
    assert code == 2 and "'characters' must be an object" in err, err


@pytest.mark.parametrize("oracle", [
    [1], "x", 7, {"char_values": "epsilon"}, {"char_values": {"epsilon": "x"}},
    {"char_values": [1]}, {"char_values": {"epsilon": 0}},
    {"char_values": {"epsilon": True}}, {"char_values": None},
], ids=["list", "string", "number", "values-string", "value-string",
        "values-list", "value-zero", "value-bool", "values-null"])
@pytest.mark.parametrize("argv", [
    ["eval-char", "{}", "--chars", "epsilon", "--seed", "7"],
    ["sqrt-recover", "{}", "--square", "1,0,14", "--seed", "9"],
], ids=["eval-char", "sqrt-recover"])
def test_malformed_oracle_exits_2(readme_pair, tmp_path, capsys, oracle, argv):
    data = json.loads(readme_pair.read_text())
    data["oracle"] = oracle
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, [a.format(bad) for a in argv])
    assert code == 2 and "'oracle' must be an object" in err, err


@pytest.mark.parametrize("oracle", [None, {}, {"planted_class": [2, 0, 7]},
                                    {"char_values": {}},
                                    {"char_values": {"epsilon": "-1"}}],
                         ids=["null", "empty", "no-values", "no-labels",
                              "minus-one"])
def test_well_formed_oracle_loads(readme_pair, oracle):
    data = cli.read_json(str(readme_pair))
    data["oracle"] = cli._destring(oracle)
    assert cli.load_pair(data)[2] == data["oracle"]


@pytest.mark.parametrize("extra", [
    {"chars": 5}, {"chars": [5]}, {"chars": "delta"}, {"seed": [1]},
    {"seed": "abc"}, {"exp_bound": [2]}, {"trials": "many"},
    {"squares_only": "no"}, {"squares_only": 1},
], ids=["chars-number", "chars-ints", "chars-string", "seed-list",
        "seed-word", "exp-bound-list", "trials-word", "squares-only-string",
        "squares-only-number"])
def test_mistyped_ddh_config_exits_2(tmp_path, capsys, extra):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "supersingular", "p": 13},
                                 **{"trials": 4, **extra})
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 2 and "config key" in err, err


@pytest.mark.parametrize("config", [
    {"mode": "supersingular", "p": [1]},
    {"mode": "supersingular", "p": 101.5},
    {"mode": "ordinary", "q": [7], "t": 2},
    {"mode": "ordinary", "q": 23},
    {"mode": "ordinary", "q_range": 5},
    {"mode": "ordinary", "q_range": [20, "x"]},
    {"mode": "ordinary", "q_range": [20, 30], "m_target": "seven"},
    {"mode": "ordinary", "q_range": [20, 30], "m_target": [7]},
    {"mode": "ordinary", "q": 23, "t": 6, "plant": True, "exp_bound": [1]},
    {"mode": "ordinary", "q": 23, "t": 6, "plant": "no"},
], ids=["p-list", "p-fraction", "q-list", "t-missing", "q-range-number",
        "q-range-word", "m-target-word", "m-target-list", "exp-bound-list",
        "plant-string"])
def test_mistyped_gen_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2 and "config key" in err, err


def test_uncountable_q_range_exits_2_at_once(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "ordinary", "q_range": [5, 10**8]}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2 and "field too large for exhaustive" in err, err


def test_exhausted_search_exits_2(tmp_path, capsys):
    """Every ordinary curve over F_5 has D = 20 - t^2, 0 < |t| <= 4, one of
    19, 16, 11 and 4, so none has an odd prime m <= 3 exactly dividing D:
    the search draws its SEARCH_DRAWS curves and gives up."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"mode": "ordinary", "q_range": [5, 5], "m_target": 3}))
    code, _, err = run(capsys, ["gen-instance", "--config", str(cfg)])
    assert code == 2 and "search budget exhausted" in err, err


def test_ddh_config_takes_json_booleans(tmp_path, capsys):
    cfg = _write_instance_config(tmp_path, capsys,
                                 {"mode": "supersingular", "p": 13},
                                 trials=8, seed=4, squares_only=True)
    code, out, _ = run(capsys, ["ddh-experiment", "--config", str(cfg),
                                "--json"])
    assert code == 0
    assert cli._destring(json.loads(out))["squares_only"] is True


# every key of an instance record; the loader checks the derived norm,
# factors and sigma.kind against what to_json writes for the instance
_READ_KEYS = ("p", "D", "trace", "curve", "curve.a4", "curve.a6", "sigma",
              "sigma.k", "norm", "factors", "sigma.kind")
_RETYPES = {"deleted": None, "null": None, "list": [1], "object": {},
            "bool": True, "float": 1.5, "word": "x", "negative": -1,
            "huge": 10 ** 30}


@pytest.mark.parametrize("retype", list(_RETYPES))
@pytest.mark.parametrize("key", _READ_KEYS)
@pytest.mark.parametrize("half", ["base", "target"])
def test_fuzzed_pair_record_exits_2(readme_pair, tmp_path, capsys, half, key,
                                    retype):
    data = json.loads(readme_pair.read_text())
    *outer, last = key.split(".")
    record = data[half]
    for part in outer:
        record = record[part]
    if retype == "deleted":
        del record[last]
    else:
        record[last] = _RETYPES[retype]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, ["eval-char", str(bad), "--chars", "epsilon",
                                "--seed", "7"])
    assert code == 2 and err, err


@pytest.mark.parametrize("fraction", [0, 0.01, 0.25, 0.5, 0.75, 0.99])
def test_truncated_pair_file_exits_2(readme_pair, tmp_path, capsys, fraction):
    text = readme_pair.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text[:int(len(text) * fraction)])
    code, _, err = run(capsys, ["eval-char", str(bad), "--seed", "7"])
    assert code == 2 and "not valid JSON" in err, err


# the JSON text of a malformed p: a string of non-ASCII digits that int()
# refuses ("²") and one it reads as 23 (Arabic-Indic "٢٣"); lists nested
# past the parser's recursion limit, and objects nested past the limit of
# the reader's own walk
_MALFORMED_P = {"superscript": '"\\u00b2"',
                "arabic-indic": '"\\u0662\\u0663"',
                "deep-lists": "[" * 100000 + "]" * 100000,
                "deep-objects": '{"p": ' * 900 + "23" + "}" * 900}


@pytest.mark.parametrize("case", list(_MALFORMED_P))
@pytest.mark.parametrize("argv", [
    ["eval-char", "{}", "--chars", "epsilon", "--seed", "7"],
    ["ddh-experiment", "--config", "{}"],
], ids=["eval-char", "ddh-experiment"])
def test_malformed_json_value_exits_2(readme_pair, tmp_path, capsys, case,
                                      argv):
    data = json.loads(readme_pair.read_text())
    if argv[0] == "ddh-experiment":
        data = {"instance": data["base"], "trials": 4}
    data.get("base", data.get("instance"))["p"] = "@P@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@P@"', _MALFORMED_P[case]))
    code, _, err = run(capsys, [a.format(bad) for a in argv])
    assert code == 2 and err, err


@pytest.mark.parametrize("instance", [
    None, 13, True, 1.5, [], ["inst.json"], {}, {"p": 13}, "missing.json", ".",
], ids=["null", "number", "bool", "float", "empty-list", "path-list",
        "empty-object", "partial-record", "missing-file", "directory"])
def test_mistyped_ddh_instance_exits_2(tmp_path, capsys, monkeypatch,
                                      instance):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "ddh.json"
    cfg.write_text(json.dumps({"instance": instance, "trials": 4}))
    code, _, err = run(capsys, ["ddh-experiment", "--config", str(cfg)])
    assert code == 2 and err, err
