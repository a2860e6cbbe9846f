"""Fuzzed CLI records: one leaf of the README pair, of the p = 101
instance or of the ddh config is replaced by null, 0, its negative, a
word or a nested value, or deleted, and the command reading it runs in
process.  Whatever the record says, the command exits 0, 2 or 3 and prints
no traceback.

Draws are derandomized so that every run checks the same cases.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from weilchar import cli

props = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)

MUTATIONS = ("null", "zero", "negative", "word", "nested", "deleted")


def _main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The README records, by name, with the directory they live in."""
    root = tmp_path_factory.mktemp("records")
    (root / "cfg.json").write_text(json.dumps(
        {"mode": "ordinary", "q": "23", "t": "6", "plant": True,
         "seed": "1"}))
    (root / "ss.json").write_text(json.dumps(
        {"mode": "supersingular", "p": "101"}))
    for cfg, out in (("cfg.json", "pair.json"), ("ss.json", "inst.json")):
        code, err = _main(["gen-instance", "--config", str(root / cfg),
                           "--out", str(root / out)])
        assert code == 0, err
    ddh = {"instance": str(root / "inst.json"), "seed": "11",
           "chars": ["delta"]}
    return root, {"pair": json.loads((root / "pair.json").read_text()),
                  "instance": json.loads((root / "inst.json").read_text()),
                  "ddh": ddh}


def _leaves(node, path=()):
    """The paths of every leaf of a JSON value: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child,
                                                              path + (key,))]


def _mutated(record, path, mutation):
    data = json.loads(json.dumps(record))
    *outer, last = path
    node = data
    for key in outer:
        node = node[key]
    value = node[last]
    if mutation == "deleted":
        del node[last]
    else:
        numeric = isinstance(value, str) and value.lstrip("-").isdigit()
        node[last] = {"null": None, "zero": 0,
                      "negative": str(-abs(int(value)) or -1) if numeric
                      else -1,
                      "word": "x", "nested": {"x": [value]}}[mutation]
    return data


def _case(name):
    """A leaf path of the named record and a mutation."""
    return st.tuples(st.just(name), st.integers(0, 10 ** 6),
                     st.sampled_from(MUTATIONS))


def _run(records, case, argv):
    root, base = records
    name, pick, mutation = case
    paths = _leaves(base[name])
    data = _mutated(base[name], paths[pick % len(paths)], mutation)
    path = root / f"fuzzed-{name}.json"
    path.write_text(json.dumps(data))
    if name == "instance":
        config = dict(base["ddh"], instance=str(path))
        path = root / "fuzzed-ddh-config.json"
        path.write_text(json.dumps(config))
    code, err = _main([a.format(path) for a in argv])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err, err


@props
@given(_case("pair"))
def test_fuzzed_pair_eval_char(records, case):
    _run(records, case, ["eval-char", "{}", "--chars", "epsilon",
                         "--seed", "7"])


@props
@given(_case("pair"))
def test_fuzzed_pair_sqrt_recover(records, case):
    _run(records, case, ["sqrt-recover", "{}", "--seed", "9"])


@props
@given(st.one_of(_case("instance"), _case("ddh")))
def test_fuzzed_ddh_experiment(records, case):
    _run(records, case, ["ddh-experiment", "--config", "{}",
                         "--trials", "3"])
