"""Checks of the benchmark itself, on short slices of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SLICES = {"ddh-supersingular": 11, "sqrt-recover": 11}


def run(workload, trace, ops, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(SLICES)


@pytest.mark.parametrize("workload", list(SLICES))
def test_end_to_end_metrics_emitted_with_units(workload):
    out = run(workload, 0, SLICES[workload])
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == SLICES[workload]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", list(SLICES))
def test_traced_counts_repeat_exactly(workload):
    first = run(workload, 1, SLICES[workload])
    second = run(workload, 1, SLICES[workload])
    # correct also asserts the traced digest equals the untraced one
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == want
    counts = [k for k in want if k.endswith((".calls", ".count"))]
    assert any(first["metrics"][k]["value"] for k in counts)
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ddh-supersingular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_name_is_reported_absent():
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer
    tracer = Tracer()
    tracer._patch({"fields": object()}, "fields.gone.count", "fields",
                  "FieldTower.gone", lambda fn: fn)
    assert tracer.absent == ["fields.gone.count"]
