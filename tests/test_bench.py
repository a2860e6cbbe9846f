"""Smoke test of bench/run.py: the m = 3 rung of its ladder, the instance
search and a small layers run, timed and counted, each in a child process
as the harness runs it, the first two counts equal to the ledger
bench/opcounts.json, and the line count and digest it reports per
side."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parent.parent / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)

KERNELS = ("unrolled_mul", "kron_mul", "vadd", "vsub", "vneg", "vinv",
           "frobenius", "vnorm", "vlin")
# the count dicts of bench/opcounts.json, by child name and arguments
LEDGER = json.loads((bench_run.ROOT / "bench" / "opcounts.json").read_text())
STEPS = [f"{step}_{path}_us" for path in ("interp", "comp")
         for step in ("draw", "certificate", "descent", "attempt", "side")
         ] + ["dlog_cold_us", "dlog_warm_us", "compile_draw_ms",
              "compile_test_ms", "descent_share_pct"]


def test_ladder_m3_rung_times_and_counts():
    rung = bench_run._spawn(bench_run.ROOT, "ladder", False, "3")
    assert set(rung) == {"m3.wall_ms", "m3.extension_ms", "m3.side_base_ms",
                         "gate_holds", "host.reference_us"}
    assert rung["m3.wall_ms"] > 0 and rung["gate_holds"]
    assert rung["host.reference_us"] > 0
    counts = bench_run._spawn(bench_run.ROOT, "ladder", True, "3")
    assert counts == LEDGER["ladder 3"]
    ops = {name for name, _, _ in bench_run.COUNTED}
    memos = set(counts) - ops
    assert ops <= set(counts) and memos
    assert all(k.startswith("memo.") and k.endswith(".entries") for k in memos)
    assert counts["fields.vmul"] > 0 and counts["curves._add_raw"] > 0
    assert counts["fields._pmul"] > 0 and counts["curves.draw_point"] > 0
    # the kernels a cold rung compiles are memo entries, counted
    for name in ("curves._draw_kernel", "pairing._descent_kernel",
                 "curves._x_multiple_kernel",
                 "fields.FieldTower._frobenius_kernel"):
        assert counts[f"memo.{name}.entries"] >= 1, name


def test_instance_search_times_and_counts():
    run = bench_run._spawn(bench_run.ROOT, "instance-search", False)
    assert set(run) == {"q17_ms", "q7_ms", "q31_ms", "q2221_ms",
                        "q120121_ms", "host.reference_us"}
    assert all(ms > 0 for ms in run.values())
    counts = bench_run._spawn(bench_run.ROOT, "instance-search", True)
    assert counts == LEDGER["instance-search"]
    # at least one count per search, and the filter's multiples are
    # counted through the name action imported
    assert counts["curves.count_points"] >= 5
    assert counts["curves._mul_fp"] > counts["curves.count_points"]


def test_src_lines_counts_every_library_line():
    lines = bench_run._src_lines(bench_run.ROOT)
    files = sorted((bench_run.ROOT / "src" / "weilchar").glob("*.py"))
    assert files and type(lines) is int and lines > 0
    assert lines == sum(len(path.read_text().splitlines()) for path in files)


def test_src_digest_names_the_tree_not_its_checkout(tmp_path):
    # a copy without .git reads as the tree it copies; one byte moves it
    shutil.copytree(bench_run.ROOT / "src" / "weilchar",
                    tmp_path / "src" / "weilchar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digest = bench_run._src_digest(bench_run.ROOT)
    assert len(digest) == 64 and bench_run._src_digest(tmp_path) == digest
    path = tmp_path / "src" / "weilchar" / "memo.py"
    path.write_bytes(path.read_bytes() + b"\n")
    assert bench_run._src_digest(tmp_path) != digest


@pytest.fixture(scope="module")
def layers():
    # ten calls per key, a genus sweep up to D = 200, one tower on each
    # side of the product crossover and every pairing cell
    return bench_run._spawn(bench_run.ROOT, "layers", False, "10", "200",
                            "101,4", "23,15", "101,4,4", "7,3,3", "31,3,3",
                            "2221,3,3")


def _rows(layers, prefix):
    return {k: v for k, v in layers.items() if k.startswith(prefix)}


def test_timed_runs_report_the_host_reference(layers):
    # perfbench's reference loop, timed after the workload in every round
    assert layers["host.reference_us"] > 0


def test_field_bench_smoke(layers):
    rows = _rows(layers, "tower.")
    assert set(rows) == {f"tower.{t}.{name}_us" for t in ("101^4", "23^15")
                         for name in KERNELS}
    assert all(us > 0 for us in rows.values())


def test_curve_bench_smoke(layers):
    rows = {**_rows(layers, "scalar_mul."), **_rows(layers, "count_points."),
            **_rows(layers, "order_filter.")}
    assert set(rows) == {"scalar_mul.2221.23bit_us",
                         "scalar_mul.2221.40bit_us", "count_points.2221_us",
                         "count_points.120121_us", "order_filter.2221_us"}
    assert all(us > 0 for us in rows.values())
    # the roster's searches, one row each; their count_points calls are
    # the frozen ones
    for q, calls in (("17", 1), ("7", 1), ("31", 2), ("2221", 2)):
        counts = bench_run._spawn(bench_run.ROOT, "instance-search", True, q)
        assert counts["curves.count_points"] == calls, q


def test_pairing_steps_bench_smoke(layers):
    rows = _rows(layers, "cell.")
    cells = ("101^4.m4", "7^3.m3", "31^3.m3", "2221^3.m3")
    assert set(rows) == {f"cell.{c}.{step}" for c in cells for step in STEPS}
    assert all(x > 0 for x in rows.values())


def test_quadforms_bench_smoke(layers):
    rows = {k: v for k, v in layers.items()
            if not k.startswith(("tower.", "scalar_mul.", "count_points.",
                                 "order_filter.", "cell.", "host."))}
    assert set(rows) == {"compose_us", "reduce_form_us",
                         "genus_sweep.D200.s", "genus_sweep.D200.rss_mb"} | {
        f"D{D}.{key}_us" for D in (59, 24, 120, 420)
        for key in ("sqrt_cold", "sqrt_warm", "root_cold", "root_warm")}
    assert all(x > 0 for x in rows.values())
