"""Smoke test of bench/run.py: the m = 3 rung of its ladder and the
instance search, timed and counted, each in a child process as the
harness runs it, and the line count it reports per side."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parent.parent / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)


def test_ladder_m3_rung_times_and_counts():
    rung = bench_run._spawn(bench_run.ROOT, "ladder", False, "3")
    assert set(rung) == {"m3.wall_ms", "m3.extension_ms", "m3.side_base_ms",
                         "gate_holds"}
    assert rung["m3.wall_ms"] > 0 and rung["gate_holds"]
    counts = bench_run._spawn(bench_run.ROOT, "ladder", True, "3")
    ops = {name for name, _, _ in bench_run.COUNTED}
    memos = set(counts) - ops
    assert ops <= set(counts) and memos
    assert all(k.startswith("memo.") and k.endswith(".entries") for k in memos)
    assert counts["fields.vmul"] > 0 and counts["curves._add_raw"] > 0
    assert counts["fields._pmul"] > 0 and counts["curves.draw_point"] > 0
    # the kernels a cold rung compiles are memo entries, counted
    for name in ("curves._draw_kernel", "pairing._descent_kernel",
                 "pairing._certificate_kernel",
                 "fields.FieldTower._frobenius_kernel"):
        assert counts[f"memo.{name}.entries"] >= 1, name


def test_instance_search_times_and_counts():
    run = bench_run._spawn(bench_run.ROOT, "instance-search", False)
    assert set(run) == {"setup_ms", "q120121_ms"}
    assert run["setup_ms"] > 0 and run["q120121_ms"] > 0
    counts = bench_run._spawn(bench_run.ROOT, "instance-search", True)
    # one count per candidate that passes the filter, and the filter's
    # multiples are counted through the name action imported
    assert counts["curves.count_points"] >= 16
    assert counts["curves._mul_fp"] > counts["curves.count_points"]


def test_src_lines_counts_every_library_line():
    lines = bench_run._src_lines(bench_run.ROOT)
    files = sorted((bench_run.ROOT / "src" / "weilchar").glob("*.py"))
    assert files and type(lines) is int and lines > 0
    assert lines == sum(len(path.read_text().splitlines()) for path in files)
