"""Smoke test of bench/run.py: the m = 3 rung of its ladder, timed and
counted, each in a child process as the harness runs it."""

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
    assert set(counts) == {name for name, _, _ in bench_run.COUNTED}
    assert counts["fields.vmul"] > 0 and counts["curves._add_raw"] > 0
    assert counts["fields._pmul"] > 0 and counts["curves.draw_point"] > 0
