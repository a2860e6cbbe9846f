"""Benchmark of the weilchar library: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/``.
Workloads and the reason for each are in ``BENCHMARK.json`` and
``perfbench/workloads.py``.

Each measured run is a fresh single-threaded process (``worker.py``).  Its
untimed warm-up fills the library's module caches, which a cold ``weilchar``
CLI run fills in its first operations, and then it times whole blocks of
the workload for ``--seconds``.  A fixed pure-Python kernel is timed after
every block and after set-up, and every reported time is scaled to the
kernel's speed on an unloaded machine (see ``at_reference_speed``).

``--trace 0`` prints the end-to-end metrics.  Set-up is repeated in
``SETUP_SAMPLES`` fresh processes, half of them before the measuring one and
half after it, and its median reported, so set-up time is steady and work
moved into set-up shows.

``--trace 1`` prints the per-layer metrics.  It runs the workload's fixed
slice (``trace_ops`` operations from a cold process, so the cache fill the
warm-up takes out of the end-to-end figures shows here) twice, untraced and
traced, with the same seed: the ratio of their summed operation times is
``trace_overhead_ratio``, the two result digests must agree, and the counts
repeat exactly from run to run.  Spans are written to ``perfbench/out/``.

``failed_ratio`` and ``wrong_ratio`` are printed on their own lines and carried
by the result's ``failed`` and ``correct`` keys; they are not metrics in the
JSON because a correct run has them at 0.

Every operation is checked against an independent oracle, and the digest of
the first operations is compared with ``perfbench/digests.json`` when that
file holds a reference for the seed.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
# the time of worker.reference_s on an unloaded core of the 2-core 2.1 GHz
# Xeon virtual machine the benchmark was sized on; every reported time is
# in seconds at that speed
REF_S = 0.003
BUDGET_S = 175          # the whole run, every child included
WORKLOAD_NAMES = ("ddh-supersingular", "sqrt-recover")


class ChildFailed(Exception):
    pass


def header():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {"git_sha": sha or "unknown",
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "loadavg": loadavg}


def run_child(args, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # bytecode is cached by the first child, so set-up and memory do not
    # depend on whether the caller's environment forbids writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker ran past the time budget: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def at_reference_speed(res):
    """The run's per-operation latencies, each scaled by ``REF_S`` over the
    reference time sampled right after its block.

    On a shared host the machine slows by up to half for seconds to many
    minutes at a time, whenever other tenants load it.  Raw timings then
    measured mostly how much of a run was slowed: in one set of ten runs
    DDH throughput fell from 23 to 16 trials per second when such a
    stretch began and stayed there for ten minutes.  The reference kernel
    slows with the machine in step with the library: over four minutes,
    ten-second means of a DDH block's time varied by 58% and its ratio to
    the kernel's time by 16%.  The scaled latencies are what the run would
    have measured at the machine's unloaded speed."""
    k = res["block_ops"]
    refs = res["block_ref_s"]
    return [t * REF_S / refs[i // k] for i, t in enumerate(res["latencies"])]


def quantiles(latencies):
    """(median, tail, tail percentile) of the per-operation latencies; the
    tail is None below eleven samples.

    The median is the interquartile mean, the mean of the middle half of the
    sorted latencies: sqrt-recover's four instances cost from 0.2 to 19 ms,
    and a single order statistic jumped between their clusters.  The tail
    rank is the highest with at least ten samples beyond it, capped at p95,
    and the tail is the mean of the twentieth of the samples that ends at
    that rank."""
    xs = sorted(latencies)
    n = len(xs)
    middle = xs[n // 4:n - n // 4]
    median = sum(middle) / len(middle)
    if n < 11:
        return median, None, None
    k = min(n - 11, math.ceil(0.95 * n) - 1)
    top = xs[k - n // 20:k + 1]
    return median, sum(top) / len(top), 100.0 * (k + 1) / n


def check_digest(workload, seed, result):
    """'match', 'MISMATCH' or 'no reference' against digests.json."""
    try:
        refs = json.loads((HERE / "digests.json").read_text())
    except FileNotFoundError:
        refs = {}
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None or ref["ops"] != result["digest_ops"]:
        return "no reference"
    return "match" if ref["digest"] == result["digest"] else "MISMATCH"


def end_to_end(args, base, deadline):
    def setup_at_reference_speed(res):
        return res["setup_s"] * REF_S / res["setup_ref_s"]

    def setup_samples(k):
        return [setup_at_reference_speed(
                    run_child(base + ["--mode", "setup"], deadline))
                for _ in range(k)]

    # the machine's speed drifts over tens of seconds: sample set-up on
    # both sides of the measured process
    setups = setup_samples(SETUP_SAMPLES // 2)
    mode = (["--mode", "fixed", "--ops", str(args.ops)] if args.ops
            else ["--mode", "measure", "--seconds", str(args.seconds)])
    res = run_child(base + mode, deadline)
    setups.append(setup_at_reference_speed(res))
    setups += setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    n = res["ops"]
    lat = at_reference_speed(res)
    median, tail, pct = quantiles(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(lat), "op/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "op_p50_s": (median, "s"),
    }
    if tail is not None:
        metrics["op_tail_s"] = (tail, "s")
    refs = res["block_ref_s"]
    raw_median, _, _ = quantiles(res["latencies"])
    print(f"warm-up {res['warm_ops']} ops in {res['warm_s']:.3f} s; "
          f"timed {n} ops in {res['elapsed_s']:.3f} s")
    print(f"unscaled: {n / sum(res['latencies']):.4g} op/s, op_p50_s "
          f"{raw_median:.4g} s; reference kernel {min(refs):.5f} to "
          f"{max(refs):.5f} s over {len(refs)} blocks (REF_S {REF_S} s)")
    print("set-up samples at reference speed "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"op_tail_s is p{pct:.1f} of n={n}" if tail is not None else
          f"op_tail_s omitted: n={n} < 11")
    attempted = n + res["warm_ops"]
    print(f"failed_ratio {res['failed'] / attempted:.6f}  "
          f"wrong_ratio {res['wrong'] / attempted:.6f}")
    return res, metrics


def per_layer(args, base, deadline, trace_file):
    fixed = ["--mode", "fixed"] + (["--ops", str(args.ops)] if args.ops else [])
    plain = run_child(base + fixed, deadline)
    res = run_child(base + fixed + ["--trace-file", str(trace_file)], deadline)
    if plain["digest"] != res["digest"]:
        print("traced digest differs from the untraced one")
        res["wrong"] += 1
    layer = dict(res["per_layer"])
    # operation times only: the untraced run also times the reference kernel
    layer["trace_overhead_ratio"] = (sum(res["latencies"])
                                     / sum(plain["latencies"]))
    metrics = {name: (layer.get(name, 0), unit) for name, unit in per_layer_names()}
    print(f"ops {res['ops']}; timed region untraced {plain['elapsed_s']:.3f} s, "
          f"traced {res['elapsed_s']:.3f} s; spans in {trace_file}")
    print("inclusive share of the timed region: " + ", ".join(
        f"{k.split('.')[0]} {v:.3f}" for k, v in layer.items()
        if k.endswith(".inclusive_share")))
    if res["absent"]:
        print("absent (reported as 0): " + ", ".join(res["absent"]))
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many operations (short slices)")
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be at least 1")

    if not (ROOT / "src" / "weilchar" / "__init__.py").is_file():
        print(f"no weilchar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print("header " + json.dumps(header()))
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            res, metrics = per_layer(args, base, deadline, trace_file)
        else:
            res, metrics = end_to_end(args, base, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    digest = check_digest(args.workload, args.seed, res)
    print(f"digest {res['digest']} over {res['digest_ops']} ops: {digest}")
    print(json.dumps({
        "correct": res["wrong"] == 0 and digest != "MISMATCH",
        "attempted": res["ops"] + res["warm_ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
