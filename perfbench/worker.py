"""One workload process of the benchmark.  ``run.py`` starts it; it is not
meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--ops N] [--trace-file PATH]

MODE ``setup`` builds the workload and reports only the set-up time.
MODE ``measure`` also runs the workload's untimed warm-up (skipped when
``--ops`` is given), then the timed closed loop until ``--seconds`` have
passed, at least ``--ops`` operations are done (default: the workload's
``min_ops``) and the last block is whole.  MODE ``fixed`` runs exactly
``--ops`` operations (default: the workload's ``trace_ops``) from a cold
process, without warm-up.  The digest covers the first ``--ops`` (default
``trace_ops``) timed results.  Peak RSS is read when the ``--ops`` (default
``min_ops``) operation completes, so that it does not grow with however
many more operations a faster machine fits into ``--seconds``.
``--trace-file`` turns tracing on and writes the spans there.  Every run
times ``reference_s`` after set-up (median of five); untraced runs also
time it after every block.  The last line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

T_START = time.perf_counter()


def reference_s():
    """Time of a fixed pure-Python kernel that calls no library code.

    ``run.py`` divides the timings taken next to it by this one, so that
    the speed of a shared machine, which drifts by up to half for minutes
    at a time, cancels out."""
    start = time.perf_counter()
    acc = 0
    for k in range(40000):
        acc = (acc * 31 + k) % 1000003
    return time.perf_counter() - start


def peak_rss_kib():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "fixed"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_file:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # set-up time counts the library import, as a fresh CLI run pays it
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s,
           "setup_ref_s": statistics.median(reference_s() for _ in range(5))}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    fixed = args.ops if args.ops is not None else workload.trace_ops
    floor = args.ops if args.ops is not None else workload.min_ops
    cold = args.mode != "measure" or args.ops is not None
    warm_ops = 0 if cold else workload.warm_ops
    digest = hashlib.sha256()
    latencies, failed, wrong = [], 0, 0

    def run_op(i, warm=False):
        nonlocal failed, wrong
        try:
            line, ok = workload.op(state, i, warm)
        except Exception as exc:        # an op that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            line, ok = f"error:{type(exc).__name__}", None
        if ok is None:
            failed += 1
        elif not ok:
            wrong += 1
        return line

    clock = time.perf_counter
    w0 = clock()
    for i in range(warm_ops):
        run_op(i, warm=True)
    # one reference sample after each block, none in traced runs, whose
    # timed region must hold only library work
    block_ref_s = []
    sample_ref = tracer is None
    rss_kib = None
    t0 = clock()
    i = 0
    while True:
        if args.mode == "fixed":
            if i >= fixed:
                break
        elif (i >= floor and i % workload.block_ops == 0
              and clock() - t0 >= args.seconds):
            break
        start = clock()
        line = run_op(i)
        latencies.append(clock() - start)
        if i < fixed:
            digest.update(line.encode() + b"\n")
        i += 1
        if sample_ref and i % workload.block_ops == 0:
            block_ref_s.append(reference_s())
        if i == floor:
            rss_kib = peak_rss_kib()
    t1 = clock()
    if sample_ref and i % workload.block_ops:
        block_ref_s.append(reference_s())
    if rss_kib is None:
        rss_kib = peak_rss_kib()

    out.update({
        "ops": i,
        "warm_ops": warm_ops,
        "block_ops": workload.block_ops,
        "warm_s": t0 - w0,
        "elapsed_s": t1 - t0,
        "failed": failed,
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "digest_ops": min(i, fixed),
        "latencies": latencies,
        "block_ref_s": block_ref_s,
        "peak_rss_mb": rss_kib / 1024,
    })
    if tracer is not None:
        out["per_layer"] = tracer.metrics((t0, t1))
        out["absent"] = tracer.absent
        tracer.dump(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
