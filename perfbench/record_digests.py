"""Record reference result digests for the benchmark.

    python3 perfbench/record_digests.py SEED [SEED ...]

Runs each workload's fixed slice (``trace_ops`` operations, untraced) for
every given seed and merges the digests into ``perfbench/digests.json``.
``run.py`` then fails a run whose digest differs.  Record only on a commit
whose results are trusted: every operation of the slice must agree with its
oracle, or nothing is written.
"""

import json
import sys
import time

from run import HERE, WORKLOAD_NAMES, run_child


def main(seeds):
    path = HERE / "digests.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for workload in WORKLOAD_NAMES:
        for seed in seeds:
            res = run_child(["--workload", workload, "--seed", str(seed),
                             "--mode", "fixed"], time.monotonic() + 600)
            if res["wrong"] or res["failed"]:
                sys.exit(f"{workload} seed {seed}: {res['wrong']} wrong, "
                         f"{res['failed']} failed; nothing recorded")
            refs.setdefault(workload, {})[str(seed)] = {
                "ops": res["digest_ops"], "digest": res["digest"]}
            print(workload, seed, res["digest"], flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
