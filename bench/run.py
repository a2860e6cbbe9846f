"""Cold-path benchmark: the runs that perfbench's warm workloads leave out.

    python3 bench/run.py [--side LABEL=DIR ...] > BENCH_<n>.json

Workloads, each timed in fresh processes:

- ``readme-chi7``: the README's ``weilchar eval-char pair.json --seed 7``
  on the README pair (``gen-instance`` of ``{"mode": "ordinary", "q": 23,
  "t": 6, "plant": true}``, made once, outside the timed runs): the
  command's wall time and chi_7's ``extension_ms``, ``side_base_ms`` and
  ``total_ms``;
- ``ladder``: criterion 7's ladder, ``eval_character`` of chi_m on the
  identity pair of ``make_instance(120121, 2, Random(0))`` for m = 3, 5,
  7, 11, 13 drawing from one ``Random(4)``: per m the wall time,
  ``extension_ms`` and ``side_base_ms``, and whether the walls increase
  with m, which is the test's gate;
- ``make-extension``: ``fields.make_extension(23, 42)``;
- ``sqrt-fill``: perfbench's sqrt-recover set-up at seed 3 plus its 60
  warm-up operations, the cold fill of the action caches;
- ``instance-search``: perfbench's sqrt-recover set-up at seed 3 alone,
  four ``make_instance`` searches, then the ladder's
  ``make_instance(120121, 2, Random(0))``, each timed.

A side is a checkout whose ``src/`` the child processes import (default:
this one, labelled ``this``).  Each workload runs RUNS rounds; a round
runs every side once, in the given order and reversed in alternate
rounds, so two sides give RUNS alternating pairs.  Each workload is
reported as the median and the list of its timed runs.  One more process
per side and workload counts operations with perfbench's ``Tracer``, which
wraps library functions from outside, so the timed runs carry no counting
cost; the counts are deterministic.  The JSON on stdout holds each side's
git sha and ``src_lines``, the lines of its ``src/weilchar/*.py`` (as
``wc -l`` counts them), the machine, and per workload and side the
timings and counts.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("readme-chi7", "ladder", "make-extension", "sqrt-fill",
             "instance-search")
LADDER = (3, 5, 7, 11, 13)
RUNS = 10           # timed rounds of each workload

# (count name, module, attribute path) of every counted library function
COUNTED = (
    ("fields.vmul", "fields", "FieldTower.vmul"),
    ("fields.vinv", "fields", "FieldTower.vinv"),
    ("fields.vsqrt", "fields", "FieldTower.vsqrt"),
    ("fields.frobenius", "fields", "FieldTower.frobenius"),
    ("fields._pmul", "fields", "_pmul"),
    ("curves._add_raw", "curves", "_add_raw"),
    ("curves.draw_point", "curves", "Curve.draw_point"),
    ("curves.sample_m_torsion", "curves", "sample_m_torsion"),
    ("curves.count_points", "curves", "count_points"),
    ("curves._mul_fp", "curves", "_mul_fp"),
)


def count_ops(run) -> dict:
    """The calls of the COUNTED functions while run() runs, wrapped by
    perfbench's Tracer as its traced runs are.  The wrappers stay on: a
    count runs in a process of its own.  action is loaded first, so the
    names it imports from curves (count_points, _mul_fp) are wrapped in it
    as well."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Tracer
    tracer = Tracer()
    importlib.import_module("weilchar.action")
    modules = {mod: importlib.import_module("weilchar." + mod)
               for _, mod, _ in COUNTED}
    for name, mod, path in COUNTED:
        tracer._patch(modules, name, mod, path,
                      lambda fn, n=name: tracer._count(n, fn))
    run()
    return {name: tracer.counts[name] for name, _, _ in COUNTED}


def _timed(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) * 1e3, out


def readme_chi7(pair: str) -> dict:
    """The README eval-char run on pair, in process."""
    from weilchar import attack, cli
    results = {}
    evaluate = attack.eval_character

    def observed(*args, **kwargs):
        res = evaluate(*args, **kwargs)
        results[res.char.label] = res
        return res

    attack.eval_character = observed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            wall, code = _timed(lambda: cli.main(["eval-char", pair,
                                                  "--seed", "7"]))
    finally:
        attack.eval_character = evaluate
    if code != 0:
        raise RuntimeError(f"eval-char exited {code}")
    times = results["chi_7"].timings_ms
    return {"wall_ms": wall, **{f"chi_7.{k}": times[k] for k in
                                ("extension_ms", "side_base_ms", "total_ms")}}


def ladder(ms=LADDER) -> dict:
    """Criterion 7's ladder, in process, for the given moduli."""
    from weilchar.action import make_instance
    from weilchar.attack import eval_character
    from weilchar.quadforms import Character
    oc = make_instance(120121, 2, random.Random(0))
    rng = random.Random(4)
    out, walls = {}, []
    for m in ms:
        wall, res = _timed(lambda: eval_character(oc, oc, Character("chi", m),
                                                  rng))
        if res.value != 1:
            raise RuntimeError(f"chi_{m} on the identity pair is {res.value}")
        walls.append(wall)
        out[f"m{m}.wall_ms"] = wall
        for key in ("extension_ms", "side_base_ms"):
            out[f"m{m}.{key}"] = res.timings_ms[key]
    out["gate_holds"] = walls == sorted(walls)
    return out


def make_extension() -> dict:
    from weilchar.fields import make_extension as build
    return {"wall_ms": _timed(lambda: build(23, 42))[0]}


def sqrt_fill() -> dict:
    """perfbench's sqrt-recover set-up at seed 3 and its warm-up ops."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SqrtRecover
    work = SqrtRecover()

    def fill():
        state = work.setup(3)
        for i in range(work.warm_ops):
            work.op(state, i, warm=True)

    return {"wall_ms": _timed(fill)[0]}


def instance_search() -> dict:
    """perfbench's sqrt-recover set-up at seed 3, then the ladder's
    instance, each timed on its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SqrtRecover
    from weilchar.action import make_instance
    return {"setup_ms": _timed(lambda: SqrtRecover().setup(3))[0],
            "q120121_ms": _timed(lambda: make_instance(
                120121, 2, random.Random(0)))[0]}


def child(name: str, count: bool, args: list) -> dict:
    """One run of a workload in this process, or with count its op counts.
    args: the pair's path for readme-chi7, the moduli for the ladder
    (default: LADDER)."""
    run = {"readme-chi7": lambda: readme_chi7(*args),
           "ladder": lambda: ladder(tuple(map(int, args)) or LADDER),
           "make-extension": make_extension, "sqrt-fill": sqrt_fill,
           "instance-search": instance_search}[name]
    return count_ops(run) if count else run()


def _spawn(src: Path, name: str, count: bool, *args: str) -> dict:
    """child(name, count, args) in a fresh process importing src/src."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           *args] + (["--count"] if count else [])
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{name} failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha(src: Path) -> str:
    """HEAD of the checkout, with "-dirty" if tracked files differ."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=src, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD") or "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _src_lines(src: Path) -> int:
    """The newlines of the checkout's src/weilchar/*.py, as wc -l counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "src" / "weilchar").glob("*.py"))


def _machine() -> dict:
    model = ""
    try:
        model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "system": platform.system(),
            "machine": platform.machine(), "cpu": model,
            "nproc": os.cpu_count()}


def _summary(runs: list) -> dict:
    """Per key the median over the runs and the runs themselves; booleans
    as the number of runs in which they held."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if isinstance(values[0], bool):
            out[key] = {"held": sum(values), "runs": len(values)}
        else:
            out[key] = {"median": round(statistics.median(values), 3),
                        "runs": [round(v, 3) for v in values]}
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", metavar="LABEL=DIR",
                    help="a checkout to measure (repeatable; default: this "
                         "one as 'this')")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        name, *rest = args.child
        print(json.dumps(child(name, args.count, rest)))
        return
    sides = dict(s.split("=", 1) for s in args.side or [f"this={ROOT}"])
    sides = {label: Path(d).resolve() for label, d in sides.items()}
    report = {"machine": _machine(), "rounds": RUNS,
              "sides": {label: _git_sha(d) for label, d in sides.items()},
              "src_lines": {label: _src_lines(d)
                            for label, d in sides.items()},
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        pair = str(Path(tmp) / "pair.json")
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"mode": "ordinary", "q": "23", "t": "6",
                                   "plant": True}))
        first = next(iter(sides.values()))
        subprocess.run([sys.executable, "-m", "weilchar.cli", "gen-instance",
                        "--config", str(cfg), "--out", pair], check=True,
                       capture_output=True, timeout=600,
                       env=dict(os.environ, PYTHONPATH=str(first / "src")))
        for name in WORKLOADS:
            args = [pair] if name == "readme-chi7" else []
            runs = {label: [] for label in sides}
            order = list(sides)
            for i in range(RUNS):
                for label in order[::-1] if i % 2 else order:
                    runs[label].append(_spawn(sides[label], name, False,
                                              *args))
            report["workloads"][name] = {
                label: {**_summary(runs[label]),
                        "ops": _spawn(sides[label], name, True, *args)}
                for label in sides}
            print(f"{name}: done", file=sys.stderr)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
