"""Benchmark harness: cold runs and per-layer costs, checkouts alternating.

It times the cold runs that perfbench's warm workloads leave out, and
the per-call cost of each layer.

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
- ``instance-search``: ``make_instance(q, t, Random(seed))`` for each row
  of perfbench's sqrt-recover roster, which is that workload's set-up,
  then the ladder's ``make_instance(120121, 2, Random(0))``, each timed
  as ``q<q>_ms``;
- ``layers``: the cost of each layer, each time one timeit run of
  LAYER_CALLS calls (1/100 of them for ``count_points``, the order
  filter's pass over a search's candidates and the class-group rows), in
  microseconds per call: the genus sweep up to SWEEP_MAX_D (seconds and
  peak RSS), the field kernels of each of TOWERS, F_p ``scalar_mul``,
  ``count_points`` and the instance search's order filter, the steps of
  a warm pairing at each of CELLS, ``compose`` and ``reduce_form``, and
  the roster's square roots and root recovery, cold and warm (see
  ``layers``).

A side is a checkout whose ``bench/run.py`` runs the child processes on
its own ``src/`` (default: this one, labelled ``this``), so a side is
timed by the harness of its own tree, whatever names it calls.  The
end-to-end and count keys of two sides are comparable; a per-layer key
(``layers``) is so only where both harnesses time the same steps, which
a change that moves a layer's steps names in CHANGES.md.  Each workload
runs RUNS rounds; a round runs every side once, in the given order and
reversed in alternate rounds, so two sides give RUNS alternating pairs.
Each key of a workload is reported as the median and the list of its
timed runs.
Each timed run also reports ``host.reference_us``: perfbench's
``reference_s``, a fixed pure-Python loop timed right after the workload,
so a report shows the host's speed phase in every round.  One
more process per side and workload counts operations with perfbench's
``Tracer``, which wraps library functions from outside, so the timed runs
carry no counting cost; the counts are deterministic (``layers``, whose
calls are fixed repetitions, gets none).  That process also reports, as
``memo.<name>.entries``, how many entries each memo of ``cache_stats()``
holds after the run: the kernels, root constants and class products a cold
workload built.

``bench/opcounts.json`` is the ledger of two such count dicts, under
``ladder 3`` and ``instance-search``, which ``tests/test_bench.py``
asserts equal.  A change that moves a count rewrites its entry, the
output of ``PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/run.py --child
<name> [args] --count``, and lists each moved count in CHANGES.md.

The JSON on stdout holds per side (``sides``) the sha256 of its
``src/weilchar/*.py`` and (``src_lines``) their lines as ``wc -l``
counts them, the machine, and per workload and side the timings and
counts.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from functools import cache, partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("readme-chi7", "ladder", "make-extension", "sqrt-fill",
             "instance-search", "layers")
LADDER = (3, 5, 7, 11, 13)
RUNS = 10           # timed rounds of each workload

# layers: calls per timed key, and the largest D of the genus sweep
LAYER_CALLS = 1000
SWEEP_MAX_D = 5000
# towers of the field kernels: (23, 42) is the README's, (2221, 3) and
# (2221, 12) are Kummer towers, and from (23, 12) on they bracket the
# product crossover fields.UNROLLED_MUL_MAX_R (building (23, 30) and
# (23, 42) searches their moduli for about 1.5 s each)
TOWERS = ((101, 2), (101, 4), (101, 12), (120121, 7), (23, 42),
          (2221, 3), (2221, 12), (23, 12), (23, 16), (23, 20), (23, 24),
          (23, 30), (101, 14), (101, 16), (120121, 14), (120121, 16))
# (p, r, m) of the benchmark's pairings: the ddh base at p = 101 and the
# sqrt-recover roster, each on its instance's curve over F_{p^r}
CELLS = ((101, 4, 4), (7, 3, 3), (31, 3, 3), (2221, 3, 3))
# (p, a4, a6): the roster's curve at 2221 and the ladder's
CURVES = ((2221, 1668, 2145), (120121, 108144, 71009))

# (count name, module, attribute path) of every counted library function
COUNTED = (
    ("fields.vmul", "fields", "FieldTower.vmul"),
    ("fields.vinv", "fields", "FieldTower.vinv"),
    ("fields.vsqrt", "fields", "FieldTower.vsqrt"),
    ("fields.frobenius", "fields", "FieldTower.frobenius"),
    ("fields._frobenius_sum_power", "fields",
     "FieldTower._frobenius_sum_power"),
    ("fields._pmul", "fields", "_pmul"),
    ("curves._add_raw", "curves", "_add_raw"),
    ("curves.draw_point", "curves", "Curve.draw_point"),
    ("curves.sample_m_torsion", "curves", "sample_m_torsion"),
    ("curves.count_points", "curves", "count_points"),
    ("curves._mul_fp", "curves", "_mul_fp"),
)


def count_ops(run) -> dict:
    """The calls of the COUNTED functions while run() runs, wrapped by
    perfbench's Tracer as its traced runs are, then the entries of every
    memo.  The wrappers stay on: a count runs in a process of its own.
    action is loaded first, so the names it imports from curves
    (count_points, _mul_fp) are wrapped in it as well."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Tracer
    from weilchar.memo import cache_stats
    tracer = Tracer()
    importlib.import_module("weilchar.action")
    modules = {mod: importlib.import_module("weilchar." + mod)
               for _, mod, _ in COUNTED}
    for name, mod, path in COUNTED:
        tracer._patch(modules, name, mod, path,
                      lambda fn, n=name: tracer._count(n, fn))
    run()
    counts = {name: tracer.counts[name] for name, _, _ in COUNTED}
    counts.update((f"memo.{name}.entries", stats["entries"])
                  for name, stats in cache_stats().items())
    return counts


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


def _sqrt_recover():
    """perfbench's sqrt-recover workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SqrtRecover
    return SqrtRecover()


def sqrt_fill() -> dict:
    """perfbench's sqrt-recover set-up at seed 3 and its warm-up ops."""
    work = _sqrt_recover()

    def fill():
        state = work.setup(3)
        for i in range(work.warm_ops):
            work.op(state, i, warm=True)

    return {"wall_ms": _timed(fill)[0]}


def instance_search(qs=()) -> dict:
    """make_instance for each row of the roster, then the ladder's
    instance, each timed on its own; qs, if any, picks the rows by q."""
    from weilchar.action import make_instance
    out = {}
    rows = [row[:3] for row in _sqrt_recover().ROSTER] + [(120121, 2, 0)]
    for q, t, seed in rows:
        if not qs or q in qs:
            rng = random.Random(seed)
            out[f"q{q}_ms"] = _timed(lambda: make_instance(q, t, rng))[0]
    return out


@cache
def _instance(p: int):
    """The instance of a cell: the ddh base at p = 101, else the roster's."""
    from weilchar import action
    if p == 101:
        return action.gen_supersingular_instance(101)
    q, t, seed, _ = next(row for row in _sqrt_recover().ROSTER
                         if row[0] == p)
    return action.make_instance(q, t, random.Random(seed))


def _us(fn, calls: int) -> float:
    """Microseconds per call of fn over one timeit run of calls calls."""
    return timeit.timeit(fn, number=calls) / calls * 1e6


def layers(calls=LAYER_CALLS, max_D=SWEEP_MAX_D, towers=TOWERS,
           cells=CELLS) -> dict:
    """One run of every layer row, in process; see the helpers.  The
    genus sweep runs first, so its peak RSS is that of the imports and
    the sweep.  Millisecond-scale rows take calls // 100 calls (at
    least 1)."""
    out = _genus_sweep(max_D)
    for p, r in towers:
        out.update(_tower_row(p, r, calls))
    out.update(_curve_rows(calls))
    for cell in cells:
        out.update(_cell_row(*cell, calls))
    out.update(_class_group_rows(calls))
    return out


def _genus_sweep(max_D: int) -> dict:
    """Seconds and peak RSS (MiB) of verify_character_relation on every
    discriminant up to max_D."""
    from weilchar.quadforms import verify_character_relation
    t0 = time.perf_counter()
    for D in range(3, max_D + 1):
        if D % 4 in (0, 3) and not verify_character_relation(D)["ok"]:
            raise RuntimeError(f"the genus relation fails at D = {D}")
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {f"genus_sweep.D{max_D}.s": wall,
            f"genus_sweep.D{max_D}.rss_mb": rss}


def _tower_row(p: int, r: int, calls: int) -> dict:
    """The F_{p^r} kernels on one fixed random pair: both product paths,
    the unrolled schoolbook product and Kronecker substitution (vmul runs
    the first for r <= fields.UNROLLED_MUL_MAX_R), then vadd, vsub, vneg,
    vinv, the Frobenius map (k = 1), vnorm and a two-term vlin."""
    from weilchar import fields
    f = fields.get_tower(p, r)
    rng = random.Random(f"bench{p},{r}")
    u, v = f.random_value(rng), f.random_value(rng)
    unrolled = fields._unrolled_mul(p, r, f._low_terms)
    if unrolled(u, v) != f._kron_mul(u, v):
        raise RuntimeError(f"product paths disagree at ({p}, {r})")
    kernels = {"unrolled_mul": lambda: unrolled(u, v),
               "kron_mul": lambda: f._kron_mul(u, v),
               "vadd": lambda: f.vadd(u, v), "vsub": lambda: f.vsub(u, v),
               "vneg": lambda: f.vneg(u), "vinv": lambda: f.vinv(u),
               "frobenius": lambda: f.frobenius(u),
               "vnorm": lambda: f.vnorm(u),
               "vlin": lambda: f.vlin(0, ((1, u), (-4, v)))}
    return {f"tower.{p}^{r}.{name}_us": _us(fn, calls)
            for name, fn in kernels.items()}


def _curve_rows(calls: int) -> dict:
    """scalar_mul over F_2221 by (q + 1 - t)(q + 1 + t) at (q, t) = (2221,
    92), the 23-bit order make_instance's filter multiplied by before its
    two-point test, and by a 40-bit scalar; count_points at each of
    CURVES; and action._order_filter at (2221, 92), per candidate, over
    the candidates make_instance(2221, 92, Random(0)) draws."""
    from weilchar import action, curves
    from weilchar.fields import get_tower
    p, a4, a6 = CURVES[0]
    E = curves.Curve(get_tower(p), a4, a6)
    P = E.random_point(random.Random("bench-curves"))
    out = {}
    for bits, n in ((23, (p + 1 - 92) * (p + 1 + 92)),
                    (40, random.Random(40).getrandbits(39) | 1 << 39)):
        out[f"scalar_mul.{p}.{bits}bit_us"] = _us(
            lambda: curves.scalar_mul(E, n, P), calls)
    for p, a4, a6 in CURVES:
        E = curves.Curve(get_tower(p), a4, a6)
        curves.count_points(E)      # the table of root counts, built once
        out[f"count_points.{p}_us"] = _us(lambda: curves.count_points(E),
                                          max(1, calls // 100))
    filt, drawn = action._order_filter, []
    action._order_filter = lambda *args: drawn.append(args) or filt(*args)
    try:
        action.make_instance(2221, 92, random.Random(0))
    finally:
        action._order_filter = filt
    out["order_filter.2221_us"] = _us(
        lambda: [filt(*args) for args in drawn],
        max(1, calls // 100)) / len(drawn)
    return out


def _cell_row(p: int, r: int, m: int, calls: int) -> dict:
    """The steps of a warm pairing at (p, r, m), on the instance's curve
    over F_{p^r}, interpreted (the tower's traceable flag cleared, then
    restored) and compiled: the draw (curves._draw and _draw_kernel), the
    certificate (x([m]R) and x([m]S) by curves._x_multiple and
    _x_multiple_kernel, then their cross-multiplied comparison) and the
    descent test with the first kept root (else the least root of the
    cubic in F_p), as pairing._settle runs them; _settle on the first
    cell record's plan that keeps a root (else the first plan); and the
    warm side pairing, attack._side_pairing.  Then dlog_in_mu_m cold
    (its memos emptied) and warm; the milliseconds to trace and compile
    the draw kernel and the descent and x-multiple kernels; and the
    percentage of calls attempts, drawn for the plans in turn, that the
    descent tests with the plan's roots certify."""
    from weilchar import attack, curves, fields, pairing
    from weilchar.fields import FieldElement, dlog_in_mu_m
    f = fields.get_tower(p, r)
    oc = _instance(p)
    a4, a6 = oc.curve.a4.value, oc.curve.a6.value
    E = curves.Curve(f, a4, a6)
    rng = random.Random(f"bench{p},{r}")
    R, S = E.draw_point(rng), E.draw_point(rng)
    k = attack.adjust_generator(oc, m)
    side = oc if k == 0 else oc.shifted(k)
    attack._side_pairing(side, m, f, rng)    # the cell records
    key = (side, side.sigma_trace, side.sigma_norm, m, r)
    plans = [plan for a in range(m) for b in range(m)
             if (plan := attack._cell(*key, a, b)[3]) is not None]
    plan = next((x for x in plans if x[9]), plans[0])
    roots = plan[9] or (f.from_int(pairing._rational_roots(p, a4, a6)[0]),)
    raw = E.a4.value, E.a6.value
    parts = {"interp": (partial(curves._draw, f, *raw),
                        partial(pairing._descent_separates, f),
                        partial(curves._x_multiple, f, m)),
             "comp": (partial(curves._draw_kernel(f), *raw),
                      pairing._descent_kernel(f),
                      curves._x_multiple_kernel(f, m))}
    name, out, traceable = f"cell.{p}^{r}.m{m}.", {}, f.traceable

    def certificate(multiple):
        XR, ZR = multiple(a4, a6, R[0], R[1])
        XS, ZS = multiple(a4, a6, S[0], S[1])
        return f.vmul(XR, ZS) != f.vmul(XS, ZR)

    try:
        for path, (draw, descent, multiple) in parts.items():
            f.traceable = path == "comp"
            steps = {"draw": lambda: draw(rng),
                     "certificate": lambda: certificate(multiple),
                     "descent": lambda: descent(roots[0], R[0], S[0]),
                     "attempt": lambda: pairing._settle(plan, rng),
                     "side": lambda: attack._side_pairing(side, m, f, rng)}
            out.update((f"{name}{step}_{path}_us", _us(fn, calls))
                       for step, fn in steps.items())
    finally:
        f.traceable = traceable
    # a primitive m-th root of unity, and a target in mu_m
    while True:
        z = f.vpow(f.random_value(rng), (f.size - 1) // m)
        if z != f.zero and fields.element_order(FieldElement(f, z), m) == m:
            break
    b, t = FieldElement(f, z), FieldElement(f, f.vpow(z, m - 1))

    def cold():
        fields._dlog.cache_clear()
        fields.element_order.cache_clear()
        return dlog_in_mu_m(b, t, m)

    out[name + "dlog_cold_us"] = _us(cold, calls)
    out[name + "dlog_warm_us"] = _us(lambda: dlog_in_mu_m(b, t, m), calls)
    out[name + "compile_draw_ms"] = _timed(
        lambda: curves._draw_kernel.__wrapped__(f))[0]
    out[name + "compile_test_ms"] = _timed(lambda: (
        pairing._descent_kernel.__wrapped__(f),
        curves._x_multiple_kernel.__wrapped__(f, m)))[0]
    certified = 0
    for i in range(calls):
        xR, xS = E.draw_point(rng)[0], E.draw_point(rng)[0]
        certified += any(pairing._descent_separates(f, e, xR, xS)
                         for e in plans[i % len(plans)][9])
    out[name + "descent_share_pct"] = 100 * certified / calls
    return out


def _class_group_rows(calls: int) -> dict:
    """compose and reduce_form on forms of D = 420; then for each D of the
    roster two_torsion_and_sqrt and recover_root on a planted square,
    cold (the quadforms memos emptied before every call, the action
    caches warm) and warm."""
    from weilchar import action, quadforms, roots
    from weilchar.quadforms import QuadForm, compose, reduce_form
    f, g = quadforms.enumerate_class_group(420)[-2:]
    # g's class as (c, -b, a) translated by 3 steps of 2c: reduce_form
    # swaps and translates back
    b = -g.b + 6 * g.c
    far = QuadForm(g.c, b, (b * b + 420) // (4 * g.c))
    out = {"compose_us": _us(lambda: compose(f, g), calls),
           "reduce_form_us": _us(lambda: reduce_form(far), calls)}

    def cold(fn):
        def run():
            for memo in (quadforms.enumerate_class_group,
                         quadforms.class_group, quadforms.char_table):
                memo.cache_clear()
            return fn()
        return run

    for q, _, seed, bound in _sqrt_recover().ROSTER:
        oc = _instance(q)
        ideal = action.random_smooth_class(oc, random.Random(seed),
                                           exp_bound=bound)
        target = action.apply_smooth_ideal(oc, ideal)
        square = compose(ideal.class_form, ideal.class_form)

        def sqrt():
            return quadforms.two_torsion_and_sqrt(oc.D, square)

        def recover():
            return roots.recover_root(oc, target, square,
                                      rng=random.Random(seed))

        recover()       # the action caches, filled once
        for key, fn in (("sqrt_cold", cold(sqrt)), ("sqrt_warm", sqrt),
                        ("root_cold", cold(recover)), ("root_warm", recover)):
            out[f"D{oc.D}.{key}_us"] = _us(fn, max(1, calls // 100))
    return out


def _layer_args(args: list) -> tuple:
    """layers' arguments from CALLS MAX_D P,R ... P,R,M ..., or none."""
    if not args:
        return ()
    calls, max_D, *rows = args
    rows = [tuple(map(int, row.split(","))) for row in rows]
    return (int(calls), int(max_D), [x for x in rows if len(x) == 2],
            [x for x in rows if len(x) == 3])


def child(name: str, count: bool, args: list) -> dict:
    """One run of a workload in this process, then host.reference_us,
    perfbench's reference_s in microseconds, or with count its op counts.
    args: the pair's path for readme-chi7; the moduli for the ladder
    (default: LADDER); the rows' q for instance-search (default: all);
    for layers CALLS and MAX_D, then towers P,R and cells P,R,M (default:
    LAYER_CALLS, SWEEP_MAX_D, TOWERS and CELLS)."""
    run = {"readme-chi7": lambda: readme_chi7(*args),
           "ladder": lambda: ladder(tuple(map(int, args)) or LADDER),
           "make-extension": make_extension, "sqrt-fill": sqrt_fill,
           "instance-search": lambda: instance_search(
               tuple(map(int, args))),
           "layers": lambda: layers(*_layer_args(args))}[name]
    if count:
        return count_ops(run)
    out = run()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import reference_s
    out["host.reference_us"] = reference_s() * 1e6
    return out


def _spawn(src: Path, name: str, count: bool, *args: str) -> dict:
    """child(name, count, args) in a fresh process running src's harness
    on src/src."""
    cmd = [sys.executable, str(src / "bench" / "run.py"), "--child", name,
           *args] + (["--count"] if count else [])
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{name} failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _src_digest(src: Path) -> str:
    """sha256 over the checkout's src/weilchar/*.py in name order, each
    file as its name, its length and its bytes: the same for any copy of
    the tree, with or without .git."""
    digest = hashlib.sha256()
    for path in sorted((src / "src" / "weilchar").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


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
              "sides": {label: _src_digest(d) for label, d in sides.items()},
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
                label: _summary(runs[label]) for label in sides}
            if name != "layers":
                for label in sides:
                    report["workloads"][name][label]["ops"] = _spawn(
                        sides[label], name, True, *args)
            print(f"{name}: done", file=sys.stderr)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
