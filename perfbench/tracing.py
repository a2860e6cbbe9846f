"""Outside-in tracing of the weilchar library for the benchmark's traced runs.

Public functions are wrapped from here, never edited in ``src/``.  A wrapper
replaces the function on its own module and on every other ``weilchar.*``
module whose globals hold the same object, because the library imports by
name.  Wrappers pass arguments, results and exceptions through untouched and
draw no randomness, so a traced run computes exactly what an untraced one
does.

Two kinds of wrapper exist:

- a *span* records (name, start, end, parent) in memory; self time is the
  span's duration minus the durations of its direct children;
- a *count* only increments a counter.  The hot entry points (field
  multiplication, point addition, form composition) get counts so that the
  traced run stays close to the untraced one.

A layer's inclusive share is the part of the timed region spent inside its
outermost spans, callees in other layers included.  The fields layer has
only ``make_extension`` timed, so its share is that of extension building.

A name that a later refactor removes is listed in ``absent`` and its metrics
read 0; it never crashes the run.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("fields", "curves", "pairing", "action", "attack", "ddh", "roots",
          "quadforms")

# (metric prefix, module, attribute path) of every timed entry point
SPANS = (
    ("fields.make_extension", "fields", "make_extension"),
    ("curves.torsion_extension_degree", "curves", "torsion_extension_degree"),
    ("curves.torsion_basis", "curves", "torsion_basis"),
    ("curves.sample_m_torsion", "curves", "sample_m_torsion"),
    ("curves.scalar_mul", "curves", "scalar_mul"),
    ("curves.random_point", "curves", "Curve.random_point"),
    ("curves.velu_isogeny", "curves", "velu_isogeny"),
    ("curves.count_points", "curves", "count_points"),
    ("pairing.weil_pairing", "pairing", "weil_pairing"),
    ("action.eigen_kernel", "action", "eigen_kernel"),
    ("action.apply_prime_ideal", "action", "apply_prime_ideal"),
    ("action.canonical_model", "action", "canonical_model"),
    ("action.random_smooth_class", "action", "random_smooth_class"),
    ("action.smooth_in_class", "action", "smooth_in_class"),
    ("action.make_instance", "action", "make_instance"),
    ("attack.eval_character", "attack", "eval_character"),
    ("ddh.sample_triple", "ddh", "sample_triple"),
    ("ddh.distinguish", "ddh", "distinguish"),
    ("roots.recover_root", "roots", "recover_root"),
    ("quadforms.enumerate_class_group", "quadforms", "enumerate_class_group"),
    ("quadforms.two_torsion_and_sqrt", "quadforms", "two_torsion_and_sqrt"),
    ("quadforms.verify_character_relation", "quadforms",
     "verify_character_relation"),
)

# (metric name, module, attribute path) of every counted entry point
COUNTS = (
    ("fields.mul.count", "fields", "FieldTower.vmul"),
    ("fields.inv.count", "fields", "FieldTower.vinv"),
    ("fields.sqrt.count", "fields", "FieldTower.vsqrt"),
    ("fields.frobenius.count", "fields", "FieldTower.frobenius"),
    ("curves.point_add.count", "curves", "point_add"),
    ("quadforms.compose.count", "quadforms", "compose"),
    ("quadforms.reduce_form.count", "quadforms", "reduce_form"),
)

# ratios derived from spans and from the results the wrappers observe
RATIOS = (
    "action.step_hit_ratio",
    "attack.pairings_per_eval",
    "attack.sigma_evals_per_eval",
    "ddh.evals_per_trial",
    "roots.candidates_per_recovery",
)


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for prefix, _, _ in SPANS:
        out.append((prefix + ".calls", "count"))
        out.append((prefix + ".self_s", "s"))
    out += [(name, "count") for name, _, _ in COUNTS]
    out += [(name, "1") for name in RATIOS]
    out += [(layer + ".inclusive_share", "1") for layer in LAYERS]
    out.append(("trace_overhead_ratio", "1"))
    return out


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.absent = []
        # values read off results: sum of sigma_evals, of candidates_tested
        self.observed = Counter()
        self._stack = []

    # -- installation -------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module("weilchar." + name)
                   for name in LAYERS}
        observers = {
            "attack.eval_character": self._observe_eval,
            "roots.recover_root": self._observe_recovery,
        }
        for prefix, mod, path in SPANS:
            self._patch(modules, prefix, mod, path,
                        lambda fn, p=prefix: self._span(p, fn, observers.get(p)))
        for name, mod, path in COUNTS:
            self._patch(modules, name, mod, path,
                        lambda fn, n=name: self._count(n, fn))

    def _patch(self, modules, name, mod, path, make):
        owner = modules[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if outer:
            return          # a method: every caller looks it up on the class
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("weilchar"):
                continue
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    space[key] = wrapped

    def _span(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_eval(self, result):
        self.observed["sigma_evals"] += getattr(result, "sigma_evals", 0)

    def _observe_recovery(self, result):
        self.observed["candidates"] += getattr(result, "candidates_tested", 0)

    # -- aggregation --------------------------------------------------

    def metrics(self, window):
        """Per-layer metrics.  Calls, counts and self time cover the whole
        process (set-up included, so ``make_instance`` shows); inclusive
        layer shares cover only the timed region ``window`` = (start, end)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield spans[parent][0]
                parent = spans[parent][3]

        evals = calls["attack.eval_character"]
        pairings_in_evals = sum(
            1 for i, s in enumerate(spans) if s[0] == "pairing.weil_pairing"
            and "attack.eval_character" in ancestors(i))
        evals_in_trials = sum(
            1 for i, s in enumerate(spans) if s[0] == "attack.eval_character"
            and "ddh.distinguish" in ancestors(i))
        steps = calls["action.apply_prime_ideal"]

        t0, t1 = window
        timed = max(t1 - t0, 1e-12)
        inclusive = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            layer = name.split(".")[0]
            if (t0 <= start and end <= t1 and all(
                    a.split(".")[0] != layer for a in ancestors(i))):
                inclusive[layer] += end - start

        out = {}
        for prefix, _, _ in SPANS:
            out[prefix + ".calls"] = calls[prefix]
            out[prefix + ".self_s"] = self_s[prefix]
        for name, _, _ in COUNTS:
            out[name] = self.counts[name]
        out["action.step_hit_ratio"] = (
            1 - calls["curves.velu_isogeny"] / steps if steps else 0.0)
        out["attack.pairings_per_eval"] = (
            pairings_in_evals / evals if evals else 0.0)
        out["attack.sigma_evals_per_eval"] = (
            self.observed["sigma_evals"] / evals if evals else 0.0)
        trials = calls["ddh.distinguish"]
        out["ddh.evals_per_trial"] = evals_in_trials / trials if trials else 0.0
        recoveries = calls["roots.recover_root"]
        out["roots.candidates_per_recovery"] = (
            self.observed["candidates"] / recoveries if recoveries else 0.0)
        for layer in LAYERS:
            out[layer + ".inclusive_share"] = inclusive[layer] / timed
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
