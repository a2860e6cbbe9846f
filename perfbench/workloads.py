"""The benchmark's two workloads.

Each workload is a closed loop of one client: operation i starts only after
operation i - 1 returned.  A workload is a ``setup(seed)`` that builds the
fixed instances and plants what the seed decides, and an
``op(state, i, warm=False)`` that runs operation i and returns
``(digest_line, agrees_with_oracle)``.

A measured run first does ``warm_ops`` untimed warm-up operations (``warm``
set: they draw from their own random streams), which fill the library's
module caches, then times whole blocks of ``block_ops`` operations.  The
caches' first fill costs seconds in one operation and depends on the seed,
so timing it made the run-to-run spread larger than any change worth
measuring.  A block is a few whole rounds of the workload's operation mix
and takes about half a second; a reference kernel timed after each block
lets ``run.py`` scale the block's timings to the machine's unloaded speed.  ``min_ops`` is the fewest timed operations and the point
where peak RSS is read; ``trace_ops`` is the fixed slice that traced runs
execute from a cold process and that the result digest covers.

The seed drives only the planted ideals, the DDH trial draws and each
operation's ``rng``.  Instance parameters, and the seeds that construct the
instances, are fixed per workload (the ones in ``tests/conftest.py`` and the
README), so a new seed never lands on a different curve.

Every oracle is independent of the pairing path: DDH guesses come from the
hidden norms, recovered roots from the planted class.  Digest lines hold
only what a legitimate optimisation cannot change (no dlog, no degree, no
timing).
"""

import random

from weilchar import action, ddh, roots
from weilchar.quadforms import Character, char_eval_norm, compose, reduce_form


def _rng(workload, seed, *tag):
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(x) for x in (workload, seed) + tag))


class DdhSupersingular:
    """One op = one DDH trial: ``ddh.sample_triple`` then ``ddh.distinguish``
    with ``delta`` on the README's p = 101 supersingular instance, trials
    alternating dh/random as ``ddh.run_experiment`` does.  A round is one
    dh and one random trial; the first trials of a process take three times
    as long as later ones, hence the warm-up."""

    name = "ddh-supersingular"
    min_ops = trace_ops = 80
    block_ops = 10
    warm_ops = 10

    def setup(self, seed):
        base = action.gen_supersingular_instance(101)
        return {"seed": seed, "base": base, "chars": [Character("delta", 4)]}

    def op(self, state, i, warm=False):
        mode = "dh" if i % 2 == 0 else "random"
        rng = _rng(self.name, state["seed"], "warm" if warm else "trial", i)
        triple = ddh.sample_triple(state["base"], mode, rng)
        guess = ddh.distinguish(triple.public_view(), state["chars"], rng)
        na, nb, nc = triple.hidden_norms
        oracle = "dh"
        for ch in state["chars"]:
            if char_eval_norm(ch, nc) != char_eval_norm(ch, na) * char_eval_norm(ch, nb):
                oracle = "random"
        ok = guess == oracle and (mode == "random" or guess == "dh")
        return f"{mode}:{guess}", ok


class SqrtRecover:
    """One op = plant ``random_smooth_class`` -> ``apply_smooth_ideal``, then
    ``roots.recover_root`` on the square of the planted class.

    The roster is criterion 6's, 2-ranks 0 to 3.  D = 8784 (q = 2221, t = 10)
    is left out on purpose: 3^2 divides D, so sigma is imprimitive at 3 and
    every recovery fails by design.

    The first operations fill the action caches (``eigen_kernel`` for every
    split prime of the sampler) and cost up to seconds each; after about
    sixty operations they take 10 ms on average, q = 2221 the most.  The
    warm-up runs those sixty, so the timed region does not mix a cold
    phase of seed- and speed-dependent length into its throughput.  A
    round is one recovery on each instance of the roster.
    """

    name = "sqrt-recover"
    min_ops = 400
    trace_ops = 40
    block_ops = 40
    warm_ops = 60
    ROSTER = ((17, 3, 1, 5), (7, 2, 1, 5), (31, 2, 1, 5), (2221, 92, 0, 7))

    def setup(self, seed):
        roster = [(action.make_instance(q, t, random.Random(s)), bound)
                  for q, t, s, bound in self.ROSTER]
        return {"seed": seed, "roster": roster}

    def op(self, state, i, warm=False):
        oc, bound = state["roster"][i % len(state["roster"])]
        pre = "warm-" if warm else ""
        ideal = action.random_smooth_class(
            oc, _rng(self.name, state["seed"], pre + "plant", i),
            exp_bound=bound)
        target = action.apply_smooth_ideal(oc, ideal)
        c = ideal.class_form
        rec = roots.recover_root(
            oc, target, compose(c, c),
            rng=_rng(self.name, state["seed"], pre + "op", i))
        got = rec.recovered
        return f"{oc.D}:{got.a},{got.b},{got.c}", got == reduce_form(c)


WORKLOADS = {w.name: w for w in (DdhSupersingular(), SqrtRecover())}
