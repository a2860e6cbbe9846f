"""Decisional Diffie-Hellman experiment for the oriented-curve action.

Triples (t1, t2, t3) = ([a]E, [b]E, [c]E) are sampled with either [c] = [a][b]
or [c] fresh, and the distinguisher guesses which by testing whether every
supplied character satisfies chi([c]) = chi([a]) chi([b]).  Norms of the
sampled ideals ride along for oracle validation but live behind a separate
view type so the guessing path cannot touch them.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import NamedTuple

from .action import (OrientedCurve, SmoothIdeal, apply_smooth_ideal,
                     random_smooth_class)
from .attack import base_side, eval_character
from .quadforms import Character, char_eval_norm, class_number

PublicTriple = namedtuple("PublicTriple", ["base", "t1", "t2", "t3"])


class DdhTriple(NamedTuple):
    base: OrientedCurve
    t1: OrientedCurve
    t2: OrientedCurve
    t3: OrientedCurve
    ground_truth: str                 # "dh" | "random"
    hidden_norms: tuple               # (N(a), N(b), N(c)), oracle-only

    def public_view(self) -> PublicTriple:
        """What the distinguisher is allowed to see."""
        return PublicTriple(self.base, self.t1, self.t2, self.t3)


def _squared(ideal: SmoothIdeal, base: OrientedCurve) -> SmoothIdeal:
    return SmoothIdeal.from_factors(
        [(ell, lam, 2 * e) for (ell, lam, e) in ideal.factors], base)


def sample_triple(base: OrientedCurve, mode: str, rng,
                  exp_bound: int = 5, squares_only: bool = False) -> DdhTriple:
    """One experiment triple.  mode "dh" plants [c] = [a][b]; mode "random"
    draws [c] independently.  squares_only doubles every sampled exponent,
    confining all three classes to the subgroup of squares."""
    if mode not in ("dh", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if class_number(base.D) == 1:
        raise ValueError("trivial class group: triples are degenerate")

    def draw():
        ideal = random_smooth_class(base, rng, exp_bound=exp_bound)
        return _squared(ideal, base) if squares_only else ideal

    a, b = draw(), draw()
    t1 = apply_smooth_ideal(base, a)
    t2 = apply_smooth_ideal(base, b)
    if mode == "dh":
        t3 = apply_smooth_ideal(t1, b)
        norms = (a.norm, b.norm, a.norm * b.norm)
    else:
        c = draw()
        t3 = apply_smooth_ideal(base, c)
        norms = (a.norm, b.norm, c.norm)
    return DdhTriple(base, t1, t2, t3, mode, norms)


def distinguish(triple, chars: list, rng) -> str:
    """Guess "dh" iff chi([c]) = chi([a]) chi([b]) for every supplied
    character, where each value is read off the curve pair by eval_character
    against one base side per character.

    Accepts a full DdhTriple but immediately drops to the public view; only
    base and t1..t3 feed the evaluation.
    """
    view = triple.public_view() if isinstance(triple, DdhTriple) else triple
    if not chars:
        raise ValueError("need at least one character to test")
    for ch in chars:
        # the three targets share the base curve, so its pairing is drawn once
        side = base_side(view.base, ch, rng)
        va = eval_character(view.base, view.t1, ch, rng, side).value
        vb = eval_character(view.base, view.t2, ch, rng, side).value
        vc = eval_character(view.base, view.t3, ch, rng, side).value
        if vc != va * vb:
            return "random"
    return "dh"


def _oracle_guess(norms: tuple, chars: list) -> str:
    na, nb, nc = norms
    for ch in chars:
        if char_eval_norm(ch, nc) != char_eval_norm(ch, na) * char_eval_norm(ch, nb):
            return "random"
    return "dh"


def _binom_ci(k: int, n: int) -> list:
    """Normal-approximation 95% interval for a binomial rate, clamped."""
    if n == 0:
        return [0.0, 1.0]
    p = k / n
    half = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return [max(0.0, p - half), min(1.0, p + half)]


def run_experiment(base: OrientedCurve, trials: int, chars: list, seed: int,
                   squares_only: bool = False, exp_bound: int = 5) -> dict:
    """Balanced dh/random trials with per-trial derived seeds.

    The report carries confusion counts, the guessing rates per mode, the
    advantage P[guess dh | dh] - P[guess dh | random] with 95% intervals,
    and a per-trial oracle comparison recomputed from the hidden norms.
    Everything in it is a pure function of (instance, trials, chars, seed,
    flags), so reruns produce identical bytes.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not chars:
        raise ValueError("need at least one character")
    if class_number(base.D) == 1:
        raise ValueError("trivial class group: experiment is degenerate")

    master = random.Random(seed)
    trial_seeds = [master.getrandbits(64) for _ in range(trials)]

    confusion = {"dh": {"dh": 0, "random": 0}, "random": {"dh": 0, "random": 0}}
    mismatches = 0
    log = []
    for i in range(trials):
        mode = "dh" if i % 2 == 0 else "random"
        rng = random.Random(trial_seeds[i])
        triple = sample_triple(base, mode, rng,
                               exp_bound=exp_bound, squares_only=squares_only)
        guess = distinguish(triple.public_view(), chars, rng)
        oracle = _oracle_guess(triple.hidden_norms, chars)
        if guess != oracle:
            mismatches += 1
        confusion[mode][guess] += 1
        log.append({"trial": i, "mode": mode, "guess": guess, "oracle": oracle})

    n_dh = confusion["dh"]["dh"] + confusion["dh"]["random"]
    n_rand = confusion["random"]["dh"] + confusion["random"]["random"]
    p_dh = confusion["dh"]["dh"] / n_dh if n_dh else 0.0
    p_rand = confusion["random"]["dh"] / n_rand if n_rand else 0.0
    correct = confusion["dh"]["dh"] + confusion["random"]["random"]
    # independent binomials, so the difference variance is the sum
    var = 0.0
    if n_dh:
        var += p_dh * (1.0 - p_dh) / n_dh
    if n_rand:
        var += p_rand * (1.0 - p_rand) / n_rand
    half = 1.96 * math.sqrt(var)
    adv = p_dh - p_rand

    return {
        "instance": base.to_json(),
        "chars": [ch.label for ch in chars],
        "trials": trials,
        "seed": seed,
        "squares_only": squares_only,
        "confusion": confusion,
        "p_guess_dh_given_dh": p_dh,
        "p_guess_dh_given_random": p_rand,
        "success_rate": correct / trials,
        "advantage": adv,
        "ci_dh": _binom_ci(confusion["dh"]["dh"], n_dh),
        "ci_random": _binom_ci(confusion["random"]["dh"], n_rand),
        "ci_advantage": [adv - half, adv + half],
        "false_negatives": confusion["dh"]["random"],
        "oracle_mismatches": mismatches,
        "trial_log": log,
    }
