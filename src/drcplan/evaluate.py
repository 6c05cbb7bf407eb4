"""Evaluation protocols: solve rates, thinking-steps probe, extrapolation.

Evaluation never mutates network parameters or datasets. Episodes run on
the trainer's lockstep stepper (`train.ActorGroup`): up to `batch_size`
rows share one network forward per step, a row whose episode ends takes the
next level, and a row with no level left leaves the batch, so no forward
runs on finished episodes. Sampling uses a per-episode RNG stream keyed by
(seed, episode index), so results do not depend on batch layout and repeated
runs are identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .boxoban.generator import check_box_count, generate_level_set
from .envs.sokoban_env import SokobanEnv
from .train import ActorGroup
# unused here since episodes sample in `train`; kept because perfbench/tracing.py
# patches `evaluate.sample_action` by name
from .train import sample_action  # noqa: F401


@dataclass
class EvalReport:
    level_set_id: str
    episodes: int
    solved: int
    solved_fraction: float
    mean_return: float
    mean_length: float
    ci95: float  # binomial 95% half-width on the solved fraction

    def to_dict(self):
        return asdict(self)


def binomial_ci95(p, n):
    """Normal-approximation binomial confidence half-width."""
    if n <= 0:
        return 0.0
    return 1.96 * float(np.sqrt(p * (1.0 - p) / n))


def make_report(outcomes, level_set_id=""):
    """Aggregate (solved, return, length) triples into a report."""
    n = len(outcomes)
    solved = sum(1 for s, _, _ in outcomes if s)
    frac = solved / n if n else 0.0
    return EvalReport(
        level_set_id=level_set_id,
        episodes=n,
        solved=solved,
        solved_fraction=frac,
        mean_return=float(np.mean([r for _, r, _ in outcomes])) if n else 0.0,
        mean_length=float(np.mean([l for _, _, l in outcomes])) if n else 0.0,
        ci95=binomial_ci95(frac, n),
    )


def run_episodes(net, env_factories, mode="sample", seed=0, batch_size=64,
                 force_noop_steps=0):
    """Play each environment once; returns (solved, return, length) triples.

    Episode j is played with RNG [*seed, j], where `seed` is an int or a tuple
    of ints. Up to `batch_size` episodes share one forward per step; a row
    whose episode ends takes the next factory, and leaves the batch once none
    is left.

    With `force_noop_steps` = k, the first k actions are overridden with the
    environment's no-op: the network still consumes the real observations and
    advances its recurrent state, only the executed action is replaced, and
    the forced steps count against the episode budget.
    """
    if mode not in ("sample", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not env_factories:
        return []
    key = seed if isinstance(seed, tuple) else (seed,)
    stream = enumerate(env_factories)

    def next_episode(row):
        j, make = next(stream, (None, None))
        if make is None:
            return None
        env = make()
        if force_noop_steps and env.noop_action is None:
            raise ValueError("forced thinking steps need an environment with a no-op action")
        return env, np.random.default_rng([*key, j]), force_noop_steps, j

    rows = ActorGroup(net, next_episode, min(batch_size, len(env_factories)),
                      greedy=mode == "greedy")
    with ad.no_grad():
        while rows.k:
            rows.step(rows.obs)
    return [(solved, ret, length) for _, solved, ret, length in sorted(rows.drain_episode_stats())]


def evaluate(net, env_factories, episodes_per_level=1, mode="sample", seed=0,
             batch_size=64, level_set_id="", force_noop_steps=0):
    """Solve-rate report over a list of environment factories, each played
    `episodes_per_level` times; `force_noop_steps` as in `run_episodes`."""
    if not env_factories:
        raise ValueError("evaluate needs a non-empty level list")
    if episodes_per_level < 1:
        raise ValueError(f"episodes_per_level must be >= 1, got {episodes_per_level}")
    expanded = [f for f in env_factories for _ in range(episodes_per_level)]
    outcomes = run_episodes(net, expanded, mode=mode, seed=seed, batch_size=batch_size,
                            force_noop_steps=force_noop_steps)
    return make_report(outcomes, level_set_id=level_set_id)


def thinking_steps_eval(net, env_factories, k_max=10, episodes_per_level=1,
                        mode="sample", seed=0, batch_size=64, level_set_id=""):
    """Solve-rate per forced no-op count k = 0..k_max on one fixed level list.

    Every k evaluates the identical ordered level list with the same seeds,
    so the curve is paired across k.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return {k: evaluate(net, env_factories, episodes_per_level, mode, seed, batch_size,
                        f"{level_set_id}[k={k}]", force_noop_steps=k)
            for k in range(k_max + 1)}


def extrapolate_boxes(net, box_counts=(4, 5, 6, 7), levels_per_count=100, seed=0,
                      mode="sample", step_limit=None, batch_size=64):
    """Solve rates on freshly generated certified levels per box count.

    Reports include the degradation relative to the first requested count:
    `degradation_vs_base[n]` is that count's solved fraction minus n's.
    Every count is checked before any level is generated.
    """
    for n in box_counts:
        check_box_count(n)
    reports = {}
    for n in box_counts:
        level_set = generate_level_set(seed ^ (n * 0x9E3779B9), levels_per_count, boxes=n)
        factories = sokoban_factories(level_set, step_limit=step_limit)
        reports[n] = evaluate(net, factories, mode=mode, seed=seed, batch_size=batch_size,
                              level_set_id=f"{n}-box generated")
    base = reports[box_counts[0]].solved_fraction
    degradation = {n: base - reports[n].solved_fraction for n in box_counts}
    return {"reports": reports, "degradation_vs_base": degradation}


def sokoban_factories(level_set, step_limit=None):
    return [lambda lv=lv: SokobanEnv(lv, step_limit=step_limit) for lv in level_set.levels]
