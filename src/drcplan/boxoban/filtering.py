"""Agent-based difficulty filtering.

A level is kept when the probe fails it in every one of `attempts` episodes,
so the kept set is strictly harder for the probe than its source only when
the probe solves some source level; a probe that solves none keeps every
level.

The probe is a `play(env_factories, seed=...)` callable with the contract of
`evaluate.run_episodes` (which is itself the network probe): it plays each
environment once, episode j with RNG `[*seed, j]`, and returns (solved,
return, length) triples in input order. The filter passes
`seed=(seed, level_id)`, so attempt a on a level uses RNG
`[seed, level_id, a]` whatever else the set holds. Scripted probes are
`play_scripted` with a policy `(obs, rng) -> action` bound; a policy's
`begin_episode(env)` hook, if any, runs at every episode start.

The kept levels keep their source ids; the set carries no tier of its own
(`drcplan filter-levels --tier` only names the file it writes).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..envs.sokoban_env import SokobanEnv
from .levels import LevelSet


class UniformRandomPolicy:
    def __init__(self, action_count):
        self.action_count = action_count

    def __call__(self, obs, rng):
        return int(rng.integers(0, self.action_count))


def play_scripted(policy, env_factories, seed=0):
    """`run_episodes` for a scripted policy; `seed` is an int or a tuple of ints."""
    key = seed if isinstance(seed, tuple) else (seed,)
    outcomes = []
    for j, make in enumerate(env_factories):
        env = make()
        rng = np.random.default_rng([*key, j])
        obs = env.reset()
        if hasattr(policy, "begin_episode"):
            policy.begin_episode(env)
        while not env.step(policy(obs, rng)).done:
            obs = env.render()
        outcomes.append((env.solved, env.episode_return, env.steps))
    return outcomes


def filter_by_agent(level_set, play, attempts=10, step_limit=None, seed=0):
    """A new `LevelSet` of exactly the levels `play` solves in none of
    `attempts` episodes, under their source ids.

    `attempts=0` returns an empty set by convention.
    """
    out = LevelSet()
    if attempts <= 0:
        return out
    for level_id, level in zip(level_set.ids, level_set.levels):
        make = partial(SokobanEnv, level, step_limit=step_limit)
        outcomes = play([make] * attempts, seed=(seed, level_id))
        if not any(solved for solved, _, _ in outcomes):
            out.add(level, level_id)
    return out
