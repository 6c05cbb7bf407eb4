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
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..envs.sokoban_env import ACTION_NOOP, SokobanEnv
from .levels import LevelSet, level_hash


class UniformRandomPolicy:
    def __init__(self, action_count):
        self.action_count = action_count

    def __call__(self, obs, rng):
        return int(rng.integers(0, self.action_count))


class SolutionReplayPolicy:
    """Replays known solutions keyed by level hash; no-ops once exhausted."""

    def __init__(self, solutions):
        self.solutions = solutions  # level_hash -> action list
        self._plan = []
        self._i = 0

    def begin_episode(self, env):
        self._plan = self.solutions.get(level_hash(env.level), [])
        self._i = 0

    def __call__(self, obs, rng):
        if self._i < len(self._plan):
            a = self._plan[self._i]
            self._i += 1
            return a
        return ACTION_NOOP


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
        while not env.done:
            obs = env.step(policy(obs, rng)).obs
        outcomes.append((env.solved, env.episode_return, env.steps))
    return outcomes


def filter_by_agent(level_set, play, attempts=10, step_limit=None, seed=0, tier="medium"):
    """Keep exactly the levels `play` solves in none of `attempts` episodes.

    `attempts=0` returns an empty set by convention.
    """
    out = LevelSet(tier=tier, split=level_set.split)
    if attempts <= 0:
        return out
    for level_id, level in zip(level_set.ids, level_set.levels):
        make = partial(SokobanEnv, level, step_limit=step_limit)
        outcomes = play([make] * attempts, seed=(seed, level_id))
        if not any(solved for solved, _, _ in outcomes):
            out.add(level, level_id)
    return out
