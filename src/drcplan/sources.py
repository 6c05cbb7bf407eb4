"""Episode sources: per-actor streams of fresh environments, one per episode.

Each actor owns one source; a source owns an independent RNG stream derived
from (base seed, actor index), so parallel actors never share randomness and
a training run is reproducible from its config alone.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .envs import (BoxworldEnv, GridworldConfig, GridworldEnv, MiniPacmanConfig,
                   MiniPacmanEnv, SokobanEnv, generate_boxworld)
from .envs.gridworld import GRIDWORLD12


class SokobanSource:
    """Cycles through a level set in a reshuffled order per epoch."""

    def __init__(self, levels, seed, step_limit=None):
        if len(levels) == 0:
            raise ValueError("empty level set")
        self.levels = list(levels.levels)
        self.step_limit = step_limit
        self.rng = np.random.default_rng(seed)
        self._order = []

    def next_env(self):
        if not self._order:
            self._order = list(self.rng.permutation(len(self.levels)))
        return SokobanEnv(self.levels[self._order.pop()], step_limit=self.step_limit)


class SeededSource:
    """Builds each env with `make(env_seed, step_limit=...)`, drawing the env
    seeds from its own RNG."""

    def __init__(self, seed, make, step_limit=None):
        self.rng = np.random.default_rng(seed)
        self.make = make
        self.step_limit = step_limit

    def next_env(self):
        return self.make(int(self.rng.integers(0, 2 ** 62)), step_limit=self.step_limit)


# the benchmark's tracer wraps `next_env` under this name
GridworldSource = SeededSource


def source_factory(game, *, levels=None, gridworld_config=None, minipacman_config=None,
                   step_limit=None):
    """Build a (seed, actor_index) -> source callable for the Trainer; an
    unknown game, or Sokoban without a level set, fails here."""
    makers = {
        "gridworld": partial(GridworldEnv, config=gridworld_config or GridworldConfig()),
        "gridworld12": partial(GridworldEnv, config=gridworld_config or GRIDWORLD12),
        "boxworld": lambda env_seed, step_limit: BoxworldEnv(generate_boxworld(env_seed), step_limit),
        "minipacman": partial(MiniPacmanEnv, config=minipacman_config or MiniPacmanConfig()),
    }
    if game == "sokoban":
        if levels is None:
            raise ValueError("sokoban training needs a level set: set data.levels in the run config")
        return lambda seed, actor_index: SokobanSource(levels, [seed, 7919, actor_index], step_limit)
    if game not in makers:
        raise ValueError(f"unknown game {game!r}")
    make = makers[game]
    return lambda seed, actor_index: SeededSource([seed, 7919, actor_index], make, step_limit)
