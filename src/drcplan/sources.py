"""Episode sources: per-actor streams of freshly reset environments.

Each actor owns one source; a source owns an independent RNG stream derived
from (base seed, actor index), so parallel actors never share randomness and
a training run is reproducible from its config alone.
"""

from __future__ import annotations

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


class GridworldSource:
    def __init__(self, seed, config=GridworldConfig(), step_limit=None):
        self.rng = np.random.default_rng(seed)
        self.config = config
        self.step_limit = step_limit

    def next_env(self):
        return GridworldEnv(int(self.rng.integers(0, 2 ** 62)), self.config, self.step_limit)


class BoxworldSource:
    def __init__(self, seed, step_limit=None):
        self.rng = np.random.default_rng(seed)
        self.step_limit = step_limit

    def next_env(self):
        return BoxworldEnv(generate_boxworld(int(self.rng.integers(0, 2 ** 62))), self.step_limit)


class MiniPacmanSource:
    def __init__(self, seed, config=MiniPacmanConfig(), step_limit=None):
        self.rng = np.random.default_rng(seed)
        self.config = config
        self.step_limit = step_limit

    def next_env(self):
        return MiniPacmanEnv(int(self.rng.integers(0, 2 ** 62)), self.config, self.step_limit)


def source_factory(game, *, levels=None, gridworld_config=None, minipacman_config=None,
                   step_limit=None):
    """Build a (seed, actor_index) -> source callable for the Trainer."""
    if game == "sokoban" and levels is None:
        raise ValueError("sokoban training needs a level set: set data.levels in the run config")
    def make(seed, actor_index):
        stream = [seed, 7919, actor_index]
        if game == "sokoban":
            return SokobanSource(levels, stream, step_limit=step_limit)
        if game == "gridworld":
            return GridworldSource(stream, gridworld_config or GridworldConfig(), step_limit)
        if game == "gridworld12":
            return GridworldSource(stream, gridworld_config or GRIDWORLD12, step_limit)
        if game == "boxworld":
            return BoxworldSource(stream, step_limit)
        if game == "minipacman":
            return MiniPacmanSource(stream, minipacman_config or MiniPacmanConfig(), step_limit)
        raise ValueError(f"unknown game {game!r}")

    return make
