"""Episode sources: per-actor streams of fresh environments, one per episode.

Each actor owns one source; a source owns an independent RNG stream derived
from (base seed, actor index), so parallel actors never share randomness and
a training run is reproducible from its config alone.

`GAME_SETTINGS` holds, for each game with settings of its own, the run
config section that sets them (`gridworld.*` for gridworld and gridworld12,
`minipacman.*` for MiniPacman), their defaults and the env class they
configure. Sokoban reads `data.levels` instead; Boxworld has no settings.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .envs import (GRIDWORLD12, BoxworldEnv, GridworldConfig, GridworldEnv, MiniPacmanConfig,
                   MiniPacmanEnv, SokobanEnv, generate_boxworld)

GAME_SETTINGS = {
    "gridworld": ("gridworld", GridworldConfig(), GridworldEnv),
    "gridworld12": ("gridworld", GRIDWORLD12, GridworldEnv),
    "minipacman": ("minipacman", MiniPacmanConfig(), MiniPacmanEnv),
}


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


def source_factory(game, *, levels=None, settings=None, step_limit=None):
    """Build a (seed, actor_index) -> source callable for the Trainer. `settings`
    configures a game of `GAME_SETTINGS` (unset: its defaults there); an
    unknown game, or Sokoban without a level set, fails here."""
    if game == "sokoban":
        if levels is None:
            raise ValueError("sokoban training needs a level set: set data.levels in the run config")
        return lambda seed, actor_index: SokobanSource(levels, [seed, 7919, actor_index], step_limit)
    if game == "boxworld":
        make = lambda env_seed, step_limit: BoxworldEnv(generate_boxworld(env_seed), step_limit)
    elif game in GAME_SETTINGS:
        _, defaults, env = GAME_SETTINGS[game]
        make = partial(env, config=defaults if settings is None else settings)
    else:
        raise ValueError(f"unknown game {game!r}")
    return lambda seed, actor_index: SeededSource([seed, 7919, actor_index], make, step_limit)
