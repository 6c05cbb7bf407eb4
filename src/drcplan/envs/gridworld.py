"""Obstacle-navigation gridworld.

A square grid is filled with a random number of overlapping square obstacles;
the player and goal are placed on distinct empty cells, and layouts are
rejection-sampled until the goal is reachable. Stepping on the goal ends the
episode with +1, stepping on an obstacle ends it with -1, anything else costs
-0.01. Off-grid moves clamp in place.

The observation is a single channel: empty 0.0, obstacle 1.0, goal 0.5,
player 0.25.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DIRECTIONS, Env, grid_search

EMPTY_VALUE, OBSTACLE_VALUE, GOAL_VALUE, PLAYER_VALUE = 0.0, 1.0, 0.5, 0.25
MAX_TRIES = 1000  # layouts sampled before generation gives up


@dataclass(frozen=True)
class GridworldConfig:
    size: int = 32
    obstacle_count: tuple = (12, 24)  # inclusive range
    obstacle_side: tuple = (2, 10)  # inclusive range

    def __post_init__(self):
        if self.size < 2:  # a player and a goal need two cells
            raise ValueError(f"gridworld.size must be >= 2, got {self.size}")
        for name in ("obstacle_count", "obstacle_side"):
            value = getattr(self, name)
            if len(value) != 2 or not 0 <= value[0] <= value[1]:
                raise ValueError(f"gridworld.{name} must be an inclusive range lo,hi with "
                                 f"0 <= lo <= hi, got {value}")


# desk-scale variant used by the small training runs
GRIDWORLD12 = GridworldConfig(size=12, obstacle_count=(2, 5), obstacle_side=(2, 4))


@dataclass(frozen=True)
class GridworldLayout:
    obstacles: tuple  # tuple of rows of bools
    player: tuple
    goal: tuple


def generate_gridworld(seed, config=GridworldConfig()):
    """Rejection-sample a layout whose goal is reachable from the player;
    raises RuntimeError after `MAX_TRIES` layouts without one."""
    rng = np.random.default_rng(seed)
    size = config.size
    for _ in range(MAX_TRIES):
        grid = np.zeros((size, size), dtype=bool)
        count = int(rng.integers(config.obstacle_count[0], config.obstacle_count[1] + 1))
        for _ in range(count):
            side = int(rng.integers(config.obstacle_side[0], config.obstacle_side[1] + 1))
            side = min(side, size)
            r = int(rng.integers(0, size - side + 1))
            c = int(rng.integers(0, size - side + 1))
            grid[r:r + side, c:c + side] = True
        empty = list(map(tuple, np.argwhere(~grid).tolist()))
        if len(empty) < 2:
            continue
        pick = rng.choice(len(empty), size=2, replace=False)
        player, goal = empty[pick[0]], empty[pick[1]]
        if goal in grid_search(player, set(empty), goal):
            obstacles = tuple(tuple(bool(v) for v in row) for row in grid)
            return GridworldLayout(obstacles, player, goal)
    raise RuntimeError(f"no reachable layout found after {MAX_TRIES} tries (seed={seed})")


class GridworldEnv(Env):
    action_count = 4

    def __init__(self, seed, config=GridworldConfig(), step_limit=None):
        super().__init__(step_limit)
        self.config = config
        self.layout = generate_gridworld(seed, config)
        self._base = np.full((config.size, config.size, 1), EMPTY_VALUE, dtype=np.float32)
        for r, row in enumerate(self.layout.obstacles):
            for c, blocked in enumerate(row):
                if blocked:
                    self._base[r, c, 0] = OBSTACLE_VALUE
        self._base[self.layout.goal[0], self.layout.goal[1], 0] = GOAL_VALUE
        self.reset()

    def reset(self):
        self.player = self.layout.player
        self._begin_episode()
        return self.render()

    def step(self, action):
        self._check_step(action)
        size = self.config.size
        dr, dc = DIRECTIONS[action]
        nr = min(max(self.player[0] + dr, 0), size - 1)
        nc = min(max(self.player[1] + dc, 0), size - 1)
        self.player = (nr, nc)
        if (nr, nc) == self.layout.goal:
            reward = 1.0
            self.solved = True
        elif self.layout.obstacles[nr][nc]:
            reward = -1.0
            self.done = True
        else:
            reward = -0.01
        return self._end_step(reward)

    def render(self):
        obs = self._base.copy()
        obs[self.player[0], self.player[1], 0] = PLAYER_VALUE
        return obs
