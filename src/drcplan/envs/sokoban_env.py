"""Sokoban dynamics and sprite rendering.

Rules: the player moves in four directions or does nothing; a single box is
pushed when the destination behind it is free; walls block. Rewards per step:
-0.01 time cost, +1 when a box lands on a target, -1 when a box leaves one,
and +10 on completing the level. Episodes are capped at `step_limit` (120) steps.
"""

from __future__ import annotations

import numpy as np

from .base import DIRECTIONS, Env

ACTION_UP, ACTION_DOWN, ACTION_LEFT, ACTION_RIGHT, ACTION_NOOP = range(5)

SPRITE = 8  # each grid cell renders to an 8 x 8 x 3 RGB block

# cell classes for rendering
_FLOOR, _WALL, _TARGET, _BOX, _BOX_ON_TARGET, _PLAYER, _PLAYER_ON_TARGET = range(7)


def _build_sprites():
    """Fixed 8x8x3 sprite per cell class, values in [0, 1]."""
    s = np.zeros((7, SPRITE, SPRITE, 3), dtype=np.float32)

    def block(idx, rgb, border=None):
        s[idx, :, :] = rgb
        if border is not None:
            s[idx, 0, :] = border
            s[idx, -1, :] = border
            s[idx, :, 0] = border
            s[idx, :, -1] = border

    block(_FLOOR, (0.85, 0.85, 0.85))
    block(_WALL, (0.30, 0.30, 0.30), border=(0.22, 0.22, 0.22))
    block(_TARGET, (0.85, 0.85, 0.85))
    s[_TARGET, 2:6, 2:6] = (0.85, 0.15, 0.15)
    block(_BOX, (0.80, 0.55, 0.20), border=(0.50, 0.33, 0.10))
    block(_BOX_ON_TARGET, (0.95, 0.35, 0.10), border=(0.55, 0.20, 0.05))
    block(_PLAYER, (0.10, 0.70, 0.20), border=(0.05, 0.40, 0.10))
    block(_PLAYER_ON_TARGET, (0.10, 0.70, 0.20), border=(0.85, 0.15, 0.15))
    return s


SPRITES = _build_sprites()


class SokobanEnv(Env):
    action_count = 5
    noop_action = ACTION_NOOP

    def __init__(self, level, step_limit=None):
        super().__init__(step_limit)
        self.level = level
        self._wall_grid = np.array(level.walls, dtype=bool)
        self.boxes = set(level.boxes)
        self.player = level.player

    def step(self, action):
        self._check_step(action)
        reward = -0.01
        if action != ACTION_NOOP:
            dr, dc = DIRECTIONS[action]
            r, c = self.player
            nr, nc = r + dr, c + dc
            if not self.level.is_wall(nr, nc):
                if (nr, nc) in self.boxes:
                    br, bc = nr + dr, nc + dc
                    if not self.level.is_wall(br, bc) and (br, bc) not in self.boxes:
                        self.boxes.remove((nr, nc))
                        self.boxes.add((br, bc))
                        was_on = (nr, nc) in self.level.targets
                        now_on = (br, bc) in self.level.targets
                        reward += float(now_on) - float(was_on)
                        self.player = (nr, nc)
                else:
                    self.player = (nr, nc)
        if self.boxes == self.level.targets:
            reward += 10.0
            self.solved = True
        return self._end_step(reward)

    def render(self):
        grid = np.where(self._wall_grid, _WALL, _FLOOR).astype(np.int8)
        for r, c in self.level.targets:
            grid[r, c] = _TARGET
        for r, c in self.boxes:
            grid[r, c] = _BOX_ON_TARGET if (r, c) in self.level.targets else _BOX
        pr, pc = self.player
        grid[pr, pc] = _PLAYER_ON_TARGET if (pr, pc) in self.level.targets else _PLAYER
        h, w = grid.shape
        tiles = SPRITES[grid]  # (h, w, 8, 8, 3)
        return tiles.transpose(0, 2, 1, 3, 4).reshape(h * SPRITE, w * SPRITE, 3)
