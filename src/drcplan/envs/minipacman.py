"""Maze chase game on a fixed 15 x 19 corridor layout.

The player collects food (+1) and power pills (+2); pills make every ghost
edible for a fixed number of steps (+5 for eating one, which respawns it).
Each ghost moves with probability 0.95 per step: toward the player while
dangerous, away while edible, greedy on Manhattan distance with random
tie-breaking and a preference against reversing. Contact with a dangerous
ghost ends the episode. Clearing all food does not end the episode: the level
refills with food and freshly placed pills and ghosts.

The ghost policy and the edible-decay length approximate behaviour the game
family leaves unspecified; both are config knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DIRECTIONS, Env

MAZE = (
    "###################",
    "#        #        #",
    "# ## ### # ### ## #",
    "#                 #",
    "# ## # ##### # ## #",
    "#    #   #   #    #",
    "#### ### # ### ####",
    "#      #   #      #",
    "# ## # ##### # ## #",
    "#    #       #    #",
    "# ## ### # ### ## #",
    "#        #        #",
    "## ## ## # ## ## ##",
    "#                 #",
    "###################",
)
HEIGHT, WIDTH = len(MAZE), len(MAZE[0])

ACTION_STAY = 4

WALL_RGB = (0.0, 0.0, 0.0)
EMPTY_RGB = (0.20, 0.20, 0.20)
FOOD_RGB = (0.00, 0.00, 0.80)
PILL_RGB = (0.40, 0.70, 1.00)
PLAYER_RGB = (0.00, 1.00, 0.00)
GHOST_RGB = (1.00, 0.00, 0.00)
GHOST_EDIBLE_RGB = (1.00, 1.00, 0.00)
GHOST_RECOVERING_RGB = (1.00, 0.50, 0.00)


@dataclass(frozen=True)
class MiniPacmanConfig:
    n_ghosts: int = 2
    n_pills: int = 4
    ghost_move_prob: float = 0.95
    edible_steps: int = 20

    def __post_init__(self):
        for name in ("n_ghosts", "n_pills", "edible_steps"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"minipacman.{name} must be >= 0, got {value}")
        if not 0 <= self.ghost_move_prob <= 1:
            raise ValueError(f"minipacman.ghost_move_prob must be in [0, 1], got {self.ghost_move_prob}")
        # the player, each ghost and each pill start on a corridor cell of their own
        if 1 + self.n_ghosts + self.n_pills > len(CORRIDORS):
            raise ValueError(f"minipacman.n_ghosts + minipacman.n_pills must be <= {len(CORRIDORS) - 1}, "
                             f"the corridor cells besides the player's, got {self.n_ghosts} + {self.n_pills}")


def _corridors():
    return [(r, c) for r in range(HEIGHT) for c in range(WIDTH) if MAZE[r][c] == " "]


CORRIDORS = _corridors()
IS_CORRIDOR = {pos: True for pos in CORRIDORS}


class _Ghost:
    __slots__ = ("pos", "edible", "prev")

    def __init__(self, pos):
        self.pos = pos
        self.edible = 0  # steps of edibility remaining
        self.prev = None  # cell occupied before the last move


class MiniPacmanEnv(Env):
    """One episode on the maze: the constructor seeds the instance's
    generator, which places the player, ghosts and pills and later moves
    the ghosts; `step` plays a move and `render` draws the maze."""

    action_count = 5  # four directions + stay
    noop_action = ACTION_STAY
    step_limit = 500

    def __init__(self, seed, config=MiniPacmanConfig(), step_limit=None):
        super().__init__(step_limit)
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._populate(first=True)

    def _populate(self, first):
        cfg = self.config
        cells = list(CORRIDORS)
        if first:
            idx = self.rng.choice(len(cells), size=1 + cfg.n_ghosts + cfg.n_pills, replace=False)
            picks = [cells[i] for i in idx]
            self.player = picks[0]
            ghost_cells = picks[1:1 + cfg.n_ghosts]
            pill_cells = picks[1 + cfg.n_ghosts:]
        else:
            # level cleared: keep the player, re-randomize ghosts and pills
            cells = [p for p in cells if p != self.player]
            idx = self.rng.choice(len(cells), size=cfg.n_ghosts + cfg.n_pills, replace=False)
            picks = [cells[i] for i in idx]
            ghost_cells = picks[:cfg.n_ghosts]
            pill_cells = picks[cfg.n_ghosts:]
        self.ghosts = [_Ghost(pos) for pos in ghost_cells]
        self.pills = set(pill_cells)
        self.food = {p for p in CORRIDORS if p != self.player and p not in self.pills}

    def _neighbors(self, pos):
        out = []
        for dr, dc in DIRECTIONS:
            nxt = (pos[0] + dr, pos[1] + dc)
            if nxt in IS_CORRIDOR:
                out.append(nxt)
        return out

    def _move_ghost(self, ghost):
        options = self._neighbors(ghost.pos)
        if not options:
            return
        non_reversing = [p for p in options if p != ghost.prev]
        if non_reversing:
            options = non_reversing
        dist = [abs(p[0] - self.player[0]) + abs(p[1] - self.player[1]) for p in options]
        best = min(dist) if ghost.edible == 0 else max(dist)
        choices = [p for p, d in zip(options, dist) if d == best]
        pick = choices[int(self.rng.integers(0, len(choices)))]
        ghost.prev = ghost.pos
        ghost.pos = pick

    def _respawn_ghost(self, ghost):
        far = [p for p in CORRIDORS
               if abs(p[0] - self.player[0]) + abs(p[1] - self.player[1]) >= 6]
        cells = far if far else list(CORRIDORS)
        ghost.pos = cells[int(self.rng.integers(0, len(cells)))]
        ghost.prev = None
        ghost.edible = 0

    def step(self, action):
        self._check_step(action)
        cfg = self.config
        reward = 0.0
        player_prev = self.player
        if action != ACTION_STAY:
            dr, dc = DIRECTIONS[action]
            nxt = (self.player[0] + dr, self.player[1] + dc)
            if nxt in IS_CORRIDOR:
                self.player = nxt
        if self.player in self.food:
            self.food.remove(self.player)
            reward += 1.0
        elif self.player in self.pills:
            self.pills.remove(self.player)
            reward += 2.0
            for g in self.ghosts:
                g.edible = cfg.edible_steps

        for g in self.ghosts:
            moved_from = g.pos
            if self.rng.random() < cfg.ghost_move_prob:
                self._move_ghost(g)
            contact = g.pos == self.player or (g.pos == player_prev and moved_from == self.player)
            if contact:
                if g.edible > 0:
                    reward += 5.0
                    self._respawn_ghost(g)
                else:
                    self.done = True
            if g.edible > 0:
                g.edible -= 1

        if not self.done and not self.food:
            self._populate(first=False)
        return self._end_step(reward)

    def render(self):
        obs = np.empty((HEIGHT, WIDTH, 3), dtype=np.float32)
        obs[:] = WALL_RGB
        for pos in CORRIDORS:
            obs[pos] = EMPTY_RGB
        for pos in self.food:
            obs[pos] = FOOD_RGB
        for pos in self.pills:
            obs[pos] = PILL_RGB
        obs[self.player] = PLAYER_RGB
        third = max(self.config.edible_steps // 3, 1)
        for g in self.ghosts:
            if g.edible == 0:
                obs[g.pos] = GHOST_RGB
            elif g.edible <= third:
                obs[g.pos] = GHOST_RECOVERING_RGB
            else:
                obs[g.pos] = GHOST_EDIBLE_RGB
        return obs
