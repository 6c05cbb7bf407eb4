"""Shared environment protocol.

Environments are deterministic functions of (seed, action sequence): any
stochasticity comes from a generator owned by the instance and seeded at
construction. Observations are float32 arrays in [0, 1], laid out H x W x C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    done: bool
    solved: bool = False


class Env:
    """Base class; subclasses define reset()/step() and action metadata."""

    action_count = 0
    noop_action = None  # index of a no-effect action, if the game has one
    step_limit = 120  # episode cap, unless the constructor's step_limit is set

    def reset(self):
        raise NotImplementedError

    def step(self, action):
        raise NotImplementedError

    def _check_action(self, action):
        if not (0 <= action < self.action_count):
            raise ValueError(f"action {action} out of range [0, {self.action_count})")

    def _check_not_done(self, done):
        if done:
            raise RuntimeError("step() called after the episode ended")


# row/col deltas shared by the grid games: up, down, left, right
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))
