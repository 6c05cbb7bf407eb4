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
    """Base class and owner of the running episode's record.

    A game defines `reset()`, `step(action)`, `render()` and its action
    metadata, and keeps only its own rules:

    - `reset()` calls `_begin_episode()`, which zeroes `steps` and
      `episode_return` and clears `done` and `solved`;
    - `step(action)` calls `_check_step(action)` first, applies the game's
      rules (setting `solved` on a win, or `done` on a loss such as an
      obstacle or a ghost), and returns `_end_step(reward)`.

    `_end_step` counts the step, adds the reward to `episode_return`, ends
    the episode once it is solved or has run `step_limit` steps, and
    returns the `StepResult`. Every step counts against the cap, forced
    no-ops included, so `steps` and `episode_return` are the finished
    episode's length and return.
    """

    action_count = 0
    noop_action = None  # index of a no-effect action, if the game has one
    step_limit = 120  # episode cap, unless the constructor's step_limit is set

    def __init__(self, step_limit=None):
        if step_limit is not None:
            self.step_limit = step_limit

    def reset(self):
        raise NotImplementedError

    def step(self, action):
        raise NotImplementedError

    def render(self):
        raise NotImplementedError

    def _begin_episode(self):
        self.steps = 0
        self.episode_return = 0.0
        self.done = False
        self.solved = False

    def _check_step(self, action):
        if self.done:
            raise RuntimeError("step() called after the episode ended")
        if not (0 <= action < self.action_count):
            raise ValueError(f"action {action} out of range [0, {self.action_count})")

    def _end_step(self, reward):
        self.steps += 1
        self.episode_return += reward
        if self.solved or self.steps >= self.step_limit:
            self.done = True
        return StepResult(self.render(), reward, self.done, self.solved)


# row/col deltas shared by the grid games: up, down, left, right
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))
