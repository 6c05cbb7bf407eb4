"""What the grid games and the Boxoban tools share.

- `Env`, the environment protocol. An env is one episode, a deterministic
  function of (seed, action sequence) that its constructor starts: any
  stochasticity comes from a generator it owns. `step` applies the rules
  and draws nothing; `render()` draws the current observation, a float32
  array in [0, 1] laid out H x W x C, for the callers that read one.
- `DIRECTIONS`, the four moves of a grid, whose index is the move's action
  id in every game.
- `grid_search` and `grid_path`, the one breadth-first search over
  4-connected cells: Gridworld's and the level generator's reach checks,
  Boxworld's scripted solver and the Sokoban solver's player walks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StepResult:
    reward: float
    done: bool
    solved: bool = False


class Env:
    """Base class and owner of the episode's record.

    A game defines its constructor, `step(action)`, `render()` and its
    action metadata, and keeps only its own rules:

    - the constructor starts the env's only episode: `Env.__init__` zeroes
      `steps` and `episode_return` and clears `done` and `solved`, and the
      game sets its starting state;
    - `step(action)` calls `_check_step(action)` first, applies the game's
      rules (setting `solved` on a win, or `done` on a loss such as an
      obstacle or a ghost), and returns `_end_step(reward)`.

    `_end_step` counts the step, adds the reward to `episode_return`, ends
    the episode once it is solved or has run `step_limit` steps, and
    returns the `StepResult`. Every step counts against the cap, forced
    no-ops included, so `steps` and `episode_return` are the finished
    episode's length and return. Neither the constructor nor a step draws
    an observation: a caller that reads one calls `render()`, so a replay or
    a terminal step draws nothing.
    """

    action_count = 0
    noop_action = None  # index of a no-effect action, if the game has one
    step_limit = 120  # episode cap, unless the constructor's step_limit is set

    def __init__(self, step_limit=None):
        if step_limit is not None:
            self.step_limit = step_limit
        self.steps = 0
        self.episode_return = 0.0
        self.done = False
        self.solved = False

    def step(self, action):
        raise NotImplementedError

    def render(self):
        raise NotImplementedError

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
        return StepResult(reward, self.done, self.solved)


# row/col deltas shared by the grid games: up, down, left, right
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))
# (action, row delta, col delta): flat triples keep `grid_search`'s inner
# loop as fast as the hand-written searches it replaced
_MOVES = tuple((action, dr, dc) for action, (dr, dc) in enumerate(DIRECTIONS))


def grid_search(start, open_cells, goal=None):
    """Breadth-first search from `start` through the cells in `open_cells`.

    Returns a map from each reached cell to (previous cell, action), with
    `start` mapped to None. Neighbours are tried in `DIRECTIONS` order, so
    the path to each cell is, of its shortest paths, the one whose action
    list sorts first. With a `goal`, the search stops as soon as it reaches
    `goal`: the map then holds only the cells found so far, but a cell's
    entry never changes once set, so `grid_path` to `goal` is the full
    search's path.
    """
    parents = {start: None}
    if start == goal:
        return parents
    frontier = [start]
    for cell in frontier:  # the list grows as it is read: a FIFO queue
        r, c = cell
        for action, dr, dc in _MOVES:
            nxt = (r + dr, c + dc)
            if nxt in open_cells and nxt not in parents:
                parents[nxt] = (cell, action)
                if nxt == goal:
                    return parents
                frontier.append(nxt)
    return parents


def grid_path(parents, goal):
    """The actions that walk a `grid_search` map's start to `goal`, or None
    if the search did not reach it."""
    if goal not in parents:
        return None
    path = []
    while parents[goal] is not None:
        goal, action = parents[goal]
        path.append(action)
    path.reverse()
    return path
