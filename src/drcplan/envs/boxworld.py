"""Key-and-lock puzzle on a 14 x 14 pixel grid.

Levels are built around a colour-dependency graph: one loose key opens the
first box on a solution chain whose final box contains the gem; distractor
chains branch off solution colours, so opening a distractor consumes a key
the solution needs and makes the level unwinnable (a dead end).

A "box" occupies two horizontally adjacent cells: content on the left, lock
on the right. Walking onto a lock while holding the matching colour opens it
(consuming the key); the content then sits on its cell as a loose key (or the
gem). The agent holds at most one key, shown in the top-left border pixel.

Generation is certified: a scripted solver must reach the gem before a layout
is emitted, so every level is solvable by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .base import DIRECTIONS, Env

SIZE = 14  # full observation, including the 1-pixel border

# saturated, pairwise-distinct key colours
PALETTE = (
    (0.90, 0.10, 0.10), (0.10, 0.45, 0.90), (0.95, 0.75, 0.10), (0.55, 0.15, 0.75),
    (0.95, 0.45, 0.10), (0.10, 0.75, 0.75), (0.85, 0.10, 0.55), (0.45, 0.65, 0.10),
    (0.60, 0.35, 0.10), (0.15, 0.15, 0.95), (0.70, 0.90, 0.30), (0.95, 0.55, 0.75),
    (0.25, 0.90, 0.55), (0.50, 0.10, 0.30), (0.95, 0.90, 0.55), (0.10, 0.30, 0.45),
)

BORDER_RGB = (0.5, 0.5, 0.5)
AGENT_RGB = (0.30, 0.30, 0.30)
GEM_RGB = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class BoxSpec:
    content_pos: tuple  # (r, c); lock sits at (r, c + 1)
    lock_color: int  # palette index
    content_color: int  # palette index, or -1 for the gem
    on_solution: bool

    @property
    def lock_pos(self):
        return (self.content_pos[0], self.content_pos[1] + 1)


@dataclass(frozen=True)
class BoxworldLevel:
    agent_start: tuple
    loose_key_pos: tuple
    loose_key_color: int
    boxes: tuple  # BoxSpec, solution chain first, in opening order
    solution_length: int


def generate_boxworld(seed, solution_length_max=4, branch_length=3, num_distractors=2,
                      max_tries=200):
    """Sample a certified-solvable level. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        level = _sample_layout(rng, solution_length_max, branch_length, num_distractors)
        if level is not None and solve_scripted(level) is not None:
            return level
    raise RuntimeError(f"boxworld generation failed after {max_tries} tries (seed={seed})")


def _sample_layout(rng, solution_length_max, branch_length, num_distractors):
    length = int(rng.integers(1, solution_length_max + 1))
    n_colors = length + num_distractors * branch_length
    if n_colors > len(PALETTE):
        raise ValueError(f"need {n_colors} colours but palette has {len(PALETTE)}")
    colors = list(rng.permutation(len(PALETTE))[:n_colors])
    chain = colors[:length]  # chain[i] opens solution box i

    occupied = set()

    def claim(cells):
        # keep a 1-cell margin around every entity so box pairs stay unambiguous
        for r, c in cells:
            for rr in range(r - 1, r + 2):
                for cc in range(c - 1, c + 2):
                    occupied.add((rr, cc))

    def place_pair():
        for _ in range(100):
            r = int(rng.integers(1, SIZE - 1))
            c = int(rng.integers(1, SIZE - 2))
            if (r, c) not in occupied and (r, c + 1) not in occupied:
                claim([(r, c), (r, c + 1)])
                return (r, c)
        return None

    def place_single():
        for _ in range(100):
            r = int(rng.integers(1, SIZE - 1))
            c = int(rng.integers(1, SIZE - 1))
            if (r, c) not in occupied:
                claim([(r, c)])
                return (r, c)
        return None

    boxes = []
    for i in range(length):
        pos = place_pair()
        if pos is None:
            return None
        content = chain[i + 1] if i + 1 < length else -1
        boxes.append(BoxSpec(pos, lock_color=chain[i], content_color=content, on_solution=True))

    next_color = length
    for b in range(num_distractors):
        attach = int(rng.integers(0, length))  # consumes solution colour chain[attach]
        lock = chain[attach]
        for _ in range(branch_length):
            pos = place_pair()
            if pos is None:
                return None
            boxes.append(BoxSpec(pos, lock_color=lock, content_color=colors[next_color],
                                 on_solution=False))
            lock = colors[next_color]
            next_color += 1

    key_pos = place_single()
    agent = place_single()
    if key_pos is None or agent is None:
        return None
    return BoxworldLevel(agent, key_pos, chain[0], tuple(boxes), length)


class BoxworldEnv(Env):
    action_count = 4

    def __init__(self, level, step_limit=None):
        super().__init__(step_limit)
        self.level = level
        self.reset()

    def reset(self):
        self.agent = self.level.agent_start
        self.hand = None  # palette index of the held key
        self.loose = {self.level.loose_key_pos: self.level.loose_key_color}
        self.gem_pos = None
        self.locks = {}  # lock cell -> box index
        self.contents = {}  # content cell -> box index
        self.opened = [False] * len(self.level.boxes)
        for i, box in enumerate(self.level.boxes):
            self.locks[box.lock_pos] = i
            self.contents[box.content_pos] = i
        self._begin_episode()
        return self.render()

    def step(self, action):
        self._check_step(action)
        reward = 0.0
        dr, dc = DIRECTIONS[action]
        nr, nc = self.agent[0] + dr, self.agent[1] + dc
        dest = (nr, nc)
        if 1 <= nr < SIZE - 1 and 1 <= nc < SIZE - 1:
            if dest in self.locks:
                i = self.locks[dest]
                box = self.level.boxes[i]
                if self.hand == box.lock_color:
                    self.hand = None
                    self.opened[i] = True
                    del self.locks[dest]
                    del self.contents[box.content_pos]
                    if box.content_color == -1:
                        self.gem_pos = box.content_pos
                    else:
                        self.loose[box.content_pos] = box.content_color
                    reward += 1.0 if box.on_solution else -1.0
                    self.agent = dest
                # wrong key: blocked
            elif dest in self.contents:
                pass  # contents are inert until their lock is opened
            elif self.gem_pos == dest:
                self.agent = dest
                self.gem_pos = None
                reward += 10.0
                self.solved = True
            else:
                self.agent = dest
                if dest in self.loose:
                    self.hand = self.loose.pop(dest)
        return self._end_step(reward)

    def render(self):
        obs = np.zeros((SIZE, SIZE, 3), dtype=np.float32)
        obs[0, :] = BORDER_RGB
        obs[-1, :] = BORDER_RGB
        obs[:, 0] = BORDER_RGB
        obs[:, -1] = BORDER_RGB
        if self.hand is not None:
            obs[0, 0] = PALETTE[self.hand]
        for pos, color in self.loose.items():
            obs[pos] = PALETTE[color]
        for pos, i in self.locks.items():
            obs[pos] = PALETTE[self.level.boxes[i].lock_color]
        for pos, i in self.contents.items():
            color = self.level.boxes[i].content_color
            obs[pos] = GEM_RGB if color == -1 else PALETTE[color]
        if self.gem_pos is not None:
            obs[self.gem_pos] = GEM_RGB
        obs[self.agent] = AGENT_RGB
        return obs


def _bfs_path(blocked, start, goal):
    """Shortest action sequence between interior cells, or None."""
    if start == goal:
        return []
    seen = {start}
    q = deque([(start, [])])
    while q:
        pos, path = q.popleft()
        for a, (dr, dc) in enumerate(DIRECTIONS):
            nxt = (pos[0] + dr, pos[1] + dc)
            if not (1 <= nxt[0] < SIZE - 1 and 1 <= nxt[1] < SIZE - 1):
                continue
            if nxt == goal:
                return path + [a]
            if nxt in blocked or nxt in seen:
                continue
            seen.add(nxt)
            q.append((nxt, path + [a]))
    return None


def solve_scripted(level):
    """Follow the solution chain; returns the action list or None if stuck."""
    env = BoxworldEnv(level)
    actions = []

    def walk_to(goal):
        blocked = set(env.locks) | set(env.contents) | set(env.loose)
        if env.gem_pos is not None:
            blocked.add(env.gem_pos)
        blocked.discard(goal)
        path = _bfs_path(blocked, env.agent, goal)
        if path is None:
            return False
        for a in path:
            if env.done:
                return False
            actions.append(a)
            env.step(a)
        return True

    if not walk_to(level.loose_key_pos):
        return None
    for box in level.boxes[:level.solution_length]:
        if not walk_to(box.lock_pos):
            return None
        target = box.content_pos
        if not walk_to(target):
            return None
    return actions if env.solved else None
