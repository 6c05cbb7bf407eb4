"""A* Sokoban solver used to certify levels.

Search runs over push moves: a state is (box set, player-reachable region),
so the solver returns push-optimal solutions expanded into full player move
sequences. Boards are encoded as integers with one bit per cell, which keeps
reachability flood fills and state hashing cheap.

States are expanded in order of pushes so far plus a lower bound on the
pushes still needed: the sum, over boxes, of each box's static push distance
to its nearest target (a reverse push BFS from the targets that ignores other
boxes and the player). One push moves one box one cell, so the bound drops by
at most one per push; it is consistent, and the first time a state is
expanded its push count is optimal (Junghanns & Schaeffer, "Sokoban:
enhancing general single-agent search methods using domain knowledge",
AIJ 2001).

Static deadlock pruning: a cell is dead when a box on it can never reach any
target no matter where the player stands, i.e. its push distance is
infinite. This subsumes the non-target corner case and wall lines without
targets. No other state is pruned, so a search that exhausts without hitting
the node budget is a proof of unsolvability.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from ..envs.base import DIRECTIONS

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class Solution:
    actions: list  # player moves, environment action ids
    pushes: int


@dataclass
class SolveResult:
    status: str
    solution: Solution = None
    nodes: int = 0


class _Board:
    """Bitboard geometry for one level."""

    def __init__(self, level):
        self.h, self.w = level.height, level.width
        n = self.h * self.w
        self.full = (1 << n) - 1
        self.floor = 0
        for r in range(self.h):
            for c in range(self.w):
                if not level.walls[r][c]:
                    self.floor |= 1 << (r * self.w + c)
        self.targets = self._mask(level.targets)
        not_col0 = self.full
        not_colw = self.full
        for r in range(self.h):
            not_col0 &= ~(1 << (r * self.w))
            not_colw &= ~(1 << (r * self.w + self.w - 1))
        self.not_col0 = not_col0
        self.not_colw = not_colw
        # neighbor index per (cell, direction), -1 when off-grid
        self.neighbor = [[-1] * 4 for _ in range(n)]
        for r in range(self.h):
            for c in range(self.w):
                for d, (dr, dc) in enumerate(DIRECTIONS):
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < self.h and 0 <= nc < self.w:
                        self.neighbor[r * self.w + c][d] = nr * self.w + nc
        self.dist = self._push_distances()
        self.dead = 0
        for i in range(n):
            if (self.floor >> i) & 1 and self.dist[i] is None:
                self.dead |= 1 << i

    def _mask(self, cells):
        m = 0
        for r, c in cells:
            m |= 1 << (r * self.w + c)
        return m

    def idx(self, cell):
        return cell[0] * self.w + cell[1]

    def flood(self, free, start_bit):
        """All cells reachable from start through `free` cells."""
        w, nc0, ncw, full = self.w, self.not_col0, self.not_colw, self.full
        reach = start_bit
        while True:
            grown = (reach | ((reach & nc0) >> 1) | ((reach & ncw) << 1)
                     | (reach >> w) | ((reach << w) & full)) & free | reach
            if grown == reach:
                return reach
            reach = grown

    def _push_distances(self):
        """Per cell, the fewest pushes that bring a lone box there to a target.

        None marks a cell from which a box can never reach any target.
        """
        dist = [None] * (self.h * self.w)
        frontier = deque()
        for i in range(self.h * self.w):
            if (self.targets >> i) & 1:
                dist[i] = 0
                frontier.append(i)
        while frontier:
            y = frontier.popleft()
            for d in range(4):
                x = self.neighbor[y][d ^ 1]  # cell pushed toward y along d
                if x < 0 or not ((self.floor >> x) & 1) or dist[x] is not None:
                    continue
                p = self.neighbor[x][d ^ 1]  # player cell behind the box
                if p < 0 or not ((self.floor >> p) & 1):
                    continue
                dist[x] = dist[y] + 1
                frontier.append(x)
        return dist


def _lowest_bit_index(x):
    return (x & -x).bit_length() - 1


def solve_bfs(level, node_budget=200000):
    """Certify a level: solved (with actions), unsolvable, or out of budget."""
    if node_budget <= 0:
        raise ValueError("node_budget must be positive")
    board = _Board(level)
    boxes0 = board._mask(level.boxes)
    player0 = board.idx(level.player)

    if boxes0 & ~board.targets == 0:
        return SolveResult(SOLVED, Solution([], 0), nodes=0)
    if boxes0 & board.dead:
        return SolveResult(UNSOLVABLE, nodes=0)

    # States are deduplicated twice: a (boxes, player cell) filter at
    # insertion that keeps the fewest pushes seen, since A* can reach a state
    # by a longer path first, and the exact (boxes, normalized reach region)
    # key when a state is popped. Flood fills are cached per box
    # configuration, so each distinct (boxes, region) pair is flooded once.
    dist = board.dist
    visited = set()
    best_g = {(boxes0, player0): 0}
    # heap entries: (pushes + bound, -pushes, insertion count, pushes, bound,
    # boxes, player cell, parent key, (box, dir, player) push); among equal
    # totals the deeper state goes first, and the count makes the order
    # deterministic
    h0 = sum(dist[board.idx(c)] for c in level.boxes)
    heap = [(h0, 0, 0, 0, h0, boxes0, player0, None, None)]
    inserted = 1
    parents = {}
    region_cache = {}
    nodes = 0

    def get_region(boxes, player_bit):
        regions = region_cache.get(boxes)
        if regions is None:
            regions = region_cache[boxes] = []
        for reg in regions:
            if reg & player_bit:
                return reg
        reg = board.flood(board.floor & ~boxes, player_bit)
        regions.append(reg)
        return reg

    goal_state = None
    while heap:
        _, _, _, g, h, boxes, player_idx, parent_key, push = heapq.heappop(heap)
        reach = get_region(boxes, 1 << player_idx)
        key = (boxes, 1 << _lowest_bit_index(reach))
        if key in visited:
            continue
        visited.add(key)
        parents[key] = (parent_key, push[0], push[1], push[2]) if push else None
        if h == 0:  # every box on a target
            goal_state = key
            break
        nodes += 1
        if nodes > node_budget:
            return SolveResult(BUDGET_EXHAUSTED, nodes=nodes)
        ng = g + 1
        rem = boxes
        while rem:
            b = rem & -rem
            rem ^= b
            bi = b.bit_length() - 1
            for d in range(4):
                pi = board.neighbor[bi][d ^ 1]  # player stands opposite the push
                ti = board.neighbor[bi][d]      # box destination
                if pi < 0 or ti < 0:
                    continue
                if not ((reach >> pi) & 1):
                    continue
                t = 1 << ti
                if not (board.floor & t) or (boxes & t) or (board.dead & t):
                    continue
                nboxes = (boxes ^ b) | t
                pre = (nboxes, bi)
                if best_g.get(pre, ng + 1) <= ng:
                    continue
                best_g[pre] = ng
                nh = h - dist[bi] + dist[ti]
                heapq.heappush(heap, (ng + nh, -ng, inserted, ng, nh, nboxes, bi, key, (bi, d, pi)))
                inserted += 1
    if goal_state is None:
        return SolveResult(UNSOLVABLE, nodes=nodes)

    pushes = []
    key = goal_state
    while parents[key] is not None:
        key, bi, d, pi = parents[key]
        pushes.append((bi, d, pi))
    pushes.reverse()
    actions = _expand_moves(board, boxes0, board.idx(level.player), pushes)
    return SolveResult(SOLVED, Solution(actions, len(pushes)), nodes=nodes)


def _expand_moves(board, boxes, player, pushes):
    """Convert a push plan into player move actions via per-leg path BFS."""
    actions = []
    for bi, d, pi in pushes:
        if player != pi:
            actions.extend(_walk(board, boxes, player, pi))
        actions.append(d)
        boxes = (boxes ^ (1 << bi)) | (1 << board.neighbor[bi][d])
        player = bi
    return actions


def _walk(board, boxes, start, goal):
    free = board.floor & ~boxes
    prev = {start: None}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == goal:
            break
        for d in range(4):
            nxt = board.neighbor[cur][d]
            if nxt >= 0 and ((free >> nxt) & 1) and nxt not in prev:
                prev[nxt] = (cur, d)
                q.append(nxt)
    if goal not in prev:
        raise RuntimeError("push plan references an unreachable player cell")
    path = []
    cur = goal
    while prev[cur] is not None:
        cur, d = prev[cur]
        path.append(d)
    path.reverse()
    return path


def replay_solution(level, actions):
    """Check a move sequence solves a level; returns True/False."""
    from ..envs.sokoban_env import SokobanEnv

    env = SokobanEnv(level, step_limit=max(len(actions), 1) + 1)
    for a in actions:
        res = env.step(a)
        if res.done:
            return res.solved
    return env.solved
