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

To keep the Python work per expanded node small:
- each board lists, per box cell, its statically legal pushes (player cell
  and destination on the grid and floor, destination not dead) with their
  change of the bound, so a push is tested only against the player's region
  and the other boxes;
- a heap entry is one int that sorts as (pushes + bound, -pushes, insertion
  count), and the insertion count indexes a list of (boxes, player cell,
  parent's count, push) records, which also holds the parent links;
- the insertion filter keys states by the int `boxes << cell_bits | player
  cell`, and a popped state is new only if its player cell lies in no region
  already flooded for its box set: the region cache is the visited set.
`tests/oracles.py` keeps the tuple-keyed search this one must reproduce
node for node.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from ..envs.base import DIRECTIONS, grid_path, grid_search

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
        # per box cell, its statically legal pushes in direction order:
        # (player cell bit, destination bit, bound change, (box, dir, player));
        # both cells are on the grid and floor, and the destination is not dead
        self.pushes = [[] for _ in range(n)]
        for bi in range(n):
            if self.dist[bi] is None:
                continue
            for d in range(4):
                pi, ti = self.neighbor[bi][d ^ 1], self.neighbor[bi][d]
                if pi < 0 or ti < 0 or not (self.floor >> pi) & 1 or self.dist[ti] is None:
                    continue
                self.pushes[bi].append((1 << pi, 1 << ti, self.dist[ti] - self.dist[bi], (bi, d, pi)))

    def _mask(self, cells):
        m = 0
        for r, c in cells:
            m |= 1 << (r * self.w + c)
        return m

    def idx(self, cell):
        return cell[0] * self.w + cell[1]

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
    # by a longer path first, and the exact (boxes, reach region) check when
    # a state is popped. Each box configuration keeps the regions expanded
    # with it, so each distinct (boxes, region) pair is flooded once.
    cell_bits = (board.h * board.w - 1).bit_length()
    # Heap order is (pushes + bound, -pushes, insertion count): among equal
    # totals the deeper state goes first, and the count makes the order
    # deterministic. At most `node_budget` states are expanded, so pushes
    # stay <= node_budget, and each expansion inserts at most 4 per box; the
    # field widths below hold any budget. The count indexes `states`.
    g_bits = node_budget.bit_length()
    g_top = (1 << g_bits) - 1
    count_bits = (4 * len(level.boxes) * node_budget + 1).bit_length()
    count_mask = (1 << count_bits) - 1
    f_shift = g_bits + count_bits
    h0 = sum(board.dist[board.idx(c)] for c in level.boxes)
    heap = [(h0 << f_shift) | (g_top << count_bits)]
    states = [(boxes0, player0, None, None)]
    best_g = {boxes0 << cell_bits | player0: 0}
    region_cache = {}
    pushes_from = board.pushes
    floor, w, nc0, ncw = board.floor, board.w, board.not_col0, board.not_colw
    heappop, heappush = heapq.heappop, heapq.heappush
    nodes = 0

    while heap:
        entry = heappop(heap)
        count = entry & count_mask
        boxes, player, _, _ = states[count]
        player_bit = 1 << player
        regions = region_cache.get(boxes)
        if regions is None:
            regions = region_cache[boxes] = []
        else:
            for reach in regions:
                if reach & player_bit:
                    break
            else:
                reach = 0
            if reach:  # this (boxes, region) was expanded before
                continue
        free = floor & ~boxes
        reach = player_bit
        while True:  # bit-parallel flood fill through free cells
            grown = (reach | ((reach & nc0) >> 1) | ((reach & ncw) << 1)
                     | (reach >> w) | (reach << w)) & free
            if grown == reach:
                break
            reach = grown
        regions.append(reach)
        g = g_top - ((entry >> count_bits) & g_top)
        h = (entry >> f_shift) - g
        if h == 0:  # every box on a target
            break
        nodes += 1
        if nodes > node_budget:
            return SolveResult(BUDGET_EXHAUSTED, nodes=nodes)
        ng = g + 1
        ng_field = (g_top - ng) << count_bits
        rem = boxes
        while rem:
            b = rem & -rem
            rem ^= b
            bi = b.bit_length() - 1
            for player_need, t, dh, push in pushes_from[bi]:
                if not (reach & player_need) or boxes & t:
                    continue
                nboxes = boxes ^ b | t
                pre = nboxes << cell_bits | bi
                if best_g.get(pre, ng + 1) <= ng:
                    continue
                best_g[pre] = ng
                heappush(heap, ((ng + h + dh) << f_shift) | ng_field | len(states))
                states.append((nboxes, bi, count, push))
    else:
        return SolveResult(UNSOLVABLE, nodes=nodes)

    pushes = []
    _, _, parent, push = states[count]
    while push is not None:
        pushes.append(push)
        _, _, parent, push = states[parent]
    pushes.reverse()
    actions = _expand_moves(board, boxes0, player0, pushes)
    return SolveResult(SOLVED, Solution(actions, len(pushes)), nodes=nodes)


def _expand_moves(board, boxes, player, pushes):
    """Convert a push plan into player move actions, walking each leg along
    a `grid_search` path through the free cells."""
    w = board.w
    actions = []
    for bi, d, pi in pushes:
        if player != pi:
            free = board.floor & ~boxes
            open_cells = {divmod(i, w) for i in range(free.bit_length()) if free >> i & 1}
            path = grid_path(grid_search(divmod(player, w), open_cells), divmod(pi, w))
            if path is None:
                raise RuntimeError("push plan references an unreachable player cell")
            actions.extend(path)
        actions.append(d)
        boxes = (boxes ^ (1 << bi)) | (1 << board.neighbor[bi][d])
        player = bi
    return actions


def replay_solution(level, actions):
    """Check a move sequence solves a level; returns True/False."""
    from ..envs.sokoban_env import SokobanEnv

    env = SokobanEnv(level, step_limit=max(len(actions), 1) + 1)
    for a in actions:
        res = env.step(a)
        if res.done:
            return res.solved
    return env.solved
