"""A* Sokoban solver used to certify levels.

Search runs over push moves: a state is (box set, player-reachable region),
so the solver returns push-optimal solutions expanded into full player move
sequences. Boards are encoded as integers with one bit per cell, which keeps
reachability flood fills and state hashing cheap.

States are expanded in order of pushes so far plus a lower bound on the
pushes still needed: the minimum-matching bound of Junghanns & Schaeffer
("Sokoban: enhancing general single-agent search methods using domain
knowledge", AIJ 2001). Each target gets a reverse push BFS that ignores
other boxes and the player, giving d(x, t), the fewest pushes that bring a
lone box from cell x to target t. The bound of a box set is the cheapest
assignment of its boxes to distinct targets under d, found by a dynamic
programme over sets of targets and computed once per box set and search.

The bound is consistent. A push moves one box one cell, from x to x', and
d(x, t) <= 1 + d(x', t) for every target t, since the push followed by the
best pushes from x' reaches t. So every assignment of the child costs at
least its parent's same assignment minus one, and so does the cheapest. The
first time a state is expanded its push count is therefore optimal, and
the first goal popped is push-optimal.

Pruning. A cell is dead when no target is reachable from it (d infinite for
every target), which subsumes the non-target corner case and wall lines
without targets; no push onto a dead cell is generated. A box set with no
assignment of finite cost, say two boxes that can only reach the same one
target, cannot be solved: in a solution each box ends on its own target,
and the pushes that bring it there are legal for a lone box too, so that
assignment would cost a finite number of pushes. Such a child is not
inserted, and such a start is unsolvable without a search. No other state
is pruned, so a search that exhausts without hitting the node budget is a
proof of unsolvability.

To keep the Python work per expanded node small:
- each board lists, per box cell, its statically legal pushes (player cell
  and destination on the grid and floor, destination not dead), so a push
  is tested only against the player's region and the other boxes;
- a box set is matched as its moved box plus the other boxes, whose
  cheapest assignments to each set of targets are kept: the children that
  move one box of a state share that table, and each child adds one box;
- a heap entry is one int that sorts as (pushes + bound, -pushes, insertion
  count), and the insertion count indexes a list of (boxes, player cell,
  parent's count, push) records, which also holds the parent links;
- the insertion filter keys states by the int `boxes << cell_bits | player
  cell`, and a popped state is new only if its player cell lies in no region
  already flooded for its box set: the region cache is the visited set.
`tests/oracles.py` keeps the tuple-keyed search this one must reproduce
node for node, with its own push distances and a bound found by trying
every permutation of the targets.
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
        # cell index step per direction; the border is all wall, so a step
        # from a floor cell stays on the grid
        self.step = tuple(dr * self.w + dc for dr, dc in DIRECTIONS)
        # one reverse push BFS per target; per cell, (1 << k, pushes) for
        # each target k (in cell order) that a lone box there can reach; a
        # cell with none is dead
        self.to_targets = [[] for _ in range(n)]
        targets = [i for i in range(n) if (self.targets >> i) & 1]
        for k, target in enumerate(targets):
            for i, d in self._push_distances(target).items():
                self.to_targets[i].append((1 << k, d))
        # per box cell, its statically legal pushes in direction order:
        # (player cell bit, destination bit, (box, dir, player)); both cells
        # are floor, and the destination is not dead
        self.pushes = [[] for _ in range(n)]
        for bi in range(n):
            if not self.to_targets[bi]:
                continue
            for d, s in enumerate(self.step):
                pi, ti = bi - s, bi + s
                if (self.floor >> pi) & 1 and self.to_targets[ti]:
                    self.pushes[bi].append((1 << pi, 1 << ti, (bi, d, pi)))

    def _mask(self, cells):
        m = 0
        for r, c in cells:
            m |= 1 << (r * self.w + c)
        return m

    def idx(self, cell):
        return cell[0] * self.w + cell[1]

    def _push_distances(self, target):
        """Per cell from which a lone box can reach `target`, the fewest
        pushes that bring it there."""
        dist = {target: 0}
        frontier = deque([target])
        while frontier:
            y = frontier.popleft()
            for s in self.step:
                x = y - s  # a box here is pushed onto y by a player on x - s
                if x not in dist and (self.floor >> x) & 1 and (self.floor >> (x - s)) & 1:
                    dist[x] = dist[y] + 1
                    frontier.append(x)
        return dist


class _Matching:
    """Matching bounds for one search, cached per box mask in `bounds`.

    A box set's bound is the fewest pushes of any assignment of its boxes to
    distinct targets, each box costing its static push distance to its
    target; None when no assignment has every distance finite. A box set is
    matched as one box on `cell` plus the `others`, whose cheapest
    assignments to each set of targets are kept per mask: the children that
    move the same box of a state share them.
    """

    def __init__(self, board):
        self.to_targets = board.to_targets
        self.all_targets = (1 << board.targets.bit_count()) - 1
        self.bounds = {}
        self._rest = {}

    def bound(self, boxes, others, cell):
        """The bound of `boxes`, which is `others` plus a box on `cell`;
        also stored in `bounds`."""
        rest = self._rest.get(others)
        if rest is None:
            rest = self._rest[others] = self._assignments(others)
        h = None
        for t, d in self.to_targets[cell]:
            c = rest.get(self.all_targets ^ t)
            if c is not None and (h is None or c + d < h):
                h = c + d
        self.bounds[boxes] = h
        return h

    def _assignments(self, boxes):
        """Per set of targets (a mask of target bits), the cheapest
        assignment of `boxes` to exactly those targets: a dynamic programme
        that adds the boxes in cell order."""
        cost = {0: 0}
        while boxes:
            b = boxes & -boxes
            boxes ^= b
            pairs = self.to_targets[b.bit_length() - 1]
            nxt = {}
            for used, c in cost.items():
                for t, d in pairs:
                    if not used & t:
                        key = used | t
                        if key not in nxt or nxt[key] > c + d:
                            nxt[key] = c + d
            cost = nxt
        return cost


def solve_bfs(level, node_budget=200000):
    """Certify a level: solved (with actions), unsolvable, or out of budget."""
    if node_budget <= 0:
        raise ValueError("node_budget must be positive")
    board = _Board(level)
    boxes0 = board._mask(level.boxes)
    player0 = board.idx(level.player)

    if boxes0 & ~board.targets == 0:
        return SolveResult(SOLVED, Solution([], 0), nodes=0)
    matching = _Matching(board)
    low = boxes0 & -boxes0
    h0 = matching.bound(boxes0, boxes0 ^ low, low.bit_length() - 1)
    if h0 is None:
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
    heap = [(h0 << f_shift) | (g_top << count_bits)]
    states = [(boxes0, player0, None, None)]
    best_g = {boxes0 << cell_bits | player0: 0}
    region_cache = {}
    bounds, bound_of = matching.bounds, matching.bound
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
            for player_need, t, push in pushes_from[bi]:
                if not (reach & player_need) or boxes & t:
                    continue
                nboxes = boxes ^ b | t
                pre = nboxes << cell_bits | bi
                if best_g.get(pre, ng + 1) <= ng:
                    continue
                best_g[pre] = ng
                nh = bounds.get(nboxes, -1)
                if nh == -1:
                    nh = bound_of(nboxes, boxes ^ b, t.bit_length() - 1)
                if nh is None:  # no box-target matching: unsolvable
                    continue
                heappush(heap, ((ng + nh) << f_shift) | ng_field | len(states))
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
    a `grid_search` path, stopped at the leg's end, through the free cells.
    The plan keeps one set of free cells and moves one box in it per push."""
    w = board.w
    free = board.floor & ~boxes
    open_cells = {divmod(i, w) for i in range(free.bit_length()) if free >> i & 1}
    actions = []
    for bi, d, pi in pushes:
        if player != pi:
            goal = divmod(pi, w)
            path = grid_path(grid_search(divmod(player, w), open_cells, goal), goal)
            if path is None:
                raise RuntimeError("push plan references an unreachable player cell")
            actions.extend(path)
        actions.append(d)
        open_cells.add(divmod(bi, w))
        open_cells.discard(divmod(bi + board.step[d], w))
        player = bi
    return actions


def replay_solution(level, actions):
    """Check a move sequence solves a level; returns True/False. The moves
    run through `SokobanEnv`'s rules, and the only frame drawn is the one
    of the env's initial `reset()`."""
    from ..envs.sokoban_env import SokobanEnv

    env = SokobanEnv(level, step_limit=max(len(actions), 1) + 1)
    for a in actions:
        res = env.step(a)
        if res.done:
            return res.solved
    return env.solved
