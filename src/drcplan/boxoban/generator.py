"""Procedural Sokoban level generation by reverse play.

A floor plan is carved with random walks inside a walled 10 x 10 border, the
boxes start on their targets, and the player performs a random sequence of
pulls (the time-reverse of pushes). Any level reachable this way is solvable
by construction; a certification pass with the push-optimal solver is still
run before a level is emitted, samples the solver cannot certify within the
node budget are discarded, and levels that leave a box sitting on a target
are rejected as degenerate.
"""

from __future__ import annotations

import numpy as np

from ..envs.base import DIRECTIONS, grid_search
from .levels import GRID_SIZE, LevelSet, SokobanLevel, level_hash
from .solver import SOLVED, solve_bfs


MAX_TRIES = 100  # samples drawn before generation gives up
# solver nodes that certify a sample; above 5 boxes the push space is larger
NODE_BUDGET = 25000
NODE_BUDGET_OVER_5_BOXES = 150000


def generate_level(seed, boxes=4):
    """One certified-solvable level with the given box count.

    Reverse play guarantees solvability, but certification is still run and
    samples the solver cannot certify within the node budget are discarded,
    so every emitted level carries a within-budget solver certificate.
    Raises RuntimeError, naming the box count, the budget and why each sample
    was rejected, when no sample of `MAX_TRIES` is accepted.
    """
    node_budget = NODE_BUDGET if boxes <= 5 else NODE_BUDGET_OVER_5_BOXES
    rng = np.random.default_rng(seed)
    degenerate = 0
    for _ in range(MAX_TRIES):
        level = _reverse_play_sample(rng, boxes)
        if level is None:
            degenerate += 1
            continue
        if solve_bfs(level, node_budget=node_budget).status == SOLVED:
            return level
    raise RuntimeError(
        f"level generation exhausted {MAX_TRIES} tries (seed={seed}, boxes={boxes}): "
        f"{degenerate} samples were degenerate and {MAX_TRIES - degenerate} could not "
        f"be certified within node_budget={node_budget}")


def _reverse_play_sample(rng, n_boxes):
    """One unchecked sample: carve, seed boxes on targets, random pull phases.

    Every pull requires the player cell to be walk-reachable at the current
    box configuration, so the reversed sequence is a legal forward solution.
    """
    # wider floors for higher box counts, else boxes and targets collide
    min_floor = 24 + 4 * n_boxes
    floor = _carve_floor(rng, min_floor=min_floor, max_floor=min(min_floor + 14, 58))
    cells = sorted(floor)
    if len(cells) < n_boxes * 2 + 8:
        return None
    picks = rng.choice(len(cells), size=n_boxes + 1, replace=False)
    targets = frozenset(cells[i] for i in picks[:n_boxes])
    boxes = set(targets)
    player = cells[picks[n_boxes]]
    pulled = dict.fromkeys(boxes, 0)

    # fewer scramble phases at high box counts keep the certification search
    # tractable
    phases = n_boxes * int(rng.integers(2, 5) if n_boxes <= 5 else rng.integers(1, 3))
    for _ in range(phases):
        reach = grid_search(player, floor - boxes)
        options = []
        for b in boxes:
            for d, (dr, dc) in enumerate(DIRECTIONS):
                p = (b[0] + dr, b[1] + dc)
                q = (p[0] + dr, p[1] + dc)
                if (p in floor and p not in boxes and p in reach
                        and q in floor and q not in boxes):
                    options.append((b, d))
        if not options:
            break
        # steer half the phases at the least-moved box so all four travel
        if rng.random() < 0.5:
            low = min(pulled[b] for b, _ in options)
            options = [o for o in options if pulled[o[0]] == low]
        b, d = options[int(rng.integers(0, len(options)))]
        dr, dc = DIRECTIONS[d]
        while True:
            p = (b[0] + dr, b[1] + dc)
            q = (p[0] + dr, p[1] + dc)
            if not (p in floor and p not in boxes and q in floor and q not in boxes):
                break
            boxes.remove(b)
            boxes.add(p)
            pulled[p] = pulled.pop(b) + 1
            player = q
            b = p
            if rng.random() < 0.45:
                break

    if boxes & targets or min(pulled.values()) == 0:
        return None
    walls = tuple(tuple((r, c) not in floor for c in range(GRID_SIZE)) for r in range(GRID_SIZE))
    return SokobanLevel(walls, targets, frozenset(boxes), player)


def _carve_floor(rng, min_floor=40, max_floor=54):
    """Random-walk floor plan inside the walled border."""
    target = int(rng.integers(min_floor, max_floor + 1))
    floor = set()
    r = int(rng.integers(1, GRID_SIZE - 1))
    c = int(rng.integers(1, GRID_SIZE - 1))
    d = int(rng.integers(0, 4))
    for _ in range(400):
        floor.add((r, c))
        # occasionally widen the corridor so open rooms appear
        if rng.random() < 0.35:
            dr, dc = DIRECTIONS[(d + 2) % 4]
            wr, wc = r + dr, c + dc
            if 1 <= wr < GRID_SIZE - 1 and 1 <= wc < GRID_SIZE - 1:
                floor.add((wr, wc))
        if len(floor) >= target:
            break
        if rng.random() < 0.35:
            d = int(rng.integers(0, 4))
        dr, dc = DIRECTIONS[d]
        nr, nc = r + dr, c + dc
        if 1 <= nr < GRID_SIZE - 1 and 1 <= nc < GRID_SIZE - 1:
            r, c = nr, nc
        else:
            d = int(rng.integers(0, 4))
    return floor


def generate_level_set(seed, count, boxes=4):
    """A deduplicated set of `count` certified levels with ids 0..count-1.

    Each level owns its RNG stream (seed = base seed xor level index); hash
    collisions with earlier levels trigger a deterministic reseed. Where the
    set goes is the caller's choice (`drcplan gen-levels --tier/--split`
    name its directory); the set itself carries no tags.
    """
    out = LevelSet()
    seen = set()
    for i in range(count):
        attempt = 0
        while True:
            level_seed = (seed ^ i) + 1000003 * attempt
            level = generate_level(level_seed, boxes=boxes)
            h = level_hash(level)
            if h not in seen:
                break
            attempt += 1
        seen.add(h)
        out.add(level, i)
    return out
