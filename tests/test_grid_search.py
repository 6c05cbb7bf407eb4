"""`grid_search` and `grid_path`, the breadth-first search that the grid
games, the level generator and the Sokoban solver share, against brute force
on random small grids."""

from hypothesis import given, settings, strategies as st

from drcplan.envs.base import DIRECTIONS, grid_path, grid_search


def neighbours(cell):
    return [(cell[0] + dr, cell[1] + dc) for dr, dc in DIRECTIONS]


def flood_distances(start, open_cells):
    """Moves from `start` to each cell it reaches through `open_cells`,
    relaxed until no distance changes."""
    dist = {start: 0}
    changed = True
    while changed:
        changed = False
        for cell, d in list(dist.items()):
            for nxt in neighbours(cell):
                if nxt in open_cells and dist.get(nxt, d + 2) > d + 1:
                    dist[nxt] = d + 1
                    changed = True
    return dist


def first_shortest_path(start, goal, open_cells):
    """Of the shortest paths, the one that takes the earliest direction at
    every step: each step goes to the first neighbour one move nearer."""
    to_goal = flood_distances(goal, open_cells)
    path, cell = [], start
    while cell != goal:
        action, cell = next((a, nxt) for a, nxt in enumerate(neighbours(cell))
                            if to_goal.get(nxt) == to_goal[cell] - 1)
        path.append(action)
    return path


@st.composite
def grids(draw):
    """Open cells of an up to 6 x 6 grid, a start among them and any goal."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = [(r, c) for r in range(h) for c in range(w)]
    mask = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    start = draw(st.sampled_from(cells))
    open_cells = {cell for cell, is_open in zip(cells, mask) if is_open} | {start}
    return open_cells, start, draw(st.sampled_from(cells))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid=grids())
def test_grid_search_matches_brute_force(grid):
    open_cells, start, goal = grid
    parents = grid_search(start, open_cells)
    dist = flood_distances(start, open_cells)
    assert parents.keys() == dist.keys()
    for cell in parents:
        path = grid_path(parents, cell)
        # the path replays through open cells to the cell, at BFS distance
        at = start
        for action in path:
            at = neighbours(at)[action]
            assert at in open_cells
        assert at == cell and len(path) == dist[cell]
        # ties between shortest paths go to the earlier direction
        assert path == first_shortest_path(start, cell, open_cells)
    assert grid_path(parents, start) == []
    if goal not in dist:
        assert grid_path(parents, goal) is None

