"""Gridworld generation (rejection-sampled reachability) and dynamics."""

import re
from collections import deque

import numpy as np
import pytest

from drcplan.envs import gridworld
from drcplan.envs.gridworld import (GRIDWORLD12, GridworldConfig, GridworldEnv,
                                    generate_gridworld)


def bfs_path_exists(layout):
    size = len(layout.obstacles)
    seen = {layout.player}
    q = deque([layout.player])
    while q:
        r, c = q.popleft()
        if (r, c) == layout.goal:
            return True
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < size and 0 <= nc < size and not layout.obstacles[nr][nc] \
                    and (nr, nc) not in seen:
                seen.add((nr, nc))
                q.append((nr, nc))
    return False


def test_goal_reachable_for_many_seeds():
    for seed in range(300):
        assert bfs_path_exists(generate_gridworld(seed))


def test_obstacle_count_in_range_over_1000_seeds():
    cfg = GridworldConfig()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(cfg.obstacle_count[0], cfg.obstacle_count[1] + 1))
        assert 12 <= count <= 24


def test_player_goal_on_distinct_empty_cells():
    for seed in range(200):
        lay = generate_gridworld(seed)
        assert lay.player != lay.goal
        assert not lay.obstacles[lay.player[0]][lay.player[1]]
        assert not lay.obstacles[lay.goal[0]][lay.goal[1]]


def test_same_seed_same_level():
    a = generate_gridworld(99)
    b = generate_gridworld(99)
    assert a == b


def test_goal_reward_and_termination():
    env = _env_with_adjacent_goal()
    dr = env.layout.goal[0] - env.player[0]
    action = 0 if dr < 0 else 1 if dr > 0 else (2 if env.layout.goal[1] < env.player[1] else 3)
    res = env.step(action)
    assert res.reward == 1.0 and res.done and res.solved


def _env_with_adjacent_goal():
    for seed in range(500):
        env = GridworldEnv(seed, GRIDWORLD12)
        pr, pc = env.player
        gr, gc = env.layout.goal
        if abs(pr - gr) + abs(pc - gc) == 1:
            return env
    raise AssertionError("no adjacent-goal layout found")


def test_obstacle_reward_and_termination():
    for seed in range(500):
        env = GridworldEnv(seed, GRIDWORLD12)
        pr, pc = env.player
        for a, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            nr, nc = pr + dr, pc + dc
            size = env.config.size
            if 0 <= nr < size and 0 <= nc < size and env.layout.obstacles[nr][nc]:
                res = env.step(a)
                assert res.reward == -1.0 and res.done and not res.solved
                return
    raise AssertionError("no adjacent-obstacle layout found")


def test_plain_move_costs_001():
    for seed in range(200):
        env = GridworldEnv(seed, GRIDWORLD12)
        pr, pc = env.player
        for a, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            nr, nc = pr + dr, pc + dc
            size = env.config.size
            if 0 <= nr < size and 0 <= nc < size and not env.layout.obstacles[nr][nc] \
                    and (nr, nc) != env.layout.goal:
                res = env.step(a)
                assert res.reward == pytest.approx(-0.01)
                assert not res.done
                return
    raise AssertionError("no safe move found")


def test_offgrid_moves_clamp():
    for seed in range(300):
        env = GridworldEnv(seed, GRIDWORLD12)
        if env.player[0] == 0:
            res = env.step(0)
            assert env.player[0] == 0
            assert res.reward == pytest.approx(-0.01)
            return
    raise AssertionError("no top-row start found")


def test_observation_encoding():
    env = GridworldEnv(3, GRIDWORLD12)
    obs = env.render()
    assert obs.shape == (12, 12, 1)
    assert obs[env.player[0], env.player[1], 0] == 0.25
    assert obs[env.layout.goal[0], env.layout.goal[1], 0] == 0.5
    values = set(np.unique(obs))
    assert values <= {0.0, 0.25, 0.5, 1.0}


def test_episode_cap():
    env = GridworldEnv(3, GridworldConfig(size=12, obstacle_count=(0, 0),
                                          obstacle_side=(2, 2)), step_limit=7)
    done = False
    for t in range(7):
        if done:
            break
        res = env.step(0 if env.player[0] > 0 else 1)
        done = res.done
    assert env.steps <= 7 and (done or env.steps == 7)


def test_generation_error_after_retry_bound(monkeypatch):
    # a board this full can never host both player and goal
    monkeypatch.setattr(gridworld, "MAX_TRIES", 5)
    cfg = GridworldConfig(size=4, obstacle_count=(30, 30), obstacle_side=(4, 4))
    with pytest.raises(RuntimeError, match="^no reachable layout found after 5 tries"):
        generate_gridworld(0, cfg)


@pytest.mark.parametrize("overrides, message", [
    (dict(size=1), "gridworld.size must be >= 2, got 1"),
    (dict(obstacle_count=(5, 2)),
     "gridworld.obstacle_count must be an inclusive range lo,hi with 0 <= lo <= hi, got (5, 2)"),
    (dict(obstacle_side=(3,)),
     "gridworld.obstacle_side must be an inclusive range lo,hi with 0 <= lo <= hi, got (3,)"),
], ids=["size", "obstacle_count", "obstacle_side"])
def test_a_config_built_in_python_is_checked_like_a_run_config(overrides, message):
    """The checks `load_run_config` reports also hold for a config built
    directly, before any layout is sampled."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridworldEnv(0, GridworldConfig(**overrides))
