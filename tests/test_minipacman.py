"""Maze-chase dynamics: food, pills, edible ghosts, resets, determinism."""

from collections import deque

import numpy as np
import pytest

from drcplan.envs.minipacman import (CORRIDORS, FOOD_RGB, GHOST_EDIBLE_RGB,
                                     GHOST_RECOVERING_RGB, GHOST_RGB, HEIGHT,
                                     MAZE, PILL_RGB, PLAYER_RGB, WALL_RGB,
                                     WIDTH, EMPTY_RGB, MiniPacmanConfig,
                                     MiniPacmanEnv)

FROZEN = MiniPacmanConfig(ghost_move_prob=0.0)


def test_maze_dimensions_and_connectivity():
    assert len(MAZE) == HEIGHT == 15
    assert all(len(row) == WIDTH == 19 for row in MAZE)
    start = CORRIDORS[0]
    seen = {start}
    q = deque([start])
    while q:
        r, c = q.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            if (r + dr, c + dc) in set(CORRIDORS) and (r + dr, c + dc) not in seen:
                seen.add((r + dr, c + dc))
                q.append((r + dr, c + dc))
    assert seen == set(CORRIDORS)


def test_observation_shape_and_colors_distinct():
    env = MiniPacmanEnv(seed=0)
    obs = env.render()
    assert obs.shape == (15, 19, 3)
    colors = [WALL_RGB, EMPTY_RGB, FOOD_RGB, PILL_RGB, PLAYER_RGB, GHOST_RGB,
              GHOST_EDIBLE_RGB, GHOST_RECOVERING_RGB]
    assert len({tuple(c) for c in colors}) == len(colors)


def _step_toward(env, target):
    dr, dc = target[0] - env.player[0], target[1] - env.player[1]
    return {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3}[(dr, dc)]


def test_eating_food_rewards_one():
    env = MiniPacmanEnv(seed=0, config=FROZEN)
    for nbr in [(env.player[0] + d[0], env.player[1] + d[1])
                for d in ((-1, 0), (1, 0), (0, -1), (0, 1))]:
        if nbr in env.food:
            res = env.step(_step_toward(env, nbr))
            assert res.reward == pytest.approx(1.0)
            assert nbr not in env.food
            return
    raise AssertionError("no adjacent food at start")


def test_pill_makes_ghosts_edible_and_eating_ghost_rewards_five():
    env = MiniPacmanEnv(seed=2, config=MiniPacmanConfig(ghost_move_prob=0.0, n_ghosts=1))
    env.pills = {env.player}  # force a pill under the player's next stay
    res = env.step(4)
    assert res.reward == pytest.approx(2.0)
    ghost = env.ghosts[0]
    assert ghost.edible > 0
    # teleport the ghost next to the player and walk into it
    ghost.pos = next(p for p in CORRIDORS
                     if abs(p[0] - env.player[0]) + abs(p[1] - env.player[1]) == 1)
    env.food.discard(ghost.pos)  # isolate the ghost reward from food
    before = ghost.pos
    res = env.step(_step_toward(env, ghost.pos))
    assert res.reward == pytest.approx(5.0)
    assert not res.done
    assert env.ghosts[0].pos != before  # respawned elsewhere
    assert env.ghosts[0].edible == 0


def test_dangerous_ghost_contact_ends_episode():
    env = MiniPacmanEnv(seed=3, config=MiniPacmanConfig(ghost_move_prob=0.0, n_ghosts=1))
    ghost = env.ghosts[0]
    ghost.pos = next(p for p in CORRIDORS
                     if abs(p[0] - env.player[0]) + abs(p[1] - env.player[1]) == 1)
    res = env.step(_step_toward(env, ghost.pos))
    assert res.done and not res.solved
    with pytest.raises(RuntimeError):
        env.step(4)


def test_frozen_ghosts_give_identical_successors():
    def run():
        env = MiniPacmanEnv(seed=5, config=FROZEN)
        env.step(4)
        env.step(4)
        return (env.player, tuple(g.pos for g in env.ghosts),
                frozenset(env.food), frozenset(env.pills))
    assert run() == run()


def test_ghosts_move_with_probability():
    moved = 0
    trials = 200
    env = MiniPacmanEnv(seed=7, config=MiniPacmanConfig(ghost_move_prob=0.95, n_ghosts=1))
    for _ in range(trials):
        if env.done:
            env = MiniPacmanEnv(seed=int(env.rng.integers(1 << 30)),
                                config=MiniPacmanConfig(ghost_move_prob=0.95, n_ghosts=1))
        before = env.ghosts[0].pos
        env.step(4)
        if not env.done and env.ghosts[0].pos != before:
            moved += 1
    assert moved / trials > 0.80  # 0.95 move prob minus dead-end stalls


def test_level_resets_when_food_cleared():
    env = MiniPacmanEnv(seed=1, config=MiniPacmanConfig(ghost_move_prob=0.0, n_ghosts=1))
    env.food = {next(iter(env.food & {(env.player[0] + d[0], env.player[1] + d[1])
                                      for d in ((-1, 0), (1, 0), (0, -1), (0, 1))}
                         or env.food))}
    target = next(iter(env.food))
    if abs(target[0] - env.player[0]) + abs(target[1] - env.player[1]) == 1:
        res = env.step(_step_toward(env, target))
    else:
        env.food = {p for p in CORRIDORS
                    if abs(p[0]-env.player[0]) + abs(p[1]-env.player[1]) == 1}
        res = env.step(_step_toward(env, next(iter(env.food))))
    assert not res.done  # episode continues
    assert len(env.food) > 10  # refilled
    assert len(env.pills) == env.config.n_pills


def test_episode_cap():
    env = MiniPacmanEnv(seed=9, config=MiniPacmanConfig(ghost_move_prob=0.0), step_limit=25)
    done = False
    steps = 0
    while not done:
        done = env.step(4).done
        steps += 1
    assert steps == 25


def test_determinism_with_stochastic_ghosts():
    def run(seed):
        env = MiniPacmanEnv(seed=seed)
        rng = np.random.default_rng(0)
        trace = []
        for _ in range(80):
            res = env.step(int(rng.integers(0, 5)))
            trace.append((res.reward, res.done, env.player,
                          tuple(g.pos for g in env.ghosts)))
            if res.done:
                break
        return trace
    assert run(42) == run(42)
    assert run(42) != run(43)
