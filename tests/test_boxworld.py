"""Boxworld generation (solution chain, distractor dead ends) and dynamics."""

import numpy as np
import pytest

from drcplan.envs.boxworld import (AGENT_RGB, BORDER_RGB, BRANCH_LENGTH, GEM_RGB,
                                   NUM_DISTRACTORS, PALETTE, SOLUTION_LENGTH_MAX,
                                   BoxworldEnv, generate_boxworld, solve_scripted)


def test_solution_path_is_chain_ending_at_gem():
    for seed in range(30):
        level = generate_boxworld(seed)
        chain = level.boxes[:level.solution_length]
        assert chain[0].lock_color == level.loose_key_color
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.lock_color == prev.content_color
        assert chain[-1].content_color == -1  # the gem
        assert all(b.on_solution for b in chain)
        assert all(not b.on_solution for b in level.boxes[level.solution_length:])


def test_scripted_rollout_reaches_gem():
    for seed in range(30):
        level = generate_boxworld(seed)
        actions = solve_scripted(level)
        assert actions is not None
        env = BoxworldEnv(level)
        total = 0.0
        for a in actions:
            res = env.step(a)
            total += res.reward
        assert res.solved
        assert total == pytest.approx(10.0 + level.solution_length)


def test_distractor_branches_attach_to_solution_colors():
    level = generate_boxworld(3)
    chain_colors = [level.loose_key_color] + \
        [b.content_color for b in level.boxes[:level.solution_length - 1]]
    distractors = level.boxes[level.solution_length:]
    assert len(distractors) == 6  # 2 branches x length 3
    roots = [distractors[0], distractors[3]]
    for root in roots:
        assert root.lock_color in chain_colors


def test_the_palette_holds_a_distinct_colour_for_every_lock():
    """The longest solution chain and all distractor chains draw distinct colours."""
    assert SOLUTION_LENGTH_MAX + NUM_DISTRACTORS * BRANCH_LENGTH <= len(PALETTE)


def test_opening_distractor_kills_the_run():
    """Dead-end property: spending a chain key on a distractor makes the gem
    unreachable (each colour exists exactly once)."""
    for seed in range(40):
        level = generate_boxworld(seed)
        distractors = level.boxes[level.solution_length:]
        if not distractors:
            continue
        root = distractors[0]
        # keys obtainable after wasting `root.lock_color` on the distractor:
        held = {root.content_color}
        # replay the solution chain: it now breaks at the box whose lock
        # colour was consumed
        available = {level.loose_key_color} | held
        reachable_gem = False
        key = level.loose_key_color
        for box in level.boxes[:level.solution_length]:
            if box.lock_color != key:
                break
            if box.lock_color == root.lock_color:
                break  # that key was already spent
            key = box.content_color
            if key == -1:
                reachable_gem = True
        assert not reachable_gem
        return


def test_movement_blocked_by_locks_without_key():
    level = generate_boxworld(11)
    env = BoxworldEnv(level)
    lock = level.boxes[0].lock_pos
    env.agent = (lock[0], lock[1] - 1) if lock[1] > 1 else (lock[0], lock[1] + 1)
    env.agent = (lock[0] - 1, lock[1]) if env.agent in env.contents else env.agent
    env.hand = None
    before = env.agent
    # try to walk onto the lock
    dr, dc = lock[0] - env.agent[0], lock[1] - env.agent[1]
    action = {(-1, 0): 0, (1, 0): 1, (0, -1): 2, (0, 1): 3}.get((dr, dc))
    if action is not None:
        env.step(action)
        assert env.agent == before


def test_observation_format_and_key_display():
    level = generate_boxworld(5)
    env = BoxworldEnv(level)
    obs = env.render()
    assert obs.shape == (14, 14, 3)
    np.testing.assert_array_equal(obs[0, 1], np.float32(BORDER_RGB))
    np.testing.assert_array_equal(obs[0, 0], np.float32(BORDER_RGB))  # empty hand
    np.testing.assert_array_equal(obs[level.agent_start], np.float32(AGENT_RGB))
    np.testing.assert_array_equal(obs[level.loose_key_pos],
                                  np.float32(PALETTE[level.loose_key_color]))
    # picking up the loose key paints the hand pixel
    actions = solve_scripted(level)
    env2 = BoxworldEnv(level)
    for a in actions:
        env2.step(a)
        hand = env2.render()[0, 0]
        if env2.hand is not None:
            np.testing.assert_array_equal(hand, np.float32(PALETTE[env2.hand]))
    # gem colour appears nowhere in the palette
    assert all(tuple(c) != GEM_RGB for c in PALETTE)


def test_episode_cap_120():
    level = generate_boxworld(7)
    env = BoxworldEnv(level)
    stay_pairs = [(0, 1), (1, 0)]  # bounce between two actions
    done = False
    steps = 0
    while not done:
        res = env.step(stay_pairs[steps % 2][0])
        steps += 1
        done = res.done
        assert steps <= 120
    assert steps == 120 and not res.solved


def test_determinism():
    a = generate_boxworld(21)
    b = generate_boxworld(21)
    assert a == b
