"""Sokoban rules, rewards, rendering, and the reward-accounting property."""

import numpy as np
import pytest

from drcplan.boxoban import (SokobanLevel, UNSOLVABLE, generate_level,
                             parse_levels, serialize_levels, solve_bfs)
from drcplan.boxoban.levels import LevelSet
from drcplan.envs.sokoban_env import (ACTION_LEFT, ACTION_NOOP, ACTION_RIGHT,
                                      ACTION_UP, SPRITES, SokobanEnv)


def level_from(text):
    return SokobanLevel.from_lines(text.strip("\n").split("\n"))


SIMPLE = level_from("""\
##########
#        #
#  @$.   #
#        #
#        #
#        #
#        #
#        #
#        #
##########""")

TWO_BOX = level_from("""\
##########
#        #
#  @$.   #
#   $.   #
#        #
#        #
#        #
#        #
#        #
##########""")


def test_push_box_onto_target_not_final():
    env = SokobanEnv(TWO_BOX)
    res = env.step(ACTION_RIGHT)
    assert res.reward == pytest.approx(0.99)
    assert not res.done


def test_push_last_box_onto_target():
    env = SokobanEnv(SIMPLE)
    res = env.step(ACTION_RIGHT)
    assert res.reward == pytest.approx(10.99)
    assert res.done and res.solved


def test_noop_costs_step_and_changes_nothing():
    env = SokobanEnv(SIMPLE)
    before = (env.player, frozenset(env.boxes))
    res = env.step(ACTION_NOOP)
    assert res.reward == pytest.approx(-0.01)
    assert (env.player, frozenset(env.boxes)) == before
    assert env.steps == 1


def test_removing_box_from_target_penalised():
    env = SokobanEnv(TWO_BOX)
    env.step(ACTION_RIGHT)  # box onto target: +1
    env.step(ACTION_RIGHT)  # push it off the target: -1
    env2 = SokobanEnv(TWO_BOX)
    env2.step(ACTION_RIGHT)
    res = env2.step(ACTION_RIGHT)
    assert res.reward == pytest.approx(-1.01)


def test_wall_blocks_and_costs_time():
    env = SokobanEnv(SIMPLE)
    for _ in range(2):
        res = env.step(ACTION_LEFT)
    res = env.step(ACTION_LEFT)  # now against the wall
    assert env.player == (2, 1)
    assert res.reward == pytest.approx(-0.01)


def test_episode_cap_exactly_120():
    env = SokobanEnv(SIMPLE)
    for t in range(119):
        res = env.step(ACTION_NOOP)
        assert not res.done
    res = env.step(ACTION_NOOP)
    assert res.done and not res.solved
    assert env.steps == 120


def test_step_after_done_raises():
    env = SokobanEnv(SIMPLE)
    env.step(ACTION_RIGHT)
    with pytest.raises(RuntimeError):
        env.step(ACTION_NOOP)


def test_render_shape_and_range():
    obs = SokobanEnv(SIMPLE).render()
    assert obs.shape == (80, 80, 3)
    assert obs.dtype == np.float32
    assert obs.min() >= 0.0 and obs.max() <= 1.0


def test_render_locality_two_player_positions():
    env = SokobanEnv(SIMPLE)
    a = env.render()
    env.step(ACTION_UP)
    b = env.render()
    diff = np.argwhere((a != b).any(axis=2))
    blocks = {(r // 8, c // 8) for r, c in diff}
    assert blocks == {(2, 3), (1, 3)}  # old and new player cells only


def test_render_roundtrip_bit_identical():
    level = generate_level(17)
    text = serialize_levels(LevelSet(levels=[level], ids=[0]))
    back = parse_levels(text).levels[0]
    np.testing.assert_array_equal(SokobanEnv(level).render(), SokobanEnv(back).render())


def test_sprites_pairwise_distinct():
    n = SPRITES.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            assert np.any(SPRITES[i] != SPRITES[j])


def test_deterministic_replay():
    level = generate_level(23)
    rng = np.random.default_rng(0)
    actions = rng.integers(0, 5, size=60)

    def run():
        env = SokobanEnv(level)
        out = []
        for a in actions:
            res = env.step(int(a))
            out.append((res.reward, res.done))
            if res.done:
                break
        return out, env.player, frozenset(env.boxes)

    assert run() == run()


def reward_decomposition_holds(level, seed, steps=120):
    """Oracle: rewards must equal -0.01 + (box-on-target delta) + 10 * win."""
    env = SokobanEnv(level)
    rng = np.random.default_rng(seed)
    total = 0.0
    events_clean = True
    while True:
        on_before = len(env.boxes & env.level.targets)
        res = env.step(int(rng.integers(0, 5)))
        delta = len(env.boxes & env.level.targets) - on_before
        want = -0.01 + delta + (10.0 if res.solved else 0.0)
        assert res.reward == pytest.approx(want, abs=1e-9)
        if delta < 0:
            events_clean = False
        total += res.reward
        if res.done:
            return res.solved, events_clean, total, env.steps


def test_reward_accounting_random_rollouts():
    levels = [generate_level(s) for s in range(8)]
    for i, level in enumerate(levels):
        for attempt in range(6):
            solved, clean, total, steps = reward_decomposition_holds(level, seed=[i, attempt])
            if solved and clean:
                assert total == pytest.approx(14.0 - 0.01 * steps, abs=1e-9)


def test_irreversibility_witness():
    # pushing the box into the top-left corner (a non-target) is fatal
    level = level_from("""\
##########
#        #
# $      #
# @   .  #
#        #
#        #
#        #
#        #
#        #
##########""")
    assert solve_bfs(level).status == "solved"
    env = SokobanEnv(level)
    env.step(ACTION_UP)  # box now at (1,2)
    stuck = SokobanLevel(level.walls, level.targets, frozenset(env.boxes), env.player)
    assert solve_bfs(stuck).status == UNSOLVABLE
