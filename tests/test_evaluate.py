"""Evaluation: episode outcomes that do not depend on batch layout, forced
no-op thinking steps, and input checks."""

import pytest

from drcplan.boxoban import generate_level_set
from drcplan.drc import DrcNetwork, preset_config
from drcplan.envs import GRIDWORLD12, GridworldEnv, SokobanEnv
from drcplan import evaluate as ev
from drcplan.evaluate import run_episodes


@pytest.fixture(scope="module")
def levels():
    return generate_level_set(7, 12).levels


@pytest.fixture(scope="module")
def net():
    return DrcNetwork.create(preset_config("sokoban", 1, 1), seed=7)


def _factories(levels):
    return [lambda lv=lv: SokobanEnv(lv, step_limit=15) for lv in levels]


@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("noops", [0, 3])
def test_outcomes_do_not_depend_on_batch_size(levels, net, mode, noops):
    runs = [run_episodes(net, _factories(levels), mode=mode, seed=7, batch_size=b,
                         force_noop_steps=noops) for b in (12, 5, 1)]
    assert len(runs[0]) == 12
    assert all(length <= 15 for _, _, length in runs[0])
    assert runs[0] == runs[1] == runs[2]


class SpyEnv(SokobanEnv):
    def reset(self):
        self.executed = []
        return super().reset()

    def step(self, action):
        self.executed.append(action)
        return super().step(action)


def test_forced_noops_are_executed_and_counted(levels):
    # the policy never picks the no-op itself, so every executed no-op was forced
    net = DrcNetwork.create(preset_config("sokoban", 1, 1), seed=7)
    net.params["heads.policy.b"].data[SokobanEnv.noop_action] = -1e9
    envs, calls = [None] * len(levels), [0] * len(levels)

    def factory(i):
        def make():
            calls[i] += 1
            envs[i] = SpyEnv(levels[i], step_limit=15 - i)  # later rows finish first
            return envs[i]
        return make

    results = run_episodes(net, [factory(i) for i in range(len(levels))], seed=7,
                           batch_size=5, force_noop_steps=3)
    assert calls == [1] * len(levels)
    for env, (_, _, length) in zip(envs, results):
        assert env.executed[:3] == [env.noop_action] * 3
        assert env.noop_action not in env.executed[3:]
        assert length == len(env.executed) == env.steps


def test_rejects_unknown_mode_and_noops_without_a_noop_action(levels, net):
    with pytest.raises(ValueError, match="unknown mode"):
        run_episodes(net, _factories(levels), mode="argmax")
    grid = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)
    factories = [lambda s=s: GridworldEnv(s, GRIDWORLD12) for s in range(2)]
    with pytest.raises(ValueError, match="no-op"):
        run_episodes(grid, factories, force_noop_steps=1)


@pytest.mark.parametrize("protocol", [ev.evaluate, ev.thinking_steps_eval])
def test_rejects_fewer_than_one_episode_per_level(monkeypatch, levels, net, protocol):
    monkeypatch.setattr(ev, "run_episodes", lambda *a, **k: pytest.fail("an episode ran"))
    with pytest.raises(ValueError, match="^episodes_per_level must be >= 1, got 0$"):
        protocol(net, _factories(levels), episodes_per_level=0)


def test_rejects_a_negative_k_max(monkeypatch, levels, net):
    monkeypatch.setattr(ev, "run_episodes", lambda *a, **k: pytest.fail("an episode ran"))
    with pytest.raises(ValueError, match="^k_max must be >= 0, got -1$"):
        ev.thinking_steps_eval(net, _factories(levels), k_max=-1)


def test_an_int_seed_is_the_one_part_stream_key(levels, net):
    """Episode j samples from RNG [*seed, j]: seed s plays the streams of the
    key (s,), and the key (s, 0) plays other streams."""
    def actions(seed):
        envs = []

        def make(lv):
            envs.append(SpyEnv(lv, step_limit=15))
            return envs[-1]

        run_episodes(net, [lambda lv=lv: make(lv) for lv in levels], seed=seed, batch_size=1)
        return [env.executed for env in envs]

    for s in (0, 7, 12):
        assert actions(s) == actions((s,)) != actions((s, 0))
