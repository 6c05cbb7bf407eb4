"""Episode sources: `env.step_limit` reaches the envs of every game, an
unset limit keeps each game's own cap (500 steps for MiniPacman, 120 for the
others), each game's network preset fits the envs its source makes, and
every env keeps its running episode's record."""

import numpy as np
import pytest

from drcplan.boxoban import generate_level_set
from drcplan.drc import preset_config
from drcplan.envs import GridworldConfig, MiniPacmanConfig
from drcplan.envs.minipacman import ACTION_STAY
from drcplan.envs.sokoban_env import ACTION_NOOP
from drcplan.sources import source_factory

UP, DOWN = 0, 1


def _gridworld_action(env):
    """Walk up the player's column to the edge, where moves clamp in place;
    down instead when the goal lies above in that column. On an
    obstacle-free grid this never ends an episode."""
    (pr, pc), (gr, gc) = env.player, env.layout.goal
    return DOWN if gc == pc and gr < pr else UP


# per game: source_factory keywords, and a policy that never ends an episode
GAMES = {
    "sokoban": (lambda: {"levels": generate_level_set(3, 2, boxes=1)}, lambda env: ACTION_NOOP),
    "gridworld": (lambda: {"gridworld_config": GridworldConfig(obstacle_count=(0, 0))},
                  _gridworld_action),
    "gridworld12": (lambda: {"gridworld_config": GridworldConfig(size=12, obstacle_count=(0, 0))},
                    _gridworld_action),
    # walking up never reaches the gem, which sits left of a lock
    "boxworld": (lambda: {}, lambda env: UP),
    "minipacman": (lambda: {"minipacman_config": MiniPacmanConfig(n_ghosts=0)},
                   lambda env: ACTION_STAY),
}


def _episode_lengths(game, **limit):
    kwargs, policy = GAMES[game]
    source = source_factory(game, **kwargs(), **limit)(seed=4, actor_index=1)
    lengths = []
    for _ in range(3):
        env = source.next_env()
        steps, done = 0, False
        while not done:
            done = env.step(policy(env)).done
            steps += 1
        assert not env.solved
        lengths.append(steps)
    return lengths


@pytest.mark.parametrize("game", sorted(GAMES))
def test_step_limit_caps_the_episodes_of_every_game(game):
    assert _episode_lengths(game, step_limit=7) == [7, 7, 7]


@pytest.mark.parametrize("game", sorted(GAMES))
def test_unset_step_limit_keeps_the_games_own_cap(game):
    cap = 500 if game == "minipacman" else 120
    assert _episode_lengths(game) == [cap] * 3


@pytest.mark.parametrize("game", sorted(GAMES))
def test_each_env_keeps_its_episode_record(game):
    """`steps`, `episode_return`, `done` and `solved` follow the step
    results, a finished episode refuses another step, and `reset()` starts
    a new record."""
    kwargs = {"levels": generate_level_set(3, 2, boxes=1)} if game == "sokoban" else {}
    env = source_factory(game, **kwargs, step_limit=9)(seed=4, actor_index=1).next_env()
    rng = np.random.default_rng(0)
    for _ in range(2):
        assert (env.steps, env.episode_return, env.done, env.solved) == (0, 0.0, False, False)
        ret, length, res = 0.0, 0, None
        while not env.done:
            res = env.step(int(rng.integers(env.action_count)))
            ret += res.reward
            length += 1
            assert (env.steps, env.episode_return, env.done) == (length, ret, res.done)
        assert env.solved == res.solved and length <= 9
        with pytest.raises(RuntimeError, match="after the episode ended"):
            env.step(0)
        env.reset()


@pytest.mark.parametrize("game", sorted(GAMES))
def test_the_games_preset_fits_its_envs(game):
    """The network's input shape and action count come from the game's
    preset: they are what the game's envs render and accept."""
    kwargs = {"levels": generate_level_set(3, 2, boxes=1)} if game == "sokoban" else {}
    env = source_factory(game, **kwargs)(seed=4, actor_index=1).next_env()
    preset = preset_config(game)
    assert env.reset().shape == preset.obs_shape
    assert env.action_count == preset.action_count
    with pytest.raises(ValueError, match="out of range"):
        env.step(preset.action_count)
    assert env.step(preset.action_count - 1).obs.shape == preset.obs_shape
