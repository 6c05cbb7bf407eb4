"""Run-config parsing: sections onto typed dataclasses, and rejected input."""

import re

import pytest

from drcplan.config import load_run_config, parse_config_text
from drcplan.drc import DrcConfig
from drcplan.envs.gridworld import GRIDWORLD12
from drcplan.envs.minipacman import MiniPacmanConfig


def _load(tmp_path, text, **kw):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_run_config(str(path), **kw)


def test_sections_map_onto_typed_fields(tmp_path):
    run = _load(tmp_path, """\
game = gridworld12        # desk-scale preset
drc.depth = 2
drc.pool_and_inject = false
train.lr_init = 1e-3
train.num_actors = 4
train.batch_size = 4
train.unroll_length = 8
gridworld.obstacle_count = 1,3
minipacman.ghost_move_prob = 0.5
env.step_limit = 40
eval.batch_size = 16
""", seed=9)
    assert run.game == "gridworld12"
    assert (run.drc.depth, run.drc.repeats, run.drc.obs_shape) == (2, 3, (12, 12, 1))
    assert run.drc.pool_and_inject is False
    assert (run.train.lr_init, run.train.num_actors, run.train.batch_size) == (1e-3, 4, 4)
    assert run.train.unroll_length == 8
    assert run.train.seed == 9
    assert run.gridworld.obstacle_count == (1, 3)
    assert run.gridworld.size == GRIDWORLD12.size
    assert run.minipacman.ghost_move_prob == 0.5
    assert (run.step_limit, run.eval_batch_size, run.levels_path) == (40, 16, "")


def test_encoder_spec(tmp_path):
    run = _load(tmp_path, "drc.encoder = 16:3:1,8:2:2\n")
    assert run.drc.encoder == ((16, 3, 1), (8, 2, 2))
    assert run.drc.encoded_shape == (40, 40, 8)


@pytest.mark.parametrize("key", ["drc.depht", "eval.mode", "eval.episodes_per_level",
                                 "data.eval_levels", "train.queue_capacity",
                                 "gridworld.step_limit", "minipacman.step_limit",
                                 "train.logit_l2_on_value_head",
                                 "drc.obs_shape", "drc.action_count", "train.clip_grad_norm"])
def test_unknown_key_is_rejected(tmp_path, key):
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
        _load(tmp_path, f"{key} = 1\n")


def test_seed_in_a_run_file_is_rejected_naming_the_flag(tmp_path):
    """The seed comes only from --seed, so the flag's default never silently
    replaces a seed written in the file."""
    with pytest.raises(ValueError, match="train.seed .*--seed"):
        _load(tmp_path, "game = gridworld12\ntrain.seed = 5\n")


@pytest.mark.parametrize("key", ["env.step_limit", "eval.batch_size"])
@pytest.mark.parametrize("value", [0, -3])
def test_counts_below_one_are_rejected(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be >= 1, got {value}$"):
        _load(tmp_path, f"{key} = {value}\n")


@pytest.mark.parametrize("key", ["gridworld.obstacle_count", "gridworld.obstacle_side"])
@pytest.mark.parametrize("value", ["", "3", "5,2"])
def test_impossible_gridworld_ranges_are_rejected(tmp_path, key, value):
    """Both are inclusive lo,hi ranges; each case used to fail only at the first env."""
    with pytest.raises(ValueError, match=f"^{key} must be an inclusive range lo,hi"):
        _load(tmp_path, f"game = gridworld12\n{key} = {value}\n")


@pytest.mark.parametrize("field,value,message", [
    ("n_ghosts", -1, "minipacman.n_ghosts must be >= 0, got -1"),
    ("n_pills", -3, "minipacman.n_pills must be >= 0, got -3"),
    ("edible_steps", -1, "minipacman.edible_steps must be >= 0, got -1"),
    ("ghost_move_prob", 7.0, "minipacman.ghost_move_prob must be in [0, 1], got 7.0"),
    ("ghost_move_prob", -0.5, "minipacman.ghost_move_prob must be in [0, 1], got -0.5"),
    ("n_pills", 1000, "minipacman.n_ghosts + minipacman.n_pills must be <= 143, "
                      "the corridor cells besides the player's, got 2 + 1000"),
])
def test_impossible_minipacman_settings_are_rejected(tmp_path, field, value, message):
    """Each used to play on: no ghosts for -1, a move probability of 7, or a
    failure inside numpy's sampling when the maze had no room left."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MiniPacmanConfig(**{field: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _load(tmp_path, f"game = minipacman\nminipacman.{field} = {value}\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ValueError, match="line 2: duplicate key 'train.seed'"):
        parse_config_text("train.seed = 1\ntrain.seed = 2\n")


@pytest.mark.parametrize("line,message", [
    ("train.batch_size = four", "train.batch_size: expected int, got 'four'"),
    ("train.lr_init = fast", "train.lr_init: expected float, got 'fast'"),
    ("drc.pool_and_inject = maybe", "drc.pool_and_inject: expected a boolean, got 'maybe'"),
    ("gridworld.obstacle_count = 2,x", "gridworld.obstacle_count: expected comma-separated integers"),
    ("drc.encoder = 16:3", "drc.encoder: expected channels:kernel:stride groups, got '16:3'"),
    ("eval.batch_size = lots", "eval.batch_size: expected int, got 'lots'"),
])
def test_a_value_that_does_not_parse_names_its_key(tmp_path, line, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _load(tmp_path, f"game = gridworld12\n{line}\n")


@pytest.mark.parametrize("size", [1, 0])
def test_a_grid_without_room_for_a_player_and_a_goal_is_rejected(tmp_path, size):
    """A player and a goal need two cells; caught at load, not after 1000 layout tries."""
    with pytest.raises(ValueError, match=f"^gridworld.size must be >= 2, got {size}$"):
        _load(tmp_path, f"game = gridworld12\ngridworld.size = {size}\n")


@pytest.mark.parametrize("lines,message", [
    ("drc.repeats = 0", "repeats must be >= 1, got 0"),
    ("drc.kernel_size = 0", "kernel_size must be >= 1, got 0"),
    ("drc.hidden_channels = 0", "hidden_channels must be >= 1, got 0"),
    ("drc.head_hidden = -2", "head_hidden must be >= 1, got -2"),
    ("drc.memory_kind = vector_lstm\ndrc.lstm_units = 0", "lstm_units must be >= 1, got 0"),
    ("drc.encoder = 0:3:1", "encoder layer 0 channels must be >= 1, got 0"),
    ("drc.encoder = 32:0:1", "encoder layer 0 kernel must be >= 1, got 0"),
    ("drc.encoder = 16:3:1,32:3:0", "encoder layer 1 stride must be >= 1, got 0"),
], ids=["repeats", "kernel_size", "hidden_channels", "head_hidden", "lstm_units", "encoder_channels",
        "encoder_kernel", "encoder_stride"])
def test_network_sizes_below_one_are_rejected(tmp_path, lines, message):
    """Caught when the config is built; all but `repeats` used to fail only
    inside numpy, when the parameters were drawn."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _load(tmp_path, f"game = gridworld12\n{lines}\n")


@pytest.mark.parametrize("field,value,message", [
    ("action_count", 0, "action_count must be >= 1, got 0"),
    ("encoder", (), "encoder must have at least one layer"),
])
def test_a_drc_config_without_actions_or_encoder_is_rejected(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DrcConfig(**{field: value})
