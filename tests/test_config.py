"""Run-config parsing: sections onto typed dataclasses, and rejected input."""

import pytest

from drcplan.config import load_run_config, parse_config_text
from drcplan.envs.gridworld import GRIDWORLD12


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
train.batch_size = 4
train.queue_capacity = 8
gridworld.obstacle_count = 1,3
minipacman.ghost_move_prob = 0.5
env.step_limit = 40
eval.batch_size = 16
""", seed=9)
    assert run.game == "gridworld12"
    assert (run.drc.depth, run.drc.repeats, run.drc.obs_shape) == (2, 3, (12, 12, 1))
    assert run.drc.pool_and_inject is False
    assert run.train.lr_init == 1e-3 and run.train.batch_size == 4
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
                                 "data.eval_levels"])
def test_unknown_key_is_rejected(tmp_path, key):
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
        _load(tmp_path, f"{key} = 1\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ValueError, match="line 2: duplicate key 'train.seed'"):
        parse_config_text("train.seed = 1\ntrain.seed = 2\n")
