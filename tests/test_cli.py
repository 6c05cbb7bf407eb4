"""Command-line input that must fail early, with a message naming the cause."""

import re

import pytest

from drcplan import cli
from drcplan.boxoban import generate_level_set, serialize_levels
from drcplan.checkpoint import save_checkpoint
from drcplan.drc import DrcNetwork, preset_config


def test_sokoban_train_without_levels(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("game = sokoban\ndrc.depth = 1\ndrc.repeats = 1\n")
    with pytest.raises(ValueError, match="data.levels"):
        cli.main(["train", "--config", str(config), "--env-steps", "1",
                  "--out", str(tmp_path / "out")])


def test_network_filter_without_params(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 1, boxes=1)))
    with pytest.raises(ValueError, match="--params"):
        cli.main(["filter-levels", "--levels", str(levels), "--policy", "network",
                  "--out", str(tmp_path / "out")])


def test_eval_with_a_checkpoint_of_another_network(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 1, boxes=1)))
    params = tmp_path / "params.bin"
    save_checkpoint(params, DrcNetwork.create(preset_config("gridworld12", 1, 1)).params)
    with pytest.raises(ValueError, match=re.escape(str(params)) + " does not fit the run config: "
                                         r"'encoder.conv0.w' is \(3, 3, 1, 16\) in the checkpoint "
                                         r"but \(8, 8, 3, 32\) under the config"):
        cli.main(["eval", "--params", str(params), "--levels", str(levels),
                  "--out", str(tmp_path / "out")])
