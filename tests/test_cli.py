"""The command line: one smoke run per subcommand on a tiny setup (1-box
levels, DRC(1,1), 10-step episodes), the run config reaching every
subcommand that plays episodes, and input that must fail early with a
message naming the cause. (`gradcheck` is left to the gradient tests.)"""

import json
from pathlib import Path

import pytest

from drcplan import cli, evaluate
from drcplan.boxoban import filtering, generate_level_set, parse_levels, serialize_levels
from drcplan.checkpoint import save_checkpoint
from drcplan.drc import DrcNetwork, count_parameters, preset_config
from drcplan.envs import SokobanEnv

RUN = """\
drc.depth = 1
drc.repeats = 1
env.step_limit = 10
eval.batch_size = {batch}
"""


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """Six 1-box levels, a DRC(1,1) checkpoint and run configs at eval batch 1 and 3."""
    root = tmp_path_factory.mktemp("cli")
    levels = root / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 6, boxes=1)))
    params = root / "params.bin"
    save_checkpoint(params, DrcNetwork.create(preset_config("sokoban", 1, 1), seed=3).params)
    configs = {}
    for batch in (1, 3):
        configs[batch] = root / f"batch{batch}.cfg"
        configs[batch].write_text(RUN.format(batch=batch))
    return {"levels": str(levels), "params": str(params),
            "config": str(configs[3]), "config_batch1": str(configs[1])}


def _run(setup, command, out, *extra, config="config"):
    cli.main([command, "--config", setup[config], "--out", str(out), *extra])
    return out


def test_gen_levels_writes_the_generated_set(tmp_path):
    cli.main(["gen-levels", "--count", "3", "--boxes", "1", "--seed", "4", "--out", str(tmp_path)])
    written = (tmp_path / "unfiltered" / "train" / "000.txt").read_text()
    assert written == serialize_levels(generate_level_set(4, 3, boxes=1))


def test_verify_levels_certifies_a_generated_file(setup, capsys):
    cli.main(["verify-levels", "--levels", setup["levels"]])
    assert "6/6 solvable within budget; 6 distinct hashes" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["sample", "greedy"])
def test_eval_reports_every_episode_within_the_step_limit(setup, tmp_path, mode):
    out = _run(setup, "eval", tmp_path, "--params", setup["params"], "--levels", setup["levels"],
               "--episodes-per-level", "2", "--mode", mode)
    report = json.loads((out / "eval.json").read_text())
    assert report["episodes"] == 12 and 0 <= report["solved"] <= 12
    assert 1 <= report["mean_length"] <= 10


def test_think_eval_reports_each_noop_count(setup, tmp_path):
    out = _run(setup, "think-eval", tmp_path, "--params", setup["params"],
               "--levels", setup["levels"], "--k-max", "2")
    curve = json.loads((out / "thinking_curve.json").read_text())
    assert sorted(curve) == ["0", "1", "2"]
    for k, report in curve.items():
        assert report["episodes"] == 6 and report["level_set_id"].endswith(f"[k={k}]")
        assert int(k) < report["mean_length"] <= 10  # forced no-ops count as steps


def test_extrapolate_reports_each_box_count(setup, tmp_path):
    out = _run(setup, "extrapolate", tmp_path, "--params", setup["params"],
               "--boxes", "1,2", "--levels-per-count", "2")
    result = json.loads((out / "extrapolation.json").read_text())
    assert sorted(result["reports"]) == ["1", "2"]
    assert all(r["episodes"] == 2 for r in result["reports"].values())
    assert result["degradation_vs_base"]["1"] == 0.0


@pytest.mark.parametrize("policy", ["random", "network"])
def test_filter_levels_keeps_a_subset_of_the_source(setup, tmp_path, capsys, policy):
    extra = ["--params", setup["params"]] if policy == "network" else []
    out = _run(setup, "filter-levels", tmp_path, "--levels", setup["levels"], "--policy", policy,
               "--attempts", "2", "--seed", "9", *extra)
    kept = parse_levels((out / "medium.txt").read_text())
    source = parse_levels(Path(setup["levels"]).read_text())
    by_id = dict(zip(source.ids, source.levels))
    assert all(by_id[i] == level for i, level in zip(kept.ids, kept.levels))
    assert f"kept {len(kept)}/6 levels" in capsys.readouterr().out


def test_network_filter_does_not_depend_on_eval_batch_size(setup, tmp_path):
    files = [(_run(setup, "filter-levels", tmp_path / config, "--levels", setup["levels"],
                   "--policy", "network", "--params", setup["params"], "--attempts", "3",
                   "--seed", "9", config=config) / "medium.txt").read_bytes()
             for config in ("config", "config_batch1")]
    assert files[0] == files[1]
    assert 0 < len(parse_levels(files[0].decode())) < 6  # the probe solves some levels


def test_param_count_matches_the_configured_network(setup, capsys):
    cli.main(["param-count", "--config", setup["config"], "--json"])
    counts = json.loads(capsys.readouterr().out)
    assert counts == count_parameters(preset_config("sokoban", 1, 1))
    assert sorted(counts) == ["core.d1", "encoder", "heads", "total"]


@pytest.mark.parametrize("policy", ["random", "network"])
def test_filter_levels_plays_to_the_configured_step_limit(setup, tmp_path, monkeypatch, policy):
    limits = set()

    class SpyEnv(SokobanEnv):
        def __init__(self, level, step_limit=120):
            limits.add(step_limit)
            super().__init__(level, step_limit=step_limit)

    monkeypatch.setattr(filtering, "SokobanEnv", SpyEnv)
    extra = ["--params", setup["params"]] if policy == "network" else []
    _run(setup, "filter-levels", tmp_path, "--levels", setup["levels"], "--policy", policy,
         "--attempts", "1", *extra)
    assert limits == {10}


def test_extrapolate_plays_at_the_configured_eval_batch_size(setup, tmp_path, monkeypatch):
    batch_sizes, run_episodes = [], evaluate.run_episodes

    def spy(*args, batch_size, **kwargs):
        batch_sizes.append(batch_size)
        return run_episodes(*args, batch_size=batch_size, **kwargs)

    monkeypatch.setattr(evaluate, "run_episodes", spy)
    _run(setup, "extrapolate", tmp_path, "--params", setup["params"],
         "--boxes", "1", "--levels-per-count", "2")
    assert batch_sizes == [3]


def _error(capsys, argv):
    """The one stderr line of a `cli.main(argv)` that exits 2, without its newline."""
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    return err[:-1]


def test_sokoban_train_without_levels(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("game = sokoban\ndrc.depth = 1\ndrc.repeats = 1\n")
    argv = ["train", "--config", str(config), "--env-steps", "1", "--out", str(tmp_path / "out")]
    assert _error(capsys, argv) == ("drcplan train: error: sokoban training needs a level set: "
                                    "set data.levels in the run config")


def test_network_filter_without_params(tmp_path, capsys):
    levels = tmp_path / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 1, boxes=1)))
    argv = ["filter-levels", "--levels", str(levels), "--policy", "network", "--out", str(tmp_path / "out")]
    assert _error(capsys, argv) == ("drcplan filter-levels: error: filter-levels --policy network "
                                    "needs --params <checkpoint>")


@pytest.mark.parametrize("command", ["eval", "think-eval", "extrapolate", "filter-levels"])
def test_sokoban_commands_reject_another_game_first(tmp_path, capsys, command):
    """The game is checked before the checkpoint or the levels load (neither
    file exists here) and before the output directory is made."""
    config = tmp_path / "run.cfg"
    config.write_text("game = gridworld12\n")
    params, levels = str(tmp_path / "params.bin"), str(tmp_path / "levels.txt")
    extra = {"eval": ["--params", params, "--levels", levels],
             "think-eval": ["--params", params, "--levels", levels],
             "extrapolate": ["--params", params],
             "filter-levels": ["--levels", levels, "--policy", "network", "--params", params]}
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *extra[command]]
    assert _error(capsys, argv) == (f"drcplan {command}: error: {command} plays Sokoban only, but "
                                    "the run config's game is 'gridworld12'")
    assert not (tmp_path / "out").exists()


def test_eval_with_a_checkpoint_of_another_network(tmp_path, capsys):
    levels = tmp_path / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 1, boxes=1)))
    params = tmp_path / "params.bin"
    save_checkpoint(params, DrcNetwork.create(preset_config("gridworld12", 1, 1)).params)
    argv = ["eval", "--params", str(params), "--levels", str(levels), "--out", str(tmp_path / "out")]
    assert _error(capsys, argv) == (f"drcplan eval: error: {params} does not fit the run config: "
                                    "'encoder.conv0.w' is (3, 3, 1, 16) in the checkpoint "
                                    "but (8, 8, 3, 32) under the config")
