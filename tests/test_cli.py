"""The command line: one smoke run per subcommand on a tiny setup (1-box
levels, DRC(1,1), 10-step episodes), the run config reaching every
subcommand that plays episodes, and input that must fail early with a
message naming the cause. (`gradcheck` is left to the gradient tests.)"""

import json
from pathlib import Path

import pytest

from drcplan import cli, evaluate
from drcplan.boxoban import (BUDGET_EXHAUSTED, UNSOLVABLE, LevelSet, SolveResult, filtering,
                             generate_level_set, parse_levels, serialize_levels)
from drcplan.checkpoint import save_checkpoint
from drcplan.drc import DrcNetwork, count_parameters, preset_config
from drcplan.envs import SokobanEnv
from drcplan.nn import ParameterSet
from drcplan.train import Trainer

from oracles import gate_kernel

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


def test_verify_levels_counts_only_plans_that_replay(setup, capsys, monkeypatch):
    """A level counts as solvable only when the solver's plan solves it in
    the environment; a plan that does not names its level and fails the run."""
    levels = parse_levels(Path(setup["levels"]).read_text())
    real = cli.solve_bfs

    def wrong_plan_for_level_2(level, node_budget):
        res = real(level, node_budget=node_budget)
        if level == levels.levels[2]:
            res.solution.actions = res.solution.actions[:-1]  # stops one push short
        return res

    monkeypatch.setattr(cli, "solve_bfs", wrong_plan_for_level_2)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-levels", "--levels", setup["levels"]])
    assert info.value.code == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"level {levels.ids[2]}: the solver's plan does not solve it",
                   "5/6 solvable within budget; 6 distinct hashes"]


def test_verify_levels_names_each_level_it_cannot_certify(setup, capsys, monkeypatch):
    """A level the solver does not solve is named with its status and node
    count, and fails the run."""
    levels = parse_levels(Path(setup["levels"]).read_text())
    real = cli.solve_bfs

    def not_solved_on_levels_1_and_4(level, node_budget):
        if level == levels.levels[1]:
            return SolveResult(BUDGET_EXHAUSTED, nodes=node_budget + 1)
        if level == levels.levels[4]:
            return SolveResult(UNSOLVABLE, nodes=7)
        return real(level, node_budget=node_budget)

    monkeypatch.setattr(cli, "solve_bfs", not_solved_on_levels_1_and_4)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-levels", "--levels", setup["levels"], "--budget", "40"])
    assert info.value.code == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"level {levels.ids[1]}: budget_exhausted after 41 nodes",
                   f"level {levels.ids[4]}: unsolvable after 7 nodes",
                   "4/6 solvable within budget; 6 distinct hashes"]


def test_a_level_parse_error_names_its_file(setup, tmp_path, capsys):
    """In a directory of level files, a file that does not parse is named in
    the command's one error line."""
    good = Path(setup["levels"]).read_text()
    (tmp_path / "a.txt").write_text(good)
    bad = tmp_path / "b.txt"
    bad.write_text(good.split("\n\n")[0].rsplit("\n", 1)[0] + "\n")  # one row short
    assert _error(capsys, ["verify-levels", "--levels", str(tmp_path)]) == \
        f"drcplan verify-levels: error: {bad}: line 1: truncated level (expected 10 rows)"


def test_a_level_directory_numbers_later_files_after_the_first(tmp_path):
    """The first file (in sorted order) keeps its ids; each level of a later
    file takes the next id above the largest so far."""
    levels = generate_level_set(3, 5, boxes=1)
    parts = {"a.txt": ([7, 2], levels.levels[:2]), "b.txt": ([0], levels.levels[2:3]),
             "c/d.txt": ([4, 5], levels.levels[3:])}
    for name, (ids, lvs) in parts.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(serialize_levels(LevelSet(levels=list(lvs), ids=ids)))
    merged = cli._load_levels(str(tmp_path))
    assert (merged.ids, merged.levels) == ([7, 2, 8, 9, 10], levels.levels)


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
    out = _run(setup, "filter-levels", tmp_path, "--levels", setup["levels"],
               "--attempts", "2", "--seed", "9", *extra)
    kept = parse_levels((out / "medium.txt").read_text())
    source = parse_levels(Path(setup["levels"]).read_text())
    by_id = dict(zip(source.ids, source.levels))
    assert all(by_id[i] == level for i, level in zip(kept.ids, kept.levels))
    assert f"kept {len(kept)}/6 levels" in capsys.readouterr().out


def test_network_filter_does_not_depend_on_eval_batch_size(setup, tmp_path):
    files = [(_run(setup, "filter-levels", tmp_path / config, "--levels", setup["levels"],
                   "--params", setup["params"], "--attempts", "3",
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
    """The probe, the network with --params and the uniform random policy
    without it, plays to `env.step_limit`."""
    limits = set()

    class SpyEnv(SokobanEnv):
        def __init__(self, level, step_limit=120):
            limits.add(step_limit)
            super().__init__(level, step_limit=step_limit)

    monkeypatch.setattr(filtering, "SokobanEnv", SpyEnv)
    probes = []
    for name in ("play_random", "run_episodes"):
        spy = lambda *a, real=getattr(cli, name), name=name, **kw: probes.append(name) or real(*a, **kw)
        monkeypatch.setattr(cli, name, spy)
    extra = ["--params", setup["params"]] if policy == "network" else []
    _run(setup, "filter-levels", tmp_path, "--levels", setup["levels"], "--attempts", "1", *extra)
    assert limits == {10}
    assert set(probes) == {"run_episodes" if extra else "play_random"}


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


@pytest.mark.parametrize("command", ["gen-levels", "extrapolate"])
def test_a_box_count_the_generator_cannot_carve_fails_first(setup, tmp_path, capsys, command):
    """Nine boxes do not fit the generator's floor: the command ends with
    one error line naming the range, and writes nothing."""
    argv = [command, "--boxes", "9", "--out", str(tmp_path / "out")]
    if command == "extrapolate":
        argv += ["--config", setup["config"], "--params", setup["params"]]
    assert _error(capsys, argv) == f"drcplan {command}: error: boxes must be between 1 and 8, got 9"
    assert not (tmp_path / "out").exists()


def test_extrapolate_checks_every_box_count_before_it_generates_a_level(setup, tmp_path,
                                                                       capsys, monkeypatch):
    """`--boxes 4,9` fails as `--boxes 9` does, before the 4-box levels are
    generated and played."""
    monkeypatch.setattr(evaluate, "generate_level_set",
                        lambda *a, **k: pytest.fail("a level set was generated"))
    argv = ["extrapolate", "--boxes", "4,9", "--out", str(tmp_path / "out"),
            "--config", setup["config"], "--params", setup["params"]]
    assert _error(capsys, argv) == "drcplan extrapolate: error: boxes must be between 1 and 8, got 9"
    assert not (tmp_path / "out").exists()


def test_extrapolate_refuses_a_repeated_box_count_before_it_generates_a_level(setup, tmp_path,
                                                                             capsys, monkeypatch):
    """`--boxes 1,1` would generate, play and print the 1-box set twice."""
    monkeypatch.setattr(evaluate, "generate_level_set",
                        lambda *a, **k: pytest.fail("a level set was generated"))
    argv = ["extrapolate", "--boxes", "1,2,1", "--out", str(tmp_path / "out"),
            "--config", setup["config"], "--params", setup["params"]]
    assert _error(capsys, argv) == "drcplan extrapolate: error: box counts must be distinct, got 1,2,1"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["param-count", "train"])
def test_a_network_size_below_one_fails_before_the_command_runs(tmp_path, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_text("game = gridworld12\ndrc.kernel_size = 0\n")
    argv = [command, "--config", str(config)]
    if command == "train":
        argv += ["--out", str(tmp_path / "out")]
    assert _error(capsys, argv) == f"drcplan {command}: error: kernel_size must be >= 1, got 0"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("drc.memory_kind = gated_convrnn",
     "unknown memory kind 'gated_convrnn'; choose from convlstm, vector_lstm"),
    ("train.rho_bar = 0.5", "unknown config keys: ['train.rho_bar']"),
    ("gridworld.max_generation_tries = 5", "unknown config keys: ['gridworld.max_generation_tries']"),
], ids=["memory_kind", "rho_bar", "max_generation_tries"])
def test_a_removed_memory_kind_or_key_fails_before_training(tmp_path, capsys, monkeypatch, line, message):
    """A run config naming a memory kind, a V-trace clip or a generation
    setting that `drcplan` no longer has ends `train` with one error line
    before any update."""
    monkeypatch.setattr(Trainer, "train_one_update", lambda self: pytest.fail("an update ran"))
    config = tmp_path / "run.cfg"
    config.write_text(f"game = gridworld12\n{line}\n")
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
    assert _error(capsys, argv) == f"drcplan train: error: {message}"
    assert not (tmp_path / "out").exists()


# per game, a key of another game's section (no level file exists)
FOREIGN_KEY = {"sokoban": "gridworld.size = 5", "gridworld": "data.levels = missing",
               "gridworld12": "data.levels = missing", "boxworld": "minipacman.n_ghosts = 1",
               "minipacman": "gridworld.size = 5"}


@pytest.mark.parametrize("game", sorted(FOREIGN_KEY))
def test_another_games_key_fails_before_training(tmp_path, capsys, monkeypatch, game):
    """A key the game does not read ends `train` with one error line before
    any level file is read or update runs."""
    monkeypatch.setattr(Trainer, "train_one_update", lambda self: pytest.fail("an update ran"))
    config = tmp_path / "run.cfg"
    config.write_text(f"game = {game}\n{FOREIGN_KEY[game]}\n")
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
    key = FOREIGN_KEY[game].split(" = ")[0]
    assert _error(capsys, argv) == f"drcplan train: error: unknown config keys: ['{key}']"
    assert not (tmp_path / "out").exists()


# the file flags each command is given in the test below
FILE_FLAGS = {"train": ("--config",), "eval": ("--config", "--params", "--levels"),
              "think-eval": ("--config", "--params", "--levels"),
              "extrapolate": ("--config", "--params"), "filter-levels": ("--config", "--levels")}


@pytest.mark.parametrize("command, flag, kind", [
    ("train", "--config", "missing"),
    ("train", "data.levels", "missing"),
    ("eval", "--config", "missing"),
    ("eval", "--params", "missing"),
    ("think-eval", "--levels", "missing"),
    ("extrapolate", "--params", "missing"),
    ("filter-levels", "--levels", "missing"),
    ("eval", "--levels", "empty directory"),
    ("filter-levels", "--levels", "empty directory"),
])
def test_a_file_that_cannot_be_read_is_one_error_line(setup, tmp_path, capsys, command, flag, kind):
    """A missing file (a flag's, or the run config's `data.levels`), or a
    level directory with no `.txt` file, ends the command with one error
    line and exit code 2, and no `--out` directory."""
    bad = tmp_path / "bad"
    if kind == "missing":
        expected = f"[Errno 2] No such file or directory: '{bad}'"
    else:
        bad.mkdir()
        expected = f"no .txt level files under {bad}"
    given = {"--config": setup["config"], "--params": setup["params"], "--levels": setup["levels"],
             flag: str(bad)}
    if flag == "data.levels":
        given["--config"] = tmp_path / "run.cfg"
        given["--config"].write_text(f"drc.depth = 1\ndrc.repeats = 1\ndata.levels = {bad}\n")
    argv = [command, "--out", str(tmp_path / "out")]
    for f in FILE_FLAGS[command]:
        argv += [f, str(given[f])]
    assert _error(capsys, argv) == f"drcplan {command}: error: {expected}"
    assert not (tmp_path / "out").exists()


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
             "filter-levels": ["--levels", levels, "--params", params]}
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *extra[command]]
    assert _error(capsys, argv) == (f"drcplan {command}: error: {command} plays Sokoban only, but "
                                    "the run config's game is 'gridworld12'")
    assert not (tmp_path / "out").exists()


def _one_kernel_layout(net):
    """`net`'s parameters with each gate's slices stored as the one
    `core.dK.gates.w` kernel they were cut from, an older layout."""
    params = ParameterSet()
    for path, t in net.params.items():
        if path.endswith(".gates.w_obs"):
            params.add(path[:-len("_obs")], gate_kernel(net, int(path.split(".")[1][1:]) - 1))
        elif ".gates.w_" not in path:
            params.add(path, t.data)
    return params


def _matrix_w_rec(net):
    """`net`'s parameters with each `core.dK.gates.w_rec` kernel stored as
    its (K*K*Cin, Cout) im2col matrix, an older layout."""
    params = ParameterSet()
    for path, t in net.params.items():
        params.add(path, t.data.reshape(-1, t.shape[-1]) if path.endswith(".gates.w_rec") else t.data)
    return params


def test_eval_with_a_checkpoint_of_another_network(tmp_path, capsys):
    """A checkpoint of another game's network, and ones of this network in
    the one-kernel gate layout or with matrix recurrent kernels, are refused
    before any episode runs."""
    levels = tmp_path / "levels.txt"
    levels.write_text(serialize_levels(generate_level_set(3, 1, boxes=1)))
    params = tmp_path / "params.bin"
    argv = ["eval", "--params", str(params), "--levels", str(levels), "--out", str(tmp_path / "out")]
    for saved, mismatch in (
            (DrcNetwork.create(preset_config("gridworld12", 1, 1)).params,
             "'encoder.conv0.w' is (3, 3, 1, 16) in the checkpoint but (8, 8, 3, 32) under the config"),
            (_one_kernel_layout(DrcNetwork.create(preset_config("sokoban"))),
             "'core.d1.gates.w_obs' is absent in the checkpoint but (3, 3, 32, 128) under the config"),
            (_matrix_w_rec(DrcNetwork.create(preset_config("sokoban"))),
             "'core.d1.gates.w_rec' is (576, 128) in the checkpoint but (3, 3, 64, 128) under the config")):
        save_checkpoint(params, saved)
        assert _error(capsys, argv) == f"drcplan eval: error: {params} does not fit the run config: {mismatch}"
