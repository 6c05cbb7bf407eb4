"""Every flag a subcommand registers is read by its handler, and count
flags reject bad values before the handler runs.

A flag counts as read when the handler, or a `cli` function the handler
passes `args` to (followed transitively), reads `args.<dest>`. No linter runs
on this project, so this test is the check: a flag nothing reads would be a
setting that silently takes no effect.
"""

import ast
import inspect

import pytest

from drcplan import cli


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return action.choices


def _function_def(fn):
    return ast.parse(inspect.getsource(fn)).body[0]


def read_dests(fn):
    """Attributes read off `args` in `fn` and in the `cli` helpers it passes `args` to."""
    seen, todo, dests = set(), [fn], set()
    while todo:
        node = _function_def(todo.pop())
        if node.name in seen:
            continue
        seen.add(node.name)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                dests.add(sub.attr)
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and any(isinstance(a, ast.Name) and a.id == "args" for a in sub.args)):
                helper = getattr(cli, sub.func.id, None)
                if inspect.isfunction(helper):
                    todo.append(helper)
    return dests


def unread_flags(parser):
    registered = {a.dest: a.option_strings[0] for a in parser._actions if a.dest != "help"}
    read = read_dests(parser.get_default("fn"))
    return sorted(flag for dest, flag in registered.items() if dest not in read)


def test_every_subcommand_is_found():
    assert {"train", "eval", "gen-levels", "verify-levels", "gradcheck"} <= set(_subparsers())


def test_helpers_are_followed():
    # `--out` of eval is read only inside `_ensure_out(args)`
    assert "out" in read_dests(cli.cmd_eval)


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_registered_flag_is_read(command):
    assert unread_flags(_subparsers()[command]) == []


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    (["extrapolate", "--params", "p", "--boxes", "4,,5"],
     "argument --boxes: invalid positive_ints value: '4,,5'"),
    (["extrapolate", "--params", "p", "--boxes", "0,4"],
     "argument --boxes: must be >= 1, got 0"),
    (["extrapolate", "--params", "p", "--levels-per-count", "0"],
     "argument --levels-per-count: must be >= 1, got 0"),
    (["gen-levels", "--count", "0"], "argument --count: must be >= 1, got 0"),
    (["gen-levels", "--boxes", "0"], "argument --boxes: must be >= 1, got 0"),
    (["filter-levels", "--levels", "l", "--attempts", "-1"], "argument --attempts: must be >= 1, got -1"),
    (["gradcheck", "--seeds", "two"], "argument --seeds: invalid positive_int value: 'two'"),
    (["verify-levels", "--levels", "l", "--budget", "0"], "argument --budget: must be >= 1, got 0"),
    (["eval", "--params", "p", "--levels", "l", "--episodes-per-level", "0"],
     "argument --episodes-per-level: must be >= 1, got 0"),
    (["think-eval", "--params", "p", "--levels", "l", "--episodes-per-level", "0"],
     "argument --episodes-per-level: must be >= 1, got 0"),
    (["think-eval", "--params", "p", "--levels", "l", "--k-max", "-1"],
     "argument --k-max: must be >= 0, got -1"),
    (["think-eval", "--params", "p", "--levels", "l", "--k-max", "1.5"],
     "argument --k-max: invalid non_negative_int value: '1.5'"),
    (["gradcheck", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
    (["train", "--env-steps", "-5"], "argument --env-steps: must be >= 1, got -5"),
])
def test_count_flags_fail_before_the_command_runs(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 2
    assert message in capsys.readouterr().err


def test_count_flag_defaults_parse():
    parse = cli.build_parser().parse_args
    assert parse(["extrapolate", "--params", "p"]).boxes == (4, 5, 6, 7)
    assert parse(["extrapolate", "--params", "p", "--boxes", "6"]).boxes == (6,)
    assert parse(["extrapolate", "--params", "p"]).levels_per_count == 100
    assert (parse(["gen-levels"]).count, parse(["gen-levels"]).boxes) == (1000, 4)
    assert parse(["filter-levels", "--levels", "l"]).attempts == 10
    assert (parse(["gradcheck"]).seeds, parse(["gradcheck"]).workers) == (5, 2)
    assert parse(["train"]).env_steps == 1_000_000
    assert parse(["verify-levels", "--levels", "l"]).budget == 200000
    think = parse(["think-eval", "--params", "p", "--levels", "l", "--k-max", "0"])
    assert (think.k_max, think.episodes_per_level) == (0, 1)
    assert parse(["eval", "--params", "p", "--levels", "l"]).episodes_per_level == 1
