"""Every flag a subcommand registers is read by its handler.

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
