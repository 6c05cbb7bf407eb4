"""Every public function of `drcplan.autodiff` has a caller in `src`.

No linter runs on this project, so this scan is the check. An op counts as
used when another `src` module refers to it (as `ad.<op>`, `autodiff.<op>`
or a name imported from the module) or another autodiff function calls it.
The only exceptions are reference ops, which `src` does not run but a test
compares a fused op against; each is mapped to that test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drcplan"
AUTODIFF = SRC / "autodiff.py"

# op -> the test that compares against it
REFERENCE_OPS = {
    "sigmoid": "test_convlstm_cell_is_the_chain_it_replaces",
    "tanh": "test_convlstm_cell_is_the_chain_it_replaces",
}


def names_read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def free_names(fn):
    """The names a function reads but does not bind itself: its parameters,
    assignments and nested functions (each op's `backward` closure) are
    not calls of the module's functions."""
    bound = {node.arg for node in ast.walk(fn) if isinstance(node, ast.arg)}
    bound |= {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.name for node in ast.walk(fn) if isinstance(node, ast.FunctionDef)}
    return names_read(fn) - bound


def autodiff_names_used(tree):
    """The autodiff names a module refers to: attributes of a name bound to
    the module, and names imported from it."""
    modules, used, read = set(), set(), names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in ("autodiff", "drcplan.autodiff"):
                    if (alias.asname or alias.name) in read:
                        used.add(alias.name)
                elif alias.name == "autodiff":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add(node.attr)
    return used


def uncalled_ops():
    tree = ast.parse(AUTODIFF.read_text())
    ops = {node.name for node in tree.body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in SRC.rglob("*.py"):
        if path != AUTODIFF:
            used |= autodiff_names_used(ast.parse(path.read_text()))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used |= free_names(node)
    return sorted(ops - used)


def test_every_autodiff_op_is_called_from_src():
    assert uncalled_ops() == sorted(REFERENCE_OPS)


def test_each_reference_op_is_compared_against_in_its_test():
    tests = {node.name: node for path in Path(__file__).parent.glob("test_*.py")
             for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    for op, test in REFERENCE_OPS.items():
        assert test in tests, test
        assert op in {node.attr for node in ast.walk(tests[test]) if isinstance(node, ast.Attribute)}, op
