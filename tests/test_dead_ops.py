"""Every public function of `drcplan.autodiff` has a caller in `src`, and
every public function, class and method of `src` is named somewhere else in
`src` or in the benchmark (`perfbench/`).

No linter runs on this project, so these scans are the check. An op counts as
used when another `src` module refers to it (as `ad.<op>`, `autodiff.<op>`
or a name imported from the module) or another autodiff function calls it.
The only exceptions are reference ops, which `src` does not run but a test
compares a fused op against; each is mapped to that test. Code that only
tests reach belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "drcplan"
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


def names_named(tree):
    """How often `tree` names each name: as a variable, an attribute or a
    whole string (the benchmark patches methods by name), except in an
    `__all__` list, which only re-exports."""
    exported = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
                for node in ast.walk(assign.value)}
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            named[node.value] += 1
    return named


def public_definitions(tree):
    """The module's public functions and classes, and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method


def unnamed_definitions():
    """`module:definition` for each public definition in `src` that no code
    outside its own body names."""
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    named = sum((names_named(tree) for tree in trees.values()), Counter())
    unnamed = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for label, node in public_definitions(tree):
            if path == AUTODIFF and node.name in REFERENCE_OPS:
                continue
            if named[node.name] == names_named(node)[node.name]:
                unnamed.append(f"{path.relative_to(SRC).with_suffix('')}:{label}")
    return unnamed


def test_every_public_definition_in_src_is_named_outside_itself():
    assert unnamed_definitions() == []
