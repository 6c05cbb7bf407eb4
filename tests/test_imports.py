"""Every name a `src` or `tests` module imports is used in that module.

No linter runs on this project, so this test is the check. A name listed in
the module's `__all__` is a re-export, and an import line marked
`# noqa: F401` is kept on purpose (for instance for callers that patch the
name), so neither counts as unused.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {lineno})" for name, lineno in imported.items()
                  if name not in used)


def test_modules_are_found():
    assert SRC / "drcplan" / "train.py" in MODULES
    assert ROOT / "tests" / "oracles.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []
