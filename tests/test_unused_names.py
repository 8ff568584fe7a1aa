"""No module of the package binds a module-level name that nothing reads.

The project ships no linter, so this `ast` scan stands in for an unused-name
check. A module other than `__init__` may bind a name at module level, by
import or by assignment, only if the module itself loads it or another module
of the package imports it from there. Dunder names (`__all__`) and
`from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "privtsf"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def module_statements(body):
    """Every statement at module level, those nested in `if`, `try` or `with` blocks included."""
    for node in body:
        yield node
        if not isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from module_statements(getattr(node, block, []))


def bound_names(tree):
    names = set()
    for node in module_statements(tree.body):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign | ast.AnnAssign | ast.AugAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def loaded_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_from(name):
    """The names other package modules import from module `name`, relatively or absolutely."""
    names, sources = set(), ((1, name), (0, f"privtsf.{name}"))
    for other, tree in TREES.items():
        for node in ast.walk(tree):
            if other != name and isinstance(node, ast.ImportFrom) and (node.level, node.module) in sources:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__"}))
def test_every_module_level_name_is_read(name):
    tree = TREES[name]
    unread = bound_names(tree) - loaded_names(tree) - imported_from(name)
    assert not unread, f"{name} binds {sorted(unread)} at module level and nothing reads them"
