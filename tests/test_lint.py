"""Static checks on the package source and the tests.

Every import in `src/rankone` and in `tests` binds a name the module
uses (a line marked `# noqa: F401` keeps a deliberate re-export), every
entry of a package module's `__all__` resolves to an attribute of that
module, and every top-level name of a package module is referenced from
the package or the benchmark: code that only tests reach is dead code.
"""

import ast
import collections
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rankone").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "benchmark").glob("*.py"))


def _unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are used: the module exports them
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    module = importlib.import_module(f"rankone.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _references(tree) -> collections.Counter:
    """Names read, attributes read and names imported under a node."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _top_level_names(tree):
    """(name, node) for every function, class and variable a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


# the public checkers the tests verify results with, and the literal
# polynomial writer they state them in: documented package API that no
# package path runs itself
TEST_ORACLES = {"pseudodist.py: validate", "pseudodist.py: dense_poly",
                "sos_solver.py: certificate_margin"}


def test_every_package_name_is_reached():
    """Each top-level name of `src/rankone` is read somewhere in `src/` or
    `benchmark/` outside its own definition; `__all__` and the tests do
    not count.  The exceptions are exactly TEST_ORACLES."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES + BENCHMARK}
    total = collections.Counter()
    for tree in trees.values():
        total += _references(tree)
    unreached = {f"{path.name}: {name}" for path in SOURCES
                 for name, node in _top_level_names(trees[path])
                 if total[name] - _references(node)[name] <= 0}
    assert unreached == TEST_ORACLES
