"""Static checks on the package source.

Every import in `src/rankone` binds a name the module uses (a line
marked `# noqa: F401` keeps a deliberate re-export), and every entry of
a module's `__all__` resolves to an attribute of that module.
"""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rankone").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    module = importlib.import_module(f"rankone.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
