"""Static checks on the package source and the tests.

Every import in `src/rankone` and in `tests` binds a name the module
uses (a line marked `# noqa: F401` keeps a deliberate re-export), every
entry of a package module's `__all__` resolves to an attribute of that
module, every top-level name of a package module is referenced from
the package or the benchmark: code that only tests reach is dead code,
and every defaulted parameter of a package function or dataclass field
is passed by some package or benchmark caller: an option nothing sets is
a constant.  By the same rule every flag of the `rankone` command line
is passed by the benchmark harness, unless it names a file or is listed
with its reason.  The package imports nothing outside the standard
library and NumPy.
"""

import ast
import collections
import importlib
import sys
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


# the top-level modules the package may import besides the standard library
PACKAGE_DEPENDENCIES = {"numpy", "rankone"}


def _imported_modules(tree) -> set:
    """Top-level name of every module imported anywhere under `tree`,
    imports inside functions included; a relative import is `rankone`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("rankone" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    foreign = {f"{path.name}: {name}" for path in SOURCES
               for name in _imported_modules(ast.parse(path.read_text()))
               if name not in sys.stdlib_module_names and name not in PACKAGE_DEPENDENCIES}
    assert foreign == set()


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


# the public checkers the tests verify results with: documented package
# API that no package path runs itself
TEST_ORACLES = {"pseudodist.py: validate", "sos_solver.py: certificate_margin"}


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


# defaulted parameters that only the tests pass: the oracles' own options
TEST_ORACLE_OPTIONS = {"sos_solver.py: certificate_margin(factors)"}


def _defaulted(func):
    """(name, position or None) of each parameter of `func` with a default;
    the position counts from the first argument a caller writes."""
    args = func.args.posonlyargs + func.args.args
    skip = 1 if args and args[0].arg in ("self", "cls") else 0
    first = len(args) - len(func.args.defaults)
    for i, arg in enumerate(args[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_dataclass(cls) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _dataclass_defaults(cls):
    """(name, position) of each field of the dataclass `cls` with a plain
    default; a `field(default_factory=...)` is state, not an option."""
    fields = [node for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    for position, node in enumerate(fields):
        value = node.value
        if value is None or (isinstance(value, ast.Call)
                             and getattr(value.func, "id", None) == "field"
                             and any(kw.arg == "default_factory" for kw in value.keywords)):
            continue
        yield node.target.id, position


def _passes(call, name, position) -> bool:
    """Whether `call` writes the parameter, by keyword or by position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or position < len(call.args))


def test_every_default_is_set_by_some_caller():
    """Each defaulted parameter of a `src/rankone` function, and each
    dataclass field with a plain default, is passed at some call site in
    `src/` or `benchmark/` that names the function or class, so no option
    is held at one value by every caller.  The exceptions are exactly
    TEST_ORACLE_OPTIONS."""
    calls = collections.defaultdict(list)
    for path in SOURCES + BENCHMARK:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(node)
    unset = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = _defaulted(node)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defaults = _dataclass_defaults(node)
            else:
                continue
            for name, position in defaults:
                if not any(_passes(c, name, position) for c in calls[node.name]):
                    unset.add(f"{path.name}: {node.name}({name})")
    assert unset == TEST_ORACLE_OPTIONS


# flags of every subcommand that name a file, not a setting
PATH_FLAGS = {"--config", "--out"}

# settings the benchmark harness leaves at their defaults, with the reason:
# the rectangle search's defaults return n + 4 indices whatever the factor
# count, and stay until that is fixed (ROADMAP item 9)
UNSET_FLAGS = {
    ("rectangle", "--k"): "threshold strength, pending the rectangle fix",
    ("rectangle", "--restarts"): "restart count, pending the rectangle fix",
    ("rectangle", "--max-iters"): "round budget, pending the rectangle fix",
}


def _harness_flags() -> dict:
    """Subcommand -> the flags that some `p.call(...)` of
    benchmark/harness.py passes it."""
    tree = ast.parse((ROOT / "benchmark" / "harness.py").read_text())
    flags = collections.defaultdict(set)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call" and getattr(node.func.value, "id", None) == "p"):
            command, *args = [arg.value for arg in node.args
                              if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            flags[command].update(arg for arg in args if arg.startswith("--"))
    return flags


def test_every_cli_flag_has_a_caller():
    """Each flag of each `rankone` subcommand is passed by some call of
    the benchmark harness, names a file (PATH_FLAGS), or is listed with
    its reason in UNSET_FLAGS: a flag nothing sets is a constant.  Every
    listed flag is a real flag of its subcommand that the harness does
    not set, so neither list goes stale."""
    from rankone import cli
    _, commands = cli._build_parser()
    real = {command: {option for action in parser._actions
                      for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
            for command, parser in commands.items()}
    set_by_harness = _harness_flags()
    assert set(set_by_harness) <= set(real)
    unset = {(command, flag) for command, flags in real.items()
             for flag in flags - set_by_harness[command] - PATH_FLAGS}
    assert unset == set(UNSET_FLAGS)
    assert all(PATH_FLAGS <= flags for flags in real.values())
