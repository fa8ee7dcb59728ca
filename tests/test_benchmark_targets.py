"""The benchmark reaches into `rankone` by name: `benchmark/tracing.py`
wraps module attributes and `benchmark/harness.py` imports functions.
Every such name must resolve, or a deletion breaks the benchmark."""

import importlib
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def import_benchmark(name):
    """Import a module of benchmark/ without writing bytecode there."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARK))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARK))
        sys.dont_write_bytecode = saved


def test_every_tracing_target_resolves():
    tracing = import_benchmark("tracing")
    targets = tracing._targets(tracing.Tracer())
    assert targets
    missing = [f"rankone.{module}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(f"rankone.{module}"),
                                       attr, None))]
    assert not missing


def test_harness_imports_resolve():
    harness = import_benchmark("harness")
    assert callable(harness.cli.write_candidate)
    assert callable(harness.sos_solver.solve_feasibility)
