"""Spans around the public functions of each `rankone` layer.

The program is not changed: `installed(tracer)` replaces the module
attributes the pipeline looks up at call time (for example
`rankone.bss.solve_feasibility` or `rankone.structure.fix_subspace`)
with wrappers that record a span, and puts the originals back on exit.
A span holds its name, start, end, parent span and the id of the
benchmark task that caused it.  Spans stay in memory; `layer_metrics`
turns them into per-layer counts, inclusive times and self times (a
span's duration minus the durations of its child spans).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

LAYERS = ("sos_solver", "bss", "structure", "reweighting", "pseudodist",
          "rectangle", "cli")
STRUCTURE_FAILURES = ("RetryExhausted", "DegreeExhausted", "IterLimit")
SOLVER_STATUSES = ("feasible", "infeasible", "iter_limit")
COUNT = object()   # note for a target that is counted, not spanned


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    task: int            # benchmark task that caused the span
    error: str | None    # exception class name, when the call raised
    info: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)    # calls of count-only targets
    problems: list = field(default_factory=list)  # SdpProblems, for the set-up probe
    task: int = -1
    _stack: list = field(default_factory=list)

    def count(self, name, fn):
        """Return fn wrapped in a call counter, for calls too many to span."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def wrap(self, name, fn, note=None):
        """Return fn wrapped in a span; note(args, result) -> dict of info."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            error, info = None, {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    info = note(args, result)
                return result
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.task,
                                         error, info)
        traced.__wrapped__ = fn
        return traced


def _solver_note(tracer):
    def note(args, result):
        tracer.problems.append(args[0])
        _, report = result
        return {"status": report.status, "iterations": report.iterations,
                "moments": args[0].index.size}
    return note


def _targets(tracer):
    """(module, attribute, span name, note) for every wrapped call site.

    note(args, result) -> dict fills the span's info; COUNT marks a
    target that only counts its calls.
    """
    solver = _solver_note(tracer)
    steps = lambda args, result: {"steps": len(result[2].records)}
    fixed = lambda args, result: {"samples": result[1].samples_tried,
                                  "degree": result[1].degree_spent}
    rounds = lambda args, result: {"rounds": result.rounds}
    found = lambda args, result: {"candidate": result[0] is not None}
    targets = [
        ("cli", "main", "cli.main", None),
        ("cli", "solve_bss", "bss.solve_bss", found),
        ("bss", "build_bss_problem", "sos_solver.build", None),
        ("bss", "solve_feasibility", "sos_solver.solve", solver),
        ("bss", "run_structure_2d", "structure.run_structure_2d", steps),
        ("structure", "fix_subspace", "reweighting.fix_subspace", fixed),
        ("cli", "verify_candidate", "bss.verify", None),
        ("cli", "lift_real_solution", "bss.lift", None),
        ("cli", "reduce_complex_to_real", "bss.reduce", None),
        ("bss", "reduce_complex_to_real", "bss.reduce", None),
        ("cli", "measurement_to_subspace", "bss.measurement", None),
        ("cli", "find_rectangle", "rectangle.find_rectangle", rounds),
        ("cli", "read_factors", "rectangle.read_factors", None),
    ]
    for fmt in ("read_subspace", "write_subspace", "read_measurement",
                "read_complex_subspace", "write_complex_subspace"):
        targets.append(("cli", fmt, f"bss.formats.{fmt}", None))
    for module in ("pseudodist", "reweighting"):
        targets.append((module, "reweight", "pseudodist.reweight", None))
        # the polynomial kernels run about a million times per rounding
        # pass: spans would cost a third of the pass, so they are counted
        for fn in ("poly_mul", "poly_pow"):
            targets.append((module, fn, f"pseudodist.{fn}", COUNT))
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, note in _targets(tracer):
            module = importlib.import_module(f"rankone.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.count(name, original) if note is COUNT
                    else tracer.wrap(name, original, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Per-span self time: duration minus the duration of direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def layer_metrics(spans, counts, setup_probe_s: float, wall_s: float) -> dict:
    """Per-layer counts and times from one traced pass.

    setup_probe_s is the summed time of solve_feasibility(problem,
    iter_limit=1) over the pass's problems, measured outside the pass.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(span.duration for span, _ in group(name))

    m = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        layer_self[span.layer] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["bench.self_s"] = (wall_s - sum(layer_self.values()), "s")

    solves = [span for span, _ in group("sos_solver.solve")]
    iterations = sum(span.info.get("iterations", 0) for span in solves)
    m["sos_solver.build.time_s"] = (total("sos_solver.build"), "s")
    m["sos_solver.moments_max"] = (
        max((span.info["moments"] for span in solves), default=0), "count")
    m["sos_solver.setup_s"] = (setup_probe_s, "s")
    m["sos_solver.solve.time_s"] = (total("sos_solver.solve"), "s")
    m["sos_solver.dr_iterations"] = (iterations, "count")
    dr_iters = max(iterations - len(solves), 1)
    m["sos_solver.dr_ms_per_iter"] = (
        1000.0 * (total("sos_solver.solve") - setup_probe_s) / dr_iters, "ms")
    for status in SOLVER_STATUSES:
        m[f"sos_solver.status.{status}"] = (
            sum(span.info.get("status") == status for span in solves), "count")

    # a spectral hit returns a candidate without any structure trial
    trial_parents = {span.parent for span, _ in group("structure.run_structure_2d")}
    m["bss.spectral.time_s"] = (sum(own for _, own in group("bss.solve_bss")), "s")
    m["bss.spectral.hits"] = (sum(
        1 for i, span in enumerate(spans)
        if span.name == "bss.solve_bss" and span.info.get("candidate")
        and i not in trial_parents), "count")
    m["bss.verify.time_s"] = (total("bss.verify"), "s")
    m["bss.lift.time_s"] = (total("bss.lift"), "s")
    m["bss.reduce.time_s"] = (total("bss.reduce"), "s")
    m["bss.formats.time_s"] = (sum(
        span.duration for span in spans if span.name.startswith("bss.formats.")), "s")

    trials = [span for span, _ in group("structure.run_structure_2d")]
    ok = [span for span in trials if span.error is None]
    m["structure.trials"] = (len(trials), "count")
    m["structure.trial_ok"] = (len(ok), "count")
    m["structure.success_ratio"] = (len(ok) / len(trials) if trials else 0.0, "ratio")
    m["structure.steps"] = (sum(span.info["steps"] for span in ok), "count")
    m["structure.time_s"] = (total("structure.run_structure_2d"), "s")
    for err in STRUCTURE_FAILURES:
        m[f"structure.fail.{err}"] = (sum(span.error == err for span in trials), "count")

    fixes = [span for span, _ in group("reweighting.fix_subspace")]
    m["reweighting.fix_subspace.calls"] = (len(fixes), "count")
    m["reweighting.fix_subspace.time_s"] = (total("reweighting.fix_subspace"), "s")
    m["reweighting.samples_tried"] = (
        sum(span.info.get("samples", 0) for span in fixes), "count")
    m["reweighting.degree_spent"] = (
        sum(span.info.get("degree", 0) for span in fixes), "count")

    m["pseudodist.poly_mul.calls"] = (counts.get("pseudodist.poly_mul", 0), "count")
    m["pseudodist.poly_pow.calls"] = (counts.get("pseudodist.poly_pow", 0), "count")
    m["pseudodist.reweight.calls"] = (len(group("pseudodist.reweight")), "count")
    m["pseudodist.reweight.time_s"] = (total("pseudodist.reweight"), "s")

    searches = [span for span, _ in group("rectangle.find_rectangle")]
    m["rectangle.searches"] = (len(searches), "count")
    m["rectangle.rounds"] = (sum(span.info.get("rounds", 0) for span in searches), "count")
    m["rectangle.fail"] = (sum(span.error is not None for span in searches), "count")
    m["rectangle.time_s"] = (total("rectangle.find_rectangle"), "s")

    m["cli.calls"] = (len(group("cli.main")), "count")
    m["trace.spans"] = (len(spans), "count")
    return m
