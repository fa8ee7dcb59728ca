"""Set-up, timed passes, the correctness gate and the metrics.

Every `rankone` invocation goes through `rankone.cli.main` in this
process, one call at a time (a closed loop with one client).  Set-up
writes the instance files with `rankone gen` (and the library writers
for MEASUREMENT and FACTORS files), checks each recorded answer, and
warms the code paths up; a pass then runs every task of the workload
once.  Only passes are timed as `wall_s`.
"""

from __future__ import annotations

import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
import scipy

from rankone import cli, sos_solver
from rankone.bss import MeasurementOperator, planted_yes, write_measurement
from rankone.rectangle import random_factors, write_factors

import tracing
from corpus import Rectangle, Solve, Workload

# set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S have
# gone by, so that a set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
QUALITY_TOL = 1e-9     # solve and check recompute one quality
MIN_FARNESS = 0.5      # random_no's default certification bar


class GateError(Exception):
    """The benchmark's own correctness gate failed."""


@dataclass
class Outcome:
    """Verdict counts of one pass, checked against the generator's answers."""

    solves: int = 0
    yes: int = 0
    no: int = 0
    hits: int = 0              # yes-instances whose candidate passes check
    false_infeasible: int = 0  # yes-instances refused as infeasible
    false_ok: int = 0          # solve said OK, check fails
    refused: int = 0           # no-instances refused as infeasible
    searches: int = 0          # rectangle searches that passed their checks


@dataclass
class Pass:
    workdir: str
    wall_s: float = 0.0
    solve_s: list = field(default_factory=list)
    records: list = field(default_factory=list)   # (argv, exit code, stdout)
    calls: int = 0
    errors: int = 0            # calls exiting with code 2 or higher
    violations: list = field(default_factory=list)
    outcome: Outcome = field(default_factory=Outcome)

    def call(self, *argv):
        """Run one `rankone` invocation; return (exit code, report, seconds)."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        text = out.getvalue()
        self.calls += 1
        self.records.append((argv, code, text))
        if code >= 2:
            self.errors += 1
            self.violations.append(f"{' '.join(argv)} exited {code}: {text.strip()[-200:]}")
        return code, (json.loads(text) if text else {}), seconds

    def path(self, name: str, suffix: str = "txt") -> str:
        return os.path.join(self.workdir, f"{name}.{suffix}")


# -- set-up -------------------------------------------------------------------


def _write_measurement(p: Pass, inst) -> None:
    """Measurement whose top eigenspace is a seeded planted subspace."""
    w, u, v = planted_yes(inst.n, inst.dim_w, inst.seed)
    rng = np.random.default_rng(inst.seed)
    rows = w.matrix_rows()
    side = rows.shape[1]
    q, _ = np.linalg.qr(np.hstack([rows.T, rng.standard_normal((side, side - w.dim))]))
    rest = q[:, w.dim:]
    weights = rng.uniform(0.0, 0.4, side - w.dim)
    matrix = rows.T @ rows + (rest * weights) @ rest.T
    write_measurement(p.path(inst.name), MeasurementOperator(0.5 * (matrix + matrix.T)))
    cli.write_candidate(p.path(inst.name, "txt.answer"), u, v)


def _generate(p: Pass, inst) -> None:
    path = p.path(inst.name)
    if inst.kind == "factors":
        write_factors(path, random_factors(inst.n, inst.dim_w, inst.seed))
        return
    if inst.kind == "measurement":
        _write_measurement(p, inst)
    else:
        p.call("gen", inst.kind, "--n", inst.n, "--dim-w", inst.dim_w,
               "--seed", inst.seed, "--out", path)
    if inst.kind == "random-no":
        with open(path + ".answer") as fh:
            tag, value = fh.read().split()
        if tag != "FARNESS" or float(value) < MIN_FARNESS:
            p.violations.append(f"{inst.name}: answer {tag} {value} "
                                "is not a farness certificate")
    else:
        code, _, _ = p.call("check", path, path + ".answer")
        if code != 0:
            p.violations.append(f"{inst.name}: the recorded answer fails check")


def set_up(workload: Workload, workdir: str) -> float:
    """Write and verify every instance, then warm up; return seconds."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    p = Pass(workdir)
    for inst in workload.instances:
        _generate(p, inst)
    warm = os.path.join(workdir, "warm-up.txt")
    p.call("gen", "planted-yes", "--n", 2, "--dim-w", 1, "--out", warm)
    p.call("solve", warm, "--degree", 4)
    seconds = time.perf_counter() - start
    if p.violations:
        raise GateError("set-up: " + "; ".join(p.violations))
    return seconds


# -- passes -------------------------------------------------------------------


def _check_candidate(p: Pass, instance, candidate, eps, quality, label):
    """Run `rankone check`; return whether the candidate passes."""
    code, rep, _ = p.call("check", instance, candidate, "--eps", repr(eps))
    if code >= 2:
        return False
    result = rep["result"]
    if abs(result["quality"] - quality) > QUALITY_TOL:
        p.violations.append(f"{label}: check quality {result['quality']!r} "
                            f"differs from the solve report {quality!r}")
    passed = (result["quality"] >= result["target"] - 1e-12
              and rep["checks"]["consistent"])
    if passed != (code == 0):
        p.violations.append(f"{label}: check verdict disagrees with its own quality")
    return code == 0


def _solve(p: Pass, workload: Workload, task: Solve) -> None:
    inst = workload.instance(task.instance)
    path = p.path(inst.name)
    label = f"{inst.name} degree {task.degree} eps {task.eps}"
    code, rep, seconds = p.call("solve", path, "--degree", task.degree,
                                "--eps", repr(task.eps))
    p.solve_s.append(seconds)
    o = p.outcome
    o.solves += 1
    if inst.expect == "yes":
        o.yes += 1
    else:
        o.no += 1
    if code >= 2:
        return
    if code == 1:
        if rep["result"]["solver_status"] != "infeasible":
            p.violations.append(f"{label}: FAIL without an infeasible solver status")
        if inst.expect == "yes":
            o.false_infeasible += 1
        else:
            o.refused += 1
        return
    cand = rep["result"]["candidate"]
    if not rep["checks"]["consistent"]:
        p.violations.append(f"{label}: solve reports an inconsistent candidate")
    stem = f"{inst.name}-d{task.degree}-e{task.eps}"
    cand_path = p.path(stem, "cand")
    complex_pair = inst.kind == "complex-planted"
    cli.write_candidate(cand_path, cand["u0"], cand["v0"], complex_pair=complex_pair)
    passed = _check_candidate(p, path, cand_path, task.eps, cand["quality"], label)
    if complex_pair:
        # the real side: reduce the CSUBSPACE and check the real candidate
        real_path, real_cand = p.path(stem, "real.txt"), p.path(stem, "real.cand")
        code, rep, _ = p.call("reduce", path, "--out", real_path)
        if code == 0 and not rep["checks"]["dim_matches"]:
            p.violations.append(f"{label}: reduced dimension does not match")
        cli.write_candidate(real_cand, cand["u0"], cand["v0"])
        if _check_candidate(p, real_path, real_cand, task.eps, cand["quality"],
                            label + " (real)") != passed:
            p.violations.append(f"{label}: complex and real checks disagree")
    if passed and inst.expect == "yes":
        o.hits += 1
    elif passed:
        p.violations.append(f"{label}: a certified-far instance has a passing candidate")
    else:
        o.false_ok += 1


def _rectangle(p: Pass, task: Rectangle) -> None:
    code, rep, _ = p.call("rectangle", p.path(task.left), "--right",
                          p.path(task.right), "--eps", repr(task.eps),
                          "--seed", task.seed)
    if code >= 2:
        return
    checks = rep["checks"]
    if code != 0 or not (checks["matches_reported"] and checks["passes_at_eps"]):
        p.violations.append(f"rectangle {task.left}: the result fails its own checks")
    else:
        p.outcome.searches += 1


def run_pass(workload: Workload, workdir: str, tracer=None) -> Pass:
    p = Pass(workdir)
    start = time.perf_counter()
    for number, task in enumerate(workload.tasks):
        if tracer is not None:
            tracer.task = number
        if isinstance(task, Solve):
            _solve(p, workload, task)
        else:
            _rectangle(p, task)
    p.wall_s = time.perf_counter() - start
    return p


def same_reports(first: Pass, second: Pass) -> list:
    """Differences between two passes' invocations, exit codes and stdout."""
    if len(first.records) != len(second.records):
        return [f"{len(first.records)} calls against {len(second.records)}"]
    return [" ".join(a[0]) for a, b in zip(first.records, second.records) if a != b]


# -- metrics ------------------------------------------------------------------


def setup_probe(problems) -> float:
    """Summed time of solve_feasibility(problem, iter_limit=1): SDP set-up."""
    start = time.perf_counter()
    for problem in problems:
        sos_solver.solve_feasibility(problem, iter_limit=1)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups, passes) -> dict:
    o = passes[0].outcome
    solve_s = [s for p in passes for s in p.solve_s]
    calls = sum(p.calls for p in passes)
    errors = sum(p.errors for p in passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "solve_p50_s": (statistics.median(solve_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "target_rate": (o.hits / o.yes, "ratio"),
        "sound_rate": (1.0 - (o.false_infeasible + o.false_ok) / o.solves, "ratio"),
        "refusal_rate": (o.refused / o.no, "ratio"),
        "clean_rate": (1.0 - errors / calls, "ratio"),
    }


def outcome_report(passes) -> dict:
    """The raw counts behind the rates, plus error_rate and solve_p90_s."""
    o = passes[0].outcome
    solve_s = sorted(s for p in passes for s in p.solve_s)
    calls = sum(p.calls for p in passes)
    report = dict(vars(o))
    report["error_rate"] = sum(p.errors for p in passes) / calls
    report["calls_per_pass"] = passes[0].calls
    report["pass_wall_s"] = [p.wall_s for p in passes]
    if len(solve_s) >= 100:
        report["solve_p90_s"] = statistics.quantiles(solve_s, n=10)[-1]
    return report


def _blas_threads():
    """Thread count reported by NumPy's bundled OpenBLAS, when it has one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- one run ------------------------------------------------------------------


@dataclass
class Result:
    setups: list        # seconds of each set-up
    passes: list        # untraced passes
    traced: Pass | None
    metrics: dict       # name -> (value, unit)
    mismatch: list      # calls whose reports differ between passes
    spans: list = field(default_factory=list)

    @property
    def checked(self) -> list:
        return self.passes + ([self.traced] if self.traced else [])

    @property
    def violations(self) -> list:
        found = [v for p in self.checked for v in p.violations]
        return found + [f"passes disagree on: {d}" for d in self.mismatch]


def measure(workload: Workload, workdir: str, seconds: float, trace: bool) -> Result:
    """Set up a few times (the median is setup_s), then run the timed passes.

    Untraced, passes repeat until `seconds` have gone by and the metrics
    are the end-to-end ones.  Traced, one untraced and one traced pass
    run and the metrics are the per-layer ones, with the tracing
    overhead as their wall-time difference.
    """
    setups = []
    while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
        setups.append(set_up(workload, workdir))
    start = time.perf_counter()
    passes = [run_pass(workload, workdir)]
    if not trace:
        while time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, workdir))
        mismatch = [d for p in passes[1:] for d in same_reports(passes[0], p)]
        return Result(setups, passes, None, end_to_end(setups, passes), mismatch)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(workload, workdir, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts,
                                    setup_probe(tracer.problems), traced.wall_s)
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - passes[0].wall_s, "s")
    return Result(setups, passes, traced, metrics, same_reports(passes[0], traced),
                  tracer.spans)
