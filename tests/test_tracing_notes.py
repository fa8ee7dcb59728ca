"""Each span note of `benchmark/tracing.py` reads the return value of the
call it wraps.  Here every noted target runs once, on a small real
input, under the installed tracer, so a changed return shape fails in
the tests instead of in a traced benchmark run."""

import numpy as np

from moment_tables import atom_table
from rankone import bss, cli, structure
from rankone.errors import RankOneError
from rankone.rectangle import random_factors
from test_benchmark_targets import import_benchmark


def test_span_notes_read_real_results():
    tracing = import_benchmark("tracing")
    tracer = tracing.Tracer()
    noted = {name for _, _, name, note in tracing._targets(tracer)
             if note is not None and note is not tracing.COUNT}
    w = bss.planted_yes(2, 1, 0)[0]
    pairs = atom_table(
        np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]), np.array([0.5, 0.5]), 10)
    factors = random_factors(8, 400, seed=2)
    with tracing.installed(tracer):
        bss.solve_feasibility(bss.build_bss_problem(w, 4))
        bss.run_structure_2d(pairs, 0.25, 0)
        structure.fix_subspace(pairs, np.eye(4)[:2], 0.3)
        cli.find_rectangle(factors, factors, eps=0.4, k=2, seed=7, restarts=64)
        cli.solve_bss(w, 0.25, degree=4)
    infos = {}
    for span in tracer.spans:
        assert span.error is None, span.name
        infos.setdefault(span.name, []).append(span.info)
    assert noted == {"sos_solver.solve", "structure.run_structure_2d",
                     "reweighting.fix_subspace", "rectangle.find_rectangle", "bss.solve_bss"}
    assert noted <= infos.keys()
    for info in infos["sos_solver.solve"]:
        # a run stops with no DR step only when the hook takes the start
        assert info["status"] in ("feasible", "rounded")
        assert info["iterations"] >= 1 or info["status"] == "rounded"
        assert info["moments"] == 70
    assert tracer.problems
    assert all(info["steps"] >= 0 for info in infos["structure.run_structure_2d"])
    assert all(info["samples"] >= 1 and info["degree"] >= 0
               for info in infos["reweighting.fix_subspace"])
    assert all(info["rounds"] >= 0 for info in infos["rectangle.find_rectangle"])
    assert infos["bss.solve_bss"] == [{"candidate": True}]


def test_discarded_fix_spans_record_the_error():
    """Under the installed tracer, a structure trial on the degree-6 SDP
    table of planted_yes(2, 2, 0) makes joint fixes that raise
    RetryExhausted: their spans record the error and carry no info, and
    layer_metrics aggregates the pass, counting every fix and the failed
    ones' samples as none."""
    tracing = import_benchmark("tracing")
    tracer = tracing.Tracer()
    mu, report = bss.solve_feasibility(bss.build_bss_problem(bss.planted_yes(2, 2, 0)[0], 6))
    assert report.status == "feasible" and mu.degree == 6
    with tracing.installed(tracer):
        try:
            bss.run_structure_2d(mu, 0.05, 0)
        except RankOneError as err:
            assert type(err).__name__ in tracing.STRUCTURE_FAILURES
    fixes = [span for span in tracer.spans if span.name == "reweighting.fix_subspace"]
    failed = [span for span in fixes if span.error == "RetryExhausted"]
    assert failed and all(span.info == {} for span in failed)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 0.0, 1.0)
    assert metrics["structure.trials"] == (1, "count")
    assert metrics["reweighting.fix_subspace.calls"] == (len(fixes), "count")
    assert metrics["reweighting.samples_tried"] == (
        sum(span.info.get("samples", 0) for span in fixes), "count")
