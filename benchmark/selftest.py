"""Smoke test of the benchmark on a mini corpus, one instance of each kind.

    python3 benchmark/selftest.py

Runs an untraced and a traced measurement of `corpus.mini` and checks
that every metric named in BENCHMARK.json comes out with its unit, that
self times are non-negative and sum to at most the traced wall time,
that the wrappers are gone afterwards, and that the correctness gate
trips on a deliberately altered report.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def _expect(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _named(result_metrics, spec, failures, kind):
    for entry in spec:
        got = result_metrics.get(entry["name"])
        _expect(got is not None and got[1] == entry["unit"],
                f"{kind} metric {entry['name']} printed in {entry['unit']}", failures)


def main() -> int:
    run._pin_threads()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run._import_rankone(root)
    import corpus
    import harness
    import tracing
    from rankone import bss, cli

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures: list = []
    workload = corpus.mini(0)
    workdir = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    try:
        plain = harness.measure(workload, workdir, 0.0, trace=False)
        traced = harness.measure(workload, workdir, 0.0, trace=True)

        _named(plain.metrics, spec["end_to_end"], failures, "end-to-end")
        _named(traced.metrics, spec["per_layer"], failures, "per-layer")
        _expect(not plain.violations and not traced.violations,
                "mini corpus passes the correctness gate", failures)
        o = plain.passes[0].outcome
        _expect((o.yes, o.hits, o.no, o.refused, o.searches) == (3, 3, 1, 1, 1),
                "each kind gives its expected verdict", failures)

        selfs = tracing.self_times(traced.spans)
        layer_sum = sum(traced.metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        wall = traced.metrics["trace.wall_s"][0]
        _expect(min(selfs) >= 0.0, "self times are non-negative", failures)
        _expect(layer_sum <= wall, f"layer self times {layer_sum:.4f} s fit in "
                f"the traced wall {wall:.4f} s", failures)
        _expect(not hasattr(cli.main, "__wrapped__")
                and not hasattr(bss.solve_feasibility, "__wrapped__"),
                "wrappers are removed after the traced pass", failures)

        # the gate: an altered stdout makes the passes disagree ...
        altered = harness.Pass(workdir, records=list(traced.traced.records))
        argv, code, text = altered.records[0]
        altered.records[0] = (argv, code, text.replace("OK", "FAIL", 1))
        _expect(bool(harness.same_reports(traced.passes[0], altered)),
                "the gate trips on an altered report", failures)
        # ... and a candidate whose reported quality is off is caught
        solve = next(t for t in workload.tasks if isinstance(t, corpus.Solve))
        probe = harness.Pass(workdir)
        cand = probe.path("altered", "cand")
        cli.write_candidate(cand, [1.0, 0.0], [1.0, 0.0])
        harness._check_candidate(probe, probe.path(solve.instance), cand,
                                 solve.eps, 0.5, "altered")
        _expect(bool(probe.violations), "the gate trips on an altered quality", failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
