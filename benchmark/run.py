"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; `rankone` is imported from its
`src/` directory.  With --trace 0 the workload is set up several times
(the median is `setup_s`) and then run in untraced passes until
--seconds have passed; the last stdout line is a JSON object whose
metrics are the end-to-end metrics.  With --trace 1 one untraced and one
traced pass run, their reports must agree, and the metrics are the
per-layer ones.  The line before the last holds the full report: raw
verdict counts, the environment and, for sweep, the instances left out
for length.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# BLAS threads are pinned before NumPy loads, to the same value on every
# commit (OpenBLAS otherwise picks its own default)
BLAS_THREADS = 2


def _pin_threads() -> None:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _import_rankone(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rankone.cli
    if os.path.dirname(os.path.abspath(rankone.cli.__file__)) != os.path.join(src, "rankone"):
        raise ImportError(f"rankone was not imported from {src}")


def _metrics(named: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_threads()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        _import_rankone(root)
    except ImportError as err:
        print(f"benchmark: cannot import rankone from {root}/src: {err}", file=sys.stderr)
        return 2

    import corpus
    import harness

    if args.workload not in corpus.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = corpus.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = harness.measure(workload, workdir, args.seconds, bool(args.trace))
    except harness.GateError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(result.checked),
        "setup_s": result.setups,
        "outcome": harness.outcome_report(result.passes),
        "violations": result.violations[:20],
        "environment": harness.environment(),
    }
    if args.workload == "sweep":
        report["excluded_for_length"] = corpus.EXCLUDED_FOR_LENGTH
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not result.violations,
        "attempted": sum(p.calls for p in result.checked),
        "failed": sum(p.errors for p in result.checked),
        "metrics": _metrics(result.metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
