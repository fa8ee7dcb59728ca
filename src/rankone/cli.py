"""Command line front end: generate, solve, search, reduce, and check.

Subcommands
    gen        write planted-yes / random-no / complex-planted instances
    solve      full pipeline on a SUBSPACE, MEASUREMENT, or CSUBSPACE file
    rectangle  Gaussian-threshold rectangle search on FACTORS files
    reduce     rewrite a CSUBSPACE file as its real SUBSPACE counterpart
    check      verify a CANDIDATE file against its instance file

Every command prints a JSON report (schema 1) to stdout that echoes the
full effective configuration, defaults included, and the seed of gen
and rectangle.  Identical inputs, flags, and seed produce byte-identical
stdout, so wall-clock timing goes to stderr.  For gen and reduce the
--out flag names the generated artifact (gen also writes an `.answer`
sidecar next to it); for the other commands --out stores a copy of the
report.  A --config file holds `key = value` lines.  Every key is a
flag of the subcommand (`dim_w` or `dim-w` for --dim-w), and its value
is typed like the flag's, so an unknown key or a value the flag would
reject is an input error.  Flags win when both are given.  All
randomness of gen and rectangle flows from their single seed.  solve
takes no seed: trial t of its structure rounds runs on seed t.

Exit codes: 0 positive verdict, 1 clean negative verdict (an instance
whose relaxation is certified infeasible, a MEASUREMENT that accepts no
state with probability 1, quality below the bar), 2 malformed inputs or
files, 3 exhausted search or solver budgets (for `solve`, a top rung
whose solver reaches its iteration limit with neither an infeasibility
certificate nor a polished candidate of its last iterate at 1 - eps^2),
4 anything unexpected.  `solve` climbs the
relaxation degrees 4, 6, ... up to --degree and reports the one that
decided as `result.rung`, which lies below --degree when a lower rung
already refused, or rounded or polished its table to 1 - eps^2.  How
the solve at that rung ended is `result.solver_status`: `feasible` (a
converged moment table, rounded and, on a spectral miss, polished by
alternating ascent), `rounded` (stopped early at an iterate whose
spectral candidate already meets 1 - eps^2; the solver offers the
least-norm solution of the rung's equalities at check 0, before any
cone set-up, then its iterate at checks 1, 2, 4, ..., so
`result.solver_iterations` may be 0),
`iter_limit` (the solver reached its iteration limit, and a polished
candidate of the last iterate it offered meets 1 - eps^2) or
`infeasible` (refused).  For a CSUBSPACE the real search aims at 1 - eps^2 / 2: the lift's relative
residual is sqrt(2 (1 - q)) at real quality q, so a candidate that
reaches that bar also passes `checks.lift_within_eps`.  It says OK for
any candidate it finds; its `checks.meets_target` applies the bar
1 - eps^2 (`result.target`) that `check` applies.  A refusal reports
`result.certificate`: its kind (`linear` or `conic`) and its margin,
which is positive.  A valid MEASUREMENT with no eigenvalue-1 direction
refutes the YES case without a solve: `solve` reports FAIL with a
`spectral` certificate whose margin is 1 minus the largest eigenvalue,
and a note naming that eigenvalue (`check` still rejects such a file as
input with no subspace to check against).  A command that fails after
its configuration resolved echoes that configuration, config-file
values and defaults included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .bss import (
    DEFAULT_DEGREE,
    RankOneCandidate,
    complex_planted,
    lift_real_solution,
    measurement_to_subspace,
    planted_yes,
    projected_quality,
    random_no,
    read_complex_subspace,
    read_measurement,
    read_subspace,
    reduce_complex_to_real,
    solve_bss,
    subspace_from_matrices,
    verify_candidate,
    write_complex_subspace,
    write_subspace,
)
from .errors import (
    BadDims,
    DegreeTooSmall,
    DimensionMismatch,
    EmptySubspace,
    IllFormed,
    NotPSD,
    NotSymmetric,
    PreconditionViolated,
    RankOneError,
    ZeroCandidate,
)
from .linalg import BlockReader, write_blocks
from .rectangle import (
    DEFAULT_RESTARTS,
    default_k,
    default_max_rounds,
    find_rectangle,
    read_factors,
)

_SCHEMA = 1
_GRID_LIMIT = 3            # largest ambient with a farness grid certificate
_EPS = 0.25                # default eps of solve, rectangle and check

# a clean negative verdict uses 1; these families map to 2 and 3
_INPUT_ERRORS = (IllFormed, BadDims, DegreeTooSmall, DimensionMismatch,
                 EmptySubspace, NotSymmetric, NotPSD, PreconditionViolated)


# -- candidate files -----------------------------------------------------------


def write_candidate(path, u0, v0, complex_pair: bool = False) -> None:
    """Write 'CANDIDATE n' (or CCANDIDATE) and the two stacked rows.

    A complex pair stores the lift convention: each row is the real
    half followed by the imaginary half, so the stored length is 2n.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if u0.ndim != 1 or u0.shape != v0.shape:
        raise DimensionMismatch(
            f"candidate vectors must match, got {u0.shape} and {v0.shape}")
    header = "CCANDIDATE" if complex_pair else "CANDIDATE"
    n = u0.size // 2 if complex_pair else u0.size
    write_blocks(path, f"{header} {n}", [np.vstack([u0, v0])])


def read_candidate(path):
    """Return (u0, v0, kind) with kind CANDIDATE or CCANDIDATE."""
    fh = BlockReader(path, "CANDIDATE", "CCANDIDATE", count=1)
    (n,) = fh.header
    block = fh.take((2, 2 * n if fh.kind == "CCANDIDATE" else n))
    return block[0], block[1], fh.kind


def _sniff(path) -> str:
    with open(path) as fh:
        head = fh.read(64).split()
    if not head:
        raise IllFormed(f"{path} is empty")
    return head[0]


def _read_instance(path, kind: str, verb: str):
    """(w, measurement, wc) from a SUBSPACE, MEASUREMENT or CSUBSPACE file.

    `kind` is the file's magic word; w is the real subspace to search,
    measurement is set for a MEASUREMENT file and wc for a CSUBSPACE one.
    """
    measurement = wc = None
    if kind == "SUBSPACE":
        w = read_subspace(path)
    elif kind == "MEASUREMENT":
        measurement = read_measurement(path)
        w = measurement_to_subspace(measurement)
    elif kind == "CSUBSPACE":
        wc = read_complex_subspace(path)
        w = reduce_complex_to_real(wc)
    else:
        raise IllFormed(f"cannot {verb} a {kind} file")
    return w, measurement, wc


# -- config --------------------------------------------------------------------


def load_config(path) -> dict:
    """Read `key = value` lines as strings, unquoted; blank lines and #
    comments are skipped."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise IllFormed(f"{path}:{lineno}: expected key = value")
            key, raw = text.split("=", 1)
            values[key.strip().replace("-", "_")] = raw.strip().strip('"').strip("'")
    return values


def _effective(args, parser, defaults: dict) -> dict:
    """Every argument of the subcommand: explicit flags beat config values
    beat `defaults`.  A config value is converted by the type of the flag
    of its name in `parser`, the subcommand's parser."""
    types = {action.dest: action.type or str for action in parser._actions
             if action.option_strings and action.dest not in ("config", "help")}
    config = load_config(args.config) if args.config else {}
    for key, raw in config.items():
        if key not in types:
            raise IllFormed(f"unknown config key {key!r}")
        try:
            config[key] = types[key](raw)
        except ValueError:
            raise IllFormed(f"config key {key!r} needs {types[key].__name__}, "
                            f"got {raw!r}") from None
    return {key: value if value is not None else config.get(key, defaults.get(key))
            for key, value in vars(args).items() if key not in ("command", "config")}


# -- commands ------------------------------------------------------------------


def _cmd_gen(cfg):
    if cfg["n"] is None:
        raise IllFormed("gen needs n (flag --n or config)")
    if cfg["out"] is None:
        raise IllFormed("gen needs an output path (--out)")
    if cfg["dim_w"] is None:
        cfg["dim_w"] = cfg["n"]
    n, dim_w, seed = cfg["n"], cfg["dim_w"], cfg["seed"]
    answer = str(cfg["out"]) + ".answer"

    if cfg["kind"] == "planted-yes":
        w, u, v = planted_yes(n, dim_w, seed)
        write_subspace(cfg["out"], w)
        write_candidate(answer, u, v)
        quality = projected_quality(w, np.outer(u, v))
        result = {"instance": str(cfg["out"]), "answer": answer,
                  "ambient": n, "dim": w.dim}
        checks = {"plant_quality": quality}
    elif cfg["kind"] == "random-no":
        if n <= _GRID_LIMIT:
            w, farness = random_no(n, dim_w, seed)
            certified = True
        else:
            w = _uncertified_subspace(n, dim_w, seed)
            farness, certified = None, False
        write_subspace(cfg["out"], w)
        value = "uncertified" if farness is None else repr(farness)
        with open(answer, "w") as fh:
            fh.write(f"FARNESS {value}\n")
        result = {"instance": str(cfg["out"]), "answer": answer,
                  "ambient": n, "dim": w.dim}
        checks = {"farness": farness, "certified": certified}
    else:
        wc, x, y = complex_planted(n, dim_w, seed)
        write_complex_subspace(cfg["out"], wc)
        write_candidate(answer, np.concatenate([x.real, x.imag]),
                        np.concatenate([y.real, y.imag]), complex_pair=True)
        result = {"instance": str(cfg["out"]), "answer": answer,
                  "ambient": n, "constraints": wc.num_constraints}
        checks = {"constraint_residual": wc.residual(np.outer(x, np.conj(y)))}
    return "OK", result, checks


def _uncertified_subspace(n, dim_w, seed):
    # no grid certificate exists above the limit; draw until full rank,
    # which only a dimension in [1, n^2] ever reaches
    if not 1 <= dim_w <= n * n:
        raise BadDims(f"need 1 <= dim_w <= n^2, got n={n}, dim_w={dim_w}")
    rng = np.random.default_rng(seed)
    while True:
        mats = [rng.standard_normal((n, n)) for _ in range(dim_w)]
        try:
            w = subspace_from_matrices(mats, ambient=n)
        except EmptySubspace:
            continue
        if w.dim == dim_w:
            return w


def _candidate_payload(cand) -> dict:
    return {"u0": [float(x) for x in cand.u0],
            "v0": [float(x) for x in cand.v0],
            "quality": float(cand.quality)}


def _require_eps(eps: float) -> None:
    """The eps range that `solve_bss` and `find_rectangle` enforce; NaN
    fails the comparison too."""
    if not 0.0 < eps < 1.0:
        raise IllFormed(f"eps must lie in (0, 1), got {eps}")


def _target(eps: float) -> float:
    """The quality bar 1 - eps^2."""
    return 1.0 - eps ** 2


def _meets_target(record, eps: float) -> bool:
    """The verdict of `check`: a consistent record at or above the bar."""
    return bool(record.ok() and record.quality >= _target(eps) - 1e-12)


def _cmd_solve(cfg):
    kind = _sniff(cfg["in_path"])
    try:
        w, measurement, wc = _read_instance(cfg["in_path"], kind, "solve")
    except EmptySubspace:
        if kind != "MEASUREMENT":
            raise
        # a valid measurement with no eigenvalue-1 direction accepts every
        # state with probability at most its largest eigenvalue, below 1
        cfg["input_kind"] = kind
        m = read_measurement(cfg["in_path"]).matrix
        top = float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])
        result = {"target": _target(cfg["eps"]),
                  "note": f"the measurement accepts no state with probability 1: "
                          f"its largest eigenvalue is {top!r}",
                  "certificate": {"kind": "spectral", "margin": 1.0 - top}}
        return "FAIL", result, {"meets_target": False}
    cfg["input_kind"] = kind

    # the lift's relative residual is sqrt(2 (1 - q)) at real quality q, so
    # lift_within_eps needs q >= 1 - eps^2 / 2: the real search takes eps / sqrt(2)
    search_eps = cfg["eps"] if wc is None else cfg["eps"] / math.sqrt(2.0)
    cand, report = solve_bss(w, search_eps, degree=cfg["degree"])
    result = {"rung": report.rung,
              "solver_status": report.solver_status,
              "solver_iterations": report.solver_iterations,
              "structure_steps": report.structure_steps,
              "degree_left": report.degree_left,
              "target": _target(cfg["eps"])}
    if cand is None:
        result["note"] = (f"degree-{report.rung} relaxation is infeasible: "
                          "no unit rank-one lies in the subspace")
        result["certificate"] = {"kind": report.certificate.kind,
                                 "margin": report.certificate.margin}
        return "FAIL", result, {"meets_target": False}

    result["candidate"] = _candidate_payload(cand)
    record = verify_candidate(cand, w, measurement)
    # The verdict stays OK below the bar (the candidate is still the best
    # found); meets_target applies the bar that `check` applies.
    checks = {"quality": record.quality,
              "quality_via_complement": record.quality_via_complement,
              "consistent": record.ok(),
              "meets_target": _meets_target(record, cfg["eps"])}
    if record.acceptance is not None:
        checks["acceptance"] = record.acceptance
        checks["acceptance_floor"] = record.acceptance_floor
    if wc is not None:
        lift = lift_real_solution(cand, wc, w)
        scale = float(np.linalg.norm(np.outer(lift.u, np.conj(lift.v))))
        result["lift"] = {
            "x_real": [[float(v) for v in row] for row in lift.x.real],
            "x_imag": [[float(v) for v in row] for row in lift.x.imag],
            "residual": lift.residual,
            "bound": lift.bound,
            "relative_residual": lift.residual / scale,
            "quality_real": lift.quality_real,
        }
        checks["lift_within_eps"] = bool(
            lift.residual <= cfg["eps"] * scale)
    return "OK", result, checks


def _cmd_rectangle(cfg):
    u = read_factors(cfg["in_path"])
    v = read_factors(cfg["right"]) if cfg["right"] else u
    # resolve every default so the echo states what actually ran; the
    # defaults divide by eps, so it is checked first
    _require_eps(cfg["eps"])
    if cfg["k"] is None:
        cfg["k"] = default_k(u.n, cfg["eps"])
    if cfg["max_iters"] is None:
        cfg["max_iters"] = default_max_rounds(u.n, cfg["eps"])

    res = find_rectangle(u, v, cfg["eps"], k=cfg["k"],
                         max_rounds=cfg["max_iters"], seed=cfg["seed"],
                         restarts=cfg["restarts"])
    sub = u.vectors[res.indices] @ v.vectors[res.indices].T
    sv = np.linalg.svd(sub, compute_uv=False)
    tail = float(np.sum(sv[1:] ** 2))
    svd_distance = math.sqrt(tail) / float(sv[0])
    result = {"indices": [int(i) for i in res.indices],
              "size": int(res.indices.size),
              "rank_one_distance": res.rank_one_distance,
              "rounds": res.rounds,
              "densities": list(res.densities)}
    checks = {"svd_distance": svd_distance,
              "matches_reported": bool(
                  abs(svd_distance - res.rank_one_distance) <= 1e-8),
              "passes_at_eps": bool(
                  cfg["eps"] ** 2 * sv[0] ** 2 >= tail - 1e-10)}
    return "OK", result, checks


def _cmd_reduce(cfg):
    if cfg["out"] is None:
        raise IllFormed("reduce needs an output path (--out)")
    wc = read_complex_subspace(cfg["in_path"])
    w = reduce_complex_to_real(wc)
    write_subspace(cfg["out"], w)
    result = {"instance": str(cfg["out"]), "ambient": w.ambient, "dim": w.dim}
    checks = {"expected_dim": 4 * wc.ambient ** 2 - 2 * wc.num_constraints,
              "dim_matches": w.dim == 4 * wc.ambient ** 2
              - 2 * wc.num_constraints}
    return "OK", result, checks


def _cmd_check(cfg):
    _require_eps(cfg["eps"])
    u0, v0, cand_kind = read_candidate(cfg["candidate"])
    kind = _sniff(cfg["instance"])
    needed = "CCANDIDATE" if kind == "CSUBSPACE" else "CANDIDATE"
    if cand_kind != needed:
        raise IllFormed(f"a {kind} instance needs a {needed} file")
    w, measurement, wc = _read_instance(cfg["instance"], kind, "check against")
    candidate = RankOneCandidate(u0, v0, 0.0)
    try:
        lift = lift_real_solution(candidate, wc, w) if wc is not None else None
        record = verify_candidate(candidate, w, measurement)
    except ZeroCandidate as err:
        # a zero candidate is a malformed file, not an exhausted search
        raise IllFormed(f"{cfg['candidate']}: {err}") from None
    extra = {}
    if lift is not None:
        scale = float(np.linalg.norm(np.outer(lift.u, np.conj(lift.v))))
        extra = {"lift_residual": lift.residual,
                 "lift_relative_residual": lift.residual / scale}

    passed = _meets_target(record, cfg["eps"])
    result = {"quality": record.quality, "target": _target(cfg["eps"]), **extra}
    checks = {"quality_via_complement": record.quality_via_complement,
              "consistent": record.ok()}
    if record.acceptance is not None:
        checks["acceptance"] = record.acceptance
        checks["acceptance_floor"] = record.acceptance_floor
    return ("OK" if passed else "FAIL"), result, checks


# each command with the defaults of its unset flags
_COMMANDS = {
    "gen": (_cmd_gen, {"seed": 0}),
    "solve": (_cmd_solve, {"eps": _EPS, "degree": DEFAULT_DEGREE}),
    "rectangle": (_cmd_rectangle, {"eps": _EPS, "seed": 0, "restarts": DEFAULT_RESTARTS}),
    "reduce": (_cmd_reduce, {}),
    "check": (_cmd_check, {"eps": _EPS}),
}


# -- wiring --------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argparse tree and its subcommand parsers, built once per process:
    `parse_args` keeps no state between calls, and nothing changes the
    tree after it is built."""
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Approximately rank-one matrices in linear subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("--config", help="key = value file; flags win")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("gen", help="write an instance plus answer sidecar")
    p.add_argument("kind", choices=["planted-yes", "random-no",
                                    "complex-planted"])
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--dim-w", dest="dim_w", type=int,
                   help="subspace dimension (default n)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    common(p, "instance path (required); answer goes to <out>.answer")

    p = sub.add_parser("solve", help="run the pipeline on an instance file")
    p.add_argument("in_path", help="SUBSPACE, MEASUREMENT, or CSUBSPACE file")
    p.add_argument("--eps", type=float, help=f"target accuracy (default {_EPS:g})")
    p.add_argument("--degree", type=int,
                   help="top relaxation degree: the rungs 4, 6, ... up to it "
                        f"are tried in turn (default {DEFAULT_DEGREE})")
    common(p, "also write the report here")

    p = sub.add_parser("rectangle", help="rank-one rectangle search")
    p.add_argument("in_path", help="FACTORS file (left side)")
    p.add_argument("--right", help="FACTORS file for the right side")
    p.add_argument("--eps", type=float, help=f"target accuracy (default {_EPS:g})")
    p.add_argument("--k", type=float, help="threshold strength")
    p.add_argument("--restarts", type=int, help=f"search restarts (default {DEFAULT_RESTARTS})")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="threshold rounds per search")
    p.add_argument("--seed", type=int, help="Gaussian stream seed (default 0)")
    common(p, "also write the report here")

    p = sub.add_parser("reduce", help="complex subspace to its real lift")
    p.add_argument("in_path", help="CSUBSPACE file")
    common(p, "output SUBSPACE path (required)")

    p = sub.add_parser("check", help="verify a candidate against an instance")
    p.add_argument("instance", help="SUBSPACE, MEASUREMENT, or CSUBSPACE file")
    p.add_argument("candidate", help="CANDIDATE or CCANDIDATE file")
    p.add_argument("--eps", type=float,
                   help=f"quality bar 1 - eps^2 (default {_EPS:g})")
    common(p, "also write the report here")
    return parser, sub.choices


def _error_code(err: Exception) -> int:
    if isinstance(err, _INPUT_ERRORS) or isinstance(err, OSError):
        return 2
    if isinstance(err, RankOneError):
        return 3
    return 4


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    report = {"schema": _SCHEMA, "command": args.command, "config": {}}
    cfg = None
    try:
        run, defaults = _COMMANDS[args.command]
        cfg = _effective(args, commands[args.command], defaults)
        status, result, checks = run(cfg)
        report.update(config=cfg, status=status, result=result, checks=checks)
        code = 0 if status == "OK" else 1
    except Exception as err:
        if cfg is None:
            # the config did not resolve; echo the raw flags
            cfg = {k: v for k, v in vars(args).items() if k != "command"}
        report.update(config=cfg, status="ERROR",
                      error={"type": type(err).__name__, "message": str(err)})
        code = _error_code(err)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    out = report["config"].get("out")
    if out and args.command != "gen" and args.command != "reduce":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(f"{args.command}: {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
