"""Tests for the command line front end.

Oracles: generated answer sidecars must verify at quality one, reports
are parsed back as JSON and cross-checked against the library calls
they wrap, and determinism is checked as byte equality of stdout.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from instances import tiles_complement
from rankone.bss import (
    MeasurementOperator,
    planted_yes,
    read_subspace,
    solve_bss,
    write_measurement,
    write_subspace,
)
from rankone import bss, cli
from rankone.cli import (
    load_config,
    main,
    read_candidate,
    write_candidate,
)
from rankone.errors import DimensionMismatch, IllFormed
from rankone.linalg import write_blocks
from rankone.rectangle import FactorMatrix, find_rectangle, write_factors


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


# ------------------------------------------------------------------ gen


def test_gen_planted_yes_writes_instance_and_answer(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code, report, _ = run_cli(capsys, "gen", "planted-yes", "--n", "3",
                              "--dim-w", "2", "--seed", "5",
                              "--out", str(out))
    assert code == 0
    assert report["schema"] == 1
    assert report["status"] == "OK"
    assert report["config"]["seed"] == 5
    assert report["checks"]["plant_quality"] == pytest.approx(1.0)
    w = read_subspace(out)
    assert (w.ambient, w.dim) == (3, 2)
    u0, v0, kind = read_candidate(str(out) + ".answer")
    assert kind == "CANDIDATE"
    w_ref, u_ref, v_ref = planted_yes(3, 2, 5)
    assert np.array_equal(u0, u_ref) and np.array_equal(v0, v_ref)


def test_gen_is_deterministic(tmp_path, capsys):
    texts = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code = main(["gen", "planted-yes", "--n", "2", "--seed", "3",
                     "--out", str(out)])
        raw = capsys.readouterr().out
        assert code == 0
        texts.append(raw.replace(name, "SAME"))
    assert texts[0] == texts[1]


def test_gen_random_no_certifies_small_ambient(tmp_path, capsys):
    out = tmp_path / "no.txt"
    code, report, _ = run_cli(capsys, "gen", "random-no", "--n", "2",
                              "--dim-w", "1", "--seed", "1",
                              "--out", str(out))
    assert code == 0
    assert report["checks"]["certified"] is True
    assert report["checks"]["farness"] >= 0.5
    assert "FARNESS" in (tmp_path / "no.txt.answer").read_text()


def test_gen_random_no_flags_large_ambient_uncertified(tmp_path, capsys):
    out = tmp_path / "no4.txt"
    code, report, _ = run_cli(capsys, "gen", "random-no", "--n", "4",
                              "--dim-w", "3", "--out", str(out))
    assert code == 0
    assert report["checks"]["certified"] is False
    assert report["checks"]["farness"] is None


def test_gen_random_no_without_a_certifiable_draw_writes_nothing(tmp_path, capsys):
    """No draw at n = 3, dim_w = 4 is certified 0.5-far: the budget runs
    out (exit 3, RetryExhausted) and neither file is written."""
    out = tmp_path / "no.txt"
    code, report, _ = run_cli(capsys, "gen", "random-no", "--n", "3",
                              "--dim-w", "4", "--seed", "0",
                              "--out", str(out))
    assert (code, report["error"]["type"]) == (3, "RetryExhausted")
    assert report["error"]["message"] == (
        "no subspace certified 0.5-far in 40 draws (n=3, dim_w=4)")
    assert not out.exists()
    assert not (tmp_path / "no.txt.answer").exists()


def test_gen_random_no_rejects_dimensions_outside_the_space(tmp_path):
    """Above the grid limit, as at n <= 3, a dim_w outside [1, n^2] is an
    input error (exit 2, BadDims): no draw of that many matrices can span
    it.  Run in a subprocess with a timeout, so that a draw loop that
    never ends fails the test instead of hanging it."""
    script = (
        "import contextlib, io, json\n"
        "from rankone.cli import main\n"
        "for dim_w in ('17', '0'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['gen', 'random-no', '--n', '4', '--dim-w', dim_w,\n"
        f"                     '--out', {str(tmp_path / 'no.txt')!r}])\n"
        "    print(code, json.loads(out.getvalue())['error']['type'])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["2 BadDims", "2 BadDims"]


def test_gen_rejects_missing_n(tmp_path, capsys):
    code, report, _ = run_cli(capsys, "gen", "planted-yes",
                              "--out", str(tmp_path / "w.txt"))
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["error"]["type"] == "IllFormed"


# ---------------------------------------------------------------- solve


def test_solve_planted_subspace(tmp_path, capsys):
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--dim-w", "2", "--seed", "4",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "solve", str(out), "--eps", "0.25")
    assert code == 0
    assert report["status"] == "OK"
    assert report["config"]["input_kind"] == "SUBSPACE"
    assert report["checks"]["quality"] >= 1 - 0.25 ** 2
    assert report["checks"]["consistent"] is True
    assert report["checks"]["meets_target"] is True
    cand = report["result"]["candidate"]
    assert len(cand["u0"]) == 2 and len(cand["v0"]) == 2


def test_solve_reports_meets_target_below_the_bar(tmp_path, capsys, monkeypatch):
    """A candidate below 1 - eps^2 keeps the OK verdict and exit 0, and
    meets_target says what `check` would say of it.  The polish lifts
    every natural spectral miss searched for (random W at n = 3, dim 4-5
    and n = 4, dim 9-10, seeds 0-11, eps 0.25 and 0.05), so `_polish` is
    stubbed to return each rung's best spectral candidate unpolished:
    planted_yes(2, 2, 0)'s at degree 4, quality 0.926."""
    monkeypatch.setattr(bss, "_polish", lambda w, scored, target: scored[0])
    out = tmp_path / "w.txt"
    write_subspace(out, planted_yes(2, 2, 0)[0])
    code, report, _ = run_cli(capsys, "solve", str(out), "--degree", "4",
                              "--eps", "0.25")
    assert code == 0
    assert report["status"] == "OK"
    assert report["result"]["target"] == 1 - 0.25 ** 2
    assert report["checks"]["quality"] == pytest.approx(0.926, abs=5e-4)
    assert report["checks"]["meets_target"] is False
    cand = tmp_path / "c.txt"
    write_candidate(cand, report["result"]["candidate"]["u0"],
                    report["result"]["candidate"]["v0"])
    code, check, _ = run_cli(capsys, "check", str(out), str(cand), "--eps", "0.25")
    assert (code, check["status"]) == (1, "FAIL")


def test_solve_measurement_routing(tmp_path, capsys):
    w, u, v = planted_yes(2, 1, seed=8)
    proj = sum(np.outer(b.ravel(), b.ravel()) for b in w.basis)
    path = tmp_path / "m.txt"
    write_measurement(path, MeasurementOperator(proj))
    code, report, _ = run_cli(capsys, "solve", str(path), "--eps", "0.25")
    assert code == 0
    assert report["config"]["input_kind"] == "MEASUREMENT"
    assert report["checks"]["acceptance"] >= report["checks"]["acceptance_floor"]
    assert report["checks"]["quality"] >= 1 - 0.25 ** 2


def test_solve_measurement_searches_the_eigenvalue_one_space(tmp_path, capsys):
    """M = |psi-><psi-| + 0.75 |00><00| on n = 2 accepts no product state
    with probability 1.  W is span{psi-}, not the 0.75 direction too, and
    its degree-4 relaxation is refused with a certificate."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    e00 = np.array([1.0, 0.0, 0.0, 0.0])
    path = tmp_path / "m.txt"
    write_measurement(path, MeasurementOperator(
        np.outer(psi, psi) + 0.75 * np.outer(e00, e00)))
    code, report, _ = run_cli(capsys, "solve", str(path), "--degree", "4")
    assert (code, report["status"]) == (1, "FAIL")
    assert report["result"]["certificate"]["kind"] == "linear"
    assert report["result"]["certificate"]["margin"] > 0


def test_a_no_measurement_is_refused_by_its_largest_eigenvalue(tmp_path, capsys):
    """M = Q diag(0.1 ... 0.7) Q^T at n = 3 accepts every state with
    probability at most 0.7, so no state with probability 1: `solve`
    refuses it (FAIL, exit 1) with a spectral certificate of margin
    1 - lambda_max, and the note names lambda_max.  `check` still
    rejects the file as input, with no subspace to check against."""
    q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((9, 9)))
    m = q @ np.diag(np.linspace(0.1, 0.7, 9)) @ q.T
    m = 0.5 * (m + m.T)
    path = tmp_path / "m.txt"
    write_measurement(path, MeasurementOperator(m))
    code, report, _ = run_cli(capsys, "solve", str(path), "--eps", "0.25")
    top = float(np.linalg.eigvalsh(m)[-1])
    assert (code, report["status"]) == (1, "FAIL")
    assert report["config"]["input_kind"] == "MEASUREMENT"
    assert report["result"]["certificate"] == {"kind": "spectral", "margin": 1.0 - top}
    assert report["result"]["certificate"]["margin"] == pytest.approx(0.3)
    assert repr(top) in report["result"]["note"]
    assert report["checks"] == {"meets_target": False}
    cand = tmp_path / "c.txt"
    write_candidate(cand, np.eye(3)[0], np.eye(3)[0])
    code, check, _ = run_cli(capsys, "check", str(path), str(cand))
    assert (code, check["error"]["type"]) == (2, "EmptySubspace")


@pytest.mark.parametrize("matrix, error", [
    (np.triu(np.full((4, 4), 0.2)), "NotSymmetric"),
    (np.diag([1.0, 0.5, 0.2, -0.1]), "NotPSD"),
    (np.diag([1.5, 0.5, 0.2, 0.1]), "NotPSD")],
    ids=["not-symmetric", "not-psd", "eigenvalue-above-one"])
def test_a_malformed_measurement_is_an_input_error(tmp_path, capsys, matrix, error):
    """A MEASUREMENT file whose matrix is no measurement exits 2 from
    `solve`, with no eigenvalue below 1 taken for a refusal."""
    path = tmp_path / "m.txt"
    write_blocks(path, "MEASUREMENT 2", [matrix])
    code, report, _ = run_cli(capsys, "solve", str(path), "--eps", "0.25")
    assert (code, report["status"], report["error"]["type"]) == (2, "ERROR", error)


def test_solve_far_instance_reports_fail(tmp_path, capsys):
    out = tmp_path / "no.txt"
    main(["gen", "random-no", "--n", "2", "--dim-w", "1", "--seed", "1",
          "--out", str(out)])
    capsys.readouterr()
    code, report, text = run_cli(capsys, "solve", str(out))
    assert code == 1
    assert report["status"] == "FAIL"
    assert "infeasible" in report["result"]["note"]
    assert report["result"]["certificate"]["kind"] == "linear"
    assert report["result"]["certificate"]["margin"] > 0
    assert report["result"]["rung"] == 4
    assert run_cli(capsys, "solve", str(out))[2] == text


@pytest.mark.parametrize("degree", ["4", "6"])
def test_solve_refuses_a_cone_infeasible_subspace_at_rung_four(tmp_path, capsys, degree):
    """The Tiles complement has a consistent L y = b at degree 4 and no
    PSD point.  It is 0.1190-far from every unit rank-one, so at eps 0.05
    no candidate can verify: under either top degree it is refused at
    rung 4 with a conic certificate, and the note names that rung."""
    out = tmp_path / "no.txt"
    write_subspace(out, tiles_complement())
    code, report, _ = run_cli(capsys, "solve", str(out), "--degree", degree,
                              "--eps", "0.05")
    assert (code, report["status"]) == (1, "FAIL")
    result = report["result"]
    assert (result["rung"], result["solver_status"]) == (4, "infeasible")
    assert result["note"].startswith("degree-4 relaxation is infeasible")
    assert result["certificate"]["kind"] == "conic"
    assert result["certificate"]["margin"] > 0
    assert report["config"]["degree"] == int(degree)


def test_solve_complex_reduces_and_lifts(tmp_path, capsys):
    out = tmp_path / "wc.txt"
    main(["gen", "complex-planted", "--n", "2", "--dim-w", "1", "--seed", "2",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "solve", str(out), "--eps", "0.3")
    assert code == 0
    assert report["config"]["input_kind"] == "CSUBSPACE"
    lift = report["result"]["lift"]
    assert lift["relative_residual"] <= 0.3
    assert report["checks"]["lift_within_eps"] is True


def test_solve_complex_ok_lifts_within_eps(tmp_path, capsys):
    """The 36 degree-4 solves of complex_planted(2, 1..3, 0..5) at eps 0.25
    and 0.3 each say OK with a lift within eps, as the real search aims
    at 1 - eps^2 / 2; the reported target stays 1 - eps^2."""
    for dim_w in ("1", "2", "3"):
        for seed in range(6):
            out = tmp_path / f"wc{dim_w}{seed}.txt"
            main(["gen", "complex-planted", "--n", "2", "--dim-w", dim_w,
                  "--seed", str(seed), "--out", str(out)])
            capsys.readouterr()
            for eps in (0.25, 0.3):
                code, report, _ = run_cli(capsys, "solve", str(out), "--eps", str(eps),
                                          "--degree", "4")
                case = (dim_w, seed, eps)
                assert (code, report["status"]) == (0, "OK"), case
                assert report["checks"]["lift_within_eps"] is True, case
                assert report["result"]["target"] == 1.0 - eps ** 2


def test_solve_rejects_wrong_file_kind(tmp_path, capsys):
    path = tmp_path / "f.txt"
    write_factors(path, FactorMatrix(np.eye(3)))
    code, report, _ = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert report["error"]["type"] == "IllFormed"


@pytest.mark.parametrize("degree", ["2", "3", "5"])
def test_solve_rejects_bad_degree(tmp_path, capsys, degree):
    """A degree the relaxation cannot take is malformed input (exit 2),
    not an exhausted budget (exit 3)."""
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--dim-w", "2", "--seed", "1",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "solve", str(out), "--degree", degree)
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["error"]["type"] == "DegreeTooSmall"


def test_cli_loads_no_scipy(tmp_path):
    """The package runs on NumPy alone: `gen`, `solve`, `check` and
    `rectangle` import no module of scipy, whose linalg would also link a
    second BLAS and thread pool."""
    factors = orthonormal_class_factors(tmp_path)
    script = (
        "import sys\n"
        "from rankone.cli import main\n"
        f"path = {str(tmp_path / 'w.txt')!r}\n"
        "assert main(['gen', 'planted-yes', '--n', '2', '--dim-w', '2',"
        " '--seed', '4', '--out', path]) == 0\n"
        "assert main(['solve', path, '--degree', '4']) == 0\n"
        "assert main(['check', path, path + '.answer']) == 0\n"
        f"assert main(['rectangle', {str(factors)!r}, '--eps', '0.3', '--k', '2',"
        " '--seed', '1']) == 0\n"
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print('LOADED ' + ' '.join(scipy) if scipy else 'CLEAN')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "CLEAN"


def test_missing_file_is_an_input_error(capsys):
    code, report, _ = run_cli(capsys, "solve", "/nonexistent/w.txt")
    assert code == 2
    assert report["status"] == "ERROR"


def test_a_failed_command_echoes_its_resolved_config(tmp_path, capsys):
    """A command that fails after its config resolved echoes that config,
    config-file values and defaults included; one whose config file is
    rejected echoes the raw flags."""
    missing = str(tmp_path / "missing.txt")
    cfg = tmp_path / "d.cfg"
    cfg.write_text("degree = 8\n")
    code, report, _ = run_cli(capsys, "solve", missing, "--config", str(cfg))
    assert (code, report["error"]["type"]) == (2, "FileNotFoundError")
    assert report["config"] == {"in_path": missing, "degree": 8, "eps": 0.25,
                                "out": None}
    cfg.write_text("degree = eight\n")
    code, report, _ = run_cli(capsys, "solve", missing, "--config", str(cfg))
    assert (code, report["error"]["type"]) == (2, "IllFormed")
    assert (report["config"]["config"], report["config"]["degree"]) == (str(cfg), None)


def test_echoed_defaults_are_the_library_defaults(tmp_path, capsys):
    """With no flags, `solve` echoes the degree default of `solve_bss`,
    `rectangle` the restarts and seed defaults of `find_rectangle`, and
    solve, rectangle and check one eps."""
    missing = str(tmp_path / "missing.txt")
    solve = run_cli(capsys, "solve", missing)[1]["config"]
    rectangle = run_cli(capsys, "rectangle", missing)[1]["config"]
    check = run_cli(capsys, "check", missing, missing)[1]["config"]
    library = inspect.signature(solve_bss).parameters
    assert solve["degree"] == library["degree"].default
    library = inspect.signature(find_rectangle).parameters
    assert (rectangle["restarts"], rectangle["seed"]) == (
        library["restarts"].default, library["seed"].default)
    assert solve["eps"] == rectangle["eps"] == check["eps"] == 0.25


# ------------------------------------------------------------------ reuse


def test_main_builds_its_parser_once_per_process(tmp_path, capsys):
    """Repeated in-process `main` calls, of every subcommand and an
    argparse error among them, share one parser tree."""
    missing = str(tmp_path / "missing.txt")
    cli._build_parser.cache_clear()
    calls = [["gen", "planted-yes", "--n", "2", "--out", str(tmp_path / "w.txt")],
             ["solve", missing], ["rectangle", missing], ["reduce", missing],
             ["check", missing, missing], ["solve", missing, "--eps", "0.1"]]
    for argv in calls:
        main(argv)
    with pytest.raises(SystemExit):
        main(["solve"])
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls))


@pytest.mark.parametrize("command, operands, key, value, default", [
    ("solve", 1, "eps", "0.1", 0.25), ("solve", 1, "degree", "8", 6),
    ("check", 2, "eps", "0.1", 0.25), ("rectangle", 1, "k", "3", None)])
def test_no_flag_or_config_value_reaches_the_next_call(tmp_path, capsys, command,
                                                       operands, key, value, default):
    """A value set by flag or by `--config` in one call is gone in the
    next call of the same subcommand, which echoes its default and prints
    what it printed before either."""
    argv = [command] + [str(tmp_path / "missing.txt")] * operands
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    plain = run_cli(capsys, *argv)
    assert plain[1]["config"][key] == default
    flagged = run_cli(capsys, *argv, f"--{key.replace('_', '-')}", value)
    configured = run_cli(capsys, *argv, "--config", str(cfg))
    assert flagged[1]["config"][key] == configured[1]["config"][key] == float(value)
    assert run_cli(capsys, *argv) == plain


def test_an_argparse_error_leaves_the_next_call_alone(tmp_path, capsys):
    """After calls that argparse refuses with exit status 2, some after
    parsing a valid flag, the next valid call prints what it printed
    before them."""
    out = tmp_path / "w.txt"
    argv = ["gen", "planted-yes", "--n", "2", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    before = capsys.readouterr().out
    for bad in (["solve"], ["solve", str(out), "--eps", "0.1", "--degree", "six"],
                ["gen", "planted-yes", "--n", "3", "--bogus"], ["nothing"]):
        with pytest.raises(SystemExit) as exit_info:
            main(bad)
        assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == before
    code, report, _ = run_cli(capsys, "solve", str(out))
    assert (code, report["config"]["eps"], report["config"]["degree"]) == (0, 0.25, 6)


def with_nan_first_entry(path):
    """Rewrite a block-format file with its first matrix entry set to nan."""
    lines = Path(path).read_text().splitlines()
    row = lines[2].split()           # header, block shape, first row
    lines[2] = " ".join(["nan"] + row[1:])
    Path(path).write_text("\n".join(lines) + "\n")


def test_non_finite_entries_are_input_errors(tmp_path, capsys):
    w, u, v = planted_yes(2, 1, seed=8)
    sub, meas, csub, cand, fac = (tmp_path / f"{name}.txt" for name in
                                  ("sub", "meas", "csub", "cand", "fac"))
    write_subspace(sub, w)
    proj = sum(np.outer(b.ravel(), b.ravel()) for b in w.basis)
    write_measurement(meas, MeasurementOperator(proj))
    main(["gen", "complex-planted", "--n", "2", "--dim-w", "1", "--seed", "2",
          "--out", str(csub)])
    capsys.readouterr()
    write_candidate(cand, u, v)
    write_factors(fac, FactorMatrix(np.eye(3)))
    calls = [("solve", sub), ("solve", meas), ("solve", csub),
             ("rectangle", fac), ("check", tmp_path / "sub.ok", cand)]
    write_subspace(tmp_path / "sub.ok", w)
    for command, *paths in calls:
        with_nan_first_entry(paths[-1])
        code, report, _ = run_cli(capsys, command, *map(str, paths))
        assert code == 2, (command, paths[-1].name, report)
        assert report["error"]["type"] == "IllFormed"


# ------------------------------------------------------------ rectangle


def orthonormal_class_factors(tmp_path):
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    fm = FactorMatrix(basis[rng.integers(0, 4, size=200)])
    path = tmp_path / "cols.txt"
    write_factors(path, fm)
    return path


def test_rectangle_search_reports_verified_submatrix(tmp_path, capsys):
    path = orthonormal_class_factors(tmp_path)
    code, report, _ = run_cli(capsys, "rectangle", str(path), "--eps", "0.3",
                              "--k", "2", "--seed", "1")
    assert code == 0
    assert report["checks"]["passes_at_eps"] is True
    assert report["checks"]["matches_reported"] is True
    assert report["result"]["size"] == len(report["result"]["indices"])
    assert report["config"]["k"] == 2
    # resolved defaults are echoed, not left null
    assert report["config"]["max_iters"] >= 4


def test_rectangle_is_deterministic(tmp_path, capsys):
    path = orthonormal_class_factors(tmp_path)
    outs = []
    for _ in range(2):
        code, _, raw = run_cli(capsys, "rectangle", str(path), "--eps", "0.3",
                               "--k", "2", "--seed", "7")
        assert code == 0
        outs.append(raw)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags", [
    ("--eps", "nan"), ("--eps", "0"), ("--eps", "1.5"), ("--k", "nan"),
    ("--k", "0.5"), ("--max-iters", "-3"), ("--restarts", "0"),
    ("--restarts", "-2")], ids="=".join)
def test_rectangle_rejects_bad_options(tmp_path, capsys, flags):
    """A numeric option outside its range is an input error (exit 2), not
    a crash (exit 4), an exhausted search (exit 3) or a run that
    substitutes a value other than the echoed one."""
    path = orthonormal_class_factors(tmp_path)
    code, report, _ = run_cli(capsys, "rectangle", str(path), *flags)
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["error"]["type"] == "IllFormed"


def test_rectangle_budget_exhaustion_exits_three(tmp_path, capsys):
    rng = np.random.default_rng(0)
    fm = FactorMatrix.normalized(rng.standard_normal((60, 6)))
    path = tmp_path / "r.txt"
    write_factors(path, fm)
    code, report, _ = run_cli(capsys, "rectangle", str(path), "--eps", "0.1",
                              "--max-iters", "0")
    assert code == 3
    assert report["error"]["type"] == "MaxRounds"


# ----------------------------------------------------- reduce and check


def test_reduce_writes_real_subspace(tmp_path, capsys):
    src = tmp_path / "wc.txt"
    main(["gen", "complex-planted", "--n", "2", "--dim-w", "2", "--seed", "6",
          "--out", str(src)])
    capsys.readouterr()
    dst = tmp_path / "wr.txt"
    code, report, _ = run_cli(capsys, "reduce", str(src), "--out", str(dst))
    assert code == 0
    assert report["checks"]["dim_matches"] is True
    w = read_subspace(dst)
    assert w.ambient == 4 and w.dim == report["result"]["dim"]


def test_check_accepts_planted_answer(tmp_path, capsys):
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "3", "--dim-w", "3", "--seed", "7",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "check", str(out),
                              str(out) + ".answer")
    assert code == 0
    assert report["result"]["quality"] == pytest.approx(1.0)


def test_check_complex_answer_round_trips(tmp_path, capsys):
    out = tmp_path / "wc.txt"
    main(["gen", "complex-planted", "--n", "2", "--dim-w", "1", "--seed", "9",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "check", str(out),
                              str(out) + ".answer", "--eps", "0.3")
    assert code == 0
    assert report["result"]["lift_relative_residual"] < 1e-8


def test_check_rejects_quality_below_bar(tmp_path, capsys):
    w, u, v = planted_yes(2, 1, seed=3)
    inst = tmp_path / "w.txt"
    write_subspace(inst, w)
    # a quarter-turn of v has zero overlap with the plant direction
    bad = tmp_path / "bad.txt"
    write_candidate(bad, u, np.array([-v[1], v[0]]))
    code, report, _ = run_cli(capsys, "check", str(inst), str(bad))
    assert code == 1
    assert report["status"] == "FAIL"
    assert report["result"]["quality"] < report["result"]["target"]


@pytest.mark.parametrize("eps", ["nan", "0", "-0.1", "1.5", "inf"])
def test_check_rejects_bad_eps(tmp_path, capsys, eps):
    """check takes eps in (0, 1), as solve does: at eps >= 1 the bar
    1 - eps^2 is at most 0, which any candidate would pass."""
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--dim-w", "2", "--seed", "1",
          "--out", str(out)])
    capsys.readouterr()
    code, report, _ = run_cli(capsys, "check", str(out), str(out) + ".answer",
                              "--eps", eps)
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["error"]["type"] == "IllFormed"


def test_check_rejects_a_zero_candidate_as_malformed(tmp_path, capsys):
    """A candidate whose product u0 v0^T vanishes is a malformed file:
    exit 2 with IllFormed, for a CANDIDATE and a CCANDIDATE alike, not
    the exit 3 of an exhausted budget."""
    real = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--out", str(real)])
    cplx = tmp_path / "wc.txt"
    main(["gen", "complex-planted", "--n", "2", "--out", str(cplx)])
    capsys.readouterr()
    zero = tmp_path / "zero.txt"
    write_candidate(zero, np.zeros(2), np.array([1.0, 0.0]))
    czero = tmp_path / "czero.txt"
    write_candidate(czero, np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), complex_pair=True)
    for inst, cand in ((real, zero), (cplx, czero)):
        code, report, _ = run_cli(capsys, "check", str(inst), str(cand))
        assert code == 2
        assert report["status"] == "ERROR"
        assert report["error"]["type"] == "IllFormed"


def test_check_rejects_mismatched_candidate_kind(tmp_path, capsys):
    out = tmp_path / "wc.txt"
    main(["gen", "complex-planted", "--n", "2", "--out", str(out)])
    capsys.readouterr()
    real = tmp_path / "cand.txt"
    write_candidate(real, np.ones(4) / 2.0, np.ones(4) / 2.0)
    code, report, _ = run_cli(capsys, "check", str(out), str(real))
    assert code == 2
    assert "CCANDIDATE" in report["error"]["message"]


# ------------------------------------------------------------- plumbing


def test_candidate_file_round_trip(tmp_path):
    path = tmp_path / "c.txt"
    u = np.array([0.6, 0.8])
    v = np.array([1.0, 0.0])
    write_candidate(path, u, v)
    u2, v2, kind = read_candidate(path)
    assert kind == "CANDIDATE"
    assert np.array_equal(u, u2) and np.array_equal(v, v2)
    with pytest.raises(IllFormed):
        write_candidate(tmp_path / "bad.txt", np.array([np.inf, 0.0]), v)
    with pytest.raises(DimensionMismatch):
        write_candidate(tmp_path / "bad.txt", np.ones(3) / np.sqrt(3), v)


def test_read_candidate_rejects_corrupt_files(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("WRONG 2\n2 2\n1 0\n0 1\n")
    with pytest.raises(IllFormed):
        read_candidate(path)
    path.write_text("CANDIDATE 3\n2 3\n1 0 0\n")
    with pytest.raises(IllFormed):
        read_candidate(path)


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.5\ndegree = 6   # relaxation size\n")
    code, report, _ = run_cli(capsys, "solve", str(out),
                              "--config", str(cfg))
    assert code == 0
    assert report["config"]["eps"] == 0.5
    code, report, _ = run_cli(capsys, "solve", str(out),
                              "--config", str(cfg), "--eps", "0.25")
    assert report["config"]["eps"] == 0.25


def test_config_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--out", str(out)])
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.5\n")
    code, report, _ = run_cli(capsys, "solve", str(out),
                              "--config", str(cfg))
    assert code == 2
    assert "epsilon" in report["error"]["message"]


@pytest.mark.parametrize("command, line", [
    ("solve", "eps = abc"), ("solve", "degree = 6.0"), ("check", "eps = abc"),
    ("gen", "n = 2.0"), ("gen", "dim_w = 2.5"), ("rectangle", "restarts = x"),
    ("rectangle", "seed = 1.5"), ("rectangle", "growth = 0.5")])
def test_config_values_are_typed_by_their_flags(tmp_path, capsys, command, line):
    """A config value its flag's type rejects, or a key that is no flag,
    is an input error that names the key."""
    w = tmp_path / "w.txt"
    main(["gen", "planted-yes", "--n", "2", "--out", str(w)])
    capsys.readouterr()
    operands = {"solve": [w], "check": [w, f"{w}.answer"],
                "gen": ["planted-yes", "--out", tmp_path / "g.txt"],
                "rectangle": [orthonormal_class_factors(tmp_path)]}[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, report, _ = run_cli(capsys, command, *map(str, operands), "--config", str(cfg))
    assert (code, report["error"]["type"]) == (2, "IllFormed")
    assert repr(line.split()[0]) in report["error"]["message"]


FLAGS = {"gen": {"n", "dim_w", "seed", "out"},
         "solve": {"eps", "degree", "out"},
         "rectangle": {"right", "eps", "k", "restarts", "max_iters", "seed", "out"},
         "reduce": {"out"},
         "check": {"eps", "out"}}


def test_config_keys_are_exactly_the_flags(tmp_path, capsys):
    """Each subcommand takes as config keys its flags and nothing else:
    not its operands, not --config, not the removed rectangle and solve
    settings.  solve, reduce and check take no --seed, and solve no
    --tol."""
    keys = set().union(*FLAGS.values()) | {
        "in_path", "kind", "instance", "candidate", "config",
        "growth", "min_size", "two_sided", "retries", "tol"}
    missing = str(tmp_path / "missing.txt")
    operands = {"gen": ["planted-yes"], "solve": [missing], "rectangle": [missing],
                "reduce": [missing], "check": [missing, missing]}
    cfg = tmp_path / "run.cfg"
    for command, flags in FLAGS.items():
        accepted = set()
        for key in keys:
            cfg.write_text(f"{key} = {tmp_path / 'value'}\n")
            code, report, _ = run_cli(capsys, command, *operands[command],
                                      "--config", str(cfg))
            assert code == 2
            if "unknown config key" not in report["error"]["message"]:
                accepted.add(key)
        assert accepted == flags, command
    for command in ("solve", "reduce", "check"):
        with pytest.raises(SystemExit):
            main([command, *operands[command], "--seed", "7"])
    with pytest.raises(SystemExit):
        main(["solve", missing, "--tol", "1e-8"])


def test_load_config_parses_types(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text('a = 3\nb = 0.5\nc = true\nd = "text"\n\n# comment\n')
    values = load_config(cfg)
    assert values == {"a": "3", "b": "0.5", "c": "true", "d": "text"}
