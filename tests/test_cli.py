"""Tests for the command-line interface: parsing, reports, exit codes."""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itrust
from itrust.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    SUBLINEAR_SLOPE_BAND,
    InsufficientDataError,
    _config_hash,
    _parse_ints,
    _write_report,
    build_parser,
    fit_linear_decay,
    main,
)
from itrust.trust_region import SHRINK_FACTOR


# ---------------------------------------------------------------------------
# Helpers


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_seeds(tmp_path, capsys):
    assert _parse_ints("0-3") == [0, 1, 2, 3]
    assert _parse_ints("1,5,9") == [1, 5, 9]
    assert _parse_ints("4") == [4]
    for spec in ("", "5-3", "0,5-3", "0-3,2", "0,0", "a", "1-", "0,x-3"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_ints(spec)
    # A reversed range is a usage error, not a shorter list, and a repeated
    # value one, not a seed or horizon counted twice; the message says which,
    # and names a part that is not an integer.
    for argv, reason in (
        (["verify-bounds", "--seeds", "0,5-3"], "reversed range '5-3'"),
        (["verify-bounds", "--seeds", "a"], "not an integer: 'a'"),
        (["verify-bounds", "--seeds", "1-"], "not an integer range: '1-'"),
        (["rate-fit", "--ks", "316,1e3"], "not an integer: '1e3'"),
        (
            ["verify-bounds", "--n", "1", "--K", "1000", "--seeds", "0,0"],
            "repeated integers in '0,0'",
        ),
        (["rate-fit", "--ks", "316,1000,316,3162,10000"], "repeated integers"),
        (["compare-oracles", "--dims", "2-3,2"], "repeated integers"),
    ):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path / "reports")])
        assert info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert argv[-2] in err and reason in err, err
    assert not (tmp_path / "reports").exists()
    # The same parser reads --seeds, --ks and --dims.
    parser = build_parser()
    assert parser.parse_args(["verify-bounds", "--seeds", "0-1"]).seeds == [0, 1]
    assert parser.parse_args(["rate-fit", "--ks", "316,1000"]).ks == [316, 1000]
    assert parser.parse_args(["compare-oracles", "--dims", "2-3"]).dims == [2, 3]


def test_fit_rate_recovers_power_law():
    ks = np.array([100, 1000, 10000, 100000], dtype=float)
    gaps = 3.0 * ks**-0.5
    fit = fit_linear_decay(np.log(ks), gaps)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4


def test_fit_rate_drops_floor_values_and_complains_when_starved():
    ks = np.array([10, 100, 1000, 10000])
    gaps = np.array([1e-1, 1e-2, 0.0, 1e-16])  # two unusable points
    with pytest.raises(InsufficientDataError):
        fit_linear_decay(np.log(ks), gaps)
    # Four usable points at one horizon fit no slope.
    with pytest.raises(InsufficientDataError, match="distinct"):
        fit_linear_decay(np.log([1000] * 4), [0.1, 0.09, 0.11, 0.1])


def test_fit_linear_decay_recovers_geometric_rate():
    k = np.arange(1, 40, dtype=float)
    gaps = 0.7 * 0.9**k
    fit = fit_linear_decay(k, gaps)
    assert fit.slope == pytest.approx(np.log(0.9), rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_config_hash_ignores_output_options():
    base = {"problem": "quad5", "seed": 3, "out": "a"}
    moved = {"problem": "quad5", "seed": 3, "out": "b"}
    assert _config_hash(base) == _config_hash(moved)
    assert _config_hash({**base, "seed": 4}) != _config_hash(base)
    assert len(_config_hash(base)) == 12


# ---------------------------------------------------------------------------
# solve


def run_solve(out, *extra):
    argv = [
        "solve",
        "--problem",
        "quad2",
        "--solver",
        "ecim",
        "--K",
        "400",
        "--T",
        "30",
        "--mu",
        "0.01",
        "--eta",
        "0.05",
        "--out",
        str(out),
    ]
    argv.extend(extra)
    return main(argv)


def test_solve_writes_trace_and_summary(tmp_path, capsys):
    assert run_solve(tmp_path) == EXIT_OK
    trace = tmp_path / "solve-quad2-ecim-seed0.trace.csv"
    summary = tmp_path / "solve-quad2-ecim-seed0.summary.json"
    assert sorted(tmp_path.iterdir()) == [summary, trace]
    payload = json.loads(summary.read_text())
    assert payload["problem"] == "quad2"
    assert payload["converged"] is True
    assert payload["grad_norm"] <= 1e-8
    assert len(payload["theta"]) == 2
    assert payload["config"]["problem"] == "quad2" and "out" not in payload["config"]
    assert payload["config_hash"] == _config_hash(payload["config"])
    assert "timestamp" in payload
    # The summary counts the iterations the trace records.
    assert len(read_rows(trace)) == payload["iterations"]
    out = capsys.readouterr().out
    assert "quad2" in out and "converged" in out
    assert f"trace: {trace}" in out and f"summary: {summary}" in out


def test_solve_met_at_start_writes_header_only_trace(tmp_path):
    argv = ["solve", "--problem", "quad2", "--gtol", "1e9", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    trace = tmp_path / "solve-quad2-ecim-seed0.trace.csv"
    assert trace.read_bytes() == (
        b"t,delta,rho,f,grad_norm,model_value,step_inf_norm,accepted,solver_failed\r\n"
    )
    payload = json.loads((tmp_path / "solve-quad2-ecim-seed0.summary.json").read_text())
    assert payload["iterations"] == 0 and payload["converged"] is True


def test_solve_trace_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    # --beta0 auto spells out the default 1/L step.
    assert run_solve(a, "--sigma2", "0.01") == EXIT_OK
    assert run_solve(b, "--sigma2", "0.01", "--beta0", "auto") == EXIT_OK
    ta = (a / "solve-quad2-ecim-seed0.trace.csv").read_bytes()
    tb = (b / "solve-quad2-ecim-seed0.trace.csv").read_bytes()
    assert ta == tb


def test_solve_unknown_problem_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--problem", "quad99", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown problem 'quad99'")
    assert "quad5" in err


def test_solve_exact_ball_backend(tmp_path):
    rc = main(
        [
            "solve",
            "--problem",
            "quad5",
            "--solver",
            "exact-ball",
            "--T",
            "40",
            "--mu",
            "0.01",
            "--eta",
            "0.05",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(
        (tmp_path / "solve-quad5-exact-ball-seed0.summary.json").read_text()
    )
    assert payload["converged"] is True


def test_solve_rosenbrock_exact_ball_converges_at_defaults(tmp_path):
    # At the default mu = 0.1, eta = 0.75 a ratio in [mu, eta] used to reject
    # without shrinking, and the exact solver then returned the same step:
    # 91 of 100 steps rejected, unconverged. Every rejection now shrinks.
    argv = ["solve", "--problem", "rosenbrock2", "--solver", "exact-ball"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads(
        (tmp_path / "solve-rosenbrock2-exact-ball-seed0.summary.json").read_text()
    )
    assert payload["converged"] is True
    assert payload["iterations"] < 100
    assert np.allclose(payload["theta"], [1.0, 1.0], atol=1e-6)


def test_solve_divergent_machine_fails_every_iteration_and_shrinks(tmp_path):
    # A huge fixed step on a huge radius blows up every subproblem. Each
    # diverged solve is a failed, rejected iteration that shrinks the radius;
    # the run itself completes and reports through its trace and summary.
    # plquad's Hessian at its start is singular, so the box finish does not
    # take its model and the machine runs; quad2's is positive definite, and
    # the finish solves it.
    rc = main(
        [
            "solve",
            "--problem",
            "plquad",
            "--solver",
            "ecim",
            "--K",
            "50",
            "--beta0",
            "1e9",
            "--delta0",
            "1e9",
            "--delta-max",
            "1e9",
            "--T",
            "3",
            "--gtol",
            "1e-300",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(
        (tmp_path / "solve-plquad-ecim-seed0.summary.json").read_text()
    )
    assert payload["converged"] is False
    trace = (tmp_path / "solve-plquad-ecim-seed0.trace.csv").read_text()
    rows = [line.split(",") for line in trace.splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[-1] == "1" and row[-2] == "0" for row in rows)
    deltas = [float(row[1]) for row in rows]
    assert deltas[0] == 1e9
    assert deltas[1:] == [SHRINK_FACTOR * d for d in deltas[:-1]]


def test_solve_without_problem_is_usage_error(tmp_path, capsys):
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as info:
        main(["solve", "--out", str(out)])
    assert info.value.code == EXIT_USAGE
    assert "required: --problem" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_option_is_gone(tmp_path):
    # Nor do verify-bounds and rate-fit take a step, a noise level or a
    # schedule: each runs the ones its checks are stated for. list-problems
    # writes no report, so it takes no report options. No command reads an
    # option file: every option is a flag. solve has no warm start: the
    # trust region's machine always starts at 0.
    for argv in (
        ["solve", "--problem", "quad2", "--config", "x"],
        ["solve", "--problem", "quad2", "--warm-start"],
        ["verify-bounds", "--config", "x"],
        ["rate-fit", "--config", "x"],
        ["compare-oracles", "--config", "x"],
        ["verify-bounds", "--jobs", "2"],
        ["verify-bounds", "--beta0", "0.1"],
        ["verify-bounds", "--sigma2", "0.01"],
        ["rate-fit", "--schedule", "fixed"],
        ["rate-fit", "--beta0", "0.1"],
        ["rate-fit", "--sigma2", "0.01"],
        ["list-problems", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE, argv


def test_format_option_is_gone(tmp_path):
    # Every report is one CSV of rows and one summary JSON.
    out = tmp_path / "reports"
    for command in (
        ["solve", "--problem", "quad2"],
        ["verify-bounds"],
        ["rate-fit"],
        ["compare-oracles"],
    ):
        for value in ("csv", "json"):
            with pytest.raises(SystemExit) as info:
                main([*command, "--format", value, "--out", str(out)])
            assert info.value.code == EXIT_USAGE, (command, value)
    assert not out.exists()


def test_resolution_option_is_gone(tmp_path):
    # The grid backend scans a fixed number of points per axis.
    out = tmp_path / "reports"
    argv = ["solve", "--problem", "quad2", "--solver", "grid", "--resolution", "0.05"]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify-bounds", "--seeds=-1"], "--seeds"),
        (["verify-bounds", "--seeds", "0,-1"], "--seeds"),
        (["compare-oracles", "--seed", "-1"], "--seed"),
        (["solve", "--problem", "quad2", "--seed", "-1", "--sigma2", "0.01"], "--seed"),
        (["solve", "--problem", "quad2", "--seed", "-1"], "--seed"),
    ],
    ids=["seeds", "seeds-list", "compare-oracles", "solve-noisy", "solve-noise-free"],
)
def test_negative_seed_is_usage_error_naming_it(tmp_path, capsys, argv, option):
    # A noise-free solve draws nothing from its seed, so only the parser can
    # reject it; the message names the option and the value.
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and "'-1'" in err, err
    assert not out.exists()


def test_solve_grid_backend_converges_on_plquad(tmp_path, monkeypatch):
    # plquad's Hessian is singular, so the box finish declines its models
    # and the grid solves them; illscaled's and quad2's are positive
    # definite, and the finish solves every one without the grid.
    calls = []

    def spy(model):
        calls.append(model)
        return itrust.oracles.grid_minimize_box(model)

    monkeypatch.setattr("itrust.trust_region.grid_minimize_box", spy)
    argv = ["solve", "--problem", "plquad", "--solver", "grid"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads(
        (tmp_path / "solve-plquad-grid-seed0.summary.json").read_text()
    )
    assert payload["converged"] is True
    assert calls


def test_solve_grid_backend_on_rosenbrock2_never_reaches_the_grid(
    tmp_path, monkeypatch
):
    # The grid's 201-point lattice and 400 polish steps stop short of an
    # ill-conditioned model's interior minimizer: taking their point, the
    # outer loop moved like gradient descent and met gtol only at
    # iteration 100 of 100. The box finish takes the Newton point or the
    # active-set point of every rosenbrock2 model, so the grid never runs,
    # and the run converges in 29.
    calls = []

    def spy(model):
        calls.append(model)
        return itrust.oracles.grid_minimize_box(model)

    monkeypatch.setattr("itrust.trust_region.grid_minimize_box", spy)
    argv = ["solve", "--problem", "rosenbrock2", "--solver", "grid"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert not calls
    payload = json.loads(
        (tmp_path / "solve-rosenbrock2-grid-seed0.summary.json").read_text()
    )
    assert payload["converged"] is True
    assert payload["iterations"] <= 40


def test_solve_ecim_converges_on_rosenbrock10_within_50_iterations(tmp_path):
    # At the CLI defaults the box finish solves every positive definite
    # model, inside the box or on one of its faces; the run converges in 46
    # iterations, where the machine alone on those models took 66.
    argv = ["solve", "--problem", "rosenbrock10", "--solver", "ecim"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads(
        (tmp_path / "solve-rosenbrock10-ecim-seed0.summary.json").read_text()
    )
    assert payload["converged"] is True
    assert payload["iterations"] <= 50


def test_out_of_range_option_is_usage_error(tmp_path, capsys):
    for extra in (
        ["--problem", "quad2", "--delta0", "0"],
        ["--problem", "quad2", "--sigma2", "nan"],
        ["--problem", "quad2", "--beta0", "inf"],
        ["--problem", "quad2", "--gtol", "nan"],
        # The machine's options are checked for every backend.
        ["--problem", "quad2", "--solver", "exact-ball", "--K", "0"],
        ["--problem", "quad2", "--solver", "exact-ball", "--sigma2", "nan"],
        ["--problem", "quad2", "--solver", "grid", "--K", "0"],
        ["--problem", "quad2", "--solver", "grid", "--beta0", "inf"],
    ):
        rc = main(["solve", *extra, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE, extra
        assert "usage error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # A --beta0 that is not a number is named by the parser.
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "quad2", "--beta0", "abc", "--out", str(tmp_path)])
    assert info.value.code == EXIT_USAGE
    assert "argument --beta0: not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_created_is_usage_error(tmp_path, capsys, below):
    # --out names a regular file, or a directory below one.
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    argv = ["verify-bounds", "--n", "1", "--seeds", "0", "--K", "1000"]
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write --out: ") and str(out) in err


def test_csv_writer_cell_formats(tmp_path):
    # Floats as repr, NumPy scalars included, booleans as 0/1; the summary
    # JSON has sorted keys, str() for what JSON cannot encode, and ends in a
    # newline.
    row = [3, True, np.float64(0.1), np.nan, "x", None]
    rows_path, summary_path = _write_report(
        {"out": str(tmp_path)},
        "row",
        ["a", "b", "c", "d", "e", "f"],
        [row],
        {"z": 1, "path": Path("p")},
    )
    assert Path(rows_path).read_bytes() == b"a,b,c,d,e,f\r\n3,1,0.1,nan,x,\r\n"
    text = Path(summary_path).read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert payload["path"] == "p" and payload["z"] == 1


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# campaigns


def test_verify_bounds_small_run(tmp_path, capsys):
    rc = main(
        [
            "verify-bounds",
            "--n",
            "2",
            "--seeds",
            "0-1",
            "--K",
            "2000",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    report = tmp_path / "verify-bounds-n2.csv"
    assert report.exists()
    header = report.read_text().splitlines()[0]
    assert header.startswith("check,instance,seed")
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_bounds_without_mu_p_fails_linear_rate(tmp_path, capsys, monkeypatch):
    # With no iterate left to estimate mu_p from, the linear rate cannot be
    # confirmed: its row fails with an infinite observation, and the
    # complexity check, which needs mu_p, is not made.
    monkeypatch.setattr(itrust.cli, "estimate_mu_p", lambda trace, e_star: None)
    argv = ["verify-bounds", "--n", "1", "--seeds", "0", "--K", "1000"]
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == EXIT_VERIFICATION_FAILED
    rows = read_rows(tmp_path / "verify-bounds-n1.csv")
    linear = [row for row in rows if row["check"] == "linear-rate-bound"]
    assert len(linear) == 1
    assert linear[0]["observed"] == "inf" and linear[0]["passed"] == "0"
    assert not any(row["check"] == "iteration-complexity" for row in rows)
    summary = json.loads((tmp_path / "verify-bounds-n1.summary.json").read_text())
    assert summary["failed"] == 1
    assert "1 failed" in capsys.readouterr().out


def test_verify_bounds_rejects_large_dimension(tmp_path, capsys):
    rc = main(["verify-bounds", "--n", "5", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: grid oracle supports n <= 4")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [["--K", "999"], ["--K", "5"]])
def test_verify_bounds_option_that_voids_checks_is_usage_error(tmp_path, capsys, extra):
    # Below K = 1000 the averaged-decay check, and below 10 the fixed-step
    # check, has no horizon.
    out = tmp_path / "reports"
    rc = main(["verify-bounds", "--n", "2", "--seeds", "0", *extra, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-bounds", "--n", "0"],
        ["rate-fit", "--n", "0"],
        ["compare-oracles", "--dims", "0", "--count", "1"],
    ],
)
def test_zero_dimension_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "reports"
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: n must be >= 1, got 0\n"
    assert not out.exists()


def test_verify_bounds_json_report(tmp_path):
    # n = 4 is the grid oracle's largest dimension.
    for n in ("2", "4"):
        argv = ["verify-bounds", "--n", n, "--seeds", "0", "--K", "1000"]
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = read_rows(tmp_path / f"verify-bounds-n{n}.csv")
        summary = json.loads((tmp_path / f"verify-bounds-n{n}.summary.json").read_text())
        assert summary["config_hash"]
        assert set(summary["config"]) == {"n", "seeds", "K"}
        assert summary["seeds"] == 1
        assert summary["rows"] == len(rows) and summary["failed"] == 0
        assert all(row["passed"] == "1" for row in rows)


def test_rate_fit_fixed_horizon_pooled_verdict(tmp_path, capsys):
    argv = ["rate-fit", "--seeds", "0-1", "--ks", "1000,3162,10000,31623"]
    rc = main([*argv, "--out", str(tmp_path)])
    rows = read_rows(tmp_path / "rate-fit-fixed-horizon-n2.csv")
    summary = json.loads(
        (tmp_path / "rate-fit-fixed-horizon-n2.summary.json").read_text()
    )
    lo, hi = SUBLINEAR_SLOPE_BAND
    assert lo <= summary["pooled_slope"] <= hi
    assert [row["seed"] for row in rows] == ["0", "1"]
    assert all(float(row["min_gap_over_bound"]) <= 1.0 for row in rows)
    # Seed 1's own fit falls outside the band while the pooled verdict
    # passes: the exit code and the summary on disk both record the
    # verdict, and the summary line says so.
    assert [row["passed"] for row in rows] == ["1", "0"]
    assert summary["failed"] == 1 and summary["verdict_passed"] is True
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1 of 2 per-seed fits outside the band; the verdict pools them" in out
    assert "pooled slope" in out


def test_rate_fit_starved_of_data_is_usage_error(tmp_path, capsys):
    # Three horizons fit no slope. Four copies of one horizon would fit none
    # either; they are refused as repeated values (test_parse_seeds).
    rc = main(["rate-fit", "--seeds", "0", "--ks", "40,80,160", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "insufficient data" in capsys.readouterr().err


def test_compare_oracles_small_run(tmp_path, capsys):
    rc = main(
        [
            "compare-oracles",
            "--count",
            "4",
            "--K",
            "4000",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    report = tmp_path / "compare-oracles.csv"
    assert report.exists()
    rows = report.read_text().strip().splitlines()
    assert len(rows) == 5  # header + 4 instances
    assert "0 failed" in capsys.readouterr().out


def test_compare_oracles_pairs_every_dimension_with_every_kind(tmp_path):
    # Three dimensions cycled in lockstep with the three kinds would pair
    # each dimension with one kind only.
    argv = ["compare-oracles", "--dims", "1-3", "--count", "9", "--K", "2000"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    rows = read_rows(tmp_path / "compare-oracles.csv")
    kinds = ("strongly-convex", "psd", "singular")
    expected = {f"{kind}-n{n}" for kind in kinds for n in (1, 2, 3)}
    assert sorted(r["instance"] for r in rows) == sorted(expected)


@pytest.mark.parametrize("count", ["0", "-1"])
def test_compare_oracles_without_subproblems_is_usage_error(tmp_path, capsys, count):
    out = tmp_path / "reports"
    rc = main(["compare-oracles", "--count", count, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_compare_oracles_outside_grid_range_is_usage_error(tmp_path, capsys):
    rc = main(
        ["compare-oracles", "--dims", "5", "--count", "1", "--out", str(tmp_path)]
    )
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_compare_oracles_divergent_machine_is_numerical_error(
    tmp_path, capsys, monkeypatch
):
    def diverge(model, config, s0=None):
        raise itrust.DivergenceError(7, math.inf)

    monkeypatch.setattr(itrust.cli, "run_ecim", diverge)
    out = tmp_path / "reports"
    rc = main(["compare-oracles", "--count", "2", "--out", str(out)])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not out.exists()


@pytest.mark.parametrize("derivative", ["gradient", "hessian"])
def test_solve_non_finite_derivative_mid_run_is_numerical_error(
    derivative, tmp_path, capsys, monkeypatch
):
    # f is finite everywhere; the derivative is infinite once theta_0 > 0.5,
    # which the first step from 0 passes. Before, the model's ValueError
    # made this a usage error.
    target = np.array([2.0, 0.0])

    def gradient(t):
        if derivative == "gradient" and t[0] > 0.5:
            return np.array([math.inf, 0.0])
        return 2.0 * (t - target)

    def hessian(t):
        if derivative == "hessian" and t[0] > 0.5:
            return np.full((2, 2), math.inf)
        return 2.0 * np.eye(2)

    objective = itrust.Objective(
        2, lambda t: float((t - target) @ (t - target)), gradient, hessian
    )
    problem = itrust.TestProblem("bowl", objective, "strongly-convex", np.zeros(2))
    monkeypatch.setattr(itrust.cli, "get_problem", lambda name: problem)
    out = tmp_path / "reports"
    argv = ["solve", "--problem", "bowl", "--solver", "exact-ball", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ")
    assert f"{derivative} " in err and "at iteration 1" in err
    assert not out.exists()


def readme_columns() -> dict[str, list[str]]:
    """Each command's CSV columns as README's "Trace and report files" lists
    them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Trace and report files\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)`: `([^`]+)`", section, re.MULTILINE)
    return {name: re.split(r",\s*", columns) for name, columns in listed}


def test_campaign_report_columns(tmp_path):
    # Each command writes exactly its CSV and its summary JSON, the CSV's
    # header is the column list README gives it, and README lists every
    # command that writes a report. Every campaign row carries the summary's
    # config hash.
    runs = {
        "solve": (
            ["solve", "--problem", "quad2", "--T", "2", "--K", "50"],
            "solve-quad2-ecim-seed0",
            ".trace.csv",
        ),
        "verify-bounds": (
            ["verify-bounds", "--n", "1", "--seeds", "0", "--K", "1000"],
            "verify-bounds-n1",
            ".csv",
        ),
        "rate-fit": (
            ["rate-fit", "--seeds", "0", "--ks", "100,316,1000,3162"],
            "rate-fit-fixed-horizon-n2",
            ".csv",
        ),
        "compare-oracles": (
            ["compare-oracles", "--count", "1", "--K", "500"],
            "compare-oracles",
            ".csv",
        ),
    }
    documented = readme_columns()
    assert sorted(documented) == sorted(runs)
    for name, (argv, stem, suffix) in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        report, summary = out / f"{stem}{suffix}", out / f"{stem}.summary.json"
        assert sorted(out.iterdir()) == sorted([report, summary])
        assert report.read_text().splitlines()[0].split(",") == documented[name]
        payload = json.loads(summary.read_text())
        assert payload["config_hash"] == _config_hash(payload["config"])
        if name != "solve":
            rows = read_rows(report)
            assert {row["config_hash"] for row in rows} == {payload["config_hash"]}
            assert payload["rows"] == len(rows) and payload["failed"] == 0


class RecordingOptions(dict):
    """Options that remember every key a command reads."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_command_reads_every_option_it_accepts(tmp_path):
    # An option that its command never reads changes nothing. solve runs once
    # per backend, since each backend reads its own options.
    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    subcommands = subparsers.choices
    out = ["--out", str(tmp_path)]
    solve = ["solve", "--problem", "quad2", "--T", "2", "--K", "50", *out]
    runs = [
        *([*solve, "--solver", solver] for solver in ("ecim", "exact-ball", "grid")),
        ["verify-bounds", "--n", "1", "--seeds", "0", "--K", "1000", *out],
        ["rate-fit", "--n", "1", "--seeds", "0", "--ks", "100,316,1000,3162", *out],
        ["compare-oracles", "--count", "1", "--K", "100", *out],
        ["list-problems"],
    ]
    read = {name: set() for name in subcommands}
    for argv in runs:
        options = vars(parser.parse_args(argv))
        command, func = options.pop("command"), options.pop("func")
        recorded = RecordingOptions(options)
        func(recorded)
        read[command] |= recorded.read
    for name, sub in subcommands.items():
        accepted = {a.dest for a in sub._actions if a.option_strings}
        unread = accepted - {"help"} - read[name]
        assert not unread, (name, unread)


def test_list_problems(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("quad2", "quad5", "rosenbrock2", "logistic", "illscaled"):
        assert name in out


def test_console_script_entry_point(tmp_path):
    # ``-m`` puts the working directory first on sys.path, so the child
    # imports the same package as this process, installed or not.
    result = subprocess.run(
        [sys.executable, "-m", "itrust.cli", "list-problems"],
        capture_output=True,
        text=True,
        cwd=Path(itrust.__file__).parents[1],
    )
    assert result.returncode == EXIT_OK
    assert "quad20" in result.stdout


def test_report_rows_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(
            [
                "compare-oracles",
                "--count",
                "3",
                "--K",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
    ra = (a / "compare-oracles.csv").read_bytes()
    rb = (b / "compare-oracles.csv").read_bytes()
    assert ra == rb
