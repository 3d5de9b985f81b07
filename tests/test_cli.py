"""Tests for the command-line interface: parsing, reports, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itrust
from itrust.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    SUBLINEAR_SLOPE_BAND,
    InsufficientDataError,
    _config_hash,
    _parse_seeds,
    fit_linear_decay,
    main,
    read_config_file,
)
from itrust.trust_region import SHRINK_FACTOR
from itrust.writers import write_csv


# ---------------------------------------------------------------------------
# Helpers


def test_parse_seeds():
    assert _parse_seeds("0-3") == [0, 1, 2, 3]
    assert _parse_seeds("1,5,9") == [1, 5, 9]
    assert _parse_seeds("4") == [4]
    with pytest.raises(ValueError):
        _parse_seeds("")


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


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# campaign defaults\n"
        "problem = quad5\n"
        "use-scaling = true\n"
        "\n"
        "T = 7\n"
    )
    values = read_config_file(str(path))
    assert values == {"problem": "quad5", "use_scaling": "true", "T": "7"}


def test_config_hash_ignores_output_options():
    base = {"problem": "quad5", "seed": 3, "out": "a", "format": "csv"}
    moved = {"problem": "quad5", "seed": 3, "out": "b", "format": "json"}
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
    assert trace.exists() and summary.exists()
    payload = json.loads(summary.read_text())
    assert payload["problem"] == "quad2"
    assert payload["converged"] is True
    assert payload["grad_norm"] <= 1e-8
    assert len(payload["theta"]) == 2
    assert "config_hash" in payload
    out = capsys.readouterr().out
    assert "quad2" in out and "converged" in out


def test_solve_trace_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_solve(a, "--sigma2", "0.01") == EXIT_OK
    assert run_solve(b, "--sigma2", "0.01") == EXIT_OK
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


def test_solve_divergent_machine_fails_every_iteration_and_shrinks(tmp_path):
    # A huge fixed step on a huge radius blows up every subproblem. Each
    # diverged solve is a failed, rejected iteration that shrinks the radius;
    # the run itself completes and reports through its trace and summary.
    rc = main(
        [
            "solve",
            "--problem",
            "quad2",
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
        (tmp_path / "solve-quad2-ecim-seed0.summary.json").read_text()
    )
    assert payload["converged"] is False
    trace = (tmp_path / "solve-quad2-ecim-seed0.trace.csv").read_text()
    rows = [line.split(",") for line in trace.splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[-1] == "1" and row[-2] == "0" for row in rows)
    deltas = [float(row[1]) for row in rows]
    assert deltas[0] == 1e9
    assert deltas[1:] == [SHRINK_FACTOR * d for d in deltas[:-1]]


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = quad5\nT = 2\ngtol = 1e-300\n")
    out = tmp_path / "reports"
    rc = main(["solve", "--config", str(cfg), "--problem", "quad2", "--out", str(out)])
    assert rc == EXIT_OK
    # Explicit --problem wins; T and gtol come from the file.
    summary = out / "solve-quad2-ecim-seed0.summary.json"
    payload = json.loads(summary.read_text())
    assert payload["problem"] == "quad2"
    assert payload["iterations"] <= 2
    assert payload["converged"] is False

    # An abbreviated flag wins too: --cou is --count.
    cfg.write_text("count = 2\nK = 300\n")
    argv = ["compare-oracles", "--config", str(cfg), "--cou", "1", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "compare-oracles.json").read_text())
    assert payload["config"]["count"] == 1 and payload["config"]["K"] == 300
    assert payload["summary"]["rows"] == 1


def test_config_file_supplies_problem(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = quad2\nsolver = exact-ball\nT = 3\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    summary = tmp_path / "solve-quad2-exact-ball-seed0.summary.json"
    assert json.loads(summary.read_text())["problem"] == "quad2"


def test_solve_without_problem_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 3\n")
    out = tmp_path / "reports"
    for extra in ([], ["--config", str(cfg)]):
        assert main(["solve", *extra, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jitter = 3\n")
    rc = main(["solve", "--config", str(cfg), "--problem", "quad2", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["format = xml", "schedule = bogus"])
def test_config_file_value_outside_choices(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "reports"
    argv = ["solve", "--config", str(cfg), "--problem", "quad2", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_flag_matches_command_line_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("use-scaling = true\n")
    common = ["solve", "--problem", "quad2", "--solver", "exact-ball", "--T", "3"]
    for out, extra in (("a", ["--config", str(cfg)]), ("b", ["--use-scaling"])):
        assert main([*common, *extra, "--out", str(tmp_path / out)]) == EXIT_OK
    name = "solve-quad2-exact-ball-seed0.summary.json"
    a = json.loads((tmp_path / "a" / name).read_text())
    b = json.loads((tmp_path / "b" / name).read_text())
    assert a["config_hash"] == b["config_hash"]


def test_config_file_skips_keys_of_other_subcommands(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = quad5\nseeds = 0\nK = 1000\nn = 1\n")
    rc = main(["verify-bounds", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "verify-bounds-n1.csv").read_text().splitlines()
    assert len(rows) > 1


def test_jobs_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["verify-bounds", "--jobs", "2", "--out", str(tmp_path)])
    assert info.value.code == EXIT_USAGE


def test_out_of_range_option_is_usage_error(tmp_path, capsys):
    grid = ["--problem", "illscaled", "--use-scaling", "--solver", "grid"]
    for extra in (
        ["--problem", "quad2", "--delta0", "0"],
        ["--problem", "quad2", "--sigma2", "nan"],
        ["--problem", "quad2", "--beta0", "inf"],
        ["--problem", "quad2", "--gtol", "nan"],
        # Once the radius grows to 4, the lattice has 161^4 points: past the cap.
        [*grid, "--resolution", "0.05"],
    ):
        rc = main(["solve", *extra, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE, extra
        assert "usage error" in capsys.readouterr().err


def test_csv_writer_cell_formats(tmp_path):
    path = tmp_path / "row.csv"
    row = [3, True, np.float64(0.1), np.nan, "x", None]
    write_csv(path, ["a", "b", "c", "d", "e", "f"], [row])
    assert path.read_bytes() == b"a,b,c,d,e,f\r\n3,1,0.1,nan,x,\r\n"


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


def test_verify_bounds_rejects_large_dimension(tmp_path, capsys):
    rc = main(["verify-bounds", "--n", "9", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: verify-bounds supports n <= 3")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [["--K", "999"], ["--K", "5"], ["--beta0", "inf"]])
def test_verify_bounds_option_that_voids_checks_is_usage_error(tmp_path, capsys, extra):
    # Below K = 1000 the averaged-decay check, and below 10 the fixed-step
    # check, has no horizon; an infinite step makes the fixed-step bound inf.
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
    rc = main(
        [
            "verify-bounds",
            "--n",
            "2",
            "--seeds",
            "0",
            "--K",
            "1000",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "verify-bounds-n2.json").read_text())
    assert payload["command"].startswith("verify-bounds")
    assert payload["config_hash"]
    assert payload["summary"]["failed"] == 0
    assert all(row["passed"] for row in payload["rows"])


def test_rate_fit_fixed_schedule(tmp_path, capsys):
    rc = main(
        [
            "rate-fit",
            "--schedule",
            "fixed",
            "--seeds",
            "0-1",
            "--ks",
            "1500",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "slope" in out


def test_rate_fit_fixed_horizon_pooled_verdict(tmp_path, capsys):
    argv = ["rate-fit", "--schedule", "fixed-horizon", "--seeds", "0-1"]
    argv += ["--ks", "1000,3162,10000,31623", "--sigma2", "0.01", "--format", "json"]
    rc = main([*argv, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "rate-fit-fixed-horizon-n2.json").read_text())
    summary = payload["summary"]
    assert rc == (EXIT_OK if summary["verdict_passed"] else EXIT_VERIFICATION_FAILED)
    lo, hi = SUBLINEAR_SLOPE_BAND
    assert lo <= summary["pooled_slope"] <= hi
    assert [row["seed"] for row in payload["rows"]] == [0, 1]
    assert "pooled slope" in capsys.readouterr().out


def test_rate_fit_starved_of_data_is_usage_error(tmp_path, capsys):
    # Three horizons, and four copies of one horizon.
    for extra in (
        ["--seeds", "0", "--ks", "40,80,160"],
        ["--seeds", "0-1", "--ks", "1000,1000,1000,1000"],
    ):
        rc = main(
            ["rate-fit", "--schedule", "fixed-horizon", *extra, "--out", str(tmp_path)]
        )
        assert rc == EXIT_USAGE, extra
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


def test_campaign_report_columns(tmp_path):
    campaigns = {
        "verify-bounds-n1.csv": (
            ["verify-bounds", "--n", "1", "--seeds", "0", "--K", "1000"],
            "check,instance,seed,K,observed,bound,passed,config_hash",
        ),
        "rate-fit-fixed-n2.csv": (
            ["rate-fit", "--schedule", "fixed", "--seeds", "0", "--ks", "1500"],
            "instance,seed,schedule,slope,intercept,r_squared,n_points,"
            "band_lo,band_hi,r2_min,passed,config_hash",
        ),
        "compare-oracles.csv": (
            ["compare-oracles", "--count", "1", "--K", "500"],
            "instance,seed,n,kind,ecim_value,ball_value,grid_value,"
            "ecim_minus_ball,ecim_minus_grid,coherence_ratio,passed,config_hash",
        ),
    }
    for name, (argv, header) in campaigns.items():
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / name).read_text().splitlines()[0] == header


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
