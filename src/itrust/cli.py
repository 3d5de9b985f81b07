"""Command-line interface: solves, bound verification, rate fits, oracle
comparisons.

Every command but list-problems writes one report of two files through
``_write_report``: its rows as CSV, byte-identical for identical options and
seeds, and a summary JSON, identical up to its ``timestamp`` field. The
summary holds the command's verdict fields, its options (``config``) and a
hash of them (``config_hash``); campaign rows end with the same hash, so
reports remain attributable when files are moved around.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .ecim import SCHEDULES, EcimConfig, run_ecim
from .model import energy
from .objectives import (
    estimate_constants,
    estimate_mu_p,
    get_problem,
    problem_suite,
    random_box_quadratic,
)
from .oracles import exact_ball_minimize, grid_minimize_box
from .trust_region import (
    ExactBallSolver,
    GridSolver,
    TrustRegionConfig,
    itrust,
)
from .writers import write_csv, write_json

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Gaps at or below this are roundoff against the reference optimum and are
# excluded from fits and bound checks.
GAP_FLOOR = 1e-14

# Accepted log-log slope of gap against K for the fixed-horizon schedule,
# around the -1/2 of a 1/sqrt(K) decay.
SUBLINEAR_SLOPE_BAND = (-0.7, -0.4)

# Options that shape the output location, not the experiment itself; they
# stay out of the config hash.
_NON_EXPERIMENT_KEYS = {"out"}


class InsufficientDataError(ValueError):
    """Too few usable points to fit a rate."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of a gap decay curve."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_linear_decay(iterations, gaps) -> RateFit:
    """Fit log(gap) against x, dropping gaps at or below ``GAP_FLOOR``: x is
    the iteration count for a geometric decay, log(K) for a power law.

    Raises
    ------
    InsufficientDataError
        With usable pairs at fewer than 4 distinct x.
    """
    x = np.asarray(iterations, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = np.isfinite(gaps) & (gaps > GAP_FLOOR)
    x, y = x[keep], np.log(gaps[keep])
    n_distinct = np.unique(x).size
    if n_distinct < 4:
        raise InsufficientDataError(
            f"need positive gaps at >= 4 distinct x to fit a rate, got {n_distinct}"
        )
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    total = y - np.mean(y)
    denom = float(total @ total)
    r2 = 1.0 - float(residuals @ residuals) / denom if denom > 0.0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_points=int(x.size),
    )


# ---------------------------------------------------------------------------
# Option plumbing


def _parse_ints(spec: str) -> list[int]:
    """Comma-separated distinct non-negative integers and inclusive ranges,
    e.g. ``0-3,7``: every ``-`` marks a range."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        is_range = "-" in part
        try:
            lo, hi = map(int, part.split("-", 1)) if is_range else (int(part),) * 2
        except ValueError:
            kind = "integer range" if is_range else "integer"
            raise argparse.ArgumentTypeError(f"not an {kind}: {part!r}") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"reversed range {part!r}")
        values.extend(range(lo, hi + 1))
    if not values:
        raise argparse.ArgumentTypeError(f"no integers in {spec!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated integers in {spec!r}")
    return values


def _parse_seed(spec: str) -> int:
    if not spec.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {spec!r}")
    return int(spec)


def _parse_beta0(spec: str):
    if spec.lower() in ("auto", "none", ""):
        return None
    try:
        return float(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {spec!r}") from None


def _experiment_options(options: dict) -> dict:
    return {k: v for k, v in options.items() if k not in _NON_EXPERIMENT_KEYS}


def _config_hash(options: dict) -> str:
    canon = json.dumps(_experiment_options(options), sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _write_report(
    options: dict, stem: str, write_rows, summary: dict, rows_suffix: str = ".csv"
) -> tuple[str, str]:
    """Write a command's report and return the paths of its two files:
    ``<stem><rows_suffix>``, written by ``write_rows(path)``, and
    ``<stem>.summary.json``, the summary plus the experiment options
    (``config``), their ``config_hash`` and a ``timestamp``."""
    out_dir = options["out"]
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, stem + rows_suffix)
    write_rows(rows_path)
    summary_path = os.path.join(out_dir, f"{stem}.summary.json")
    payload = {
        **summary,
        "config": _experiment_options(options),
        "config_hash": _config_hash(options),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_json(summary_path, payload)
    return rows_path, summary_path


def _write_campaign(options: dict, stem: str, rows: list[dict], summary: dict):
    """Write a campaign's report and return its paths and failed-row count.

    Every row gets the config hash as its last column; the CSV columns are
    the row keys in order. The summary gains ``rows`` and ``failed``.
    """
    hash_ = _config_hash(options)
    for row in rows:
        row["config_hash"] = hash_
    n_failed = sum(1 for row in rows if not row["passed"])
    paths = _write_report(
        options,
        stem,
        lambda path: write_csv(path, list(rows[0]), (row.values() for row in rows)),
        {"rows": len(rows), "failed": n_failed, **summary},
    )
    return paths, n_failed


def _solver_spec(options: dict):
    name = options["solver"]
    if name == "ecim":
        return EcimConfig(
            schedule=options["schedule"],
            beta0=options["beta0"],
            sigma2=options["sigma2"],
            iterations=options["K"],
            seed=options["seed"],
            modulate_noise=options["modulate_noise"],
        )
    if name == "exact-ball":
        return ExactBallSolver()
    return GridSolver()


# ---------------------------------------------------------------------------
# solve


def cmd_solve(options: dict) -> int:
    problem = get_problem(options["problem"])

    config = TrustRegionConfig(
        delta0=options["delta0"],
        delta_max=options["delta_max"],
        mu=options["mu"],
        eta=options["eta"],
        iterations=options["T"],
        solver=_solver_spec(options),
        gtol=options["gtol"],
        scaling=problem.scaling if options["use_scaling"] else None,
    )
    trace = itrust(problem.objective, config, problem.start)

    theta = trace.theta_final
    grad_norm = float(np.linalg.norm(problem.objective.gradient(theta)))
    min_eig = float(np.min(np.linalg.eigvalsh(problem.objective.hessian(theta))))
    summary = {
        "problem": problem.name,
        "solver": options["solver"],
        "seed": options["seed"],
        "theta": [float(v) for v in theta],
        "f": problem.objective.value(theta),
        "grad_norm": grad_norm,
        "min_hessian_eigenvalue": min_eig,
        "iterations": trace.n_iterations,
        "converged": trace.converged,
    }

    stem = f"solve-{problem.name}-{options['solver']}-seed{options['seed']}"
    trace_path, summary_path = _write_report(
        options, stem, trace.to_csv, summary, rows_suffix=".trace.csv"
    )

    print(
        f"{problem.name}: f = {summary['f']:.6e}, grad_norm = {grad_norm:.3e}, "
        f"iterations = {trace.n_iterations}, converged = {trace.converged}"
    )
    print(f"trace: {trace_path}")
    print(f"summary: {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-bounds


def _verify_cell(options: dict, seed: int) -> list[dict]:
    n = options["n"]
    K = options["K"]
    rows: list[dict] = []

    def row(check, instance, horizon, observed, bound, passed):
        return {
            "check": check,
            "instance": instance,
            "seed": seed,
            "K": horizon,
            "observed": float(observed),
            "bound": float(bound),
            "passed": bool(passed),
        }

    # Fixed-step suboptimality bound on a convex instance, noise-free at the
    # 1/L step of the proof: beta0 = None resolves to 1/L in step_sizes.
    model = random_box_quadratic(n, seed, kind="psd")
    ref = grid_minimize_box(model)
    consts = estimate_constants(model)
    cfg = EcimConfig(schedule="fixed", iterations=K, seed=seed)
    trace = run_ecim(model, cfg, keep_iterates=True)
    beta = float(trace.betas[0])
    d = float(np.linalg.norm(trace.iterates[0] - ref.s_star))
    best = np.minimum.accumulate(trace.energies)
    horizon = 10
    while horizon <= K:
        observed = float(best[horizon]) - ref.value
        bound = 0.5 * (d * d / (beta * horizon) + beta * consts.G**2)
        rows.append(
            row(
                "fixed-step-bound",
                f"psd-n{n}",
                horizon,
                observed,
                bound,
                observed <= bound + 1e-9,
            )
        )
        horizon *= 10

    # The averaged iterate under the decreasing schedule: the bound
    # (d^2 + G^2 sum beta_k^2) / (2 sum beta_k) of Nemirovski, Juditsky, Lan
    # & Shapiro (2009, section 2.1) at each horizon, and a strict decrease
    # from each horizon to the next.
    cfg = EcimConfig(schedule="decreasing", beta0=1.0, iterations=K, seed=seed)
    trace = run_ecim(model, cfg, keep_iterates=True)
    previous = None
    for horizon in (h for h in (100, 1000, 10000, 100000) if h <= K):
        gap = energy(model, trace.averaged_iterate_at(horizon)) - ref.value
        betas = trace.betas[:horizon]
        bound = (d * d + consts.G**2 * float(betas @ betas)) / (2.0 * np.sum(betas))
        passed = gap <= bound + 1e-9
        rows.append(row("averaged-bound", f"psd-n{n}", horizon, gap, bound, passed))
        if previous is not None:
            passed = gap < previous
            rows.append(
                row("averaged-decay", f"psd-n{n}", horizon, gap, previous, passed)
            )
        previous = gap

    # Linear rate and iteration complexity on a planted strongly convex
    # instance, whose optimum has the closed form E* = energy(J^-1 (-h)).
    model = random_box_quadratic(n, seed, kind="pl")
    s_star = np.linalg.solve(model.symmetric_coupling(), -model.field)
    e_star = energy(model, s_star)
    consts = estimate_constants(model)
    horizon = min(K, 4000)
    cfg = EcimConfig(schedule="fixed", iterations=horizon, seed=seed)
    trace = run_ecim(model, cfg, keep_iterates=True)
    beta = float(trace.betas[0])
    mu_p = estimate_mu_p(trace, e_star)
    if mu_p is None or mu_p <= 0.0:
        rows.append(
            row("linear-rate-bound", f"pl-n{n}", horizon, math.inf, 1.0, False)
        )
        return rows
    gaps_k = trace.energies - e_star
    gap0 = float(gaps_k[0])
    envelope = np.cumprod(np.full(len(gaps_k) - 1, 1.0 - beta * mu_p)) * gap0
    counted = (gaps_k[1:] > GAP_FLOOR) & (envelope > 0.0)
    worst = float(np.max(gaps_k[1:][counted] / envelope[counted], initial=0.0))
    rows.append(
        row(
            "linear-rate-bound",
            f"pl-n{n}",
            horizon,
            worst,
            1.0,
            worst <= 1.0 + 1e-6,
        )
    )

    epsilon = 1e-6
    if gap0 > epsilon:
        reached = np.nonzero(gaps_k <= epsilon)[0]
        measured = float(reached[0]) if reached.size else math.inf
        complexity = (consts.L / mu_p) * math.log(gap0 / epsilon)
        rows.append(
            row(
                "iteration-complexity",
                f"pl-n{n}",
                horizon,
                measured,
                1.1 * complexity,
                measured <= 1.1 * complexity,
            )
        )
    return rows


def cmd_verify_bounds(options: dict) -> int:
    if options["K"] < 1000:
        raise ValueError(
            f"verify-bounds needs K >= 1000 to reach every check, got {options['K']}"
        )
    seeds = options["seeds"]
    rows = [row for seed in seeds for row in _verify_cell(options, seed)]
    rows.sort(key=lambda r: (r["check"], r["instance"], r["seed"], r["K"]))
    (csv_path, json_path), n_failed = _write_campaign(
        options, f"verify-bounds-n{options['n']}", rows, {"seeds": len(seeds)}
    )
    print(f"{len(rows)} checks, {n_failed} failed")
    print(f"report: {csv_path}")
    print(f"summary: {json_path}")
    return EXIT_OK if n_failed == 0 else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------------------
# rate-fit


def _rate_cell(options: dict, seed: int) -> tuple[dict, list[float]]:
    """One seed's report row and the gaps it fitted.

    The instance is singular convex with an active noise floor. The floor
    scales with the step size, so the tail-averaged gap of a horizon-K run
    decays like 1/sqrt(K). The row also holds the largest ratio, over the
    horizons, of the run's min gap to the fixed-horizon bound d G / sqrt(K).
    """
    n = options["n"]
    model = random_box_quadratic(n, seed, kind="singular")
    ref = grid_minimize_box(model)
    consts = estimate_constants(model)
    # A one-step probe gives the seed's start point, which no horizon changes.
    probe = run_ecim(
        model,
        EcimConfig(schedule="fixed", beta0=1.0, iterations=1, seed=seed),
        keep_iterates=True,
    )
    d = float(np.linalg.norm(probe.iterates[0] - ref.s_star))
    gaps = []
    min_gap_over_bound = -math.inf
    ks = options["ks"]
    for K in ks:
        cfg = EcimConfig(
            schedule="fixed-horizon",
            beta0=d / consts.G,
            sigma2=0.01,
            iterations=K,
            seed=seed,
        )
        trace = run_ecim(model, cfg)
        gaps.append(float(np.mean(trace.energies[K // 2 :])) - ref.value)
        ratio = (trace.best_energy - ref.value) / (d * consts.G / math.sqrt(K))
        min_gap_over_bound = max(min_gap_over_bound, ratio)
    fit = fit_linear_decay(np.log(ks), gaps)
    lo, hi = SUBLINEAR_SLOPE_BAND
    return {
        "instance": f"singular-n{n}",
        "seed": seed,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "min_gap_over_bound": float(min_gap_over_bound),
        "passed": lo <= fit.slope <= hi,
    }, gaps


def _rate_campaign(options: dict) -> tuple[list[dict], dict]:
    """A rate-fit campaign's rows, one per seed in ascending order, and its
    summary.

    Per-seed slopes fluctuate with the noise realization; the rate claim is
    about the family, so the verdict pools gaps geometrically across seeds
    at each horizon before fitting. It also needs every row's min gap within
    its bound.
    """
    cells = [_rate_cell(options, seed) for seed in sorted(options["seeds"])]
    rows = [row for row, _ in cells]
    ks = options["ks"]
    pooled = [
        float(np.exp(np.mean([math.log(gaps[i]) for _, gaps in cells])))
        if all(gaps[i] > 0 for _, gaps in cells)
        else math.nan
        for i in range(len(ks))
    ]
    pooled_fit = fit_linear_decay(np.log(ks), pooled)
    lo, hi = SUBLINEAR_SLOPE_BAND
    verdict = lo <= pooled_fit.slope <= hi and all(
        r["min_gap_over_bound"] <= 1.0 for r in rows
    )
    return rows, {
        "mean_slope": float(np.mean([r["slope"] for r in rows])),
        "verdict_passed": bool(verdict),
        "pooled_slope": pooled_fit.slope,
        "pooled_r_squared": pooled_fit.r_squared,
    }


def cmd_rate_fit(options: dict) -> int:
    rows, summary = _rate_campaign(options)
    (csv_path, json_path), n_failed = _write_campaign(
        options, f"rate-fit-fixed-horizon-n{options['n']}", rows, summary
    )
    for r in rows:
        print(
            f"{r['instance']} seed {r['seed']}: slope = {r['slope']:.3f}, "
            f"r2 = {r['r_squared']:.4f}, min gap/bound = "
            f"{r['min_gap_over_bound']:.3f}, passed = {r['passed']}"
        )
    print(
        f"{n_failed} of {len(rows)} per-seed fits outside the band; "
        "the verdict pools them"
    )
    print(f"pooled slope = {summary['pooled_slope']:.3f}")
    print(f"report: {csv_path}")
    print(f"summary: {json_path}")
    return EXIT_OK if summary["verdict_passed"] else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------------------
# compare-oracles


def _compare_cell(options: dict, index: int) -> dict:
    dims = options["dims"]
    kinds = ("strongly-convex", "psd", "singular")
    n = dims[index % len(dims)]
    kind = kinds[index % len(kinds)]
    seed = options["seed"] + index

    model = random_box_quadratic(n, seed, kind=kind)
    # beta0 = None resolves to 1/L in step_sizes.
    cfg = EcimConfig(schedule="fixed", iterations=options["K"], seed=seed)
    trace = run_ecim(model, cfg)
    ball = exact_ball_minimize(model)
    grid = grid_minimize_box(model)

    ecim_value = trace.best_energy
    ratio = -ecim_value / abs(ball.value) if ball.value < -1e-12 else math.nan
    passed = (
        ecim_value <= ball.value + 1e-6
        and ecim_value <= grid.value + 1e-4
        and ecim_value >= grid.value - 1e-9
        and (math.isnan(ratio) or ratio >= 0.9)
    )
    return {
        "instance": f"{kind}-n{n}",
        "seed": seed,
        "n": n,
        "kind": kind,
        "ecim_value": float(ecim_value),
        "ball_value": float(ball.value),
        "grid_value": float(grid.value),
        "ecim_minus_ball": float(ecim_value - ball.value),
        "ecim_minus_grid": float(ecim_value - grid.value),
        "coherence_ratio": float(ratio),
        "passed": bool(passed),
    }


def cmd_compare_oracles(options: dict) -> int:
    if options["count"] < 1:
        raise ValueError(f"--count must be >= 1, got {options['count']}")
    rows = [_compare_cell(options, i) for i in range(options["count"])]
    rows.sort(key=lambda r: (r["instance"], r["seed"]))
    ratios = [r["coherence_ratio"] for r in rows if not math.isnan(r["coherence_ratio"])]
    (csv_path, json_path), n_failed = _write_campaign(
        options,
        "compare-oracles",
        rows,
        {"min_coherence_ratio": min(ratios) if ratios else math.nan},
    )
    print(f"{len(rows)} subproblems, {n_failed} failed")
    print(f"report: {csv_path}")
    print(f"summary: {json_path}")
    return EXIT_OK if n_failed == 0 else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------------------
# list-problems


def cmd_list_problems(options: dict) -> int:
    for problem in problem_suite():
        known = "f* known" if problem.f_star is not None else "f* unknown"
        print(
            f"{problem.name:<14} dim {problem.objective.dim:>3}  "
            f"{problem.convexity_class:<16} {known}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="reports", help="report directory")


def build_parser() -> argparse.ArgumentParser:
    """The ``itrust`` parser, with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="itrust",
        description="Trust-region optimization with a simulated Ising-machine "
        "subproblem solver, plus bound verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the trust-region loop on a problem")
    p.add_argument("--problem", required=True, help="problem name")
    p.add_argument("--solver", choices=("ecim", "exact-ball", "grid"), default="ecim")
    p.add_argument("--seed", type=_parse_seed, default=EcimConfig.seed)
    p.add_argument(
        "--T", type=int, default=TrustRegionConfig.iterations, help="outer iterations"
    )
    p.add_argument("--K", type=int, default=2000, help="machine iterations")
    p.add_argument("--beta0", type=_parse_beta0, default=EcimConfig.beta0)
    p.add_argument("--sigma2", type=float, default=EcimConfig.sigma2)
    p.add_argument("--schedule", choices=SCHEDULES, default=EcimConfig.schedule)
    p.add_argument("--modulate-noise", action="store_true")
    p.add_argument("--delta0", type=float, default=TrustRegionConfig.delta0)
    p.add_argument("--delta-max", type=float, default=TrustRegionConfig.delta_max)
    p.add_argument("--mu", type=float, default=TrustRegionConfig.mu)
    p.add_argument("--eta", type=float, default=TrustRegionConfig.eta)
    p.add_argument("--gtol", type=float, default=TrustRegionConfig.gtol)
    p.add_argument("--use-scaling", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-bounds", help="check suboptimality bounds")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seeds", type=_parse_ints, default=list(range(10)))
    p.add_argument("--K", type=int, default=10000)
    _add_common(p)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("rate-fit", help="fit empirical convergence rates")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seeds", type=_parse_ints, default=list(range(5)))
    p.add_argument(
        "--ks",
        type=_parse_ints,
        default=[316, 1000, 3162, 10000, 31623, 100000],
    )
    _add_common(p)
    p.set_defaults(func=cmd_rate_fit)

    p = sub.add_parser("compare-oracles", help="machine vs reference solvers")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--dims", type=_parse_ints, default=[2, 3])
    p.add_argument("--K", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=cmd_compare_oracles)

    p = sub.add_parser("list-problems", help="list the problem library")
    p.set_defaults(func=cmd_list_problems)

    return parser


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    del options["command"]
    func = options.pop("func")
    try:
        return func(options)
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        # Unknown names, out-of-range option values rejected by the config
        # dataclasses, and requests outside an oracle's range. str() of a
        # KeyError quotes its message, so print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"usage error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, FloatingPointError) as exc:
        # Machine divergence, oracle non-convergence, non-finite objectives.
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
