"""Acceptance harness: one test per release criterion.

Every test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
before asserting, so a plain run doubles as a checklist. Expected values come
from the reference oracles or closed forms, never from the machine itself.
Criteria 3-6 and 8 run the CLI's campaign cells: each check lives there once.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from itrust import (
    EcimConfig,
    TrustRegionConfig,
    energy,
    estimate_constants,
    estimate_mu_p,
    get_problem,
    itrust,
    problem_suite,
    project_box,
    random_box_quadratic,
    run_ecim,
)
from itrust.cli import (
    TRACE_COLUMNS,
    _compare_cell,
    _rate_campaign,
    _trace_rows,
    _verify_cell,
    _write_report,
)
from tests.reference import ecim_step, energy_gradient, gradient_mapping

# Outer-loop thresholds used by the full-suite runs. Every rejection shrinks
# the radius at any thresholds, but a small acceptance threshold takes more
# useful steps: the suite converges with it from the classic starts and from
# randomised ones (see README, Parameter guidance).
RUN_MU = 0.01
RUN_ETA = 0.05


def verdict(number: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}  [{detail}]")
    return ok


def test_criterion_01_projection_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_inner = -math.inf
    worst_contraction = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        delta = float(rng.uniform(0.1, 2.0))
        z = rng.normal(0.0, 2.0, n)
        x = rng.uniform(-delta, delta, n)
        p = project_box(z, delta)
        inner = float((x - p) @ (z - p))
        contraction = float(np.linalg.norm(p - x) - np.linalg.norm(z - x))
        worst_inner = max(worst_inner, inner)
        worst_contraction = max(worst_contraction, contraction)
    elapsed = time.perf_counter() - t0
    ok = worst_inner <= 1e-12 and worst_contraction <= 1e-12 and elapsed < 1.0
    assert verdict(
        1,
        "projection inequalities",
        ok,
        f"worst inner {worst_inner:.2e}, worst contraction {worst_contraction:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_gradient_mapping_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_descent = -math.inf
    worst_norm = -math.inf
    for i in range(1000):
        n = 1 + i % 5
        model = random_box_quadratic(n, seed=20_000 + i, kind="psd")
        consts = estimate_constants(model)
        s = rng.uniform(-model.delta, model.delta, n)
        beta = float(rng.uniform(0.05, 1.5)) / max(consts.L, 1e-9)
        s_next = ecim_step(model, s, beta, np.zeros(n))
        g = gradient_mapping(s, s_next, beta)
        grad = energy_gradient(model, s)
        descent_slack = float(grad @ (s_next - s)) - beta * float(g @ g)
        norm_slack = float(g @ g) - float(grad @ grad)
        worst_descent = max(worst_descent, descent_slack)
        worst_norm = max(worst_norm, norm_slack)
    elapsed = time.perf_counter() - t0
    ok = worst_descent <= 1e-10 and worst_norm <= 1e-10 and elapsed < 5.0
    assert verdict(
        2,
        "gradient-mapping inequalities",
        ok,
        f"worst descent slack {worst_descent:.2e}, worst norm slack "
        f"{worst_norm:.2e}, {elapsed:.2f}s",
    )


@functools.cache
def verify_rows(seeds: range, K: int) -> tuple[dict[str, list[dict]], float]:
    """``verify-bounds``' rows at n = 2 by check, and the seconds they took."""
    t0 = time.perf_counter()
    rows = {}
    for seed in seeds:
        for row in _verify_cell({"n": 2, "K": K}, seed):
            rows.setdefault(row["check"], []).append(row)
    return rows, time.perf_counter() - t0


def failures(rows: list[dict]) -> int:
    return sum(not row["passed"] for row in rows)


def test_criterion_03_fixed_step_bound():
    rows, elapsed = verify_rows(range(20), 10_000)
    bound = rows["fixed-step-bound"]  # horizons 10 to 10^4 for each seed
    margin = min(row["bound"] - row["observed"] for row in bound)
    ok = len(bound) == 80 and failures(bound) == 0 and elapsed < 120.0
    detail = f"{failures(bound)} violations, worst margin {margin:.3f}, {elapsed:.1f}s"
    assert verdict(3, "fixed-step suboptimality bound", ok, detail)


def test_criterion_04_fixed_horizon_rate():
    t0 = time.perf_counter()
    ks = [316, 1000, 3162, 10_000, 31_623, 100_000]
    rows, summary = _rate_campaign({"n": 2, "seeds": list(range(10)), "ks": ks})
    over = sum(row["min_gap_over_bound"] > 1.0 for row in rows)
    worst = max(row["min_gap_over_bound"] for row in rows)
    elapsed = time.perf_counter() - t0
    ok = summary["verdict_passed"] and over == 0 and elapsed < 300.0
    detail = (
        f"pooled slope {summary['pooled_slope']:.3f}, {over} of {len(rows)} seeds "
        f"over the min-gap bound, worst min gap/bound {worst:.3f}, {elapsed:.1f}s"
    )
    assert verdict(4, "fixed-horizon rate", ok, detail)


def test_criterion_05_averaged_iterate_decay():
    # Under beta_k = 1/(k+1) the averaged iterate at horizon K sits C/H(K) from
    # s* once the iterates settle (H the harmonic number), so its gap is a/H +
    # b/H^2 with a, b >= 0 and gap(10^2)/gap(10^5) lies in [r, r^2], r =
    # H(10^5)/H(10^2) (see README); 1% slack absorbs the drift of |avg - s*| H.
    rows, elapsed = verify_rows(range(10), 100_000)
    averaged, decay = rows["averaged-bound"], rows["averaged-decay"]
    gaps = {(row["seed"], row["K"]): row["observed"] for row in averaged}
    ratios = [gaps[seed, 100] / gaps[seed, 100_000] for seed in range(10)]
    harmonic = [math.fsum(1.0 / j for j in range(1, K + 1)) for K in (100, 100_000)]
    r = harmonic[1] / harmonic[0]
    band = (0.99 * r, 1.01 * r * r)
    min_bound_ratio = min(row["bound"] / row["observed"] for row in averaged)
    failed = sum(map(failures, rows.values()))
    ok = len(averaged) == 40 and failed == 0 and elapsed < 120.0
    ok = ok and band[0] <= min(ratios) and max(ratios) <= band[1]
    detail = (
        f"improvement ratio in [{min(ratios):.3f}, {max(ratios):.3f}] (need "
        f"[{band[0]:.3f}, {band[1]:.3f}]), {failures(averaged)} bound violations, "
        f"min bound/gap {min_bound_ratio:.2f}x, {failures(decay)} decay "
        f"violations, {failed} failed rows in all, {elapsed:.1f}s"
    )
    assert verdict(5, "averaged-iterate decay", ok, detail)


def test_criterion_06_linear_rate_and_complexity():
    rows, elapsed = verify_rows(range(20), 10_000)
    rate, complexity = rows["linear-rate-bound"], rows["iteration-complexity"]
    worst_ratio = max(row["observed"] for row in rate)
    margin = min(row["bound"] - row["observed"] for row in complexity)
    fails = failures(rate) + failures(complexity)
    ok = len(rate) == len(complexity) == 20 and fails == 0 and elapsed < 60.0
    detail = (
        f"{fails} violations, worst rate ratio {worst_ratio:.3f}, "
        f"worst complexity margin {margin:.0f} iterations, {elapsed:.1f}s"
    )
    assert verdict(6, "linear rate and iteration complexity", ok, detail)


def test_criterion_07_gradient_domination_constant():
    t0 = time.perf_counter()
    fails = 0
    lo, hi = math.inf, -math.inf
    for seed in range(50):
        model = random_box_quadratic(3, seed=seed, kind="pl")
        S = model.symmetric_coupling()
        s_star = np.linalg.solve(S, -model.field)
        e_star = energy(model, s_star)
        eigs, vecs = np.linalg.eigh(S)
        mu = float(eigs[0])
        beta = 1.0 / float(np.max(np.abs(eigs)))
        config = EcimConfig(schedule="fixed", beta0=beta, iterations=4000, seed=seed)
        estimates = []
        # A random start plus a start aligned with the slowest eigendirection:
        # on that line the domination ratio equals its exact minimum, so the
        # estimator cannot overshoot when eigenvalues are nearly equal.
        aligned = s_star + 0.35 * model.delta * vecs[:, 0]
        for s0 in (None, aligned):
            trace = run_ecim(model, config, s0=s0, keep_iterates=True)
            est = estimate_mu_p(trace, e_star)
            if est is not None:
                estimates.append(est)
        mu_hat = min(estimates)
        rel = mu_hat / mu
        lo, hi = min(lo, rel), max(hi, rel)
        if not (0.0 < mu_hat <= mu + 1e-9):
            fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 60.0
    assert verdict(
        7,
        "gradient-domination constant",
        ok,
        f"{fails} violations, estimate/exact in [{lo:.6f}, {hi:.6f}], {elapsed:.1f}s",
    )


def test_criterion_08_machine_dominates_ball_oracle():
    t0 = time.perf_counter()
    options = {"seed": 1000, "dims": [2, 3], "K": 20_000}
    rows = [_compare_cell(options, i) for i in range(100)]
    elapsed = time.perf_counter() - t0
    ok = failures(rows) == 0 and elapsed < 300.0
    detail = (
        f"{failures(rows)} violations, worst excess over ball "
        f"{max(row['ecim_minus_ball'] for row in rows):.1e}, worst grid error "
        f"{max(abs(row['ecim_minus_grid']) for row in rows):.1e}, worst c "
        f"{np.nanmin([row['coherence_ratio'] for row in rows]):.4f}, {elapsed:.1f}s"
    )
    assert verdict(8, "ball-in-box dominance", ok, detail)


def test_criterion_09_full_suite_second_order():
    t0 = time.perf_counter()
    fails = []
    for problem in problem_suite():
        config = TrustRegionConfig(
            iterations=500,
            solver=EcimConfig(iterations=3000, sigma2=0.0, seed=11),
            gtol=2e-7,
            mu=RUN_MU,
            eta=RUN_ETA,
            scaling=problem.scaling,
        )
        trace = itrust(problem.objective, config, problem.start)
        theta = trace.theta_final
        grad_norm = float(np.linalg.norm(problem.objective.gradient(theta)))
        min_eig = float(np.linalg.eigvalsh(problem.objective.hessian(theta))[0])
        problem_ok = trace.converged and grad_norm <= 1e-6 and min_eig >= -1e-6
        if problem.name == "rosenbrock2":
            problem_ok = problem_ok and trace.n_iterations <= 500
        if problem.name == "quad5":
            problem_ok = problem_ok and bool(
                np.max(np.abs(theta - problem.theta_star)) <= 1e-6
            )
        if not problem_ok:
            fails.append(f"{problem.name} (grad {grad_norm:.1e}, eig {min_eig:.1e})")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    assert verdict(
        9,
        "full-suite second-order convergence",
        ok,
        (f"failed: {', '.join(fails)}, " if fails else "all problems converged, ")
        + f"{elapsed:.1f}s",
    )


def test_criterion_10_trace_determinism(tmp_path):
    problem = get_problem("quad2")
    config = TrustRegionConfig(
        iterations=40,
        solver=EcimConfig(iterations=200, sigma2=0.05, seed=7),
        gtol=None,
        mu=RUN_MU,
        eta=RUN_ETA,
    )
    outer = []
    for name in ("a", "b"):
        rows = _trace_rows(itrust(problem.objective, config, problem.start))
        options = {"out": str(tmp_path / name)}
        path, _ = _write_report(options, "trace", TRACE_COLUMNS, rows, {})
        with open(path, "rb") as fh:
            outer.append(fh.read())

    model = random_box_quadratic(3, seed=5, kind="psd")
    inner = []
    for _ in range(2):
        trace = run_ecim(
            model,
            EcimConfig(beta0=0.3, sigma2=0.1, iterations=500, seed=9),
            keep_iterates=True,
        )
        arrays = (trace.iterates, trace.energies, trace.betas)
        inner.append(b"".join(a.tobytes() for a in arrays))

    ok = outer[0] == outer[1] and inner[0] == inner[1]
    assert verdict(
        10,
        "seeded trace determinism",
        ok,
        f"outer trace CSVs {len(outer[0])} bytes, machine traces {len(inner[0])} bytes",
    )
