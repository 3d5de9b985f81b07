"""Acceptance harness: one test per release criterion.

Every test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
before asserting, so a plain run doubles as a checklist. Expected values come
from the reference oracles or closed forms, never from the machine itself.
"""

from __future__ import annotations

import math
import time

import numpy as np

from itrust import (
    EcimConfig,
    TrustRegionConfig,
    energy,
    estimate_constants,
    estimate_mu_p,
    exact_ball_minimize,
    get_problem,
    grid_minimize_box,
    itrust,
    problem_suite,
    project_box,
    random_box_quadratic,
    run_ecim,
)
from tests.reference import ecim_step, energy_gradient, gradient_mapping

# Outer-loop thresholds used by the full-suite runs. The defaults keep a
# reject-without-shrink band between mu and eta that can cycle forever with a
# near-deterministic solver on nonconvex objectives, so the campaign runs use
# a small acceptance threshold instead (see README).
RUN_MU = 0.01
RUN_ETA = 0.05


def verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def grid_reference(model, resolution=0.005, polish_steps=400):
    return grid_minimize_box(model, resolution, polish_steps=polish_steps)


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


def test_criterion_03_fixed_step_bound():
    t0 = time.perf_counter()
    fails = 0
    worst_margin = math.inf
    for seed in range(20):
        model = random_box_quadratic(2, seed=seed, kind="psd")
        ref = grid_reference(model)
        consts = estimate_constants(model)
        beta = 1.0 / consts.L if consts.L > 0 else 1.0
        trace = run_ecim(
            model,
            EcimConfig(
                schedule="fixed", beta0=beta, sigma2=0.0, iterations=10_000, seed=seed
            ),
            keep_iterates=True,
        )
        d = float(np.linalg.norm(trace.iterates[0] - ref.s_star))
        best = np.minimum.accumulate(trace.energies)
        for K in (10, 100, 1000, 10_000):
            gap = float(best[K]) - ref.value
            bound = 0.5 * (d * d / (beta * K) + beta * consts.G**2)
            worst_margin = min(worst_margin, bound - gap)
            if gap > bound + 1e-9:
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 120.0
    assert verdict(
        3,
        "fixed-step suboptimality bound",
        ok,
        f"{fails} violations, worst margin {worst_margin:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_fixed_horizon_rate():
    t0 = time.perf_counter()
    ks = (316, 1000, 3162, 10_000, 31_623, 100_000)
    sigma2 = 0.01
    bound_fails = 0
    min_bound_ratio = math.inf
    tail_gaps = {K: [] for K in ks}
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="singular")
        ref = grid_reference(model)
        consts = estimate_constants(model)
        probe = run_ecim(
            model,
            EcimConfig(schedule="fixed", beta0=1.0, iterations=1, seed=seed),
            keep_iterates=True,
        )
        d = float(np.linalg.norm(probe.iterates[0] - ref.s_star))
        beta0 = d / consts.G
        for K in ks:
            trace = run_ecim(
                model,
                EcimConfig(
                    schedule="fixed-horizon",
                    beta0=beta0,
                    sigma2=sigma2,
                    iterations=K,
                    seed=seed,
                ),
            )
            min_gap = trace.best_energy - ref.value
            bound = d * consts.G / math.sqrt(K)
            if min_gap > bound:
                bound_fails += 1
            if min_gap > 0.0:
                min_bound_ratio = min(min_bound_ratio, bound / min_gap)
            # Tail-averaged current gap: the run's noise-floor level, which
            # follows the predicted 1/sqrt(K) scaling and pools stably.
            tail_gaps[K].append(
                max(float(np.mean(trace.energies[K // 2 :])) - ref.value, 1e-300)
            )
    pooled = [math.exp(float(np.mean(np.log(tail_gaps[K])))) for K in ks]
    slope = float(np.polyfit(np.log(ks), np.log(pooled), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -0.7 <= slope <= -0.4 and bound_fails == 0 and elapsed < 300.0
    assert verdict(
        4,
        "fixed-horizon rate",
        ok,
        f"pooled slope {slope:.3f}, {bound_fails} bound violations, "
        f"min bound/gap {min_bound_ratio:.1f}x, {elapsed:.1f}s",
    )


def test_criterion_05_averaged_iterate_decay():
    # Under beta_k = beta0/(k+1) the weight sums are harmonic numbers:
    # sum beta_k = beta0 H(K) and sum beta_k^2 = beta0^2 H2(K), over k < K.
    # Once the iterates settle, the weighted average sits C/H(K) away from
    # s*, so its gap is a/H + b/H^2 with a, b >= 0 and the ratio
    # gap(10^2)/gap(10^5) lies in [r, r^2], r = H(10^5)/H(10^2) (see README).
    t0 = time.perf_counter()
    beta0 = 1.0
    horizons = (100, 1000, 10_000, 100_000)
    weight = {K: beta0 * math.fsum(1.0 / j for j in range(1, K + 1)) for K in horizons}
    weight_sq = {
        K: beta0**2 * math.fsum(1.0 / (j * j) for j in range(1, K + 1))
        for K in horizons
    }
    r = weight[horizons[-1]] / weight[horizons[0]]
    # The 1% slack absorbs the small drift of ||avg - s*|| * H(K) across horizons.
    band = (0.99 * r, 1.01 * r * r)
    ratios = []
    bound_fails = 0
    decay_fails = 0
    min_bound_ratio = math.inf
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="psd")
        ref = grid_reference(model)
        consts = estimate_constants(model)
        trace = run_ecim(
            model,
            EcimConfig(
                schedule="decreasing", beta0=beta0, iterations=100_000, seed=seed
            ),
            keep_iterates=True,
        )
        d = float(np.linalg.norm(trace.iterates[0] - ref.s_star))
        gaps = [
            energy(model, trace.averaged_iterate_at(K)) - ref.value for K in horizons
        ]
        for K, gap in zip(horizons, gaps):
            bound = (d * d + consts.G**2 * weight_sq[K]) / (2.0 * weight[K])
            if gap > bound + 1e-9:
                bound_fails += 1
            if gap > 0.0:
                min_bound_ratio = min(min_bound_ratio, bound / gap)
        decay_fails += sum(1 for a, b in zip(gaps, gaps[1:]) if not b < a)
        ratios.append(gaps[0] / gaps[-1] if gaps[-1] > 0.0 else math.inf)
    elapsed = time.perf_counter() - t0
    ok = (
        bound_fails == 0
        and decay_fails == 0
        and band[0] <= min(ratios)
        and max(ratios) <= band[1]
        and elapsed < 120.0
    )
    assert verdict(
        5,
        "averaged-iterate decay",
        ok,
        f"improvement ratio in [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"(need [{band[0]:.3f}, {band[1]:.3f}]), {bound_fails} bound violations, "
        f"min bound/gap {min_bound_ratio:.2f}x, {decay_fails} decay violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_linear_rate_and_complexity():
    t0 = time.perf_counter()
    fails = 0
    worst_ratio = 0.0
    worst_k_margin = math.inf
    eps = 1e-6
    for seed in range(20):
        model = random_box_quadratic(2, seed=seed, kind="pl")
        s_star = np.linalg.solve(model.symmetric_coupling(), -model.field)
        e_star = energy(model, s_star)
        consts = estimate_constants(model)
        beta = 1.0 / consts.L
        trace = run_ecim(
            model,
            EcimConfig(schedule="fixed", beta0=beta, iterations=4000, seed=seed),
            keep_iterates=True,
        )
        mu_p = estimate_mu_p(trace, e_star)
        assert mu_p is not None and mu_p > 0.0
        gaps = trace.energies - e_star
        gap0 = float(gaps[0])
        factor = 1.0
        rate_ok = True
        for k in range(1, len(gaps)):
            factor *= 1.0 - beta * mu_p
            if gaps[k] > 1e-12:
                ratio = gaps[k] / (factor * gap0)
                worst_ratio = max(worst_ratio, ratio)
                if ratio > 1.0 + 1e-6:
                    rate_ok = False
        hits = np.nonzero(gaps <= eps)[0]
        k_meas = int(hits[0]) if hits.size else math.inf
        k_bound = (consts.L / mu_p) * math.log(gap0 / eps)
        worst_k_margin = min(worst_k_margin, 1.1 * k_bound - k_meas)
        if not rate_ok or k_meas > 1.1 * k_bound:
            fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 60.0
    assert verdict(
        6,
        "linear rate and iteration complexity",
        ok,
        f"{fails} violations, worst rate ratio {worst_ratio:.3f}, "
        f"worst complexity margin {worst_k_margin:.0f} iterations, {elapsed:.1f}s",
    )


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
    kinds = ("strongly-convex", "psd", "singular")
    fails = 0
    worst_ball_excess = -math.inf
    worst_grid_error = -math.inf
    worst_c = math.inf
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        model = random_box_quadratic(n, seed=1000 + i, kind=kinds[i % 3])
        consts = estimate_constants(model)
        trace = run_ecim(
            model,
            EcimConfig(
                schedule="fixed",
                beta0=1.0 / consts.L if consts.L > 0 else 1.0,
                iterations=20_000,
                seed=i,
            ),
        )
        ball = exact_ball_minimize(model)
        grid = grid_reference(model, resolution=0.005 if n == 2 else 0.02)
        e = trace.best_energy
        worst_ball_excess = max(worst_ball_excess, e - ball.value)
        worst_grid_error = max(worst_grid_error, abs(e - grid.value))
        c = -e / abs(ball.value)
        worst_c = min(worst_c, c)
        if e > ball.value + 1e-6 or abs(e - grid.value) > 1e-4 or c < 0.9:
            fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 300.0
    assert verdict(
        8,
        "ball-in-box dominance",
        ok,
        f"{fails} violations, worst excess over ball {worst_ball_excess:.1e}, "
        f"worst grid error {worst_grid_error:.1e}, worst c {worst_c:.4f}, "
        f"{elapsed:.1f}s",
    )


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
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        itrust(problem.objective, config, problem.start).to_csv(path)
        outer.append(path.read_bytes())

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
