"""Tests for the outer trust-region loop and its radius/acceptance logic."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from itrust import (
    DivergenceError,
    EcimConfig,
    ExactBallSolver,
    GridSolver,
    Objective,
    QuadraticModel,
    TrustRegionConfig,
    energy,
    get_problem,
    grid_minimize_box,
    itrust,
    problem_suite,
    project_box,
    random_box_quadratic,
    run_ecim,
    solve_subproblem,
    step_sizes,
    update_radius,
)
from tests.reference import ecim_step, machine_energy

# Small acceptance threshold: every useful step is taken.
TUNED = dict(mu=0.01, eta=0.05)

# The benchmark's thresholds (acceptance criterion 9).
SUITE = dict(iterations=500, gtol=2e-7, mu=0.01, eta=0.05)


def quadratic_objective(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return Objective(
        dim=b.size,
        value=lambda t: float(0.5 * t @ (A @ t) + b @ t),
        gradient=lambda t: A @ t + b,
        hessian=lambda t: A.copy(),
    )


# ---------------------------------------------------------------------------
# Radius update and reduction ratio


def test_update_radius_shrinks_on_poor_ratio():
    config = TrustRegionConfig()
    assert update_radius(-0.5, 1.0, 0.5, config) == 0.25
    assert update_radius(0.0999, 1.0, 1.0, config) == 0.25
    # A failed solve or a degenerate model step reports rho = nan.
    assert update_radius(math.nan, 1.0, math.nan, config) == 0.25


def test_update_radius_grows_only_on_boundary():
    config = TrustRegionConfig(delta_max=1.5)
    assert update_radius(0.99, 1.0, 1.0, config) == 1.5  # capped at delta_max
    assert update_radius(0.99, 0.5, 0.5, config) == 1.0
    # Excellent ratio but interior step: radius unchanged.
    assert update_radius(0.99, 1.0, 0.4, config) == 1.0


def test_update_radius_keeps_in_middle_band():
    # Accepted (above eta = 0.75) but not above 1 - mu = 0.9: keep.
    config = TrustRegionConfig()
    assert update_radius(0.85, 1.0, 0.2, config) == 1.0
    assert update_radius(0.85, 1.0, 1.0, config) == 1.0


def test_update_radius_shrinks_on_every_rejection():
    # A ratio not above eta rejects the step, and every rejection shrinks,
    # on the boundary or inside it: there is no band in [mu, eta] that keeps
    # the radius.
    config = TrustRegionConfig()
    for rho in (-math.inf, -0.5, 0.0, 0.1, 0.5, 0.75, math.nan):
        for step_inf in (1.0, 0.2):
            assert update_radius(rho, 1.0, step_inf, config) == 0.25, rho


def test_update_radius_boundary_tolerance_scales():
    config = TrustRegionConfig()
    assert update_radius(0.99, 10.0, 10.0 - 1e-9, config) == 20.0
    assert update_radius(0.99, 10.0, 10.0 - 1e-3, config) == 10.0


def test_ratio_floor_accepts_a_decrease_lost_in_roundoff():
    # At theta = 1e-9 on 1 + 0.5 theta^2 the model predicts a decrease of
    # 5e-19, far below the roundoff of f = 1: f_trial - f reads 0. Less the
    # floor, both reductions read the same, so the ratio is 1 and the step
    # is taken; without it the ratio would be 0, or nan for a tiny model
    # value, and the radius would shrink toward 0.
    obj = Objective(
        dim=1,
        value=lambda t: 1.0 + 0.5 * float(t @ t),
        gradient=lambda t: np.array(t, dtype=float),
        hessian=lambda t: np.eye(1),
    )
    config = TrustRegionConfig(iterations=1, solver=ExactBallSolver(), gtol=None)
    trace = itrust(obj, config, np.array([1e-9]))
    first = trace.records[0]
    assert -1e-18 < first.model_value < 0.0
    assert first.rho == pytest.approx(1.0, abs=1e-3)
    assert first.accepted and trace.theta_final[0] == 0.0


def test_reduction_ratio_exact_for_quadratic():
    # On a quadratic the model is the objective, so realized and predicted
    # reductions agree.
    obj = quadratic_objective(np.diag([2.0, 8.0]), np.array([-1.0, 2.0]))
    config = TrustRegionConfig(iterations=1, solver=ExactBallSolver())
    trace = itrust(obj, config, np.array([0.3, -0.1]))
    assert trace.records[0].model_value < 0.0
    assert trace.records[0].rho == pytest.approx(1.0, rel=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        TrustRegionConfig(delta0=0.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(delta0=2.0, delta_max=1.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(mu=0.5, eta=0.2)
    with pytest.raises(ValueError):
        TrustRegionConfig(iterations=0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gtol"):
            TrustRegionConfig(gtol=bad)
    for bad in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="scaling"):
            TrustRegionConfig(scaling=bad)
    assert TrustRegionConfig(scaling=[1, 2]).scaling.dtype == float


# ---------------------------------------------------------------------------
# Subproblem dispatch


def test_solvers_agree_on_zero_field():
    model = QuadraticModel(np.diag([1.0, 2.0]), np.zeros(2), delta=0.5)
    for solver in (EcimConfig(iterations=500), ExactBallSolver(), GridSolver()):
        step, value = solve_subproblem(model, solver, seed=0)
        assert np.allclose(step, 0.0, atol=1e-6), solver
        assert value == pytest.approx(0.0, abs=1e-10)


def test_machine_matches_references_on_random_subproblems():
    # The paper's machine; solve_subproblem's inexact backend is checked in
    # tests/test_subproblem_properties.py.
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="psd")
        e_ecim = run_ecim(
            model, EcimConfig(iterations=4000, sigma2=0.0, seed=seed)
        ).best_energy
        _, e_ball = solve_subproblem(model, ExactBallSolver(), seed=seed)
        grid = grid_minimize_box(model)
        assert e_ecim <= e_ball + 1e-6, f"seed {seed}"
        assert abs(e_ecim - grid.value) <= 1e-4, f"seed {seed}"


def test_machine_backend_stops_at_forcing_tolerance(monkeypatch):
    # Condition number 1000 and an interior minimum: the plain 1/L step needs
    # thousands of steps to bring the gradient mapping within the forcing
    # tolerance; momentum needs a few hundred, and the run stops there.
    # ||h|| = 0.042 sets the tolerance ||h||^2 = 1.8e-3; the soft coordinate
    # (curvature 1, step 1/1000) takes about 2800 plain steps to reach it.
    h = np.array([-0.03, 0.03])
    model = QuadraticModel(np.diag([1.0, 1000.0]), h, delta=1.0)
    config = EcimConfig(iterations=3000)
    h_norm = float(np.linalg.norm(h))
    trace = run_ecim(model, config, tol=min(0.1, h_norm) * h_norm)
    assert trace.stop_index < 500
    s_star = np.array([0.03, -3e-5])
    assert np.linalg.norm(trace.best_iterate - s_star) <= 2e-3
    assert trace.best_energy - energy(model, s_star) <= 1e-5
    # The model is positive definite with its Newton point s* in the box, so
    # the backend returns s* by the box finish and runs no machine.
    traces = []

    def spy(*args, **kwargs):
        traces.append(run_ecim(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr("itrust.trust_region.run_ecim", spy)
    step, value = solve_subproblem(model, config, seed=0)
    assert not traces
    assert np.max(np.abs(step - s_star)) <= 1e-12
    assert value == energy(model, step)
    # A zero field, where 0 is stationary, stops the run after one step.
    model = QuadraticModel(np.diag([1.0, -2.0]), np.zeros(2), delta=1.0)
    step, value = solve_subproblem(model, EcimConfig(iterations=3000), seed=0)
    assert traces[-1].stop_index == 1
    assert np.all(step == 0.0) and value == 0.0


def test_solve_subproblem_rejects_unknown_solver():
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=1.0)
    with pytest.raises(TypeError):
        solve_subproblem(model, solver="newton")


def test_solve_subproblem_applies_scaling():
    # Whitened coordinates turn the ellipse into a sphere; the returned step
    # must live in the original coordinates.
    diag = np.array([1.0, 100.0])
    model = QuadraticModel(np.diag(diag), np.array([-1.0, -10.0]), delta=1.0)
    step, value = solve_subproblem(model, ExactBallSolver(), scaling=np.sqrt(diag))
    u = np.sqrt(diag) * step
    assert np.linalg.norm(u) <= 1.0 + 1e-9
    assert value == pytest.approx(energy(model, step), abs=1e-12)
    # A length-1 scaling would broadcast silently against the 2-D model.
    for shape in ((1,), (3,)):
        with pytest.raises(ValueError, match="scaling shape"):
            solve_subproblem(model, ExactBallSolver(), scaling=np.ones(shape))


# ---------------------------------------------------------------------------
# Full runs


def test_quadratic_converges_to_known_optimum():
    p = get_problem("quad5")
    config = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=30, gtol=1e-9, **TUNED
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert trace.n_iterations <= 30
    assert np.linalg.norm(p.objective.gradient(trace.theta_final)) <= 1e-8
    assert np.max(np.abs(trace.theta_final - p.theta_star)) <= 1e-6
    assert p.objective.value(trace.theta_final) == pytest.approx(p.f_star, abs=1e-10)


def test_rosenbrock_exact_ball():
    p = get_problem("rosenbrock2")
    config = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=100, gtol=1e-9, **TUNED
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert p.objective.value(trace.theta_final) <= 1e-8
    assert np.allclose(trace.theta_final, [1.0, 1.0], atol=1e-4)


def test_rosenbrock_machine_backend():
    p = get_problem("rosenbrock2")
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=3000, sigma2=0.0, seed=11),
        iterations=200,
        gtol=1e-7,
        **TUNED,
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert p.objective.value(trace.theta_final) <= 1e-8


def test_constant_objective_rejects_and_shrinks():
    obj = Objective(
        dim=2,
        value=lambda t: 5.0,
        gradient=lambda t: np.zeros(2),
        hessian=lambda t: np.zeros((2, 2)),
    )
    config = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=5, gtol=None, delta0=1.0
    )
    trace = itrust(obj, config, np.array([0.3, -0.7]))
    assert not trace.converged
    assert np.allclose(trace.theta_final, [0.3, -0.7], atol=0.0)
    assert all(not r.accepted for r in trace.records)
    assert all(math.isnan(r.rho) for r in trace.records)
    assert trace.records[-1].delta == pytest.approx(0.25**4)


def test_gtol_zero_gradient_converges_immediately():
    obj = quadratic_objective(np.eye(2), np.zeros(2))
    config = TrustRegionConfig(solver=ExactBallSolver(), iterations=10, gtol=1e-8)
    trace = itrust(obj, config, np.zeros(2))
    assert trace.converged
    assert trace.n_iterations == 0


def test_loop_invariants_on_noisy_run():
    p = get_problem("quad2")
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=60, sigma2=0.05, seed=3),
        iterations=40,
        delta_max=4.0,
        gtol=None,
    )
    trace = itrust(p.objective, config, p.start)
    thetas = [r.theta for r in trace.records] + [trace.theta_final]
    for i, r in enumerate(trace.records):
        assert 0.0 < r.delta <= 4.0
        if not math.isnan(r.rho):
            assert r.accepted == (r.rho > config.eta)
        else:
            assert not r.accepted
        if r.accepted:
            assert np.array_equal(thetas[i + 1], r.theta + r.step)
        else:
            # Rejected iterations leave the iterate bitwise unchanged.
            assert np.array_equal(thetas[i + 1], r.theta)
        if not math.isnan(r.rho) and r.rho < config.mu and i + 1 < len(trace.records):
            assert trace.records[i + 1].delta == pytest.approx(0.25 * r.delta)


def test_every_rejection_shrinks_radius():
    # Ratios between mu and eta reject the step and shrink the radius, as
    # every other rejection does (the paper keeps the radius there).
    p = get_problem("rosenbrock2")
    config = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=14, gtol=None, mu=0.1, eta=0.75
    )
    trace = itrust(p.objective, config, p.start)
    records = trace.records
    banded = [r for r in records if config.mu <= r.rho <= config.eta]
    assert banded, "expected at least one in-band rejection on this start"
    for r, after in zip(records, records[1:]):
        assert r.accepted == (r.rho > config.eta)
        if not r.accepted:
            assert after.delta == 0.25 * r.delta


@pytest.mark.parametrize("backend", ["exact-ball", "ecim"])
def test_suite_multistart_converges(backend):
    # Sixteen starts per suite problem from start + N(0, 0.5^2), at the
    # benchmark's thresholds. Before the ratio floor and shrink-on-reject,
    # 4 of these 128 exact-ball solves (rosenbrock10) and 1 machine solve
    # (rosenbrock2) cycled to the iteration cap.
    rng = np.random.default_rng(101)
    solver = (
        ExactBallSolver()
        if backend == "exact-ball"
        else EcimConfig(iterations=3000, sigma2=0.0, seed=11)
    )
    failed = []
    for p in problem_suite():
        for _ in range(16):
            theta0 = p.start + rng.normal(0.0, 0.5, p.start.shape)
            config = TrustRegionConfig(solver=solver, scaling=p.scaling, **SUITE)
            trace = itrust(p.objective, config, theta0)
            theta = trace.theta_final
            grad_norm = np.linalg.norm(p.objective.gradient(theta))
            min_eig = np.linalg.eigvalsh(p.objective.hessian(theta))[0]
            if not (trace.converged and grad_norm <= 1e-6 and min_eig >= -1e-6):
                failed.append((p.name, trace.n_iterations))
    assert not failed


def test_solver_failure_shrinks_and_recovers():
    # Concave objective on a huge radius: the machine's energy dives past the
    # divergence guard until the radius comes down.
    obj = Objective(
        dim=2,
        value=lambda t: -float(t @ t),
        gradient=lambda t: -2.0 * t,
        hessian=lambda t: -2.0 * np.eye(2),
    )
    config = TrustRegionConfig(
        solver=EcimConfig(beta0=1.0, iterations=100, seed=0),
        delta0=1e7,
        delta_max=1e7,
        iterations=30,
        gtol=None,
    )
    trace = itrust(obj, config, np.array([0.1, 0.0]))
    failed = [r for r in trace.records if r.solver_failed]
    assert failed, "expected divergence failures at the initial radius"
    assert all(math.isnan(r.rho) for r in failed)
    assert all(not r.accepted for r in failed)
    # Shrinking eventually produces a usable subproblem.
    assert any(r.accepted for r in trace.records)
    first_ok = next(i for i, r in enumerate(trace.records) if not r.solver_failed)
    assert trace.records[first_ok].delta < 1e7


def test_machine_runs_start_at_zero_and_converge(monkeypatch):
    # plquad's Hessian is singular, so the box finish declines its models and
    # the machine solves each one; from delta0 = 0.25 with a scaling it takes
    # 5 iterations. The spy checks that every machine run starts at 0.
    # plquad's minimizers form a line through theta_star along the Hessian's
    # null space, so the distance is measured to the nearest of them,
    # theta_final - H^+ grad.
    starts = []

    def spy(model, config, s0=None, tol=None):
        starts.append(s0)
        return run_ecim(model, config, s0, tol=tol)

    monkeypatch.setattr("itrust.trust_region.run_ecim", spy)
    p = get_problem("plquad")
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=800, sigma2=0.0, seed=5),
        iterations=50,
        gtol=1e-7,
        scaling=np.array([1.0, 2.0, 0.5]),
        delta0=0.25,
        **TUNED,
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert trace.n_iterations > 1
    theta = trace.theta_final
    H, g = p.objective.hessian(theta), p.objective.gradient(theta)
    assert np.max(np.abs(np.linalg.pinv(H) @ g)) <= 1e-6
    assert all(r.accepted for r in trace.records)
    assert len(starts) == trace.n_iterations
    assert all(s0 is None for s0 in starts)


@pytest.mark.parametrize(
    "name, delta0", [("plquad", 0.25), ("rosenbrock10", 1.0)], ids=["plquad", "rosenbrock10"]
)
def test_machine_never_predicts_an_increase(name, delta0, monkeypatch):
    # At the benchmark's thresholds the machine solves rosenbrock10's early
    # models and every plquad model from radius 0.25. Started at 0, its best
    # iterate is never above E(0) = 0, so no step is rejected for predicting
    # an increase.
    runs = []

    def spy(model, config, s0=None, tol=None):
        runs.append(s0)
        return run_ecim(model, config, s0, tol=tol)

    monkeypatch.setattr("itrust.trust_region.run_ecim", spy)
    p = get_problem(name)
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=3000, sigma2=0.0, seed=11),
        scaling=p.scaling,
        delta0=delta0,
        **SUITE,
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert runs
    assert not [r.t for r in trace.records if r.model_value > 0.0]


def test_scaling_speeds_up_ill_conditioned_problem():
    p = get_problem("illscaled")
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=3000, sigma2=0.0, seed=11),
        iterations=60,
        gtol=2e-7,
        scaling=p.scaling,
        **TUNED,
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert np.max(np.abs(trace.theta_final - p.theta_star)) <= 1e-6
    # Whitened coordinates let the box solver reach corners and grow the
    # radius; the run finishes in a handful of iterations.
    assert trace.n_iterations <= 10

    unscaled = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=60, gtol=1e-9, scaling=p.scaling, **TUNED
    )
    trace2 = itrust(p.objective, unscaled, p.start)
    assert trace2.converged
    assert np.max(np.abs(trace2.theta_final - p.theta_star)) <= 1e-6


def test_grid_solver_backend(monkeypatch):
    # plquad's singular Hessian makes the box finish decline its models, so
    # the grid solves them.
    calls = []

    def spy(model):
        calls.append(model)
        return grid_minimize_box(model)

    monkeypatch.setattr("itrust.trust_region.grid_minimize_box", spy)
    p = get_problem("plquad")
    config = TrustRegionConfig(
        solver=GridSolver(), iterations=40, gtol=1e-6, **TUNED
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged
    assert calls


def test_theta0_shape_validation():
    p = get_problem("quad2")
    with pytest.raises(ValueError):
        itrust(p.objective, TrustRegionConfig(), np.zeros(3))
    with pytest.raises(ValueError, match="scaling shape"):
        itrust(p.objective, TrustRegionConfig(scaling=np.ones(1)), p.start)


def test_non_finite_objective_raises():
    obj = Objective(
        dim=1,
        value=lambda t: math.inf,
        gradient=lambda t: np.zeros(1),
        hessian=lambda t: np.eye(1),
    )
    with pytest.raises(RuntimeError, match="not finite"):
        itrust(obj, TrustRegionConfig(), np.zeros(1))


def _bowl_with(gradient=None, hessian=None) -> Objective:
    # f = ||theta - (2, 0)||^2, finite everywhere; from 0 the first step
    # moves theta_0 to 1, past 0.5, where a supplied derivative breaks.
    target = np.array([2.0, 0.0])
    return Objective(
        dim=2,
        value=lambda t: float((t - target) @ (t - target)),
        gradient=gradient or (lambda t: 2.0 * (t - target)),
        hessian=hessian or (lambda t: 2.0 * np.eye(2)),
    )


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_gradient_mid_run_raises_runtime_error(bad):
    # Before, the infinite gradient reached QuadraticModel, whose ValueError
    # the CLI reports as a usage error.
    def gradient(t):
        return 2.0 * (t - np.array([2.0, 0.0])) if t[0] <= 0.5 else np.array([bad, 0.0])

    config = TrustRegionConfig(solver=ExactBallSolver())
    with pytest.raises(RuntimeError, match="gradient norm is not finite at iteration 1"):
        itrust(_bowl_with(gradient=gradient), config, np.zeros(2))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_hessian_mid_run_raises_runtime_error(bad):
    def hessian(t):
        return 2.0 * np.eye(2) if t[0] <= 0.5 else np.array([[2.0, bad], [bad, 2.0]])

    config = TrustRegionConfig(solver=ExactBallSolver())
    with pytest.raises(RuntimeError, match="hessian is not finite at iteration 1"):
        itrust(_bowl_with(hessian=hessian), config, np.zeros(2))


def test_non_finite_trial_point_rejects_and_shrinks():
    # Finite at the start, nan past -0.05; the reported slope overshoots the
    # trial point into the nan region. The ratio is -inf there: the step is
    # rejected and the radius shrinks.
    def value(t):
        return 0.5 * float(t @ t) if t[0] >= -0.05 else math.nan

    obj = Objective(
        dim=1,
        value=value,
        gradient=lambda t: np.asarray(t, dtype=float) + 0.3,
        hessian=lambda t: np.eye(1),
    )
    config = TrustRegionConfig(solver=ExactBallSolver(), iterations=5, gtol=None)
    trace = itrust(obj, config, np.array([0.2]))
    first = trace.records[0]
    assert first.rho == -math.inf and not first.accepted
    assert trace.records[1].delta == 0.25 * first.delta
    assert np.array_equal(trace.records[1].theta, [0.2])


def test_log_barrier_overshoot_recovers():
    # -log(1 - theta) - 3 theta is finite only below 1, and its minimizer is
    # 2/3. From -3 the first step of radius 5 lands past the barrier, where
    # the value is nan: that iteration is rejected, and the run converges.
    def value(t):
        with np.errstate(invalid="ignore"):
            return float(-np.log(1.0 - t[0]) - 3.0 * t[0])

    obj = Objective(
        dim=1,
        value=value,
        gradient=lambda t: np.array([1.0 / (1.0 - t[0]) - 3.0]),
        hessian=lambda t: np.array([[1.0 / (1.0 - t[0]) ** 2]]),
    )
    config = TrustRegionConfig(solver=ExactBallSolver(), delta0=5.0)
    trace = itrust(obj, config, np.array([-3.0]))
    first = trace.records[0]
    assert first.rho == -math.inf and not first.accepted
    assert trace.records[1].delta == 1.25
    assert trace.converged
    assert trace.n_iterations == 7
    assert trace.theta_final[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_trace_serialization(tmp_path):
    p = get_problem("quad2")
    config = TrustRegionConfig(
        solver=EcimConfig(iterations=100, sigma2=0.1, seed=2),
        iterations=15,
        gtol=None,
    )
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    itrust(p.objective, config, p.start).to_csv(p1)
    itrust(p.objective, config, p.start).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "t,delta,rho,f,grad_norm,model_value,step_inf_norm,accepted,solver_failed"
    assert len(lines) == 16


# ---------------------------------------------------------------------------
# The machine backend: momentum with restart and a tolerance stop


def _reference_accelerated_run(model, config, s0, tol):
    """Step by step: each projected step taken from y(k), the restart test,
    the momentum explicitly zeroed at the walls (the package leaves that to
    the clip), and the stop at the first step whose gradient mapping
    ||y(k) - s(k+1)|| / beta_k is at most tol. Returns the rows s(0..k) of
    the steps computed."""
    rng = np.random.default_rng(config.seed)
    n, K, delta = model.dim, config.iterations, model.delta
    betas = step_sizes(config, model)
    noise = np.zeros((K, n))
    if config.sigma2 > 0.0:
        noise = rng.normal(0.0, math.sqrt(config.sigma2), (K, n))
    s = y = project_box(s0, delta)
    t = 1.0
    rows = [s]
    for k in range(K):
        s_next = ecim_step(model, y, betas[k], noise[k])
        rows.append(s_next)
        d = y - s_next
        if d @ d <= (tol * betas[k]) ** 2:
            break
        if d @ (s_next - s) > 0.0:
            t, y = 1.0, s_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            v = (s_next - s) * ((t - 1.0) / t_next)
            v[np.abs(s_next) >= delta] = 0.0
            t, y = t_next, project_box(s_next + v, delta)
        s = s_next
    return rows


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_inexact_machine_matches_step_by_step_reference(tol):
    # Short and long horizons, kinds with walls and with an interior minimum,
    # with and without noise. The two n = 1 instances have a field of either
    # sign: from 0, the start's energy is then a zero whose sign the products
    # decide.
    instances = (
        (2, "psd"), (4, "indefinite"), (7, "pl"), (3, "strongly-convex"),
        (1, "pl"), (1, "indefinite"),
    )
    runs = itertools.product((21, 300), enumerate(instances), (0.0, 1e-4))
    stopped = 0
    for K, (seed, (n, kind)), sigma2 in runs:
        model = random_box_quadratic(n, seed, kind=kind)
        config = EcimConfig(sigma2=sigma2, iterations=K, seed=seed)
        rows = _reference_accelerated_run(model, config, np.zeros(n), tol)
        trace = run_ecim(model, config, tol=tol)
        steps = trace.stop_index
        assert steps == len(rows) - 1
        stopped += steps < K
        # The trace keeps the steps computed: their step sizes, and the
        # energies of the rows, bit for bit by the machine's formula and up
        # to roundoff by the model's.
        assert trace.iterates is None
        assert trace.betas.tobytes() == step_sizes(config, model)[:steps].tobytes()
        energies = [machine_energy(model, r) for r in rows]
        assert trace.energies.tobytes() == np.array(energies).tobytes()
        energies = [energy(model, r) for r in rows]
        assert np.allclose(trace.energies, energies, rtol=1e-12, atol=1e-15)
        assert trace.best_iterate.tobytes() == rows[trace.best_index].tobytes()
        assert trace.best_energy == trace.energies[trace.best_index]
        assert trace.best_index == int(np.argmin(trace.energies))
    # The positive tolerance stops most runs early.
    assert tol == 0.0 or stopped >= 8


def test_inexact_machine_stops_at_the_tolerance():
    # The minimizer (0.25, -0.25) is inside the box. The stop at tol 1e-6
    # leaves the gradient mapping of its last step within tol.
    model = QuadraticModel(np.diag([1.0, 3.0]), np.array([-0.25, 0.75]), delta=0.5)
    config = EcimConfig(iterations=500)
    trace = run_ecim(model, config, tol=1e-6)
    assert 1 <= trace.stop_index < 100
    assert len(trace.energies) == trace.stop_index + 1
    assert np.allclose(trace.best_iterate, [0.25, -0.25], atol=1e-6)
    # The paper's machine reaches that point in more steps and keeps going.
    plain = run_ecim(model, config, np.zeros(2))
    assert plain.stop_index > trace.stop_index


def test_inexact_machine_cost_does_not_grow_with_the_horizon():
    # The run above stops after 20 steps whatever K, so at K = 10^6 it
    # makes none of the 8 MB of step sizes it would not use.
    model = QuadraticModel(np.diag([1.0, 3.0]), np.array([-0.25, 0.75]), delta=0.5)
    tracemalloc.start()
    try:
        trace = run_ecim(model, EcimConfig(iterations=10**6), tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.stop_index == 20
    assert peak < 2**20


def test_inexact_machine_without_tolerance_stops_only_at_a_fixed_point():
    # A zero field from 0 is a fixed point: one step. Condition number 1000
    # keeps the run off any fixed point for 50 steps, so tol = 0 runs to K.
    zero_field = QuadraticModel(np.diag([1.0, -2.0]), np.zeros(2), delta=1.0)
    trace = run_ecim(zero_field, EcimConfig(iterations=3000), tol=0.0)
    assert trace.stop_index == 1
    assert np.all(trace.best_iterate == 0.0)
    model = QuadraticModel(np.diag([1.0, 1000.0]), np.array([-0.03, 0.03]), delta=1.0)
    config = EcimConfig(iterations=50)
    assert run_ecim(model, config, tol=0.0).stop_index == 50
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            run_ecim(model, config, tol=bad)
    with pytest.raises(ValueError, match="keep_iterates"):
        run_ecim(model, config, keep_iterates=True, tol=0.0)


def test_inexact_machine_divergence_raises():
    # A huge fixed step on a huge box: the first step's energy is out of range.
    model = QuadraticModel(np.eye(2), np.ones(2), delta=1e10)
    config = EcimConfig(beta0=1e8, iterations=100)
    with pytest.raises(DivergenceError) as info:
        run_ecim(model, config, tol=0.0)
    assert info.value.iteration == 1
