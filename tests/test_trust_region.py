"""Tests for the outer trust-region loop and its radius/acceptance logic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    ExactBallSolver,
    GridSolver,
    Objective,
    QuadraticModel,
    TrustRegionConfig,
    energy,
    get_problem,
    itrust,
    random_box_quadratic,
    solve_subproblem,
    update_radius,
)

# Small acceptance threshold: the reject-without-shrink band between mu and
# eta can trap a deterministic solver on nonconvex objectives (see README).
TUNED = dict(mu=0.01, eta=0.05)


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
    config = TrustRegionConfig()
    assert update_radius(0.5, 1.0, 1.0, config) == 1.0
    assert update_radius(0.85, 1.0, 0.2, config) == 1.0


def test_update_radius_boundary_tolerance_scales():
    config = TrustRegionConfig()
    assert update_radius(0.99, 10.0, 10.0 - 1e-9, config) == 20.0
    assert update_radius(0.99, 10.0, 10.0 - 1e-3, config) == 10.0


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
    for solver in (EcimConfig(iterations=500), ExactBallSolver(), GridSolver(0.05)):
        step, value = solve_subproblem(model, solver, seed=0)
        assert np.allclose(step, 0.0, atol=1e-6), solver
        assert value == pytest.approx(0.0, abs=1e-10)


def test_machine_matches_references_on_random_subproblems():
    from itrust import grid_minimize_box

    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="psd")
        _, e_ecim = solve_subproblem(
            model, EcimConfig(iterations=4000, sigma2=0.0), seed=seed
        )
        _, e_ball = solve_subproblem(model, ExactBallSolver(), seed=seed)
        grid = grid_minimize_box(model, resolution=0.005, polish_steps=400)
        assert e_ecim <= e_ball + 1e-6, f"seed {seed}"
        assert abs(e_ecim - grid.value) <= 1e-4, f"seed {seed}"


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


def test_dead_band_rejection_keeps_radius():
    # Ratios between mu and eta reject the step without shrinking the radius.
    p = get_problem("rosenbrock2")
    config = TrustRegionConfig(
        solver=ExactBallSolver(), iterations=14, gtol=None, mu=0.1, eta=0.75
    )
    trace = itrust(p.objective, config, p.start)
    banded = [
        i
        for i, r in enumerate(trace.records[:-1])
        if not math.isnan(r.rho) and config.mu <= r.rho <= config.eta
    ]
    assert banded, "expected at least one in-band rejection on this start"
    for i in banded:
        assert not trace.records[i].accepted
        assert trace.records[i + 1].delta == trace.records[i].delta


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


def test_warm_start_runs_and_converges(monkeypatch):
    # quad2 converges in one step, before any warm start; illscaled takes
    # several, each started from the last step mapped into solver coordinates.
    starts = []

    def spy(model, solver, seed=None, s0=None, scaling=None):
        starts.append(s0)
        return solve_subproblem(model, solver, seed=seed, s0=s0, scaling=scaling)

    monkeypatch.setattr("itrust.trust_region.solve_subproblem", spy)
    for name in ("quad2", "illscaled"):
        starts.clear()
        p = get_problem(name)
        config = TrustRegionConfig(
            solver=EcimConfig(iterations=800, sigma2=0.0, seed=5),
            iterations=50,
            gtol=1e-7,
            warm_start=True,
            scaling=p.scaling,
            **TUNED,
        )
        trace = itrust(p.objective, config, p.start)
        assert trace.converged, name
    assert trace.n_iterations > 1
    assert np.max(np.abs(trace.theta_final - p.theta_star)) <= 1e-6
    records = trace.records
    assert starts[0] is None and all(r.accepted for r in records)
    for s0, previous in zip(starts[1:], records):
        assert np.array_equal(s0, p.scaling * previous.step)


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


def test_grid_solver_backend():
    p = get_problem("quad2")
    config = TrustRegionConfig(
        solver=GridSolver(resolution=0.02), iterations=40, gtol=1e-6, **TUNED
    )
    trace = itrust(p.objective, config, p.start)
    assert trace.converged


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

    import json

    jpath = tmp_path / "trace.json"
    trace = itrust(p.objective, config, p.start)
    trace.to_json(jpath)
    payload = json.loads(jpath.read_text())
    assert payload["converged"] == trace.converged
    assert len(payload["records"]) == trace.n_iterations
    assert payload["theta_final"] == trace.theta_final.tolist()
