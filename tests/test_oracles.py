"""Tests for the reference oracles: grid search and exact ball solves."""

from __future__ import annotations

import numpy as np
import pytest

from itrust import (
    OracleCapabilityError,
    QuadraticModel,
    energy,
    exact_ball_minimize,
    grid_minimize_box,
    random_box_quadratic,
)
from itrust.oracles import GRID_MAX_DIM


# ---------------------------------------------------------------------------
# Grid oracle


def test_grid_one_dimensional_boundary_minimum():
    # E(s) = 0.5 s^2 + s has its unconstrained minimum at -1, clipped to -0.5.
    model = QuadraticModel(np.array([[1.0]]), np.array([1.0]), delta=0.5)
    sol = grid_minimize_box(model, resolution=0.1)
    assert np.allclose(sol.s_star, [-0.5], atol=1e-12)
    assert sol.value == pytest.approx(-0.375, abs=1e-12)


def test_grid_interior_minimum_on_lattice():
    model = QuadraticModel(np.eye(2), np.array([-0.25, 0.25]), delta=0.5)
    sol = grid_minimize_box(model, resolution=0.25)
    assert np.allclose(sol.s_star, [0.25, -0.25], atol=1e-12)
    assert sol.value == pytest.approx(-0.0625, abs=1e-12)


def test_grid_three_dimensional_interior():
    model = QuadraticModel(np.eye(3), np.full(3, -0.3), delta=0.5)
    sol = grid_minimize_box(model, resolution=0.1)
    assert np.allclose(sol.s_star, [0.3, 0.3, 0.3], atol=1e-10)
    assert sol.value == pytest.approx(-0.135, abs=1e-12)


def test_grid_polish_beats_coarse_lattice():
    # Minimizer -0.33 is off the 0.5-spaced lattice; polish must find it.
    model = QuadraticModel(np.array([[1.0]]), np.array([0.33]), delta=1.0)
    raw = grid_minimize_box(model, resolution=0.5, polish_steps=0)
    assert raw.value == pytest.approx(-0.04, abs=1e-12)  # best lattice point -0.5
    polished = grid_minimize_box(model, resolution=0.5)
    assert np.allclose(polished.s_star, [-0.33], atol=1e-12)
    assert polished.value == pytest.approx(0.5 * 0.33**2 - 0.33**2, abs=1e-12)
    assert polished.value < raw.value


def test_grid_realized_resolution():
    # Requested 0.3 over a width-1 box snaps to 5 points spaced 0.25.
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=0.5)
    sol = grid_minimize_box(model, resolution=0.3)
    assert sol.resolution == pytest.approx(0.25, abs=1e-15)


def test_grid_coarse_resolution_keeps_endpoints():
    model = QuadraticModel(np.array([[1.0]]), np.array([1.0]), delta=0.5)
    sol = grid_minimize_box(model, resolution=10.0, polish_steps=0)
    assert np.allclose(sol.s_star, [-0.5], atol=0.0)


def test_grid_tie_break_is_lexicographic_and_stable():
    # Flat energy: every lattice point ties at 0, the first index wins.
    model = QuadraticModel(np.zeros((2, 2)), np.zeros(2), delta=0.5)
    a = grid_minimize_box(model, resolution=0.25)
    b = grid_minimize_box(model, resolution=0.25)
    assert np.allclose(a.s_star, [-0.5, -0.5], atol=0.0)
    assert np.array_equal(a.s_star, b.s_star)
    assert a.value == b.value == 0.0


def test_grid_dimension_cap():
    model = QuadraticModel(np.eye(GRID_MAX_DIM + 1), np.zeros(GRID_MAX_DIM + 1), 1.0)
    with pytest.raises(OracleCapabilityError):
        grid_minimize_box(model, resolution=0.5)
    # A lattice past the point cap is refused before any scan: 4001^4 points.
    model = QuadraticModel(np.eye(GRID_MAX_DIM), np.zeros(GRID_MAX_DIM), 100.0)
    with pytest.raises(OracleCapabilityError, match="points"):
        grid_minimize_box(model, resolution=0.05)


def test_grid_rejects_bad_resolution():
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=1.0)
    with pytest.raises(ValueError):
        grid_minimize_box(model, resolution=0.0)


def test_grid_beats_random_sampling():
    rng = np.random.default_rng(21)
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="indefinite")
        sol = grid_minimize_box(model, resolution=0.01)
        samples = rng.uniform(-model.delta, model.delta, size=(2000, 2))
        sampled = min(energy(model, s) for s in samples)
        assert sol.value <= sampled + 1e-9, f"seed {seed}"


# ---------------------------------------------------------------------------
# Exact ball oracle


def test_ball_interior_newton_step():
    sol = exact_ball_minimize(np.array([1.0, 0.0]), np.eye(2), delta=2.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-12)
    assert sol.value == pytest.approx(-0.5, abs=1e-12)
    assert sol.multiplier == 0.0


def test_ball_boundary_solution():
    # Newton step (-2, 0) leaves the unit ball; lam = 1 puts it on the sphere.
    sol = exact_ball_minimize(np.array([2.0, 0.0]), np.eye(2), delta=1.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(-1.5, abs=1e-9)
    assert sol.multiplier == pytest.approx(1.0, abs=1e-9)


def test_ball_anisotropic_interior():
    H = np.diag([2.0, 8.0])
    g = np.array([-1.0, 2.0])
    sol = exact_ball_minimize(g, H, delta=10.0)
    assert np.allclose(sol.s_star, [0.5, -0.25], atol=1e-12)
    assert sol.value == pytest.approx(-0.5, abs=1e-12)


def test_ball_indefinite_regular_case():
    # lam solves 0.1 / (lam - 1) = 1, so lam = 1.1 and p = (-1, 0).
    H = np.diag([-1.0, 1.0])
    sol = exact_ball_minimize(np.array([0.1, 0.0]), H, delta=1.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(-0.6, abs=1e-9)
    assert sol.multiplier == pytest.approx(1.1, abs=1e-9)


def test_ball_hard_case():
    # No gradient along the negative eigendirection: the multiplier pins at
    # -lam_min and the step is completed with a minimal eigenvector.
    H = np.diag([-1.0, 1.0])
    g = np.array([0.0, 0.1])
    sol = exact_ball_minimize(g, H, delta=1.0)
    assert sol.multiplier == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(sol.s_star) == pytest.approx(1.0, abs=1e-12)
    assert sol.s_star[1] == pytest.approx(-0.05, abs=1e-12)
    assert abs(sol.s_star[0]) == pytest.approx(np.sqrt(1.0 - 0.0025), abs=1e-12)
    assert sol.value == pytest.approx(-0.5025, abs=1e-12)
    # Stationarity holds even though (H + lam I) is singular.
    assert np.allclose((H + sol.multiplier * np.eye(2)) @ sol.s_star, -g, atol=1e-12)


def test_ball_zero_gradient_negative_curvature():
    H = np.diag([-2.0, 1.0])
    sol = exact_ball_minimize(np.zeros(2), H, delta=0.5)
    assert np.linalg.norm(sol.s_star) == pytest.approx(0.5, abs=1e-12)
    assert sol.value == pytest.approx(-0.25, abs=1e-12)


def test_ball_rejects_bad_inputs():
    with pytest.raises(ValueError):
        exact_ball_minimize(np.zeros(2), np.eye(2), delta=0.0)
    with pytest.raises(ValueError):
        exact_ball_minimize(np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0]]), delta=1.0)


def kkt_residuals(g, H, sol, delta):
    """Global optimality conditions for the ball-constrained quadratic."""
    n = len(g)
    lam = sol.multiplier
    stationarity = np.linalg.norm((H + lam * np.eye(n)) @ sol.s_star + g)
    radius = np.linalg.norm(sol.s_star)
    curvature_ok = np.linalg.eigvalsh(H + lam * np.eye(n))[0] >= -1e-9
    complementarity = lam * max(0.0, delta - radius)
    return stationarity, radius, curvature_ok, complementarity


def test_ball_kkt_conditions_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        H = 0.5 * (A + A.T)
        g = rng.normal(size=n)
        delta = float(rng.uniform(0.2, 2.0))
        sol = exact_ball_minimize(g, H, delta)
        stat, radius, curv_ok, comp = kkt_residuals(g, H, sol, delta)
        scale = max(1.0, float(np.linalg.norm(g)), float(np.max(np.abs(H))))
        assert sol.multiplier >= -1e-12, f"trial {trial}"
        assert radius <= delta + 1e-9, f"trial {trial}"
        assert stat <= 1e-7 * scale, f"trial {trial}: stationarity {stat}"
        assert curv_ok, f"trial {trial}: H + lam I not positive semidefinite"
        assert comp <= 1e-7 * max(1.0, delta), f"trial {trial}"


def test_ball_beats_random_sampling():
    rng = np.random.default_rng(33)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        H = 0.5 * (A + A.T)
        g = rng.normal(size=n)
        delta = 1.0
        sol = exact_ball_minimize(g, H, delta)
        raw = rng.normal(size=(2000, n))
        raw *= (rng.uniform(0, 1, 2000) ** (1.0 / n) / np.linalg.norm(raw, axis=1))[
            :, None
        ]
        values = raw @ g + 0.5 * np.einsum("ij,ij->i", raw @ H, raw)
        assert sol.value <= float(values.min()) + 1e-9, f"trial {trial}"


# ---------------------------------------------------------------------------
# Cross-oracle agreement


def test_oracles_agree_on_planted_interior_minimum():
    # Planted optimum is interior to both the box and the inscribed ball, so
    # the two oracles and the closed form must coincide.
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="pl")
        S = model.symmetric_coupling()
        s_star = np.linalg.solve(S, -model.field)
        assert np.max(np.abs(s_star)) <= 0.6 * model.delta + 1e-9
        e_star = energy(model, s_star)
        if np.linalg.norm(s_star) <= model.delta:
            ball = exact_ball_minimize(model.field, S, model.delta)
            assert ball.value == pytest.approx(e_star, abs=1e-10)
            assert np.allclose(ball.s_star, s_star, atol=1e-8)
        grid = grid_minimize_box(model, resolution=0.01, polish_steps=400)
        assert grid.value == pytest.approx(e_star, abs=1e-9)


def test_box_minimum_never_exceeds_ball_minimum():
    # The ball is inscribed in the box, so the box optimum is at least as low.
    for seed in range(20):
        for kind in ("psd", "indefinite", "singular"):
            model = random_box_quadratic(2, seed=seed, kind=kind)
            ball = exact_ball_minimize(
                model.field, model.symmetric_coupling(), model.delta
            )
            grid = grid_minimize_box(model, resolution=0.005, polish_steps=400)
            assert grid.value <= ball.value + 1e-8, f"seed {seed} kind {kind}"
