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
from itrust import oracles
from itrust.oracles import GRID_POINTS


# ---------------------------------------------------------------------------
# Grid oracle


def test_grid_one_dimensional_boundary_minimum():
    # E(s) = 0.5 s^2 + s has its unconstrained minimum at -1, clipped to -0.5.
    model = QuadraticModel(np.array([[1.0]]), np.array([1.0]), delta=0.5)
    sol = grid_minimize_box(model)
    assert np.allclose(sol.s_star, [-0.5], atol=1e-12)
    assert sol.value == pytest.approx(-0.375, abs=1e-12)


def test_grid_interior_minimum_on_lattice():
    model = QuadraticModel(np.eye(2), np.array([-0.25, 0.25]), delta=0.5)
    sol = grid_minimize_box(model)
    assert np.allclose(sol.s_star, [0.25, -0.25], atol=1e-12)
    assert sol.value == pytest.approx(-0.0625, abs=1e-12)


def test_grid_three_dimensional_interior():
    model = QuadraticModel(np.eye(3), np.full(3, -0.3), delta=0.5)
    sol = grid_minimize_box(model)
    assert np.allclose(sol.s_star, [0.3, 0.3, 0.3], atol=1e-10)
    assert sol.value == pytest.approx(-0.135, abs=1e-12)


def test_grid_polish_beats_coarse_lattice():
    # Minimizer -0.3331 lies between the lattice points -0.334 and -0.332;
    # the polish must find it.
    model = QuadraticModel(np.array([[1.0]]), np.array([0.3331]), delta=1.0)
    lattice = np.linspace(-1.0, 1.0, GRID_POINTS[1])
    raw = float(np.min(0.5 * lattice**2 + 0.3331 * lattice))
    assert raw == pytest.approx(0.5 * 0.3331**2 - 0.3331**2 + 0.5 * 0.0009**2)
    polished = grid_minimize_box(model)
    assert np.allclose(polished.s_star, [-0.3331], atol=1e-12)
    assert polished.value == pytest.approx(0.5 * 0.3331**2 - 0.3331**2, abs=1e-12)
    assert polished.value < raw


def test_grid_realized_resolution():
    for delta in (0.5, 3.0):
        for n, count in GRID_POINTS.items():
            model = QuadraticModel(np.eye(n), np.zeros(n), delta=delta)
            sol = grid_minimize_box(model)
            assert sol.resolution == 2.0 * delta / (count - 1), (delta, n)


def test_grid_scans_the_same_points_at_any_radius(monkeypatch):
    # The lattice is relative to delta: 201^2 points at delta = 0.5 and at 64.
    scanned = []

    def spy(S, h, points):
        scanned[-1] += len(points)
        return batch_energy(S, h, points)

    batch_energy = oracles._batch_energy
    monkeypatch.setattr(oracles, "_batch_energy", spy)
    for delta in (0.5, 64.0):
        scanned.append(0)
        model = QuadraticModel(np.eye(2), np.array([0.3, -0.2]), delta=delta)
        grid_minimize_box(model)
    assert scanned == [GRID_POINTS[2] ** 2] * 2


def test_grid_coarse_resolution_keeps_endpoints():
    model = QuadraticModel(np.array([[1.0]]), np.array([1.0]), delta=0.5)
    sol = grid_minimize_box(model)
    assert np.allclose(sol.s_star, [-0.5], atol=0.0)


def test_grid_tie_break_is_lexicographic_and_stable():
    # Flat energy: every lattice point ties at 0, the first index wins.
    model = QuadraticModel(np.zeros((2, 2)), np.zeros(2), delta=0.5)
    a = grid_minimize_box(model)
    b = grid_minimize_box(model)
    assert np.allclose(a.s_star, [-0.5, -0.5], atol=0.0)
    assert np.array_equal(a.s_star, b.s_star)
    assert a.value == b.value == 0.0


def test_grid_dimension_cap():
    n = max(GRID_POINTS) + 1
    model = QuadraticModel(np.eye(n), np.zeros(n), 1.0)
    with pytest.raises(OracleCapabilityError, match="supports n <= 4"):
        grid_minimize_box(model)


def test_grid_beats_random_sampling():
    rng = np.random.default_rng(21)
    for seed in range(10):
        model = random_box_quadratic(2, seed=seed, kind="indefinite")
        sol = grid_minimize_box(model)
        samples = rng.uniform(-model.delta, model.delta, size=(2000, 2))
        sampled = min(energy(model, s) for s in samples)
        assert sol.value <= sampled + 1e-9, f"seed {seed}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_result_does_not_depend_on_slab_size(n, monkeypatch):
    # Slabs of one axis and one slab of the whole lattice: the same scan
    # order, strict < between blocks and argmin within one give the same
    # lexicographically first minimum, with the same energy bits.
    rng = np.random.default_rng(n)
    flat = np.zeros((n, n))
    ties = np.where(np.arange(n) % 2 == 0, 0.0, -1.0)
    models = [
        random_box_quadratic(n, 40 + n, kind="indefinite"),
        QuadraticModel(rng.normal(size=(n, n)), rng.normal(size=n), delta=0.7),
        # Ties: every zero field entry leaves a whole axis of lattice minima.
        QuadraticModel(flat, ties, delta=0.5),
        QuadraticModel(flat, np.zeros(n), delta=0.5),
        # Minima on the plane sum(s) = 0, not a product of axes: the order of
        # the axes in the scan decides which one comes first.
        QuadraticModel(np.ones((n, n)), np.zeros(n), delta=0.5),
        # Minimum at the last lattice point, which is delta itself.
        QuadraticModel(flat, -np.ones(n), delta=1.95),
    ]
    count = GRID_POINTS[n]

    def scan(slab_points):
        sizes = set()

        def spy(S, h, points):
            sizes.add(len(points))
            return batch_energy(S, h, points)

        monkeypatch.setattr(oracles, "_SLAB_POINTS", slab_points)
        monkeypatch.setattr(oracles, "_batch_energy", spy)
        return [grid_minimize_box(m) for m in models], sizes

    batch_energy = oracles._batch_energy
    small, small_sizes = scan(1)
    whole, whole_sizes = scan(count**n)
    assert small_sizes == {count} and whole_sizes == {count**n}
    for a, b in zip(small, whole):
        assert a.s_star.tobytes() == b.s_star.tobytes()
        assert repr(a.value) == repr(b.value)
    tied, flat_sol = small[2], small[3]  # zero couplings: no polish
    expected = np.where(ties == 0.0, -0.5, 0.5)
    assert tied.s_star.tobytes() == expected.tobytes()
    assert np.all(flat_sol.s_star == -0.5)
    assert np.all(small[5].s_star == 1.95)


# ---------------------------------------------------------------------------
# Exact ball oracle


def solve_ball(g, H, delta):
    """Exact ball solve of the model with field g, coupling H and radius delta."""
    return exact_ball_minimize(QuadraticModel(H, g, delta))


def test_ball_interior_newton_step():
    sol = solve_ball(np.array([1.0, 0.0]), np.eye(2), delta=2.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-12)
    assert sol.value == pytest.approx(-0.5, abs=1e-12)
    assert sol.multiplier == 0.0


def test_ball_boundary_solution():
    # Newton step (-2, 0) leaves the unit ball; lam = 1 puts it on the sphere.
    sol = solve_ball(np.array([2.0, 0.0]), np.eye(2), delta=1.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(-1.5, abs=1e-9)
    assert sol.multiplier == pytest.approx(1.0, abs=1e-9)


def test_ball_anisotropic_interior():
    H = np.diag([2.0, 8.0])
    g = np.array([-1.0, 2.0])
    sol = solve_ball(g, H, delta=10.0)
    assert np.allclose(sol.s_star, [0.5, -0.25], atol=1e-12)
    assert sol.value == pytest.approx(-0.5, abs=1e-12)


def test_ball_indefinite_regular_case():
    # lam solves 0.1 / (lam - 1) = 1, so lam = 1.1 and p = (-1, 0).
    H = np.diag([-1.0, 1.0])
    sol = solve_ball(np.array([0.1, 0.0]), H, delta=1.0)
    assert np.allclose(sol.s_star, [-1.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(-0.6, abs=1e-9)
    assert sol.multiplier == pytest.approx(1.1, abs=1e-9)


def test_ball_hard_case():
    # No gradient along the negative eigendirection: the multiplier pins at
    # -lam_min and the step is completed with a minimal eigenvector.
    H = np.diag([-1.0, 1.0])
    g = np.array([0.0, 0.1])
    sol = solve_ball(g, H, delta=1.0)
    assert sol.multiplier == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(sol.s_star) == pytest.approx(1.0, abs=1e-12)
    assert sol.s_star[1] == pytest.approx(-0.05, abs=1e-12)
    assert abs(sol.s_star[0]) == pytest.approx(np.sqrt(1.0 - 0.0025), abs=1e-12)
    assert sol.value == pytest.approx(-0.5025, abs=1e-12)
    # Stationarity holds even though (H + lam I) is singular.
    assert np.allclose((H + sol.multiplier * np.eye(2)) @ sol.s_star, -g, atol=1e-12)


def test_ball_zero_gradient_negative_curvature():
    H = np.diag([-2.0, 1.0])
    sol = solve_ball(np.zeros(2), H, delta=0.5)
    assert np.linalg.norm(sol.s_star) == pytest.approx(0.5, abs=1e-12)
    assert sol.value == pytest.approx(-0.25, abs=1e-12)


def test_ball_solves_nonsymmetric_coupling_through_symmetric_part():
    # The energy of a non-symmetric J is that of its symmetric part, so both
    # models have one solution, bit for bit.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        J = rng.normal(size=(n, n))
        g = rng.normal(size=n)
        sol = solve_ball(g, J, 0.7)
        ref = solve_ball(g, 0.5 * (J + J.T), 0.7)
        assert sol.s_star.tobytes() == ref.s_star.tobytes()
        assert repr(sol.value) == repr(ref.value)
        assert repr(sol.multiplier) == repr(ref.multiplier)


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
        sol = solve_ball(g, H, delta)
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
        sol = solve_ball(g, H, delta)
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
            ball = exact_ball_minimize(model)
            assert ball.value == pytest.approx(e_star, abs=1e-10)
            assert np.allclose(ball.s_star, s_star, atol=1e-8)
        grid = grid_minimize_box(model)
        assert grid.value == pytest.approx(e_star, abs=1e-9)


def test_box_minimum_never_exceeds_ball_minimum():
    # The ball is inscribed in the box, so the box optimum is at least as low.
    for seed in range(20):
        for kind in ("psd", "indefinite", "singular"):
            model = random_box_quadratic(2, seed=seed, kind=kind)
            ball = exact_ball_minimize(model)
            grid = grid_minimize_box(model)
            assert grid.value <= ball.value + 1e-8, f"seed {seed} kind {kind}"
