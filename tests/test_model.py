"""Tests for the quadratic model container and objective wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    Objective,
    QuadraticModel,
    build_subproblem,
    energy,
    solve_subproblem,
)
from tests.reference import energy_gradient


def naive_energy(J, h, s):
    """Double-loop reference for 0.5 <s, J s> + <h, s>."""
    n = len(s)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += 0.5 * s[i] * J[i][j] * s[j]
        total += h[i] * s[i]
    return total


def test_energy_identity_coupling():
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=1.0)
    assert energy(model, np.array([1.0, 1.0])) == pytest.approx(1.0, abs=0.0)


def test_energy_with_field():
    model = QuadraticModel(np.eye(2), np.array([1.0, 0.0]), delta=1.0)
    assert energy(model, np.array([-1.0, 0.0])) == pytest.approx(-0.5, abs=0.0)


def test_energy_uses_coupling_as_given():
    # Asymmetric J: the value contracts J directly, no symmetrization.
    J = np.array([[0.0, 2.0], [0.0, 0.0]])
    model = QuadraticModel(J, np.zeros(2), delta=2.0)
    s = np.array([1.0, 1.0])
    assert energy(model, s) == pytest.approx(1.0, abs=0.0)


def test_gradient_uses_symmetric_part():
    J = np.array([[0.0, 2.0], [0.0, 0.0]])
    model = QuadraticModel(J, np.zeros(2), delta=2.0)
    g = energy_gradient(model, np.array([1.0, 1.0]))
    assert np.allclose(g, [1.0, 1.0], atol=0.0)


def test_energy_matches_naive_double_loop():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 6)
        J = rng.normal(size=(n, n))
        h = rng.normal(size=n)
        s = rng.uniform(-1.0, 1.0, n)
        model = QuadraticModel(J, h, delta=1.5)
        assert energy(model, s) == pytest.approx(
            naive_energy(J, h, s), rel=1e-12, abs=1e-12
        )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        J = rng.normal(size=(n, n))
        h = rng.normal(size=n)
        model = QuadraticModel(J, h, delta=2.0)
        s = rng.uniform(-1.0, 1.0, n)
        g = energy_gradient(model, s)
        eps = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = eps
            fd = (energy(model, s + e) - energy(model, s - e)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_model_value_worked_example():
    model = QuadraticModel(np.eye(2), np.array([1.0, 0.0]), delta=1.0)
    assert energy(model, np.array([-1.0, 0.0])) == pytest.approx(-0.5, abs=0.0)


def test_model_validation_errors():
    with pytest.raises(ValueError):
        QuadraticModel(np.ones((2, 3)), np.zeros(2), delta=1.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.eye(2), np.zeros(3), delta=1.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.eye(2), np.zeros(2), delta=0.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.eye(2), np.zeros(2), delta=-1.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2), delta=1.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.eye(2), np.array([np.nan, 0.0]), delta=1.0)
    with pytest.raises(ValueError):
        QuadraticModel(np.zeros((0, 0)), np.zeros(0), delta=1.0)


def test_model_arrays_are_readonly():
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=1.0)
    with pytest.raises(ValueError):
        model.coupling[0, 0] = 5.0
    with pytest.raises(ValueError):
        model.field[0] = 5.0


def test_scaling_round_trip():
    """Scaled coordinates u = D s: a step solved with ``scaling=d`` is the
    solution of the model in u coordinates mapped back, and the energies
    agree through the map."""
    rng = np.random.default_rng(5)
    solver = EcimConfig(iterations=50)
    for seed in range(20):
        n = int(rng.integers(1, 5))
        J = rng.normal(size=(n, n))
        J = 0.5 * (J + J.T)
        h = rng.normal(size=n)
        d = rng.uniform(0.5, 4.0, n)
        model = QuadraticModel(J, h, delta=1.0)
        inv = 1.0 / d
        scaled = QuadraticModel(J * np.outer(inv, inv), h * inv, delta=1.0)
        s, value = solve_subproblem(model, solver, seed=seed, scaling=d)
        u, scaled_value = solve_subproblem(scaled, solver, seed=seed)
        assert np.allclose(d * s, u, atol=1e-12)
        assert value == energy(model, s)
        assert value == pytest.approx(scaled_value, rel=1e-10, abs=1e-12)


def test_symmetric_coupling():
    J = np.array([[1.0, 3.0], [1.0, 2.0]])
    model = QuadraticModel(J, np.zeros(2), delta=1.0)
    S = model.symmetric_coupling()
    assert np.allclose(S, [[1.0, 2.0], [2.0, 2.0]], atol=0.0)


def quadratic_objective():
    A = np.array([[2.0, 0.0], [0.0, 8.0]])
    b = np.array([-1.0, 2.0])
    return Objective(
        dim=2,
        value=lambda t: 0.5 * t @ (A @ t) + b @ t,
        gradient=lambda t: A @ t + b,
        hessian=lambda t: A,
    )


def test_objective_evaluations():
    obj = quadratic_objective()
    t = np.array([1.0, 1.0])
    assert obj.value(t) == pytest.approx(6.0, abs=0.0)
    assert np.allclose(obj.gradient(t), [1.0, 10.0], atol=0.0)
    assert np.allclose(obj.hessian(t), [[2.0, 0.0], [0.0, 8.0]], atol=0.0)


def test_objective_rejects_asymmetric_hessian():
    obj = Objective(
        dim=2,
        value=lambda t: 0.0,
        gradient=lambda t: np.zeros(2),
        hessian=lambda t: np.array([[1.0, 1.0], [0.0, 1.0]]),
    )
    with pytest.raises(ValueError, match="symmetric"):
        obj.hessian(np.zeros(2))


def test_objective_symmetrizes_roundoff():
    # Asymmetry below tolerance is repaired, not rejected.
    H = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
    obj = Objective(
        dim=2,
        value=lambda t: 0.0,
        gradient=lambda t: np.zeros(2),
        hessian=lambda t: H,
    )
    out = obj.hessian(np.zeros(2))
    assert np.allclose(out, out.T, atol=0.0)


def test_objective_shape_checks():
    obj = Objective(
        dim=2,
        value=lambda t: 0.0,
        gradient=lambda t: np.zeros(3),
        hessian=lambda t: np.zeros((2, 2)),
    )
    with pytest.raises(ValueError):
        obj.gradient(np.zeros(2))
    with pytest.raises(ValueError):
        Objective(dim=0, value=lambda t: 0.0, gradient=None, hessian=None)


def test_build_subproblem_uses_local_derivatives():
    obj = quadratic_objective()
    theta = np.array([0.5, -0.5])
    model = build_subproblem(obj, theta, 0.25, obj.gradient(theta))
    assert model.delta == 0.25
    assert np.allclose(model.coupling, obj.hessian(theta), atol=0.0)
    assert np.allclose(model.field, obj.gradient(theta), atol=0.0)
    # The model predicts the exact change for a quadratic objective.
    p = np.array([0.1, -0.2])
    predicted = energy(model, p)
    actual = obj.value(theta + p) - obj.value(theta)
    assert predicted == pytest.approx(actual, rel=1e-12, abs=1e-12)
