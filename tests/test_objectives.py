"""Tests for the problem library, derivative checks, and constant estimates."""

from __future__ import annotations

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    QuadraticModel,
    energy,
    estimate_constants,
    estimate_mu_p,
    get_problem,
    problem_suite,
    random_box_quadratic,
    run_ecim,
)
from itrust.objectives import INSTANCE_KINDS, logistic_dataset
from tests.reference import (
    finite_diff_check,
    finite_difference_gradient,
    finite_difference_hessian,
    make_objective,
)

SUITE_NAMES = [
    "quad2",
    "quad5",
    "quad20",
    "plquad",
    "rosenbrock2",
    "rosenbrock10",
    "logistic",
    "illscaled",
]


def test_suite_membership_and_order():
    assert [p.name for p in problem_suite()] == SUITE_NAMES


def test_get_problem_lookup():
    assert get_problem("quad5").objective.dim == 5
    with pytest.raises(KeyError):
        get_problem("nope")


def test_suite_dimensions_and_classes():
    dims = {p.name: p.objective.dim for p in problem_suite()}
    assert dims == {
        "quad2": 2,
        "quad5": 5,
        "quad20": 20,
        "plquad": 3,
        "rosenbrock2": 2,
        "rosenbrock10": 10,
        "logistic": 3,
        "illscaled": 4,
    }
    classes = {p.name: p.convexity_class for p in problem_suite()}
    assert classes["rosenbrock2"] == "nonconvex"
    assert classes["plquad"] == "invex-like"
    assert classes["quad2"] == "strongly-convex"


def test_known_optima_are_consistent():
    for p in problem_suite():
        if p.theta_star is None:
            continue
        grad = p.objective.gradient(p.theta_star)
        assert np.linalg.norm(grad) <= 1e-8, p.name
        if p.f_star is not None:
            assert p.objective.value(p.theta_star) == pytest.approx(
                p.f_star, rel=1e-10, abs=1e-10
            ), p.name


def test_rosenbrock_frozen_derivatives():
    obj = get_problem("rosenbrock2").objective
    origin = np.zeros(2)
    assert obj.value(origin) == pytest.approx(1.0, abs=0.0)
    assert np.allclose(obj.gradient(origin), [-2.0, 0.0], atol=0.0)
    assert np.allclose(obj.hessian(origin), [[2.0, 0.0], [0.0, 200.0]], atol=0.0)

    one = np.ones(2)
    assert obj.value(one) == pytest.approx(0.0, abs=0.0)
    assert np.allclose(obj.gradient(one), [0.0, 0.0], atol=0.0)
    assert np.allclose(
        obj.hessian(one), [[802.0, -400.0], [-400.0, 200.0]], atol=0.0
    )


def test_rosenbrock_start_alternates():
    assert np.allclose(get_problem("rosenbrock2").start, [-1.2, 1.0])
    start10 = get_problem("rosenbrock10").start
    assert np.allclose(start10[0::2], -1.2)
    assert np.allclose(start10[1::2], 1.0)


def test_suite_derivatives_match_finite_differences():
    for p in problem_suite():
        grad_err, hess_err = finite_diff_check(p.objective, p.start)
        assert grad_err <= 1e-5, f"{p.name}: gradient error {grad_err}"
        assert hess_err <= 1e-3, f"{p.name}: hessian error {hess_err}"


def test_finite_diff_check_flags_corrupted_gradient():
    obj = make_objective(
        dim=2,
        value=lambda t: 0.5 * float(t @ t),
        gradient=lambda t: t + 0.1,  # deliberately wrong
        hessian=lambda t: np.eye(2),
    )
    grad_err, hess_err = finite_diff_check(obj, np.array([0.3, -0.2]))
    assert grad_err >= 0.05
    assert hess_err <= 1e-6


def test_finite_difference_helpers():
    f = lambda t: float(t[0] ** 3 + 2.0 * t[0] * t[1])
    theta = np.array([1.0, 2.0])
    g = finite_difference_gradient(f, theta)
    assert np.allclose(g, [3.0 + 4.0, 2.0], atol=1e-7)
    H = finite_difference_hessian(f, theta)
    assert np.allclose(H, [[6.0, 2.0], [2.0, 0.0]], atol=1e-4)


def test_make_objective_defaults_to_finite_differences():
    obj = make_objective(dim=2, value=lambda t: float(t @ t))
    theta = np.array([0.5, -1.0])
    assert np.allclose(obj.gradient(theta), 2.0 * theta, atol=1e-6)
    assert np.allclose(obj.hessian(theta), 2.0 * np.eye(2), atol=1e-3)


def test_illscaled_problem_spans_decades():
    p = get_problem("illscaled")
    H = p.objective.hessian(p.start)
    eigs = np.linalg.eigvalsh(H)
    assert eigs[-1] / eigs[0] == pytest.approx(1e4, rel=1e-12)
    assert p.scaling is not None
    # The suggested scaling whitens the quadratic exactly.
    D_inv = 1.0 / p.scaling
    assert np.allclose(H * np.outer(D_inv, D_inv), np.eye(4), atol=1e-12)


def test_logistic_dataset_is_fixed():
    X1, y1 = logistic_dataset()
    X2, y2 = logistic_dataset()
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    assert X1.shape == (40, 2)
    assert set(np.unique(y1)) == {-1.0, 1.0}


def test_plquad_is_rank_deficient_with_flat_direction():
    p = get_problem("plquad")
    H = p.objective.hessian(p.start)
    eigs = np.linalg.eigvalsh(H)
    assert abs(eigs[0]) <= 1e-12
    assert eigs[1] > 0.1
    # Moving along the null direction from the optimum keeps f at f_star.
    _, V = np.linalg.eigh(H)
    shifted = p.theta_star + 0.7 * V[:, 0]
    assert p.objective.value(shifted) == pytest.approx(p.f_star, abs=1e-10)


# ---------------------------------------------------------------------------
# Random instances


def test_random_instance_kinds():
    for kind in INSTANCE_KINDS:
        model = random_box_quadratic(3, seed=0, kind=kind)
        eigs = np.linalg.eigvalsh(model.symmetric_coupling())
        if kind in ("strongly-convex", "pl"):
            assert eigs[0] >= 0.4 - 1e-12
        elif kind == "psd":
            assert eigs[0] >= -1e-12
        elif kind == "singular":
            assert abs(eigs[0]) <= 1e-10
            assert eigs[1] >= 0.5 - 1e-9
        else:
            assert eigs[0] < 0.0
    with pytest.raises(ValueError):
        random_box_quadratic(3, seed=0, kind="convexish")


def test_random_instances_are_seeded():
    a = random_box_quadratic(4, seed=9)
    b = random_box_quadratic(4, seed=9)
    assert np.array_equal(a.coupling, b.coupling)
    assert np.array_equal(a.field, b.field)
    c = random_box_quadratic(4, seed=10)
    assert not np.array_equal(a.coupling, c.coupling)


def test_non_planted_field_norm_window():
    for seed in range(20):
        model = random_box_quadratic(3, seed=seed, kind="psd")
        norm = np.linalg.norm(model.field)
        assert 0.15 - 1e-12 <= norm <= 0.5 + 1e-12


def test_planted_instance_closed_form():
    for seed in range(20):
        model = random_box_quadratic(3, seed=seed, kind="pl")
        S = model.symmetric_coupling()
        s_star = np.linalg.solve(S, -model.field)
        assert np.max(np.abs(s_star)) <= 0.6 * model.delta + 1e-9
        assert np.allclose(S @ s_star + model.field, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Constant estimation


def test_constants_diagonal_quadratic():
    model = QuadraticModel(np.diag([1.0, 4.0]), np.zeros(2), delta=1.0)
    est = estimate_constants(model)
    assert est.L == pytest.approx(4.0, abs=0.0)
    assert est.mu == pytest.approx(1.0, abs=0.0)


def test_gradient_bound_identity_model():
    # max ||s|| over the box is at a corner: sqrt(2) * delta.
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=0.5)
    est = estimate_constants(model)
    assert est.G == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_gradient_bound_dominates_box_samples():
    rng = np.random.default_rng(4)
    for seed in range(10):
        model = random_box_quadratic(3, seed=seed, kind="indefinite")
        est = estimate_constants(model)
        S = model.symmetric_coupling()
        samples = rng.uniform(-model.delta, model.delta, size=(500, 3))
        norms = np.linalg.norm(samples @ S + model.field, axis=1)
        assert est.G >= float(norms.max()) - 1e-12


def test_mu_not_reported_for_indefinite():
    model = random_box_quadratic(3, seed=1, kind="indefinite")
    assert estimate_constants(model).mu is None


def test_estimate_mu_p_on_planted_instance():
    model = random_box_quadratic(2, seed=3, kind="pl")
    S = model.symmetric_coupling()
    e_star = energy(model, np.linalg.solve(S, -model.field))
    L = float(np.max(np.abs(np.linalg.eigvalsh(S))))
    trace = run_ecim(model, EcimConfig(beta0=1.0 / L, iterations=2000, seed=0))
    mu_hat = estimate_mu_p(trace, e_star)
    mu = float(np.linalg.eigvalsh(S)[0])
    assert mu_hat is not None
    assert 0.0 < mu_hat <= mu + 1e-9


def test_estimate_mu_p_floor_excludes_converged_tail():
    # All gaps below the floor: nothing usable, estimator declines.
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=1.0)
    trace = run_ecim(
        model, EcimConfig(beta0=1.0, iterations=5, seed=0), s0=np.zeros(1)
    )
    assert estimate_mu_p(trace, e_star=0.0) is None
