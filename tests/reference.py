"""Reference definitions the tests compare the package against.

Plain, unoptimized forms of one machine step, its gradient mapping, the
energy gradient, the trust region's box finish, and central-difference
derivatives. Only tests call them.
"""

from __future__ import annotations

import numpy as np

from itrust import Objective, QuadraticModel, project_box


def energy_gradient(model: QuadraticModel, s: np.ndarray) -> np.ndarray:
    """Gradient ``0.5 (J + J') s + h`` of the energy."""
    s = np.asarray(s, dtype=float)
    return model.symmetric_coupling() @ s + model.field


def machine_energy(model: QuadraticModel, s: np.ndarray) -> float:
    """The machine's energy ``0.5 * (s . (S s + h) + s . h)``, from the
    gradient at s, with numpy's plain products: the bits its traces keep."""
    grad = np.dot(model.symmetric_coupling(), s) + model.field
    return 0.5 * (float(s @ grad) + float(s @ model.field))


def ecim_step(
    model: QuadraticModel, s: np.ndarray, beta: float, noise: np.ndarray
) -> np.ndarray:
    """One projected noisy gradient step on the energy."""
    grad = energy_gradient(model, s)
    return project_box(s - beta * (grad - noise), model.delta)


def gradient_mapping(s: np.ndarray, s_next: np.ndarray, beta: float) -> np.ndarray:
    """Projected-gradient mapping ``(s - s_next) / beta`` of one step."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return (np.asarray(s, dtype=float) - np.asarray(s_next, dtype=float)) / beta


def box_minimizer(model: QuadraticModel, tol: float) -> np.ndarray | None:
    """The box finish in its plain form: the unique box minimum of a
    positive definite model by primal-dual active sets from the Newton
    point's face, or None when a residual passes ``tol`` or the sets cycle.
    The trust region's ``_box_minimizer`` must return these bits."""
    S, h, delta = model.symmetric_coupling(), model.field, model.delta
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    u = np.linalg.solve(S, -h)
    up, lo = u > delta, u < -delta
    if not (up.any() or lo.any()):
        return u if np.linalg.norm(S @ u + h) <= tol else None
    seen = set()
    while (sets := (up.tobytes(), lo.tobytes())) not in seen:
        seen.add(sets)
        free = ~(up | lo)
        u = np.where(up, delta, np.where(lo, -delta, 0.0))
        rhs = -(h[free] + S[np.ix_(free, ~free)] @ u[~free])
        u[free] = np.linalg.solve(S[np.ix_(free, free)], rhs)
        g = S @ u + h
        if np.linalg.norm(g[free]) > tol:
            return None
        up = (free & (u > delta)) | (up & (g < 0.0))
        lo = (free & (u < -delta)) | (lo & (g > 0.0))
        if (up.tobytes(), lo.tobytes()) == sets:
            return u
    return None


def finite_difference_gradient(f, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def finite_difference_hessian(f, theta, h: float = 1e-4) -> np.ndarray:
    """Symmetric four-point Hessian of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (f(theta + ei) - 2.0 * f(theta) + f(theta - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(theta + ei + ej)
                - f(theta + ei - ej)
                - f(theta - ei + ej)
                + f(theta - ei - ej)
            ) / (4.0 * h * h)
    return H


def finite_diff_check(objective: Objective, theta, h: float = 1e-5):
    """Max relative error of analytic gradient and Hessian at one point.

    Errors are infinity-norm deviations against central differences, scaled
    by max(1, reference magnitude). The Hessian uses a wider step than the
    gradient because the four-point formula loses more digits to roundoff.
    """
    theta = np.asarray(theta, dtype=float)
    fd_g = finite_difference_gradient(objective.value, theta, h)
    g = objective.gradient(theta)
    grad_err = float(np.max(np.abs(fd_g - g)) / max(1.0, np.max(np.abs(g))))

    fd_h = finite_difference_hessian(objective.value, theta, max(h, 1e-4))
    H = objective.hessian(theta)
    hess_err = float(np.max(np.abs(fd_h - H)) / max(1.0, np.max(np.abs(H))))
    return grad_err, hess_err


def make_objective(dim, value, gradient=None, hessian=None, optimum=None):
    """Objective with missing derivatives filled in by central differences."""
    if gradient is None:
        gradient = lambda t: finite_difference_gradient(value, t)
    if hessian is None:
        hessian = lambda t: finite_difference_hessian(value, t)
    return Objective(dim, value, gradient, hessian, optimum)
