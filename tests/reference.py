"""Reference definitions the tests compare the package against.

Plain, unoptimized forms of one machine step, its gradient mapping, the
energy gradient, and central-difference derivatives. Only tests call them.
"""

from __future__ import annotations

import numpy as np

from itrust import Objective, QuadraticModel, project_box


def energy_gradient(model: QuadraticModel, s: np.ndarray) -> np.ndarray:
    """Gradient ``0.5 (J + J') s + h`` of the energy."""
    s = np.asarray(s, dtype=float)
    return model.symmetric_coupling() @ s + model.field


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
