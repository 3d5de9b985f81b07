"""Quadratic subproblem container and smooth objective wrapper.

The box-constrained quadratic ``E(s) = 0.5 <s, J s> + <h, s>`` over
``|s_i| <= delta`` is the unit of work handed to every subproblem solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hessians are accepted as symmetric up to this tolerance (scaled by the
# matrix magnitude) and then explicitly symmetrized.
SYMMETRY_TOL = 1e-10


def _as_readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuadraticModel:
    """Box-constrained quadratic ``E(s) = 0.5 s'Js + h's`` on ``|s_i| <= delta``.

    Parameters
    ----------
    coupling : ndarray, shape (n, n), n >= 1
        Coupling matrix J. May be asymmetric; the energy value uses it as
        given, while gradients use the symmetric part.
    field : ndarray, shape (n,)
        Linear field h.
    delta : float
        Box half-width, strictly positive.
    """

    coupling: np.ndarray
    field: np.ndarray
    delta: float

    def __post_init__(self):
        J = _as_readonly(self.coupling)
        h = _as_readonly(self.field)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] == 0:
            raise ValueError(f"coupling must be square and non-empty, got {J.shape}")
        if h.shape != (J.shape[0],):
            raise ValueError(
                f"field shape {h.shape} does not match coupling {J.shape}"
            )
        if not (np.isfinite(J).all() and np.isfinite(h).all()):
            raise ValueError("coupling and field must be finite")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "coupling", J)
        object.__setattr__(self, "field", h)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def dim(self) -> int:
        return self.field.shape[0]

    def symmetric_coupling(self) -> np.ndarray:
        """Symmetric part of J, the matrix the gradient actually sees."""
        return 0.5 * (self.coupling + self.coupling.T)


def energy(model: QuadraticModel, s: np.ndarray) -> float:
    """Energy ``0.5 <s, J s> + <h, s>`` with J exactly as stored."""
    s = np.asarray(s, dtype=float)
    return float(0.5 * s @ (model.coupling @ s) + model.field @ s)


class Objective:
    """Twice-differentiable objective with analytic or supplied derivatives.

    ``hessian(theta)`` must be symmetric to within ``SYMMETRY_TOL`` (scaled);
    the wrapper symmetrizes the result before returning it, and raises
    ``FloatingPointError`` when an entry is not finite.
    """

    def __init__(
        self,
        dim: int,
        value: Callable[[np.ndarray], float],
        gradient: Callable[[np.ndarray], np.ndarray],
        hessian: Callable[[np.ndarray], np.ndarray],
        optimum: np.ndarray | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self.optimum = None if optimum is None else _as_readonly(optimum)

    def value(self, theta: np.ndarray) -> float:
        return float(self._value(np.asarray(theta, dtype=float)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        # Contiguous, so that sqrt(g.dot(g)) has np.linalg.norm's bits: on a
        # strided array BLAS sums the products in another order.
        g = np.asarray(
            self._gradient(np.asarray(theta, dtype=float)), dtype=float, order="C"
        )
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape}, expected ({self.dim},)")
        return g

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        H = np.asarray(self._hessian(np.asarray(theta, dtype=float)), dtype=float)
        if H.shape != (self.dim, self.dim):
            raise ValueError(
                f"hessian shape {H.shape}, expected ({self.dim}, {self.dim})"
            )
        H_max = float(np.abs(H).max())
        if not math.isfinite(H_max):
            raise FloatingPointError("hessian is not finite")
        if np.abs(H - H.T).max() > SYMMETRY_TOL * max(1.0, H_max):
            raise ValueError("hessian is not symmetric within tolerance")
        return 0.5 * (H + H.T)


def build_subproblem(
    objective: Objective,
    theta: np.ndarray,
    delta: float,
    gradient: np.ndarray,
) -> QuadraticModel:
    """Local quadratic model at theta: J is the Hessian, h the given
    ``gradient`` at theta, and the box half-width is the current trust
    radius."""
    return QuadraticModel(
        coupling=objective.hessian(theta),
        field=gradient,
        delta=delta,
    )
