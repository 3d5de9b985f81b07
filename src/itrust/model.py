"""Quadratic subproblem container and smooth objective wrapper.

The box-constrained quadratic ``E(s) = 0.5 <s, J s> + <h, s>`` over
``|s_i| <= delta`` is the unit of work handed to every subproblem solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hessians are accepted as symmetric up to this tolerance (scaled by the
# matrix magnitude) and then explicitly symmetrized.
SYMMETRY_TOL = 1e-10


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuadraticModel:
    """Box-constrained quadratic ``E(s) = 0.5 s'Js + h's`` on ``|s_i| <= delta``.

    Parameters
    ----------
    coupling : ndarray, shape (n, n)
        Coupling matrix J. May be asymmetric; the energy value uses it as
        given, while gradients use the symmetric part.
    field : ndarray, shape (n,)
        Linear field h.
    delta : float
        Box half-width, strictly positive.
    scaling : ndarray, shape (n,), optional
        Diagonal of an elliptical scaling D. When present, solvers operate on
        the transformed model returned by :meth:`in_scaled_coordinates` and
        map points back with :meth:`from_scaled`.
    """

    coupling: np.ndarray
    field: np.ndarray
    delta: float
    scaling: np.ndarray | None = None

    def __post_init__(self):
        J = _as_readonly(self.coupling)
        h = _as_readonly(self.field)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"coupling must be square, got shape {J.shape}")
        if h.shape != (J.shape[0],):
            raise ValueError(
                f"field shape {h.shape} does not match coupling {J.shape}"
            )
        if not np.all(np.isfinite(J)) or not np.all(np.isfinite(h)):
            raise ValueError("coupling and field must be finite")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "coupling", J)
        object.__setattr__(self, "field", h)
        object.__setattr__(self, "delta", float(self.delta))
        if self.scaling is not None:
            d = _as_readonly(self.scaling)
            if d.shape != h.shape:
                raise ValueError("scaling must match the field dimension")
            if np.any(d < 0.0) or not np.any(d > 0.0):
                raise ValueError("scaling entries must be >= 0 with one > 0")
            object.__setattr__(self, "scaling", d)

    @property
    def dim(self) -> int:
        return self.field.shape[0]

    def symmetric_coupling(self) -> np.ndarray:
        """Symmetric part of J, the matrix the gradient actually sees."""
        return 0.5 * (self.coupling + self.coupling.T)

    def in_scaled_coordinates(self) -> "QuadraticModel":
        """Return the model expressed in u = D s coordinates.

        Transforms J -> D^-1 J D^-1 and h -> D^-1 h; the box half-width is
        unchanged because it now constrains u. Requires strictly positive
        scaling entries.
        """
        if self.scaling is None:
            return self
        if np.any(self.scaling == 0.0):
            raise ValueError("scaling with zero entries cannot be inverted")
        inv = 1.0 / self.scaling
        J = self.coupling * np.outer(inv, inv)
        h = self.field * inv
        return QuadraticModel(J, h, self.delta)

    def from_scaled(self, u: np.ndarray) -> np.ndarray:
        """Map a point from u = D s coordinates back to the original ones."""
        if self.scaling is None:
            return np.array(u, dtype=float)
        return np.asarray(u, dtype=float) / self.scaling


def energy(model: QuadraticModel, s: np.ndarray) -> float:
    """Energy ``0.5 <s, J s> + <h, s>`` with J exactly as stored."""
    s = np.asarray(s, dtype=float)
    return float(0.5 * s @ (model.coupling @ s) + model.field @ s)


class Objective:
    """Twice-differentiable objective with analytic or supplied derivatives.

    ``hessian(theta)`` must be symmetric to within ``SYMMETRY_TOL`` (scaled);
    the wrapper symmetrizes the result before returning it.
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
        g = np.asarray(self._gradient(np.asarray(theta, dtype=float)), dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape}, expected ({self.dim},)")
        return g

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        H = np.asarray(self._hessian(np.asarray(theta, dtype=float)), dtype=float)
        if H.shape != (self.dim, self.dim):
            raise ValueError(
                f"hessian shape {H.shape}, expected ({self.dim}, {self.dim})"
            )
        scale = max(1.0, float(np.max(np.abs(H))))
        if np.max(np.abs(H - H.T)) > SYMMETRY_TOL * scale:
            raise ValueError("hessian is not symmetric within tolerance")
        return 0.5 * (H + H.T)


def build_subproblem(
    objective: Objective,
    theta: np.ndarray,
    delta: float,
    scaling: np.ndarray | None = None,
    gradient: np.ndarray | None = None,
) -> QuadraticModel:
    """Local quadratic model at theta: J is the Hessian, h the gradient,
    and the box half-width is the current trust radius. A caller that has
    the gradient at theta already passes it as ``gradient``."""
    theta = np.asarray(theta, dtype=float)
    return QuadraticModel(
        coupling=objective.hessian(theta),
        field=objective.gradient(theta) if gradient is None else gradient,
        delta=delta,
        scaling=scaling,
    )
