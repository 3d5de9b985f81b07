"""Reference solvers: exhaustive box grid search and an exact ball solver.

Both are ground-truth oracles for the iterative machine: the grid oracle
brackets the box minimum for small dimensions, and the ball solver gives the
exact constrained minimizer on the inscribed Euclidean ball via the
eigendecomposition of the (symmetrized) coupling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ecim import EcimConfig, run_ecim
from .model import QuadraticModel, energy

# Lattice points per axis over [-delta, delta], by dimension: the spacing is
# 0.001, 0.005, 0.02 and 0.05 at delta = 0.5, and the lattice never holds
# more than 21^4 points. The keys are the dimensions the oracle supports.
GRID_POINTS = {1: 1001, 2: 201, 3: 51, 4: 21}

# Noise-free 1/L steps that polish the best lattice point.
POLISH_STEPS = 400

# Points per evaluated block: the trailing axes of a block grow until it holds
# at least _SLAB_POINTS, so that a block's arrays stay in cache.
_SLAB_POINTS = 2048

# Bisection steps allowed for the ball-constraint multiplier.
_BALL_MAX_ITER = 200


class OracleCapabilityError(ValueError):
    """Requested a reference solve outside the oracle's supported range."""


class NumericalError(RuntimeError):
    """A reference solve failed to converge to its internal tolerance."""


@dataclass(frozen=True)
class OracleSolution:
    """Reference minimizer and its value.

    ``resolution`` is the realized lattice spacing (grid oracle only) and
    ``multiplier`` the ball-constraint multiplier (exact ball only).
    """

    s_star: np.ndarray
    value: float
    resolution: float | None = None
    multiplier: float | None = None


def _batch_energy(S: np.ndarray, h: np.ndarray, points: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ij,ij->i", points @ S, points) + points @ h


def grid_minimize_box(model: QuadraticModel) -> OracleSolution:
    """Exhaustive lattice minimization over the box, then a local polish.

    The lattice has ``GRID_POINTS[n]`` points per axis, evenly spaced over
    ``[-delta, delta]`` and including both endpoints, whatever delta is. Ties
    are broken toward the lexicographically smallest lattice index so
    repeated calls are byte-stable. The best lattice point is then polished
    by a noise-free ``run_ecim`` of ``POLISH_STEPS`` steps at ``1 / L`` (L
    the spectral radius of the symmetric coupling), kept only when it lowers
    the energy.

    Raises
    ------
    OracleCapabilityError
        For dimensions other than the keys of ``GRID_POINTS``.
    DivergenceError
        When an energy of the polish run is beyond ``DIVERGENCE_LIMIT``
        (1e12).
    """
    n = model.dim
    if n not in GRID_POINTS:
        raise OracleCapabilityError(
            f"grid oracle supports n <= {max(GRID_POINTS)}, got n = {n}"
        )

    delta = model.delta
    count = GRID_POINTS[n]
    axis = np.linspace(-delta, delta, count)
    S = model.symmetric_coupling()
    h = model.field

    # Scan in lexicographic index order, fixing leading coordinates and
    # vectorizing over the trailing ones; a strict < keeps the first minimum.
    n_tail = 1
    while n_tail < n and count**n_tail < _SLAB_POINTS:
        n_tail += 1
    # Write the tail lattice once, axis j broadcast along tail dimension j.
    block = np.empty((count**n_tail, n))
    tail = block.reshape((count,) * n_tail + (n,))
    for j in range(n_tail):
        shape = (count,) + (1,) * (n_tail - 1 - j)
        tail[..., n - n_tail + j] = axis.reshape(shape)

    best_val = math.inf
    best_point = None
    for prefix in itertools.product(*[axis] * (n - n_tail)):
        if prefix:
            block[:, : n - n_tail] = prefix
        vals = _batch_energy(S, h, block)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_point = block[i].copy()

    # A zero symmetric coupling has no 1/L step, and its lattice minimum is a
    # corner, which no step improves.
    if S.any():
        config = EcimConfig(iterations=POLISH_STEPS)
        trace = run_ecim(model, config, s0=best_point, keep_iterates=True)
        s = trace.iterates[-1].copy()
        polished = energy(model, s)
        if polished < best_val:
            best_val = polished
            best_point = s

    return OracleSolution(
        s_star=best_point, value=best_val, resolution=2.0 * delta / (count - 1)
    )


def exact_ball_minimize(model: QuadraticModel) -> OracleSolution:
    """Exact minimizer of ``<g, p> + 0.5 <p, H p>`` over ``||p||_2 <= delta``.

    ``g``, ``H`` and ``delta`` are the model's field, symmetric coupling and
    half-width, so the ball is inscribed in the model's box. Takes the full
    Newton step when H is positive semidefinite and the step fits in the
    ball. Otherwise finds the multiplier ``lam >= max(0, -lam_min)`` with
    ``||(H + lam I)^-1 g|| = delta`` by safeguarded bisection on its shift
    above ``max(0, -lam_min)``, to a relative 1e-12; when the
    gradient has no component on the minimal eigenspace and the residual
    norm stays below delta there, the solution is completed with a minimal
    eigenvector (the hard case).

    Raises
    ------
    NumericalError
        If the bisection fails to bracket the multiplier's shift to relative
        tolerance 1e-12 within ``_BALL_MAX_ITER`` iterations.
    """
    g = model.field
    H = model.symmetric_coupling()
    delta = model.delta
    scale = max(1.0, float(np.max(np.abs(H))))

    w, Q = np.linalg.eigh(H)
    gt = Q.T @ g
    lam_floor = max(0.0, -float(w[0]))
    floor = w + lam_floor  # the eigenvalues of H + lam_floor I
    g_norm = float(np.linalg.norm(g))

    # Both take the eigenvalues of H + lam I.
    def point(shifted: np.ndarray, keep: np.ndarray) -> np.ndarray:
        coeff = np.zeros_like(gt)
        coeff[keep] = gt[keep] / shifted[keep]
        return -(Q @ coeff)

    def residual_norm(shifted: np.ndarray, keep: np.ndarray) -> float:
        # A pole at lam == -w_min maps to inf, which the bisection treats as
        # "residual too large" and moves past.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = float(np.linalg.norm(gt[keep] / shifted[keep]))
        return math.inf if math.isnan(r) else r

    def solution(p: np.ndarray, lam: float) -> OracleSolution:
        value = float(g @ p + 0.5 * p @ (H @ p))
        return OracleSolution(p, value, multiplier=lam)

    all_keep = np.ones_like(w, dtype=bool)

    # Positive semidefinite branch: try the (pseudo-)Newton step.
    if w[0] >= -1e-14 * scale:
        pos = w > 1e-14 * scale
        if np.all(np.abs(gt[~pos]) <= 1e-12 * max(1.0, g_norm)):
            p = point(w, pos)
            if np.linalg.norm(p) <= delta:
                return solution(p, 0.0)

    # Hard case: no gradient on the minimal eigenspace and the remaining
    # residual fits strictly inside the ball at the smallest admissible lam.
    if lam_floor > 0.0:
        minimal = w - w[0] <= 1e-10 * scale
        if np.all(np.abs(gt[minimal]) <= 1e-11 * max(1.0, g_norm)):
            perp = ~minimal
            r = residual_norm(floor, perp) if np.any(perp) else 0.0
            if r < delta:
                p = point(floor, perp)
                tau = math.sqrt(max(delta * delta - r * r, 0.0))
                p = p + tau * Q[:, 0]
                return solution(p, lam_floor)

    # Regular case: the residual norm is decreasing in lam, with a pole at
    # lam_floor unless the gradient misses the minimal eigenspace. Bisect on
    # the shift t = lam - lam_floor, over the bracket [0, |g|/delta], to a
    # relative 1e-12: ||p|| is then within a relative 1e-12 of delta too,
    # however close the pole or small the multiplier.
    lo = 0.0
    hi = g_norm / delta + 1e-12 * max(1.0, scale)
    grow = 0
    while residual_norm(floor + hi, all_keep) >= delta:
        hi *= 2.0
        grow += 1
        if grow > 64:
            raise NumericalError("failed to bracket the ball multiplier")

    it = 0
    while hi - lo > 1e-12 * hi:
        if it >= _BALL_MAX_ITER:
            raise NumericalError(
                f"ball multiplier bisection did not converge in {_BALL_MAX_ITER} steps"
            )
        mid = 0.5 * (lo + hi)
        if residual_norm(floor + mid, all_keep) > delta:
            lo = mid
        else:
            hi = mid
        it += 1

    return solution(point(floor + hi, all_keep), lam_floor + hi)
