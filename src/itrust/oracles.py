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

# Exhaustive search is limited to dimensions where the lattice is tractable.
GRID_MAX_DIM = 4

# Lattice points one grid solve may scan. A scan at the cap takes 1.7, 3.0
# and 3.2 s at n = 2, 3 and 4 on a 2-core x86-64 host, BLAS on one thread.
GRID_MAX_POINTS = 100_000_000

# Points per evaluated block: the trailing axes of a block grow until it holds
# at least _SLAB_POINTS, so that a block's arrays stay in cache, and never
# past _BLOCK_LIMIT, which keeps the scan out of large allocations. A single
# trailing axis longer than _BLOCK_LIMIT is scanned in runs of that many.
_SLAB_POINTS = 2048
_BLOCK_LIMIT = 2_000_000

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


def grid_minimize_box(
    model: QuadraticModel, resolution: float, polish_steps: int = 100
) -> OracleSolution:
    """Exhaustive lattice minimization over the box, then a local polish.

    The lattice spans ``[-delta, delta]`` per axis with spacing at most
    ``resolution`` and always includes both endpoints. Ties are broken toward
    the lexicographically smallest lattice index so repeated calls are
    byte-stable. The best lattice point is then polished by a noise-free
    ``run_ecim`` of ``polish_steps`` steps at ``1 / L`` (L the spectral
    radius of the symmetric coupling), kept only when it lowers the energy.

    Raises
    ------
    OracleCapabilityError
        For dimensions above ``GRID_MAX_DIM``, or a lattice of more than
        ``GRID_MAX_POINTS`` points.
    DivergenceError
        When an energy of the polish run is beyond ``DIVERGENCE_LIMIT``
        (1e12).
    """
    n = model.dim
    if n > GRID_MAX_DIM:
        raise OracleCapabilityError(
            f"grid oracle supports n <= {GRID_MAX_DIM}, got n = {n}"
        )
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")

    delta = model.delta
    count = max(2, int(math.ceil(2.0 * delta / resolution)) + 1)
    if count**n > GRID_MAX_POINTS:
        raise OracleCapabilityError(
            f"grid oracle scans at most {GRID_MAX_POINTS} points, got "
            f"{count}^{n} (delta {delta}, resolution {resolution})"
        )
    spacing = 2.0 * delta / (count - 1)
    S = model.symmetric_coupling()
    h = model.field

    # Scan in lexicographic index order, fixing leading coordinates and
    # vectorizing over the trailing ones; a strict < keeps the first minimum.
    n_tail = 1
    while (
        n_tail < n
        and count**n_tail < _SLAB_POINTS
        and count ** (n_tail + 1) <= _BLOCK_LIMIT
    ):
        n_tail += 1
    rows = count**n_tail
    run = min(rows, _BLOCK_LIMIT)
    # A one-axis tail longer than a block is built a run at a time, so the
    # whole axis is held only where a block or the lead axes need it.
    axis = np.linspace(-delta, delta, count) if run == rows or n_tail < n else None
    lead_axes = [axis] * (n - n_tail)
    block = np.empty((run, n))
    if run == rows:
        # Write the tail lattice once, axis j broadcast along tail dimension j.
        tail = block.reshape((count,) * n_tail + (n,))
        for j in range(n_tail):
            shape = (count,) + (1,) * (n_tail - 1 - j)
            tail[..., n - n_tail + j] = axis.reshape(shape)

    best_val = math.inf
    best_point = None
    for prefix in itertools.product(*lead_axes):
        if prefix:
            block[:, : n - n_tail] = prefix
        for lo in range(0, rows, run):
            points = block
            if run < rows:
                # Only a one-axis tail outgrows a block: a run is a piece of
                # it, computed as np.linspace computes its points.
                hi = min(lo + run, count)
                points = block[: hi - lo]
                points[:, -1] = np.arange(lo, hi, dtype=float) * spacing - delta
                if hi == count:
                    points[-1, -1] = delta
            vals = _batch_energy(S, h, points)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_point = points[i].copy()

    # A zero symmetric coupling has no 1/L step, and its lattice minimum is a
    # corner, which no step improves.
    if polish_steps > 0 and S.any():
        config = EcimConfig(iterations=polish_steps)
        trace = run_ecim(model, config, s0=best_point, keep_iterates=True)
        s = trace.iterates[-1].copy()
        polished = energy(model, s)
        if polished < best_val:
            best_val = polished
            best_point = s

    return OracleSolution(s_star=best_point, value=best_val, resolution=spacing)


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
