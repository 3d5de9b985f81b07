"""Trust-region driver whose subproblems are box-constrained quadratics.

Each outer iteration builds the local quadratic model, hands it to one of
three interchangeable subproblem backends (the iterative machine, the exact
ball solver on the inscribed ball, or the grid oracle), and adapts the trust
radius from the realized-versus-predicted reduction. The machine backend
runs the machine's inexact variant with momentum, not the paper's machine,
and neither it nor the grid runs when the model is positive definite and
its box minimum is found by active sets: that point is returned instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .ecim import DivergenceError, EcimConfig, run_ecim
from .model import Objective, QuadraticModel, build_subproblem, energy
from .oracles import NumericalError, exact_ball_minimize, grid_minimize_box

# The ratio test subtracts this many ulps of max(1, |f|) from both reductions,
# so that a predicted decrease lost in roundoff reads as a ratio near 1, not
# as noise (Conn, Gould & Toint 2000, section 17.4.2).
ROUNDOFF_ULPS = 10.0

# Keeps the radius constructible after long runs of rejected iterations.
_DELTA_FLOOR = 1e-300

# Radius update factors (Nocedal & Wright, Alg. 4.1), and the tolerance,
# scaled by max(1, delta), within which a step touches the box boundary.
SHRINK_FACTOR = 0.25
GROW_FACTOR = 2.0
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ExactBallSolver:
    """Solve each subproblem exactly on the inscribed Euclidean ball."""


@dataclass(frozen=True)
class GridSolver:
    """Solve each subproblem with the exhaustive grid oracle."""


SubproblemSolver = Union[EcimConfig, ExactBallSolver, GridSolver]


@dataclass(frozen=True)
class TrustRegionConfig:
    """Outer-loop hyperparameters.

    ``eta`` is the acceptance threshold: a step is accepted when the
    reduction ratio exceeds it, and every rejected step shrinks the radius.
    ``mu`` sets only the growth threshold ``1 - mu``. The paper rejects
    without shrinking for ratios in ``[mu, eta]``; that dead band lets a
    deterministic solver return the same step forever, so it is not kept
    (Nocedal & Wright, Alg. 4.1). ``gtol`` of None
    disables the gradient-norm early stop. ``scaling`` is the diagonal of an
    elliptical scaling D: every subproblem is solved in ``u = D s``
    coordinates, where the box ``|u_i| <= delta`` bounds ``||D s||_inf``. Its
    entries must be positive and finite, and its shape that of ``theta0``.
    """

    delta0: float = 1.0
    delta_max: float = 100.0
    mu: float = 0.1
    eta: float = 0.75
    iterations: int = 100
    solver: SubproblemSolver = field(default_factory=EcimConfig)
    gtol: float | None = 1e-8
    scaling: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.delta0 <= self.delta_max:
            raise ValueError(
                f"need 0 < delta0 <= delta_max, got {self.delta0}, {self.delta_max}"
            )
        if not 0.0 < self.mu < self.eta < 1.0:
            raise ValueError(f"need 0 < mu < eta < 1, got {self.mu}, {self.eta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.gtol is not None and not self.gtol >= 0.0:
            raise ValueError(f"gtol must be >= 0 or None, got {self.gtol}")
        if self.scaling is not None:
            d = np.array(self.scaling, dtype=float)
            if not np.all(np.isfinite(d) & (d > 0.0)):
                raise ValueError(
                    f"scaling entries must be positive and finite, got {d}"
                )
            d.setflags(write=False)
            object.__setattr__(self, "scaling", d)


def update_radius(
    rho: float, delta: float, step_inf_norm: float, config: TrustRegionConfig
) -> float:
    """Next trust radius: shrink on every rejection (a ratio not above
    ``eta``, nan included: a failed solve or a model step that predicts no
    decrease), grow above ``1 - mu`` when the step touched the box boundary,
    otherwise keep."""
    if not rho > config.eta:
        return SHRINK_FACTOR * delta
    on_boundary = abs(step_inf_norm - delta) <= BOUNDARY_TOL * max(1.0, delta)
    if rho > 1.0 - config.mu and on_boundary:
        return min(GROW_FACTOR * delta, config.delta_max)
    return delta


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D float array: the same
    ``sqrt(x.dot(x))`` that ``np.linalg.norm`` computes, without its
    wrapper."""
    return math.sqrt(x.dot(x))


def _box_minimizer(model: QuadraticModel, tol: float) -> np.ndarray | None:
    """The unique box minimum of a positive definite model, else None.

    The Newton point ``u = -S^-1 h`` is returned when it lies in the box and
    ``||S u + h|| <= tol``. When it lies outside, primal-dual active sets
    start from its face (Hintermueller, Ito & Kunisch 2002): each iteration
    fixes the coordinates in ``up`` at +delta and in ``lo`` at -delta,
    solves ``S_FF u_F = -(h_F + S_FB u_B)`` for the free ones, and moves to
    the free coordinates that left the box plus the fixed ones whose
    gradient still points out. Settled sets meet the KKT conditions, and the
    gradient-mapping norm of their point is at most the face residual. A
    residual above ``tol``, sets that revisit an earlier pair, or a solve
    that meets an exactly singular matrix after the Cholesky test passed,
    give None.
    """
    S, h, delta = model.symmetric_coupling(), model.field, model.delta
    try:
        np.linalg.cholesky(S)
        u = np.linalg.solve(S, -h)
    except np.linalg.LinAlgError:
        return None
    up, lo = u > delta, u < -delta
    fixed = up | lo
    if not fixed.any():
        return u if _norm(S @ u + h) <= tol else None
    seen = set()
    while (sets := (up.tobytes(), lo.tobytes())) not in seen:
        seen.add(sets)
        free = ~fixed
        u = np.zeros(h.shape[0])
        u[up] = delta
        u[lo] = -delta
        # compress keeps the rows C-contiguous, so the product sums in the
        # order np.ix_'s selection would; a column mask would not.
        S_F = S[free]
        rhs = -(h[free] + S_F.compress(fixed, axis=1) @ u[fixed])
        try:
            u[free] = np.linalg.solve(S_F.compress(free, axis=1), rhs)
        except np.linalg.LinAlgError:
            return None
        g = S @ u + h
        if _norm(g[free]) > tol:
            return None
        up = (free & (u > delta)) | (up & (g < 0.0))
        lo = (free & (u < -delta)) | (lo & (g > 0.0))
        fixed = up | lo
        if (up.tobytes(), lo.tobytes()) == sets:
            return u
    return None


def solve_subproblem(
    model: QuadraticModel,
    solver: SubproblemSolver,
    seed: int = 0,
    scaling: np.ndarray | None = None,
):
    """Minimize one subproblem with the selected backend.

    With a ``scaling`` D of shape (n,) and positive entries, the backend
    solves the model in ``u = D s`` coordinates, ``D^-1 J D^-1`` and
    ``D^-1 h`` on the same box, and the step is mapped back to
    ``s = D^-1 u``; a scaling of another shape raises ``ValueError``.
    Returns ``(step, value)`` with the value measured by the unscaled model.

    The machine backend is an inexact solver: ``run_ecim`` with a ``tol``,
    the machine's step with momentum, started at 0 and stopped at the first
    step whose gradient-mapping norm is at most ``min(0.1, ||h||) ||h||`` (a
    forcing term, Dembo, Eisenstat & Steihaug 1982), h the working model's
    field. Its first step is the projected 1/L step, a Cauchy-like point,
    so the best iterate it returns is never worse than that step, and never
    worse than 0. Without noise, a zero field stops it at 0 after one step.

    The machine and grid backends first try the box finish: when the
    working model's symmetric coupling S is positive definite (its Cholesky
    factorization succeeds), its Newton point ``u = -S^-1 h`` is returned if
    it lies in the box with ``||S u + h||`` within the same forcing
    tolerance. Otherwise primal-dual active sets run from the Newton point's
    face, one face solve an iteration, until the sets settle at the model's
    unique minimum on the box, which is returned without running the machine
    (or its noise) or the grid. A face solve whose residual misses the
    forcing tolerance, sets that cycle, or a solve that meets an exactly
    singular matrix, hand the model to the backend.
    The exact ball backend keeps its own solve, since its constraint is the
    ball.
    """
    work = model
    if scaling is not None:
        if np.shape(scaling) != (model.dim,):
            raise ValueError(
                f"scaling shape {np.shape(scaling)}, expected ({model.dim},)"
            )
        inv = 1.0 / scaling
        work = QuadraticModel(
            model.coupling * np.outer(inv, inv), model.field * inv, model.delta
        )
    h_norm = _norm(work.field)
    tol = min(0.1, h_norm) * h_norm
    if isinstance(solver, EcimConfig):
        u = _box_minimizer(work, tol)
        if u is None:
            u = run_ecim(work, replace(solver, seed=seed), tol=tol).best_iterate
    elif isinstance(solver, ExactBallSolver):
        u = exact_ball_minimize(work).s_star
    elif isinstance(solver, GridSolver):
        u = _box_minimizer(work, tol)
        if u is None:
            u = grid_minimize_box(work).s_star
    else:
        raise TypeError(f"unknown solver spec {solver!r}")
    step = u if scaling is None else u / scaling
    return step, energy(model, step)


@dataclass
class TrustRegionRecord:
    """One outer iteration. ``step`` is None when the solver failed; ``rho``
    is nan when the solver failed or the model predicts no decrease, and
    -inf when the objective is not finite at the trial point."""

    t: int
    theta: np.ndarray
    delta: float
    rho: float
    step: np.ndarray | None
    model_value: float
    f_value: float
    accepted: bool
    grad_norm: float
    step_inf_norm: float

    @property
    def solver_failed(self) -> bool:
        return self.step is None


@dataclass
class TrustRegionTrace:
    """Per-iteration records plus the final iterate."""

    records: list[TrustRegionRecord]
    theta_final: np.ndarray
    converged: bool

    @property
    def n_iterations(self) -> int:
        return len(self.records)


def itrust(
    objective: Objective, config: TrustRegionConfig, theta0: np.ndarray
) -> TrustRegionTrace:
    """Run the trust-region loop from theta0.

    Each iteration solves the box subproblem of half-width ``delta_t``,
    measures the reduction ratio, adapts the radius, and accepts the step
    only when the ratio exceeds ``eta``; every rejection shrinks the radius.
    For a predicted decrease ``mval < 0`` the ratio is
    ``((f_trial - f) - eps_f) / (mval - eps_f)`` with
    ``eps_f = ROUNDOFF_ULPS * eps * max(1, |f|)`` (Conn, Gould & Toint,
    section 17.4.2), so a step whose reductions are both lost in roundoff
    reads near 1. Iterations whose model predicts no decrease, iterations
    whose solver diverged, and iterations whose trial value is not finite
    (ratio -inf, as in Conn, Gould & Toint, section 6.1) are rejected. The
    gradient and the Hessian are evaluated once per accepted point: a
    rejected iteration reuses them. A machine backend is reseeded per
    iteration (base seed plus t) so runs are reproducible; without noise it
    draws nothing, so the seed does not matter.

    Raises
    ------
    RuntimeError
        When the objective is not finite at the start point, or when the
        gradient's norm or an entry of the Hessian is not finite at an
        accepted point; the message names the iteration.
    """
    theta = np.array(theta0, dtype=float)
    if theta.shape != (objective.dim,):
        raise ValueError(f"theta0 shape {theta.shape}, expected ({objective.dim},)")
    scaling = config.scaling
    if scaling is not None and scaling.shape != theta.shape:
        raise ValueError(f"scaling shape {scaling.shape}, expected {theta.shape}")
    delta = config.delta0
    f_cur = objective.value(theta)
    if not math.isfinite(f_cur):
        raise RuntimeError(f"objective is not finite at the start point: {f_cur!r}")

    base_seed = config.solver.seed if isinstance(config.solver, EcimConfig) else 0
    records: list[TrustRegionRecord] = []
    converged = False
    # The gradient and the model at theta, kept until a step is accepted: a
    # rejected iteration only changes the radius.
    grad: np.ndarray | None = None
    model: QuadraticModel | None = None

    for t in range(config.iterations):
        if grad is None:
            grad = objective.gradient(theta)
            grad_norm = _norm(grad)
            if not math.isfinite(grad_norm):
                raise RuntimeError(f"gradient norm is not finite at iteration {t}")
        if config.gtol is not None and grad_norm <= config.gtol:
            converged = True
            break

        if model is None:
            try:
                model = build_subproblem(objective, theta, delta, gradient=grad)
            except FloatingPointError as exc:
                raise RuntimeError(f"{exc} at iteration {t}") from exc
        else:
            model = replace(model, delta=delta)

        # rho is the realized over the predicted reduction, both less a
        # roundoff floor. A failed solve, or a model that predicts no
        # decrease, leaves rho nan, and a non-finite trial value sets it to
        # -inf: the step is rejected and the radius shrinks. The trial value
        # is evaluated once, and only for a predicted decrease; on acceptance
        # it becomes the current value.
        rho = math.nan
        try:
            step, mval = solve_subproblem(
                model, config.solver, seed=base_seed + t, scaling=scaling
            )
        except (DivergenceError, NumericalError):
            step, mval, step_inf = None, math.nan, math.nan
        else:
            # Boundary contact is judged in solver coordinates, where the box
            # actually lives.
            u = step if scaling is None else scaling * step
            step_inf = float(np.abs(u).max())
            if mval < 0.0:
                trial = theta + step
                f_trial = objective.value(trial)
                if math.isfinite(f_trial):
                    floor = ROUNDOFF_ULPS * sys.float_info.epsilon * max(1.0, abs(f_cur))
                    rho = ((f_trial - f_cur) - floor) / (mval - floor)
                else:
                    rho = -math.inf

        accepted = rho > config.eta
        records.append(
            TrustRegionRecord(
                t=t,
                theta=theta.copy(),
                delta=delta,
                rho=rho,
                step=step,
                model_value=mval,
                f_value=f_cur,
                accepted=accepted,
                grad_norm=grad_norm,
                step_inf_norm=step_inf,
            )
        )
        delta = max(update_radius(rho, delta, step_inf, config), _DELTA_FLOOR)
        if accepted:
            theta = trial
            f_cur = f_trial
            grad = model = None

    if not converged and config.gtol is not None:
        if grad is None:
            grad = objective.gradient(theta)
        converged = _norm(grad) <= config.gtol

    return TrustRegionTrace(records=records, theta_final=theta, converged=converged)
