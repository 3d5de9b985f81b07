"""Trust-region driver whose subproblems are box-constrained quadratics.

Each outer iteration builds the local quadratic model, hands it to one of
three interchangeable subproblem backends (the iterative machine, the exact
ball solver on the inscribed ball, or the grid oracle), and adapts the trust
radius from the realized-versus-predicted reduction. The machine backend
runs the machine's inexact variant with momentum, not the paper's machine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .ecim import DivergenceError, EcimConfig, project_box, run_ecim
from .model import Objective, QuadraticModel, build_subproblem, energy
from .oracles import NumericalError, exact_ball_minimize, grid_minimize_box
from .writers import write_csv

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

    resolution: float = 0.01


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
    The machine starts from 0, or with ``warm_start`` from the previous
    step when that point, clipped to the box, has negative model energy.
    """

    delta0: float = 1.0
    delta_max: float = 100.0
    mu: float = 0.1
    eta: float = 0.75
    iterations: int = 100
    solver: SubproblemSolver = field(default_factory=EcimConfig)
    gtol: float | None = 1e-8
    scaling: np.ndarray | None = None
    warm_start: bool = False

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


def solve_subproblem(
    model: QuadraticModel,
    solver: SubproblemSolver,
    seed: int = 0,
    s0: np.ndarray | None = None,
    scaling: np.ndarray | None = None,
):
    """Minimize one subproblem with the selected backend.

    With a ``scaling`` D of shape (n,) and positive entries, the backend
    solves the model in ``u = D s`` coordinates, ``D^-1 J D^-1`` and
    ``D^-1 h`` on the same box, and the step is mapped back to
    ``s = D^-1 u``; ``s0`` is given in u coordinates, and a scaling of
    another shape raises ``ValueError``. Returns ``(step, value)`` with the
    value measured by the unscaled model.

    The machine backend is an inexact solver: ``run_ecim`` with a ``tol``,
    the machine's step with momentum, started at ``s0`` clipped to the box
    when its working-model energy is below E(0) = 0, else at 0, stopped at
    the first step whose gradient-mapping norm is at most ``min(0.1, ||h||)
    ||h||`` (a forcing term, Dembo, Eisenstat & Steihaug 1982), h the
    working model's field. From 0 its first step is the projected 1/L step,
    a Cauchy-like point, and the best iterate it returns is never worse than
    that step; from either start it is never worse than 0. Started at 0
    without noise, a zero field stops it there after one step.
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
    if isinstance(solver, EcimConfig):
        if s0 is not None:
            s0 = project_box(s0, work.delta)
            if not energy(work, s0) < 0.0:
                s0 = None
        h_norm = float(np.linalg.norm(work.field))
        trace = run_ecim(
            work, replace(solver, seed=seed), s0, tol=min(0.1, h_norm) * h_norm
        )
        u = trace.best_iterate
    elif isinstance(solver, ExactBallSolver):
        u = exact_ball_minimize(work).s_star
    elif isinstance(solver, GridSolver):
        u = grid_minimize_box(work, solver.resolution).s_star
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

    def to_csv(self, path) -> None:
        """One row per outer iteration: t, delta, rho, f, grad_norm,
        model_value, step_inf_norm, accepted, solver_failed."""
        write_csv(
            path,
            [
                "t",
                "delta",
                "rho",
                "f",
                "grad_norm",
                "model_value",
                "step_inf_norm",
                "accepted",
                "solver_failed",
            ],
            (
                [
                    r.t,
                    float(r.delta),
                    r.rho,
                    r.f_value,
                    r.grad_norm,
                    r.model_value,
                    r.step_inf_norm,
                    r.accepted,
                    r.solver_failed,
                ]
                for r in self.records
            ),
        )


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
    starts from 0 and draws nothing, so the seed does not matter.

    Raises
    ------
    RuntimeError
        When the objective is not finite at the start point.
    """
    theta = np.array(theta0, dtype=float)
    if theta.shape != (objective.dim,):
        raise ValueError(f"theta0 shape {theta.shape}, expected ({objective.dim},)")
    delta = config.delta0
    f_cur = objective.value(theta)
    if not math.isfinite(f_cur):
        raise RuntimeError(f"objective is not finite at the start point: {f_cur!r}")

    base_seed = config.solver.seed if isinstance(config.solver, EcimConfig) else 0
    scaling = config.scaling
    records: list[TrustRegionRecord] = []
    converged = False
    previous_step: np.ndarray | None = None
    # The gradient and the model at theta, kept until a step is accepted: a
    # rejected iteration only changes the radius.
    grad: np.ndarray | None = None
    model: QuadraticModel | None = None

    for t in range(config.iterations):
        if grad is None:
            grad = objective.gradient(theta)
            grad_norm = float(np.linalg.norm(grad))
        if config.gtol is not None and grad_norm <= config.gtol:
            converged = True
            break

        if model is None:
            model = build_subproblem(objective, theta, delta, gradient=grad)
        else:
            model = replace(model, delta=delta)
        s0 = None
        if config.warm_start and previous_step is not None:
            s0 = previous_step if scaling is None else scaling * previous_step

        # rho is the realized over the predicted reduction, both less a
        # roundoff floor. A failed solve, or a model that predicts no
        # decrease, leaves rho nan, and a non-finite trial value sets it to
        # -inf: the step is rejected and the radius shrinks. The trial value
        # is evaluated once, and only for a predicted decrease; on acceptance
        # it becomes the current value.
        rho = math.nan
        try:
            step, mval = solve_subproblem(
                model, config.solver, seed=base_seed + t, s0=s0, scaling=scaling
            )
        except (DivergenceError, NumericalError):
            step, mval, step_inf = None, math.nan, math.nan
        else:
            # Boundary contact is judged in solver coordinates, where the box
            # actually lives.
            u = step if scaling is None else scaling * step
            step_inf = float(np.max(np.abs(u)))
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
            previous_step = step
            grad = model = None

    if not converged and config.gtol is not None:
        if grad is None:
            grad = objective.gradient(theta)
        converged = float(np.linalg.norm(grad)) <= config.gtol

    return TrustRegionTrace(records=records, theta_final=theta, converged=converged)
