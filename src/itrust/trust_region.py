"""Trust-region driver whose subproblems are box-constrained quadratics.

Each outer iteration builds the local quadratic model, hands it to one of
three interchangeable subproblem backends (the iterative machine, the exact
ball solver on the inscribed ball, or the grid oracle), and adapts the trust
radius from the realized-versus-predicted reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .ecim import DivergenceError, EcimConfig, run_ecim
from .model import Objective, QuadraticModel, build_subproblem, energy
from .oracles import NumericalError, exact_ball_minimize, grid_minimize_box
from .writers import write_csv, write_json

# Predicted reductions smaller than this are indistinguishable from roundoff;
# the reduction ratio is undefined there.
DEGENERATE_MODEL_TOL = 1e-14

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

    ``mu`` is the rejection threshold and ``1 - mu`` the growth threshold of
    the radius update; ``eta`` is the acceptance threshold. ``gtol`` of None
    disables the gradient-norm early stop. ``scaling`` is the diagonal of an
    elliptical scaling D: every subproblem is solved in ``u = D s``
    coordinates, where the box ``|u_i| <= delta`` bounds ``||D s||_inf``. Its
    entries must be positive and finite, and its shape that of ``theta0``.
    With ``warm_start`` the machine starts from the previous step instead of
    a fresh random point.
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
    """Next trust radius: shrink below ``mu``, grow above ``1 - mu`` when the
    step touched the box boundary, otherwise keep. A nan ratio (failed solve,
    degenerate or non-decreasing model step) shrinks."""
    if not rho >= config.mu:
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
        trace = run_ecim(work, replace(solver, seed=seed), s0=s0)
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
    is nan for rejected-degenerate and failed iterations, and -inf when the
    objective is not finite at the trial point."""

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

    def to_json(self, path) -> None:
        payload = {
            "converged": bool(self.converged),
            "theta_final": self.theta_final.tolist(),
            "records": [
                {
                    "t": r.t,
                    "theta": r.theta.tolist(),
                    "delta": float(r.delta),
                    "rho": float(r.rho),
                    "step": None if r.step is None else r.step.tolist(),
                    "model_value": float(r.model_value),
                    "f_value": float(r.f_value),
                    "accepted": bool(r.accepted),
                    "grad_norm": float(r.grad_norm),
                    "step_inf_norm": float(r.step_inf_norm),
                    "solver_failed": bool(r.solver_failed),
                }
                for r in self.records
            ],
        }
        write_json(path, payload)


def itrust(
    objective: Objective, config: TrustRegionConfig, theta0: np.ndarray
) -> TrustRegionTrace:
    """Run the trust-region loop from theta0.

    Each iteration solves the box subproblem of half-width ``delta_t``,
    measures the reduction ratio, adapts the radius, and accepts the step
    only when the ratio exceeds ``eta``. Iterations whose predicted
    reduction is non-negative or degenerate, iterations whose solver
    diverged, and iterations whose trial value is not finite (ratio -inf,
    as in Conn, Gould & Toint, section 6.1) are rejected with a radius
    shrink. The gradient and the Hessian are evaluated once per accepted
    point: a rejected iteration reuses them. A machine backend is reseeded
    per iteration (base seed plus t) so runs are reproducible.

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

        # rho is the realized over the predicted reduction. A failed solve, or
        # a predicted reduction that is non-negative or degenerate, leaves rho
        # nan, and a non-finite trial value sets it to -inf: the step is
        # rejected and the radius shrinks. The trial value is evaluated once,
        # and only for a predicted decrease; on acceptance it becomes the
        # current value.
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
            if not (mval >= 0.0 or abs(mval) < DEGENERATE_MODEL_TOL):
                trial = theta + step
                f_trial = objective.value(trial)
                rho = (f_trial - f_cur) / mval if math.isfinite(f_trial) else -math.inf

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
