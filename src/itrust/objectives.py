"""Test problems and constant estimation.

Everything downstream verification needs: a small library of smooth
objectives with analytic derivatives, seeded random subproblem generators,
and estimators for the gradient bound, smoothness, and curvature constants
of a quadratic subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Objective, QuadraticModel

CONVEXITY_CLASSES = ("strongly-convex", "convex", "invex-like", "nonconvex")

# Above this dimension the corner scan for the gradient bound is replaced by
# the norm bound ||S|| * delta * sqrt(n) + ||h||.
_CORNER_MAX_DIM = 20

# Iterates closer to the optimum than this are excluded from curvature-ratio
# estimation; the quotient is pure noise there.
MU_P_GAP_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Problem library


@dataclass(frozen=True)
class TestProblem:
    """Named objective with whatever ground truth is available.

    ``theta_star``/``f_star`` are None when no closed form exists (or, for
    the rank-deficient quadratic, ``theta_star`` is just one minimizer of
    many; compare against ``f_star`` instead). ``scaling`` is a suggested
    elliptical scaling for badly scaled problems.
    """

    name: str
    objective: Objective
    convexity_class: str
    start: np.ndarray
    theta_star: np.ndarray | None = None
    f_star: float | None = None
    scaling: np.ndarray | None = None

    def __post_init__(self):
        if self.convexity_class not in CONVEXITY_CLASSES:
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")


def _quadratic_objective(A: np.ndarray, b: np.ndarray) -> Objective:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return Objective(
        dim=b.size,
        value=lambda t: float(0.5 * t @ (A @ t) + b @ t),
        gradient=lambda t: A @ t + b,
        hessian=lambda t: A.copy(),
    )


def _random_spd(n: int, seed: int, eig_lo: float, eig_hi: float):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(eig_lo, eig_hi, n)
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.normal(size=n)
    return A, b


def _quadratic_problem(name: str, n: int, seed: int) -> TestProblem:
    A, b = _random_spd(n, seed, 0.5, 3.0)
    theta_star = -np.linalg.solve(A, b)
    return TestProblem(
        name=name,
        objective=_quadratic_objective(A, b),
        convexity_class="strongly-convex",
        start=np.zeros(n),
        theta_star=theta_star,
        f_star=float(0.5 * b @ theta_star),
    )


def _pl_quadratic_problem() -> TestProblem:
    # Rank-deficient PSD quadratic with the field inside the range, so the
    # gradient-domination inequality holds without strong convexity and the
    # minimizer set is a line.
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = (Q * np.array([0.0, 0.7, 1.8])) @ Q.T
    A = 0.5 * (A + A.T)
    b = A @ rng.normal(size=3)
    pinv = np.linalg.pinv(A)
    theta_star = -pinv @ b
    return TestProblem(
        name="plquad",
        objective=_quadratic_objective(A, b),
        convexity_class="invex-like",
        start=np.zeros(3),
        theta_star=theta_star,
        f_star=float(-0.5 * b @ (pinv @ b)),
    )


def _rosenbrock_objective(n: int) -> Objective:
    def value(t):
        return float(
            np.sum(100.0 * (t[1:] - t[:-1] ** 2) ** 2 + (1.0 - t[:-1]) ** 2)
        )

    def gradient(t):
        g = np.zeros(n)
        d = t[1:] - t[:-1] ** 2
        g[:-1] = -400.0 * t[:-1] * d - 2.0 * (1.0 - t[:-1])
        g[1:] += 200.0 * d
        return g

    def hessian(t):
        H = np.zeros((n, n))
        i = np.arange(n - 1)
        H[i, i] = 1200.0 * t[:-1] ** 2 - 400.0 * t[1:] + 2.0
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] = H[i + 1, i] = -400.0 * t[:-1]
        return H

    return Objective(n, value, gradient, hessian, optimum=np.ones(n))


def _rosenbrock_problem(name: str, n: int) -> TestProblem:
    start = np.ones(n)
    start[0::2] = -1.2
    return TestProblem(
        name=name,
        objective=_rosenbrock_objective(n),
        convexity_class="nonconvex",
        start=start,
        theta_star=np.ones(n),
        f_star=0.0,
    )


LOGISTIC_SEED = 7
LOGISTIC_RIDGE = 1e-3


def logistic_dataset():
    """Fixed 40-sample, two-feature, two-class synthetic dataset.

    Two overlapping Gaussian blobs, labels in {-1, +1}, drawn once from seed
    ``LOGISTIC_SEED``. Returns (features, labels).
    """
    rng = np.random.default_rng(LOGISTIC_SEED)
    pos = rng.normal(loc=(1.2, 0.8), scale=1.1, size=(20, 2))
    neg = rng.normal(loc=(-1.0, -0.6), scale=1.1, size=(20, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(20), -np.ones(20)])
    return X, y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_problem() -> TestProblem:
    X, y = logistic_dataset()
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    m = design.shape[0]
    reg = LOGISTIC_RIDGE

    def value(t):
        z = design @ t
        return float(np.mean(np.logaddexp(0.0, -y * z)) + 0.5 * reg * (t @ t))

    def gradient(t):
        z = design @ t
        w = -y * _sigmoid(-y * z)
        return design.T @ w / m + reg * t

    def hessian(t):
        p = _sigmoid(design @ t)
        w = p * (1.0 - p)
        return (design.T * w) @ design / m + reg * np.eye(t.size)

    return TestProblem(
        name="logistic",
        objective=Objective(3, value, gradient, hessian),
        convexity_class="convex",
        start=np.zeros(3),
    )


def _ill_scaled_problem() -> TestProblem:
    # Diagonal quadratic spanning four decades of curvature; the suggested
    # scaling whitens it exactly.
    diag = np.logspace(0.0, 4.0, 4)
    A = np.diag(diag)
    theta_star = np.array([0.5, -0.4, 0.3, -0.2])
    b = -A @ theta_star
    return TestProblem(
        name="illscaled",
        objective=_quadratic_objective(A, b),
        convexity_class="strongly-convex",
        start=np.zeros(4),
        theta_star=theta_star,
        f_star=float(0.5 * b @ theta_star),
        scaling=np.sqrt(diag),
    )


def problem_suite() -> list[TestProblem]:
    """The full library, in a stable order."""
    return [
        _quadratic_problem("quad2", 2, 12),
        _quadratic_problem("quad5", 5, 5),
        _quadratic_problem("quad20", 20, 20),
        _pl_quadratic_problem(),
        _rosenbrock_problem("rosenbrock2", 2),
        _rosenbrock_problem("rosenbrock10", 10),
        _logistic_problem(),
        _ill_scaled_problem(),
    ]


def get_problem(name: str) -> TestProblem:
    for problem in problem_suite():
        if problem.name == name:
            return problem
    known = ", ".join(p.name for p in problem_suite())
    raise KeyError(f"unknown problem {name!r}; known problems: {known}")


# ---------------------------------------------------------------------------
# Random subproblem instances for the verification campaigns

INSTANCE_KINDS = ("strongly-convex", "psd", "singular", "indefinite", "pl")

# Box half-width of every random instance.
INSTANCE_DELTA = 0.5


def random_box_quadratic(n: int, seed: int, kind: str = "psd") -> QuadraticModel:
    """Seeded random quadratic subproblem on the box ``|s_i| <= INSTANCE_DELTA``.

    ``strongly-convex`` draws eigenvalues in [0.4, 2], ``psd`` in [0, 2],
    ``singular`` zeroes one eigenvalue exactly, and ``indefinite`` forces at
    least one negative eigenvalue. The field norm is kept in [0.15, 0.5] so
    instances are neither degenerate nor dominated by the linear term.

    ``pl`` plants a strictly interior minimizer: it draws a strongly convex
    coupling, picks s* uniformly in the inner 60% of the box, and sets
    h = -J s*. The constrained optimum then has the closed form
    E* = energy(s*), and the tight gradient-domination constant equals the
    smallest eigenvalue.
    """
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"kind must be one of {INSTANCE_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if kind in ("strongly-convex", "pl"):
        eigs = rng.uniform(0.4, 2.0, n)
    elif kind == "psd":
        eigs = rng.uniform(0.0, 2.0, n)
    elif kind == "singular":
        eigs = rng.uniform(0.5, 2.0, n)
        eigs[0] = 0.0
    else:
        eigs = rng.uniform(-1.5, 2.0, n)
        if np.all(eigs > 0.0):
            eigs[0] = -rng.uniform(0.2, 1.5)
    J = (Q * eigs) @ Q.T
    J = 0.5 * (J + J.T)
    if kind == "pl":
        s_star = rng.uniform(-0.6 * INSTANCE_DELTA, 0.6 * INSTANCE_DELTA, n)
        h = -J @ s_star
    else:
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        h = rng.uniform(0.15, 0.5) * direction
    return QuadraticModel(J, h, INSTANCE_DELTA)


# ---------------------------------------------------------------------------
# Constant estimation


@dataclass(frozen=True)
class ConstantEstimates:
    """Gradient bound G over the box and smoothness L."""

    G: float
    L: float


def _gradient_bound(model: QuadraticModel) -> float:
    S = model.symmetric_coupling()
    h = model.field
    n = model.dim
    delta = model.delta
    if n > _CORNER_MAX_DIM:
        spectral = float(np.linalg.norm(S, 2))
        return spectral * delta * np.sqrt(n) + float(np.linalg.norm(h))
    # ||S s + h|| is convex in s, so its box maximum sits at a corner. Corner
    # i has coordinate j at +delta when bit n-1-j of i is set.
    shifts = np.arange(n - 1, -1, -1)
    best = 0.0
    for start in range(0, 2**n, 65536):
        index = np.arange(start, min(start + 65536, 2**n))
        bits = (index[:, None] >> shifts) & 1
        corners = np.where(bits == 1, delta, -delta)
        best = max(best, float(np.max(np.linalg.norm(corners @ S + h, axis=1))))
    return best


def estimate_mu_p(trace, e_star: float) -> float | None:
    """Smallest gradient-domination ratio seen along a run.

    Ratios ``||g(k)||^2 / (2 (E(s(k)) - E*))`` over the run's iterates,
    excluding iterates whose gap is below ``MU_P_GAP_FLOOR``. Returns None
    when every iterate is excluded.
    """
    gaps = trace.energies[:-1] - e_star
    keep = gaps >= MU_P_GAP_FLOOR
    if not np.any(keep):
        return None
    ratios = trace.gm_norms[keep] ** 2 / (2.0 * gaps[keep])
    return float(np.min(ratios))


def estimate_constants(model: QuadraticModel) -> ConstantEstimates:
    """Constants of one subproblem: the gradient bound G and the exact L.

    G is the exact box maximum of ||S s + h|| (a corner scan) up to
    ``_CORNER_MAX_DIM`` = 20; above it, G is the upper bound
    ||S||_2 delta sqrt(n) + ||h||. The empirical mu_p of a run is
    ``estimate_mu_p``."""
    L = float(np.max(np.abs(np.linalg.eigvalsh(model.symmetric_coupling()))))
    return ConstantEstimates(G=_gradient_bound(model), L=L)
