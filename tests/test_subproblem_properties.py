"""Properties of the subproblem backends: the trust region's machine is
never worse than its first step, and the exact ball solve meets the
optimality conditions of the ball-constrained quadratic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    QuadraticModel,
    energy,
    exact_ball_minimize,
    project_box,
    random_box_quadratic,
    solve_subproblem,
    step_sizes,
)
from itrust.objectives import INSTANCE_KINDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 6),
    K=st.integers(1, 300),
    kind=st.sampled_from(INSTANCE_KINDS),
    schedule=st.sampled_from(("fixed", "decreasing")),
    seed=st.integers(0, 2**16),
    scaled=st.booleans(),
    warm=st.booleans(),
)
def test_machine_step_is_no_worse_than_the_first_projected_step(
    n, K, kind, schedule, seed, scaled, warm
):
    # From s0 = 0 the first step is clip(-beta_0 h) in solver coordinates,
    # beta_0 = 1/L on both schedules; the returned value, measured by the
    # unscaled model, may differ from the machine's own energies by roundoff.
    # A drawn warm start, partly outside the box, is taken (clipped) only
    # when its working energy is negative; otherwise the solve is the one
    # from 0, bit for bit.
    model = random_box_quadratic(n, seed, kind=kind)
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 4.0, n) if scaled else np.ones(n)
    s0 = rng.uniform(-2.0, 2.0, n) * model.delta if warm else None
    config = EcimConfig(schedule=schedule, iterations=K)
    scaling = d if scaled else None
    step, value = solve_subproblem(model, config, seed=seed, s0=s0, scaling=scaling)
    work = QuadraticModel(
        model.coupling * np.outer(1.0 / d, 1.0 / d), model.field / d, model.delta
    )
    beta0 = step_sizes(config, work)[0]
    first = energy(model, project_box(-(work.field * beta0), model.delta) / d)
    roundoff = 1e-12 * max(1.0, abs(first))
    assert np.max(np.abs(d * step)) <= model.delta
    assert value <= roundoff
    start = math.inf if s0 is None else energy(work, project_box(s0, model.delta))
    if start < 0.0:
        assert value <= start + 1e-12 * max(1.0, abs(start))
    else:
        assert value <= first + roundoff
        cold, _ = solve_subproblem(model, config, seed=seed, scaling=scaling)
        assert np.array_equal(step, cold)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 6),
    case=st.sampled_from(("psd", "indefinite", "hard", "nearly-singular")),
    seed=st.integers(0, 2**16),
    delta=st.floats(0.05, 2.0),
)
def test_ball_solution_meets_kkt_conditions(n, case, seed, delta):
    # p minimizes <g, p> + 0.5 <p, H p> over ||p|| <= delta exactly when
    # (H + lam I) p = -g, lam >= max(0, -lam_min), ||p|| <= delta and
    # lam (delta - ||p||) = 0 (More & Sorensen 1983). "hard" puts g
    # orthogonal to the minimal eigenvector of an indefinite H; a nearly
    # singular H has an eigenvalue of size 1e-12 to 1e-6, of either sign.
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.uniform(-1.5, 2.0, n)
    if case == "psd":
        w = np.abs(w)
    elif case in ("indefinite", "hard"):
        w[0] = min(np.min(w), 0.0) - rng.uniform(0.1, 1.0)
    else:
        w[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)
    gt = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 0.0)
    if case == "hard":
        gt[0] = 0.0
    H = (Q * w) @ Q.T
    H = 0.5 * (H + H.T)
    g = Q @ gt
    sol = exact_ball_minimize(QuadraticModel(H, g, delta))
    p, lam = sol.s_star, sol.multiplier
    norm_p = float(np.linalg.norm(p))
    norm_h = float(np.linalg.norm(H, 2))
    scale = float(np.linalg.norm(g)) + (norm_h + lam) * delta
    assert norm_p <= delta * (1.0 + 1e-12)
    assert lam >= 0.0
    assert lam >= -np.linalg.eigh(H)[0][0]
    assert np.linalg.norm(H @ p + lam * p + g) <= 1e-10 * scale
    assert lam * (delta - norm_p) <= 1e-10 * scale
