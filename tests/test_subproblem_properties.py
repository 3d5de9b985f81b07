"""Properties of the subproblem backends: the trust region's machine is
never worse than its first step, its box finish is never worse than the
machine or the grid oracle and declines what it cannot settle, and the exact
ball solve meets the optimality conditions of the ball-constrained
quadratic."""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    QuadraticModel,
    energy,
    exact_ball_minimize,
    grid_minimize_box,
    project_box,
    random_box_quadratic,
    run_ecim,
    solve_subproblem,
    step_sizes,
)
from itrust.ecim import smoothness
from itrust.objectives import INSTANCE_KINDS
from itrust.trust_region import _box_minimizer
from tests import reference

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


def _forcing_tolerance(model: QuadraticModel) -> float:
    h_norm = float(np.linalg.norm(model.field))
    return min(0.1, h_norm) * h_norm


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 6),
    kind=st.sampled_from(INSTANCE_KINDS),
    seed=st.integers(0, 2**16),
    scaled=st.booleans(),
    sigma2=st.sampled_from((0.0, 1e-4)),
)
def test_machine_backend_is_no_worse_than_the_machine(n, kind, seed, scaled, sigma2):
    # The backend's value is at most the best energy of the machine run it
    # would make on the working model. A step returned without a machine run
    # (the box finish) lies in the box of a positive definite model.
    model = random_box_quadratic(n, seed, kind=kind)
    d = np.random.default_rng(seed).uniform(0.5, 4.0, n) if scaled else np.ones(n)
    work = QuadraticModel(
        model.coupling * np.outer(1.0 / d, 1.0 / d), model.field / d, model.delta
    )
    config = EcimConfig(iterations=300, sigma2=sigma2)
    with mock.patch("itrust.trust_region.run_ecim", wraps=run_ecim) as spy:
        step, value = solve_subproblem(
            model, config, seed=seed, scaling=d if scaled else None
        )
    machine = run_ecim(
        work, replace(config, seed=seed), tol=_forcing_tolerance(work)
    ).best_energy
    assert value <= machine + 1e-12 * max(1.0, abs(machine))
    assert np.max(np.abs(d * step)) <= model.delta
    if not spy.called:
        assert np.linalg.eigvalsh(work.symmetric_coupling())[0] > 0.0


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(n=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_machine_backend_returns_the_planted_minimizer(n, seed):
    # kind="pl" plants s* in the inner 60% of the box with h = -J s*; the
    # draws below replay the generator's to recover s*. The finish returns
    # it without a machine run.
    model = random_box_quadratic(n, seed, kind="pl")
    rng = np.random.default_rng(seed)
    rng.normal(size=(n, n))
    rng.uniform(0.4, 2.0, n)
    s_star = rng.uniform(-0.6 * model.delta, 0.6 * model.delta, n)
    with mock.patch("itrust.trust_region.run_ecim", wraps=run_ecim) as spy:
        step, value = solve_subproblem(model, EcimConfig(), seed=seed)
    assert not spy.called
    assert np.max(np.abs(step - s_star)) <= 1e-12
    assert value == energy(model, step)


def test_finish_declines_a_newton_point_that_misses_the_tolerance():
    # Positive definite but nearly singular (eigenvalues 1 and 1e-10), with
    # the field along the soft direction: the Newton point 0.4 q lies in the
    # box, but ||h|| = 4e-11 sets a tolerance of 1.6e-21, below the solve's
    # roundoff. The backend then runs the machine, bit for bit.
    c, s = math.cos(0.5), math.sin(0.5)
    Q = np.array([[c, -s], [s, c]])
    S = (Q * np.array([1.0, 1e-10])) @ Q.T
    S = 0.5 * (S + S.T)
    model = QuadraticModel(S, -1e-10 * 0.4 * Q[:, 1], delta=1.0)
    tol = _forcing_tolerance(model)
    np.linalg.cholesky(S)
    newton = np.linalg.solve(S, -model.field)
    assert np.max(np.abs(newton)) <= model.delta
    assert np.linalg.norm(S @ newton + model.field) > tol
    config = EcimConfig(iterations=200)
    step, _ = solve_subproblem(model, config, seed=3)
    machine = run_ecim(model, replace(config, seed=3), tol=tol)
    assert np.array_equal(step, machine.best_iterate)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    reach=st.floats(1.01, 30.0),
)
def test_finish_solves_every_face_of_a_positive_definite_model(n, seed, reach):
    # The field is scaled so that the Newton point lies reach times the box
    # half-width out. Active sets settle on every such strongly convex
    # model: the step is the box minimum, at or below the grid oracle's
    # value, no machine runs, and its gradient mapping with step 1/L is
    # within the forcing tolerance, the machine's own stop test.
    base = random_box_quadratic(n, seed, kind="strongly-convex")
    S = base.symmetric_coupling()
    newton = np.linalg.solve(S, -base.field)
    field = base.field * (reach * base.delta / np.max(np.abs(newton)))
    model = QuadraticModel(base.coupling, field, base.delta)
    with mock.patch("itrust.trust_region.run_ecim", wraps=run_ecim) as spy:
        step, value = solve_subproblem(model, EcimConfig(), seed=seed)
    assert not spy.called
    grid = grid_minimize_box(model).value
    assert value <= grid + 1e-12 * max(1.0, abs(grid))
    L = smoothness(S)
    g = S @ step + field
    mapping = L * (step - project_box(step - g / L, model.delta))
    assert np.max(np.abs(step)) <= model.delta
    assert np.linalg.norm(mapping) <= _forcing_tolerance(model)


def test_finish_hands_a_cycling_model_to_the_machine():
    # Found by a search over dense positive definite models A A^T + 0.01 I
    # at n = 3 with a standard normal field (default_rng(391)). The Newton
    # point has face (-, +, -); active sets then visit (-, 0, -), (-, 0, 0),
    # (-, -, +), (0, -, 0) and (-, 0, -) again. The backend declines and
    # runs the machine, bit for bit.
    rng = np.random.default_rng(391)
    A = rng.normal(size=(3, 3))
    model = QuadraticModel(A @ A.T + 0.01 * np.eye(3), rng.normal(size=3), delta=1.0)
    config = EcimConfig(iterations=500)
    step, _ = solve_subproblem(model, config, seed=2)
    machine = run_ecim(model, replace(config, seed=2), tol=_forcing_tolerance(model))
    assert np.array_equal(step, machine.best_iterate)


def test_finish_declines_a_face_solve_that_misses_the_tolerance():
    # The nearly singular model of the Newton-point test above, with the
    # field along the soft direction q at twice the length: the Newton point
    # 2 q lies outside the box, and the solve on its face leaves a residual
    # of roundoff size, above the tolerance 4e-20. The backend runs the
    # machine, bit for bit.
    c, s = math.cos(0.5), math.sin(0.5)
    Q = np.array([[c, -s], [s, c]])
    S = (Q * np.array([1.0, 1e-10])) @ Q.T
    S = 0.5 * (S + S.T)
    model = QuadraticModel(S, -1e-10 * 2.0 * Q[:, 1], delta=1.0)
    assert np.max(np.abs(np.linalg.solve(S, -model.field))) > model.delta
    config = EcimConfig(iterations=200)
    step, _ = solve_subproblem(model, config, seed=3)
    machine = run_ecim(model, replace(config, seed=3), tol=_forcing_tolerance(model))
    assert np.array_equal(step, machine.best_iterate)


def test_finish_declines_a_singular_model_whose_cholesky_passes():
    # A singular model (one eigenvalue exactly 0 before rounding) whose
    # symmetric coupling rounds to eigenvalues 2.8e-17 and 1.48: Cholesky
    # succeeds, and the LU solve meets an exact zero pivot. Before, that
    # solve's LinAlgError escaped the backend; now the machine runs, bit for
    # bit.
    model = random_box_quadratic(2, 1735, kind="singular")
    np.linalg.cholesky(model.symmetric_coupling())
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(model.symmetric_coupling(), -model.field)
    config = EcimConfig(iterations=200)
    step, _ = solve_subproblem(model, config, seed=3)
    machine = run_ecim(model, replace(config, seed=3), tol=_forcing_tolerance(model))
    assert np.array_equal(step, machine.best_iterate)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 8),
    family=st.sampled_from(
        ("strongly-convex", "tiny", "dense", "psd", "singular", "indefinite")
    ),
    seed=st.integers(0, 2**16),
    reach=st.floats(0.5, 30.0),
)
@hypothesis.example(n=3, family="dense", seed=391, reach=1.0)
@hypothesis.example(n=3, family="tiny", seed=0, reach=2.0)
@hypothesis.example(n=6, family="dense", seed=46, reach=1.0)
def test_box_finish_returns_the_reference_bits(n, family, seed, reach):
    # The finish makes fewer numpy calls than its plain form in
    # tests/reference.py, with the same floating-point operations: it
    # returns the same bits, or None where the reference does. A strongly
    # convex model's field is scaled so that its Newton point lies reach
    # times the box half-width out (inside for reach < 1); a tiny model is
    # one of those with field and box times 1e-20, where the forcing
    # tolerance ||h||^2 falls below a solve's roundoff, so both decline it.
    # A dense model is A A^T + 0.01 I with a normal field times reach, whose
    # active sets can take several faces or cycle (seed 391 at reach 1 is the
    # cycling model above; at n = 6, seed 46's S_FB u_B differs in its last
    # bit when S_FB is selected in column-major order, as S[free][:, fixed]
    # is). The Cholesky test declines most psd, singular and indefinite
    # models; where the reference's solve meets an exactly singular matrix
    # after that test passed, the finish declines too.
    if family == "dense":
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        field = rng.normal(size=n) * reach
        model = QuadraticModel(A @ A.T + 0.01 * np.eye(n), field, 1.0)
    elif family in ("strongly-convex", "tiny"):
        model = random_box_quadratic(n, seed, kind="strongly-convex")
        newton = np.linalg.solve(model.symmetric_coupling(), -model.field)
        field = model.field * (reach * model.delta / np.max(np.abs(newton)))
        size = 1e-20 if family == "tiny" else 1.0
        model = QuadraticModel(model.coupling, field * size, model.delta * size)
    else:
        model = random_box_quadratic(n, seed, kind=family)
    tol = _forcing_tolerance(model)
    try:
        want = reference.box_minimizer(model, tol)
    except np.linalg.LinAlgError:
        want = None
    got = _box_minimizer(model, tol)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tobytes() == want.tobytes()


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
