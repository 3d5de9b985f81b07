"""Tests for the simulated machine: steps, schedules, traces, determinism."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from itrust import (
    DivergenceError,
    EcimTrace,
    EcimConfig,
    QuadraticModel,
    energy,
    estimate_mu_p,
    project_box,
    random_box_quadratic,
    run_ecim,
    step_sizes,
)
from itrust import ecim
from itrust.ecim import BLOCK_STEPS, DIVERGENCE_LIMIT
from tests.reference import ecim_step, energy_gradient, gradient_mapping


def test_project_box():
    assert np.allclose(project_box(np.array([0.7, -0.9, 0.2]), 0.5), [0.5, -0.5, 0.2])
    assert np.allclose(project_box(np.array([0.1]), 0.5), [0.1])


def test_single_step_one_dimensional():
    # J = [[1]], h = 0, beta = 1: the step lands exactly at the origin.
    model = QuadraticModel(np.array([[1.0]]), np.zeros(1), delta=1.0)
    out = ecim_step(model, np.array([0.4]), beta=1.0, noise=np.zeros(1))
    assert np.allclose(out, [0.0], atol=0.0)


def test_single_step_hits_box_wall():
    # Unconstrained target (1, 1) is clipped to the (0.5, 0.5) corner.
    model = QuadraticModel(np.eye(2), np.array([-1.0, -1.0]), delta=0.5)
    out = ecim_step(model, np.zeros(2), beta=1.0, noise=np.zeros(2))
    assert np.allclose(out, [0.5, 0.5], atol=0.0)


def test_step_follows_update_rule():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        J = rng.normal(size=(n, n))
        h = rng.normal(size=n)
        model = QuadraticModel(J, h, delta=0.8)
        s = rng.uniform(-0.8, 0.8, n)
        noise = rng.normal(size=n)
        beta = float(rng.uniform(0.05, 0.5))
        expected = np.clip(
            s - beta * (energy_gradient(model, s) - noise), -0.8, 0.8
        )
        assert np.allclose(ecim_step(model, s, beta, noise), expected, atol=0.0)


def test_step_size_schedules():
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=1.0)

    def beta(schedule, beta0, k, horizon):
        config = EcimConfig(schedule=schedule, beta0=beta0, iterations=horizon)
        return step_sizes(config, model)[k]

    assert beta("fixed", 0.5, k=7, horizon=100) == 0.5
    assert beta("fixed-horizon", 1.0, k=0, horizon=100) == pytest.approx(0.1)
    assert beta("decreasing", 1.0, k=0, horizon=100) == 1.0
    assert beta("decreasing", 1.0, k=9, horizon=100) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        EcimConfig(schedule="quadratic", beta0=1.0, iterations=10)


def test_step_sizes_fixed_horizon():
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=1.0)
    betas = step_sizes(
        EcimConfig(schedule="fixed-horizon", beta0=1.0, iterations=100), model
    )
    assert betas.shape == (100,)
    assert np.allclose(betas, 0.1, atol=0.0)


def test_step_sizes_default_beta_is_inverse_smoothness():
    model = QuadraticModel(np.diag([1.0, 4.0]), np.zeros(2), delta=1.0)
    betas = step_sizes(EcimConfig(iterations=5), model)
    assert np.allclose(betas, 0.25, atol=1e-15)


def test_step_sizes_decreasing():
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=1.0)
    betas = step_sizes(
        EcimConfig(schedule="decreasing", beta0=2.0, iterations=4), model
    )
    assert np.allclose(betas, [2.0, 1.0, 2.0 / 3.0, 0.5])


def test_config_validation():
    with pytest.raises(ValueError):
        EcimConfig(schedule="warmup")
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta0"):
            EcimConfig(beta0=bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2"):
            EcimConfig(sigma2=bad)
    with pytest.raises(ValueError):
        EcimConfig(iterations=0)


def test_gradient_mapping():
    g = gradient_mapping(np.array([1.0, 1.0]), np.array([0.5, 1.0]), beta=0.25)
    assert np.allclose(g, [2.0, 0.0], atol=0.0)
    with pytest.raises(ValueError):
        gradient_mapping(np.zeros(1), np.zeros(1), beta=0.0)


def test_run_converges_on_interior_minimum():
    # Minimizer at (0.25, -0.25) is strictly inside the box.
    J = np.eye(2)
    h = np.array([-0.25, 0.25])
    model = QuadraticModel(J, h, delta=0.5)
    trace = run_ecim(model, EcimConfig(beta0=0.5, iterations=500, seed=0))
    assert np.allclose(trace.best_iterate, [0.25, -0.25], atol=1e-8)
    assert trace.best_energy == pytest.approx(-0.0625, abs=1e-10)


def test_run_converges_to_box_corner():
    model = QuadraticModel(np.eye(2), np.array([-1.0, -1.0]), delta=0.5)
    trace = run_ecim(model, EcimConfig(beta0=0.5, iterations=200, seed=1))
    assert np.allclose(trace.best_iterate, [0.5, 0.5], atol=1e-9)


def test_trace_shapes_and_bookkeeping():
    model = QuadraticModel(np.eye(3), np.zeros(3), delta=1.0)
    K = 40
    trace = run_ecim(
        model, EcimConfig(beta0=0.3, iterations=K, seed=4), keep_iterates=True
    )
    assert trace.iterates.shape == (K + 1, 3)
    assert trace.energies.shape == (K + 1,)
    assert trace.betas.shape == (K,)
    assert trace.gm_norms.shape == (K,)
    assert trace.best_energy == trace.energies[trace.best_index]
    assert np.allclose(trace.best_iterate, trace.iterates[trace.best_index])
    best = np.minimum.accumulate(trace.energies)
    assert np.all(np.diff(best) <= 0.0 + 1e-300)
    assert best[-1] == min(trace.energies)


def test_energies_match_iterates():
    model = QuadraticModel(
        np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([0.2, -0.1]), delta=0.7
    )
    trace = run_ecim(
        model,
        EcimConfig(beta0=0.2, sigma2=0.05, iterations=50, seed=9),
        keep_iterates=True,
    )
    for k in (0, 10, 50):
        assert trace.energies[k] == pytest.approx(
            energy(model, trace.iterates[k]), rel=1e-12, abs=1e-12
        )


def test_gm_norms_match_consecutive_iterates():
    model = QuadraticModel(np.eye(2), np.array([0.3, -0.2]), delta=0.6)
    trace = run_ecim(
        model,
        EcimConfig(beta0=0.4, sigma2=0.01, iterations=30, seed=2),
        keep_iterates=True,
    )
    for k in (0, 7, 29):
        gm = (trace.iterates[k] - trace.iterates[k + 1]) / trace.betas[k]
        assert trace.gm_norms[k] == pytest.approx(np.linalg.norm(gm), rel=1e-12)


def test_averaged_iterate_weighting():
    model = QuadraticModel(np.eye(1), np.zeros(1), delta=1.0)
    trace = run_ecim(
        model,
        EcimConfig(schedule="decreasing", beta0=1.0, iterations=3, seed=0),
        s0=np.array([0.8]),
        keep_iterates=True,
    )
    w = trace.betas
    expected = (w @ trace.iterates[:3]) / w.sum()
    assert np.allclose(trace.averaged_iterate_at(3), expected, atol=0.0)
    assert np.allclose(trace.averaged_iterate_at(1), trace.iterates[0], atol=0.0)
    with pytest.raises(ValueError):
        trace.averaged_iterate_at(0)
    with pytest.raises(ValueError):
        trace.averaged_iterate_at(4)


def test_streamed_trace_keeps_no_rows():
    model = QuadraticModel(np.eye(2), np.array([0.3, -0.2]), delta=0.6)
    trace = run_ecim(model, EcimConfig(beta0=0.4, sigma2=0.01, iterations=30, seed=2))
    assert trace.iterates is None
    assert trace.gm_norms is None
    assert trace.energies.shape == (31,) and trace.betas.shape == (30,)
    with pytest.raises(ValueError, match="keep_iterates"):
        trace.averaged_iterate_at(3)
    with pytest.raises(ValueError, match="keep_iterates"):
        estimate_mu_p(trace, e_star=-1.0)


def test_streamed_run_memory_is_one_block():
    # n = 200, K = 30000: the full trace is 48 MB, a block of rows about
    # 100 kB, and the energies and step sizes 240 kB each.
    n, K = 200, 30_000
    model = random_box_quadratic(n, 7, kind="pl")
    config = EcimConfig(sigma2=1e-6, iterations=K, seed=7)
    peaks = []
    for keep in (False, True):
        tracemalloc.start()
        try:
            trace = run_ecim(model, config, keep_iterates=keep)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del trace
    assert peaks[0] < 8 * 2**20
    assert peaks[1] >= (K + 1) * n * 8


def test_descent_lemma_properties_noiseless():
    """Noiseless runs: <grad, s+ - s> <= -beta ||g||^2 and ||g|| <= ||grad||."""
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        J = rng.normal(size=(n, n))
        J = 0.5 * (J + J.T)
        # Make it PSD so 1/L is a safe step.
        eigs, V = np.linalg.eigh(J)
        J = (V * np.abs(eigs)) @ V.T
        h = rng.normal(size=n) * 0.3
        model = QuadraticModel(J, h, delta=0.5)
        s = rng.uniform(-0.5, 0.5, n)
        L = max(float(np.max(np.abs(eigs))), 1e-9)
        beta = float(rng.uniform(0.1, 1.0)) / L
        s_next = ecim_step(model, s, beta, np.zeros(n))
        g = gradient_mapping(s, s_next, beta)
        grad = energy_gradient(model, s)
        inner = float(grad @ (s_next - s))
        gm_sq = float(g @ g)
        assert inner <= -beta * gm_sq + 1e-10, f"trial {trial}"
        assert gm_sq <= float(grad @ grad) + 1e-10, f"trial {trial}"


def test_run_is_deterministic():
    model = QuadraticModel(np.eye(2), np.array([0.1, -0.3]), delta=0.5)
    config = EcimConfig(beta0=0.3, sigma2=0.2, iterations=100, seed=123)
    a = run_ecim(model, config, keep_iterates=True)
    b = run_ecim(model, config, keep_iterates=True)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.energies, b.energies)
    c = run_ecim(
        model,
        EcimConfig(beta0=0.3, sigma2=0.2, iterations=100, seed=124),
        keep_iterates=True,
    )
    assert not np.array_equal(a.iterates, c.iterates)


def test_noise_changes_trajectory_and_modulation_scales_it():
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=1.0)
    s0 = np.array([0.9, -0.9])
    quiet = run_ecim(
        model, EcimConfig(beta0=0.1, iterations=50, seed=5), s0=s0, keep_iterates=True
    )
    noisy = run_ecim(
        model,
        EcimConfig(beta0=0.1, sigma2=0.5, iterations=50, seed=5),
        s0=s0,
        keep_iterates=True,
    )
    assert not np.array_equal(quiet.iterates, noisy.iterates)

    mod = run_ecim(
        model,
        EcimConfig(beta0=0.1, sigma2=0.5, iterations=50, seed=5, modulate_noise=True),
        s0=s0,
        keep_iterates=True,
    )
    # Same noise stream, scaled by beta: s(1) differs from the unmodulated run
    # by (1 - beta) * beta * zeta(0).
    dev_plain = noisy.iterates[1] - quiet.iterates[1]
    dev_mod = mod.iterates[1] - quiet.iterates[1]
    assert np.allclose(dev_mod, 0.1 * dev_plain, atol=1e-12)


def test_s0_projection_flag():
    # An in-box start passes through bit for bit (a wall point and -0.0
    # included); an out-of-box start is clipped onto the box.
    model = QuadraticModel(np.eye(2), np.zeros(2), delta=0.5)
    s0 = np.array([-0.5, -0.0])
    inside = run_ecim(model, EcimConfig(iterations=5), s0=s0, keep_iterates=True)
    assert inside.iterates[0].tobytes() == s0.tobytes()
    outside = run_ecim(
        model, EcimConfig(iterations=5), s0=np.array([2.0, -0.7]), keep_iterates=True
    )
    assert np.array_equal(outside.iterates[0], [0.5, -0.5])
    with pytest.raises(ValueError):
        run_ecim(model, EcimConfig(iterations=5), s0=np.zeros(3))


def test_default_start_is_inside_box():
    model = QuadraticModel(np.eye(4), np.zeros(4), delta=0.3)
    trace = run_ecim(model, EcimConfig(iterations=2, seed=42), keep_iterates=True)
    assert np.max(np.abs(trace.iterates[0])) <= 0.3


def test_divergence_raises_with_iteration_index():
    # Negative curvature with a huge step blows the energy up immediately.
    model = QuadraticModel(np.array([[-1.0]]), np.zeros(1), delta=1e9)
    with pytest.raises(DivergenceError) as info:
        run_ecim(model, EcimConfig(beta0=10.0, iterations=200, seed=0), s0=np.array([1.0]))
    assert info.value.iteration >= 1
    assert abs(info.value.value) > 1e12 or math.isnan(info.value.value)


# ---------------------------------------------------------------------------
# run_ecim against a step-by-step reference


def _reference_run(model, config, s0=None) -> tuple[EcimTrace, np.ndarray]:
    """The machine's definition: ecim_step on every one of the K steps, with
    the whole (K, n) noise block drawn at once. Returns the trace and the
    norms of its gradient mappings."""
    rng = np.random.default_rng(config.seed)
    n, K, delta = model.dim, config.iterations, model.delta
    s = rng.uniform(-delta, delta, n) if s0 is None else project_box(s0, delta)
    betas = step_sizes(config, model)
    noise = np.zeros((K, n))
    if config.sigma2 > 0.0:
        noise = rng.normal(0.0, math.sqrt(config.sigma2), (K, n))
        if config.modulate_noise:
            noise *= betas[:, None]
    S, h = model.symmetric_coupling(), model.field
    iterates, energies = [], []
    for k in range(K + 1):
        e = 0.5 * (s @ (S @ s + h) + s @ h)
        if not np.isfinite(e) or abs(e) > DIVERGENCE_LIMIT:
            raise DivergenceError(k, e)
        iterates.append(s)
        energies.append(e)
        if k < K:
            s = ecim_step(model, s, betas[k], noise[k])
    iterates, energies = np.array(iterates), np.array(energies)
    gm_norms = np.array(
        [
            np.linalg.norm(gradient_mapping(iterates[k], iterates[k + 1], betas[k]))
            for k in range(K)
        ]
    )
    best = int(np.argmin(energies))
    trace = EcimTrace(
        iterates=iterates,
        energies=energies,
        betas=betas,
        best_index=best,
        best_energy=float(energies[best]),
        best_iterate=iterates[best].copy(),
        stop_index=K,
    )
    return trace, gm_norms


def _runs(model, config, s0=None) -> tuple[EcimTrace, EcimTrace]:
    """The run with its iterates kept, and streamed; both stop at one step."""
    full = run_ecim(model, config, s0, keep_iterates=True)
    streamed = run_ecim(model, config, s0)
    assert streamed.stop_index == full.stop_index
    return full, streamed


def _assert_bit_identical(
    trace: EcimTrace, ref: EcimTrace, ref_gm_norms: np.ndarray
) -> None:
    """``trace`` equals the reference bit for bit in all that it keeps."""
    for name in ("energies", "betas", "best_iterate"):
        a, b = getattr(trace, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert trace.best_index == ref.best_index
    assert repr(trace.best_energy) == repr(ref.best_energy)
    if trace.iterates is None:
        assert trace.gm_norms is None
        return
    assert trace.iterates.shape == ref.iterates.shape
    assert trace.iterates.tobytes() == ref.iterates.tobytes()
    gm_norms = trace.gm_norms
    assert gm_norms.shape == ref_gm_norms.shape
    assert gm_norms.tobytes() == ref_gm_norms.tobytes()
    K = len(ref.betas)
    averaged = (ref.betas @ ref.iterates[:K]) / np.sum(ref.betas)
    assert trace.averaged_iterate_at(K).tobytes() == averaged.tobytes()


@pytest.mark.parametrize("schedule", ["fixed", "fixed-horizon", "decreasing"])
def test_run_matches_step_by_step_reference(schedule):
    # Horizons of one step, part of a block, exactly two blocks, and several
    # blocks with a partial last one.
    runs = itertools.product(
        (1, BLOCK_STEPS // 3, 2 * BLOCK_STEPS, 300),
        enumerate(((1, "psd"), (4, "indefinite"), (7, "pl"))),
        ((0.0, False), (1e-4, False), (0.1, True)),
    )
    for K, (seed, (n, kind)), (sigma2, modulate) in runs:
        model = random_box_quadratic(n, seed, kind=kind)
        config = EcimConfig(
            schedule=schedule,
            beta0=0.4,
            sigma2=sigma2,
            iterations=K,
            seed=seed,
            modulate_noise=modulate,
        )
        ref = _reference_run(model, config)
        for trace in _runs(model, config):
            _assert_bit_identical(trace, *ref)
        if sigma2 > 0.0:
            assert trace.stop_index == K


@pytest.mark.parametrize("schedule", ["fixed", "fixed-horizon", "decreasing"])
def test_fixed_point_stop_matches_reference(schedule):
    # The minimizer is the (0.5, 0.5, 0.5) vertex: a noise-free run reaches
    # it exactly and stays there.
    model = QuadraticModel(np.eye(3), np.full(3, -2.0), delta=0.5)
    config = EcimConfig(schedule=schedule, beta0=0.5, iterations=500, seed=3)
    trace, streamed = _runs(model, config)
    assert 1 <= trace.stop_index < 100
    assert np.all(trace.iterates[trace.stop_index :] == 0.5)
    assert np.all(trace.gm_norms[trace.stop_index - 1 :] == 0.0)
    ref = _reference_run(model, config)
    _assert_bit_identical(trace, *ref)
    _assert_bit_identical(streamed, *ref)


@pytest.mark.parametrize("offset", [1, 0])
def test_fixed_point_at_block_edge_matches_reference(offset):
    # A constant slope with step 1 / BLOCK_STEPS walks s from the start to the
    # 0.5 wall in BLOCK_STEPS - offset exact steps; the next step returns the
    # wall point. That fixed point is the last step of the first block
    # (offset 1) or the first step of the second (offset 0).
    model = QuadraticModel(np.zeros((2, 2)), np.array([-1.0, 0.0]), delta=0.5)
    config = EcimConfig(beta0=1.0 / BLOCK_STEPS, iterations=3 * BLOCK_STEPS)
    s0 = np.array([-0.5 + offset / BLOCK_STEPS, 0.25])
    trace, streamed = _runs(model, config, s0)
    assert trace.stop_index == BLOCK_STEPS + 1 - offset
    ref = _reference_run(model, config, s0)
    _assert_bit_identical(trace, *ref)
    _assert_bit_identical(streamed, *ref)


def test_two_cycle_stop_matches_reference():
    # E(s) = s^2 at beta 1 maps s to -s exactly: s(2) == s(0) bit for bit.
    model = QuadraticModel(np.array([[2.0]]), np.array([0.0]), delta=1.0)
    config = EcimConfig(beta0=1.0, iterations=300)
    s0 = np.array([0.3])
    trace, streamed = _runs(model, config, s0)
    assert trace.stop_index == 2
    assert np.all(trace.iterates[0::2] == 0.3)
    assert np.all(trace.iterates[1::2] == -0.3)
    assert np.all(trace.gm_norms == 0.6)
    ref = _reference_run(model, config, s0)
    _assert_bit_identical(trace, *ref)
    _assert_bit_identical(streamed, *ref)


@pytest.mark.parametrize("offset", [1, 0])
def test_two_cycle_at_block_edge_matches_reference(offset):
    # Coordinate 0 walks to the 0.5 wall as in the fixed-point case above and
    # stays there; coordinate 1 has curvature 2 * BLOCK_STEPS, so each step
    # maps it exactly to its negative. The 2-cycle starts when coordinate 0
    # reaches the wall: on the last row of the first block (offset 1), whose
    # pair straddles the block edge, or on the first row of the second.
    model = QuadraticModel(
        np.diag([0.0, 2.0 * BLOCK_STEPS]), np.array([-1.0, 0.0]), delta=0.5
    )
    config = EcimConfig(beta0=1.0 / BLOCK_STEPS, iterations=3 * BLOCK_STEPS)
    s0 = np.array([-0.5 + offset / BLOCK_STEPS, 0.25])
    trace, streamed = _runs(model, config, s0)
    assert trace.stop_index == BLOCK_STEPS + 2 - offset
    ref = _reference_run(model, config, s0)
    _assert_bit_identical(trace, *ref)
    _assert_bit_identical(streamed, *ref)


@pytest.mark.parametrize(
    ("schedule", "sigma2"), [("decreasing", 0.0), ("fixed", 1e-4)]
)
def test_no_two_cycle_stop_without_constant_noise_free_step(schedule, sigma2):
    # A step of 200 / L throws s from wall to wall, so rows alternate +-1 bit
    # for bit; the decreasing steps fall below 2 / L after 100 steps, and the
    # iterate then decays (to an exact 0 at step 200, past the horizon).
    # Neither run is a repeating orbit of one map.
    model = QuadraticModel(np.array([[2.0]]), np.array([0.0]), delta=1.0)
    config = EcimConfig(
        schedule=schedule, beta0=100.0, sigma2=sigma2, iterations=150, seed=1
    )
    s0 = np.array([1.0])
    trace, streamed = _runs(model, config, s0)
    assert trace.iterates[2].tobytes() == trace.iterates[0].tobytes()
    assert trace.stop_index == 150
    ref = _reference_run(model, config, s0)
    _assert_bit_identical(trace, *ref)
    _assert_bit_identical(streamed, *ref)


@pytest.mark.parametrize("modulate", [False, True])
def test_chunked_noise_matches_single_draw(modulate, monkeypatch):
    # Shrink the noise cap so that it shortens blocks at a small n.
    n = 5
    monkeypatch.setattr(ecim, "NOISE_CHUNK_BYTES", 8 * n * 13 + 7)
    rows = ecim.NOISE_CHUNK_BYTES // (8 * n)
    assert rows < BLOCK_STEPS
    rng = np.random.default_rng(11)
    model = QuadraticModel(
        np.diag(rng.uniform(0.5, 2.0, n)), rng.uniform(-0.3, 0.3, n), delta=0.5
    )
    config = EcimConfig(
        schedule="decreasing",
        beta0=0.5,
        sigma2=0.01,
        iterations=3 * rows + 7,
        seed=12,
        modulate_noise=modulate,
    )
    ref = _reference_run(model, config)
    for trace in _runs(model, config):
        _assert_bit_identical(trace, *ref)


@pytest.mark.filterwarnings("error")
def test_divergence_at_reference_iteration():
    cases = (
        (
            QuadraticModel(np.array([[-1.0, 0.2], [0.2, -0.5]]), np.ones(2), 1e9),
            10.0,
            np.array([1.0, -0.5]),
        ),
        # s grows by 1e9 a step: the energy leaves the range mid-block, and the
        # block's later steps overflow before its check runs. No warning may
        # escape.
        (QuadraticModel(np.array([[-1.0]]), np.zeros(1), 1e308), 1e9, np.array([1e-250])),
    )
    for model, beta0, s0 in cases:
        config = EcimConfig(beta0=beta0, iterations=200, seed=0)
        with pytest.raises(DivergenceError) as ref:
            _reference_run(model, config, s0)
        for keep in (True, False):
            with pytest.raises(DivergenceError) as info:
                run_ecim(model, config, s0, keep_iterates=keep)
            assert info.value.iteration == ref.value.iteration > 1
            assert repr(info.value.value) == repr(ref.value.value)
