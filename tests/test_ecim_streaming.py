"""Machine runs: a streamed run keeps exactly what a full-trace run
computes, and no run ends worse than its start."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from itrust import EcimConfig, energy, project_box, random_box_quadratic, run_ecim
from itrust import ecim
from itrust.ecim import SCHEDULES
from itrust.objectives import INSTANCE_KINDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 6),
    K=st.integers(1, 300),
    kind=st.sampled_from(INSTANCE_KINDS),
    schedule=st.sampled_from(SCHEDULES),
    beta0=st.sampled_from((None, 0.4, 2.0)),
    sigma2=st.sampled_from((0.0, 1e-4, 0.1)),
    seed=st.integers(0, 2**16),
    block=st.integers(1, ecim.BLOCK_STEPS),
)
def test_streamed_run_equals_full_trace(
    n, K, kind, schedule, beta0, sigma2, seed, block
):
    # Short blocks put fixed points and 2-cycles on block edges, where the
    # streamed window's carried rows are read.
    model = random_box_quadratic(n, seed, kind=kind)
    config = EcimConfig(
        schedule=schedule, beta0=beta0, sigma2=sigma2, iterations=K, seed=seed
    )
    with mock.patch.object(ecim, "BLOCK_STEPS", block):
        full = run_ecim(model, config, keep_iterates=True)
        streamed = run_ecim(model, config)
    assert streamed.iterates is None
    for name in ("energies", "betas", "best_iterate"):
        assert getattr(streamed, name).tobytes() == getattr(full, name).tobytes(), name
    assert streamed.best_index == full.best_index
    assert repr(streamed.best_energy) == repr(full.best_energy)
    assert streamed.stop_index == full.stop_index


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 6),
    K=st.integers(1, 200),
    kind=st.sampled_from(INSTANCE_KINDS),
    schedule=st.sampled_from(SCHEDULES),
    beta0=st.sampled_from((None, 0.4, 2.0)),
    sigma2=st.sampled_from((0.0, 1e-4, 0.1)),
    seed=st.integers(0, 2**16),
    tol=st.sampled_from((None, 0.0, 1e-3, 0.1)),
)
def test_best_energy_is_at_most_the_start_energy(
    n, K, kind, schedule, beta0, sigma2, seed, tol
):
    # Either variant, from a start partly outside the box: the best iterate
    # is never worse than the clipped start, up to the roundoff between the
    # machine's energy formula and the model's. A step of 2.0 is past 1/L
    # on most instances, so its steps can climb.
    model = random_box_quadratic(n, seed, kind=kind)
    s0 = np.random.default_rng(seed).uniform(-2.0, 2.0, n) * model.delta
    config = EcimConfig(
        schedule=schedule, beta0=beta0, sigma2=sigma2, iterations=K, seed=seed
    )
    trace = run_ecim(model, config, s0, tol=tol)
    start = energy(model, project_box(s0, model.delta))
    assert trace.best_energy <= start + 1e-12 * max(1.0, abs(start))
