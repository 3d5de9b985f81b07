"""A streamed machine run keeps exactly what a full-trace run computes."""

from __future__ import annotations

from unittest import mock

import pytest

from itrust import EcimConfig, random_box_quadratic, run_ecim
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
