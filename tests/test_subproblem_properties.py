"""The trust region's machine backend is never worse than its first step."""

from __future__ import annotations

import numpy as np
import pytest

from itrust import (
    EcimConfig,
    QuadraticModel,
    energy,
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
)
def test_machine_step_is_no_worse_than_the_first_projected_step(
    n, K, kind, schedule, seed, scaled
):
    # From s0 = 0 the first step is clip(-beta_0 h) in solver coordinates,
    # beta_0 = 1/L on both schedules; the returned value, measured by the
    # unscaled model, may differ from the machine's own energies by roundoff.
    model = random_box_quadratic(n, seed, kind=kind)
    d = np.random.default_rng(seed).uniform(0.5, 4.0, n) if scaled else np.ones(n)
    config = EcimConfig(schedule=schedule, iterations=K)
    step, value = solve_subproblem(
        model, config, seed=seed, scaling=d if scaled else None
    )
    work = QuadraticModel(
        model.coupling * np.outer(1.0 / d, 1.0 / d), model.field / d, model.delta
    )
    beta0 = step_sizes(config, work)[0]
    first = energy(model, project_box(-(work.field * beta0), model.delta) / d)
    roundoff = 1e-12 * max(1.0, abs(first))
    assert np.max(np.abs(d * step)) <= model.delta
    assert value <= first + roundoff
    assert value <= roundoff
