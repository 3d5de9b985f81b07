"""Span tracing around the calls into each itrust module, kept in memory.

``trust_region`` and ``cli`` import their callees by name, so the tracer
wraps those bound attributes (wrapping ``itrust.ecim.run_ecim`` would miss
every call). Objective evaluations are counted through a wrapping
``Objective``. The benchmark's own call sites (``itrust.itrust``,
``cli.main``, ``run_ecim``) open the root spans. Patches last only for one
traced pass and are undone afterwards.

A span is ``[name, start, end, parent]``; its index in ``Tracer.spans`` is
its id and the id of its root span names the request it belongs to. A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import itrust
import itrust.cli
import itrust.trust_region

# (module, bound name, span name). A name a later version stops importing is
# skipped, and its layer then reads zero.
PATCHES = (
    (itrust.trust_region, "run_ecim", "ecim.run"),
    (itrust.trust_region, "build_subproblem", "model.build"),
    (itrust.trust_region, "exact_ball_minimize", "oracles.ball"),
    (itrust.trust_region, "grid_minimize_box", "oracles.grid"),
    (itrust.cli, "run_ecim", "ecim.run"),
    (itrust.cli, "exact_ball_minimize", "oracles.ball"),
    (itrust.cli, "grid_minimize_box", "oracles.grid"),
    (itrust.cli, "estimate_constants", "objectives.constants"),
    (itrust.cli, "random_box_quadratic", "objectives.instances"),
)

MB = 1e6

# name -> (unit, better). Every ``*_s`` metric is a self time.
LAYER_METRICS = {
    "trust_region.outer_iters": ("count", "lower"),
    "trust_region.accepted_frac": ("ratio", "higher"),
    "trust_region.self_s": ("s", "lower"),
    "model.build_calls": ("count", "lower"),
    "model.build_s": ("s", "lower"),
    "objectives.n_f": ("count", "lower"),
    "objectives.n_g": ("count", "lower"),
    "objectives.n_H": ("count", "lower"),
    "objectives.eval_s": ("s", "lower"),
    "objectives.f_per_iter": ("ratio", "lower"),
    "objectives.constants_s": ("s", "lower"),
    "objectives.instances_s": ("s", "lower"),
    "ecim.runs": ("count", "lower"),
    "ecim.iters": ("count", "lower"),
    "ecim.run_s": ("s", "lower"),
    "ecim.us_per_iter": ("us", "lower"),
    "ecim.useful_iter_frac": ("ratio", "higher"),
    "ecim.alloc_mb_computed": ("MB", "lower"),
    "oracles.ball_calls": ("count", "lower"),
    "oracles.ball_s": ("s", "lower"),
    "oracles.grid_calls": ("count", "lower"),
    "oracles.grid_s": ("s", "lower"),
    "oracles.grid_points_computed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics computed from counts alone; they repeat exactly when the same
# inputs run again.
EXACT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"
) + ("trust_region.accepted_frac", "ecim.useful_iter_frac", "ecim.alloc_mb_computed")


class Tracer:
    """Probe of the traced run: records a span around every traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.alloc_mb = 0.0

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.counts[name] += 1
        self._count(name, args, result)
        return result

    def _count(self, name, args, result) -> None:
        if name == "trust_region.itrust":
            self.counts["outer_iters"] += result.n_iterations
            self.counts["accepted"] += sum(r.accepted for r in result.records)
        elif name == "ecim.run":
            config = args[1]
            iters = len(result.energies) - 1
            self.counts["ecim_iters"] += iters
            self.counts["ecim_useful"] += result.best_index + 1
            arrays = (result.iterates, result.energies, result.betas, result.gm_norms)
            nbytes = sum(a.nbytes for a in arrays if a is not None)
            if config.sigma2 > 0.0:
                nbytes += iters * result.best_iterate.size * 8
            self.alloc_mb = max(self.alloc_mb, nbytes / MB)
        elif name == "oracles.grid":
            model = args[0]
            per_axis = int(round(2.0 * model.delta / result.resolution)) + 1
            self.counts["grid_points"] += per_axis**model.dim

    def objective(self, inner: itrust.Objective) -> itrust.Objective:
        """``inner`` with every f, g and H evaluation traced."""
        return itrust.Objective(
            inner.dim,
            functools.partial(self.call, "objectives.f", inner.value),
            functools.partial(self.call, "objectives.g", inner.gradient),
            functools.partial(self.call, "objectives.H", inner.hessian),
            optimum=inner.optimum,
        )

    @contextmanager
    def patched(self):
        """Wrap the bound callees for the duration of the block."""
        saved = []
        try:
            for module, attr, name in PATCHES:
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus the time of its children."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, children):
            totals[name] += end - start - child
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric of one traced pass except ``trace.overhead_s``."""
        c = self.counts
        t = self.self_times()
        outer = c["outer_iters"]
        iters = c["ecim_iters"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "trust_region.outer_iters": outer,
            "trust_region.accepted_frac": ratio(c["accepted"], outer),
            "trust_region.self_s": t["trust_region.itrust"],
            "model.build_calls": c["model.build"],
            "model.build_s": t["model.build"],
            "objectives.n_f": c["objectives.f"],
            "objectives.n_g": c["objectives.g"],
            "objectives.n_H": c["objectives.H"],
            "objectives.eval_s": t["objectives.f"] + t["objectives.g"] + t["objectives.H"],
            "objectives.f_per_iter": ratio(c["objectives.f"], outer),
            "objectives.constants_s": t["objectives.constants"],
            "objectives.instances_s": t["objectives.instances"],
            "ecim.runs": c["ecim.run"],
            "ecim.iters": iters,
            "ecim.run_s": t["ecim.run"],
            "ecim.us_per_iter": ratio(1e6 * t["ecim.run"], iters),
            "ecim.useful_iter_frac": ratio(c["ecim_useful"], iters),
            "ecim.alloc_mb_computed": self.alloc_mb,
            "oracles.ball_calls": c["oracles.ball"],
            "oracles.ball_s": t["oracles.ball"],
            "oracles.grid_calls": c["oracles.grid"],
            "oracles.grid_s": t["oracles.grid"],
            "oracles.grid_points_computed": c["grid_points"],
            "cli.self_s": t["cli.main"],
        }
