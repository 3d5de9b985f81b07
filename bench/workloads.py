"""The benchmark's four seeded workloads and the output checks behind fail_frac.

A workload turns the seed into the inputs of one pass, runs the pass
through itrust's public entry points and checks every output. Each
operation comes back as an :class:`Outcome`: its wall time, how many results
it produced, how many of them failed their check, a fingerprint of its
output, and, when the program claimed a success that the check refutes, why
the output is wrong. A run repeats the same pass, and every repeat must
reproduce the first pass's fingerprints.

Calls into itrust go through a *probe*, one call per operation.
:class:`Direct` calls straight through and patches nothing; ``Sampled`` in
``reference.py`` also times the call against a reference loop, and the
tracer in ``tracing.py`` records spans and counts instead. All three have
the same two methods.

The default sizes are the benchmark's; the tests shrink them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import itrust
from itrust import cli

# Both trust-region workloads use the thresholds of acceptance criterion 9.
OUTER_ITERATIONS = 500
GTOL = 2e-7
MU = 0.01
ETA = 0.05

# A solve is second order when both hold at its final point.
GRAD_TOL = 1e-6
MIN_EIG_TOL = -1e-6
# Allowed |f - f*|, relative to max(1, |f*|), where f* has a closed form.
# Converged quadratic solves land within 1e-13 of it. The rosenbrock problems
# are exempt: rosenbrock10 has a second-order local minimum at f ~ 3.9866.
F_STAR_TOL = 1e-9

# Spread of the multistart start points around each problem's classic start.
START_SPREAD = 0.5

# machine-large-n runs with this much injected noise. A run fails when its
# best energy is further than GAP_TOL above the closed-form optimum E*; the
# measured gap is about 2.4e-5, the noise floor of the fixed 1/L step.
SIGMA2 = 1e-6
GAP_TOL = 1e-4
# A best energy below E* by more than roundoff means a wrong energy.
BELOW_OPTIMUM_TOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one operation."""

    seconds: float
    attempted: int = 1
    failed: int = 0
    wrong: str | None = None
    # Equal outputs give equal fingerprints; the program is deterministic.
    fingerprint: object = None


class Direct:
    """Probe of the untraced run: calls straight through, patches nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def objective(self, objective):
        return objective


def derived_seeds(seed: int, count: int = 1) -> list[int]:
    """``count`` 32-bit seeds for the program, drawn from the run's ``seed``,
    so that neighbouring run seeds give unrelated machine seeds."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# Trust-region workloads


def _tr_config(solver, problem) -> itrust.TrustRegionConfig:
    return itrust.TrustRegionConfig(
        iterations=OUTER_ITERATIONS,
        solver=solver,
        gtol=GTOL,
        mu=MU,
        eta=ETA,
        scaling=problem.scaling,
    )


def check_solve(problem, trace) -> tuple[bool, str | None]:
    """``(failed, wrong)`` for one trust-region solve.

    A solve fails when it did not converge, when its final point is not
    second order, or when f misses a closed-form f* (rosenbrock excepted).
    It is wrong when it reports convergence and still fails a check.
    """
    objective = problem.objective
    theta = trace.theta_final
    grad_norm = float(np.linalg.norm(objective.gradient(theta)))
    min_eig = float(np.linalg.eigvalsh(objective.hessian(theta))[0])
    faults = []
    if not (grad_norm <= GRAD_TOL and min_eig >= MIN_EIG_TOL):
        faults.append(f"not second order (grad {grad_norm:.2e}, eig {min_eig:.2e})")
    if problem.f_star is not None and not problem.name.startswith("rosenbrock"):
        f = objective.value(theta)
        if abs(f - problem.f_star) > F_STAR_TOL * max(1.0, abs(problem.f_star)):
            faults.append(f"f {f!r} is not f* {problem.f_star!r}")
    failed = not trace.converged or bool(faults)
    wrong = None
    if trace.converged and faults:
        wrong = f"{problem.name}: converged but " + "; ".join(faults)
    return failed, wrong


def _solve(probe, problem, solver, theta0) -> Outcome:
    objective = probe.objective(problem.objective)
    config = _tr_config(solver, problem)
    start = time.perf_counter()
    try:
        trace = probe.call("trust_region.itrust", itrust.itrust, objective, config, theta0)
    except RuntimeError:
        # itrust's documented error: a non-finite objective value.
        return Outcome(time.perf_counter() - start, failed=1)
    seconds = time.perf_counter() - start
    failed, wrong = check_solve(problem, trace)
    fingerprint = (trace.converged, trace.n_iterations, trace.theta_final.tobytes())
    return Outcome(seconds, failed=int(failed), wrong=wrong, fingerprint=fingerprint)


class TrEcimSuite:
    """itrust with the machine backend on the whole suite from classic starts,
    once per machine seed.

    rosenbrock2 and rosenbrock10 take 34 to 46 and 41 to 56 outer
    iterations depending on the machine seed, so the work of one seed's 8
    solves differs by up to 16% between seeds; six seeds a pass average most
    of that out.
    """

    name = "tr-ecim-suite"

    def __init__(
        self, seed: int, machine_iterations: int = 3000, problems=None, machine_seeds: int = 6
    ):
        self.seed = seed
        self.machine_iterations = machine_iterations
        self.machine_seeds = machine_seeds
        self.suite = [
            p for p in itrust.problem_suite() if problems is None or p.name in problems
        ]

    def inputs(self) -> list[int]:
        return derived_seeds(self.seed, self.machine_seeds)

    def run(self, machine_seeds: list[int], probe) -> list[Outcome]:
        outcomes = []
        for machine_seed in machine_seeds:
            solver = itrust.EcimConfig(
                iterations=self.machine_iterations, sigma2=0.0, seed=machine_seed
            )
            outcomes += [_solve(probe, p, solver, p.start) for p in self.suite]
        return outcomes


class TrBallMultistart:
    """itrust with the exact-ball backend, many seeded starts per problem."""

    name = "tr-ball-multistart"

    def __init__(self, seed: int, starts: int = 16, problems=None):
        self.seed = seed
        self.starts = starts
        self.suite = [
            p for p in itrust.problem_suite() if problems is None or p.name in problems
        ]

    def inputs(self) -> list:
        rng = np.random.default_rng(self.seed)
        return [
            (p, p.start + rng.normal(0.0, START_SPREAD, p.start.shape))
            for p in self.suite
            for _ in range(self.starts)
        ]

    def run(self, starts, probe) -> list[Outcome]:
        solver = itrust.ExactBallSolver()
        return [_solve(probe, p, solver, theta0) for p, theta0 in starts]


# ---------------------------------------------------------------------------
# CLI campaign


class OracleCampaign:
    """``itrust compare-oracles``: many small subproblems, both oracles each."""

    name = "oracle-campaign"

    def __init__(self, seed: int, out_dir: str, count: int = 24, machine_iterations: int = 10000):
        self.seed = seed
        self.out_dir = out_dir
        self.count = count
        self.machine_iterations = machine_iterations

    def inputs(self) -> int:
        return derived_seeds(self.seed)[0]

    def run(self, campaign_seed: int, probe) -> list[Outcome]:
        os.makedirs(self.out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as report_dir:
            argv = [
                "compare-oracles",
                "--count", str(self.count),
                "--K", str(self.machine_iterations),
                "--seed", str(campaign_seed),
                "--out", report_dir,
            ]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = probe.call("cli.main", cli.main, argv)
            seconds = time.perf_counter() - start
            report = os.path.join(report_dir, "compare-oracles.csv")
            rows = []
            if os.path.exists(report):
                with open(report, newline="") as fh:
                    rows = list(csv.DictReader(fh))
        return [self.check(code, rows, seconds)]

    def check(self, code: int, rows: list[dict], seconds: float) -> Outcome:
        """Each report row is one result and fails when ``passed`` is 0. When
        the command exits with an error code, not a verdict, every row fails."""
        row_failures = sum(1 for r in rows if r["passed"] != "1")
        wrong = None
        if code in (cli.EXIT_OK, cli.EXIT_VERIFICATION_FAILED):
            if len(rows) != self.count:
                wrong = f"report has {len(rows)} rows, expected {self.count}"
            elif (code == cli.EXIT_OK) != (row_failures == 0):
                wrong = f"exit code {code} with {row_failures} failed rows"
            failed = row_failures
        else:
            failed = self.count
        fingerprint = (code, tuple(tuple(r.items()) for r in rows))
        return Outcome(
            seconds, attempted=self.count, failed=failed, wrong=wrong, fingerprint=fingerprint
        )


# ---------------------------------------------------------------------------
# Large single machine runs


class MachineLargeN:
    """``run_ecim`` on planted-interior instances whose optimum is known."""

    name = "machine-large-n"

    def __init__(
        self,
        seed: int,
        n: int = 200,
        machine_iterations: int = 30000,
        instances: int = 3,
    ):
        self.seed = seed
        self.n = n
        self.machine_iterations = machine_iterations
        self.instances = instances

    def inputs(self) -> list:
        """``(model, config, E*)`` per instance; beta0 = None is the 1/L step."""
        rng = np.random.default_rng(self.seed)
        out = []
        for s in rng.integers(0, 2**31, self.instances):
            model = itrust.random_box_quadratic(self.n, int(s), kind="pl")
            s_star = np.linalg.solve(model.symmetric_coupling(), -model.field)
            config = itrust.EcimConfig(
                sigma2=SIGMA2, iterations=self.machine_iterations, seed=int(s)
            )
            out.append((model, config, itrust.energy(model, s_star)))
        return out

    def run(self, instances, probe) -> list[Outcome]:
        outcomes = []
        for model, config, e_star in instances:
            start = time.perf_counter()
            try:
                trace = probe.call("ecim.run", itrust.run_ecim, model, config)
            except itrust.DivergenceError:
                outcomes.append(Outcome(time.perf_counter() - start, failed=1))
                continue
            seconds = time.perf_counter() - start
            outcomes.append(self.check(trace, e_star, seconds))
            # Drop the trace before the next run allocates its own.
            del trace
        return outcomes

    def check(self, trace, e_star: float, seconds: float) -> Outcome:
        gap = trace.best_energy - e_star
        wrong = None
        if gap < -BELOW_OPTIMUM_TOL:
            wrong = f"best energy {trace.best_energy!r} below E* {e_star!r}"
        elif trace.best_energy != float(np.min(trace.energies)):
            wrong = "best energy is not the smallest traced energy"
        fingerprint = (trace.best_energy, trace.best_index)
        return Outcome(
            seconds, failed=int(not gap <= GAP_TOL), wrong=wrong, fingerprint=fingerprint
        )


WORKLOADS = {
    w.name: w for w in (TrEcimSuite, TrBallMultistart, OracleCampaign, MachineLargeN)
}


def make_workload(name: str, seed: int, out_dir: str):
    """The named workload at the benchmark's sizes."""
    if name == OracleCampaign.name:
        return OracleCampaign(seed, out_dir)
    return WORKLOADS[name](seed)
