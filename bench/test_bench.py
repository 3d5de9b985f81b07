"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench

Every metric ``BENCHMARK.json`` names is printed with its unit, counts of
two traced runs at one seed are identical, patches are undone, the host-speed
sampler leaves no timer running, a repeat that changes an output is caught,
and without the sources the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import signal
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import itrust  # noqa: E402
import itrust.cli  # noqa: E402
import itrust.trust_region  # noqa: E402
from reference import Sampled  # noqa: E402
from tracing import PATCHES, Tracer  # noqa: E402
from worker import checked  # noqa: E402
from workloads import (  # noqa: E402
    MachineLargeN,
    OracleCampaign,
    TrBallMultistart,
    TrEcimSuite,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", "machine-large-n",
            "--seed", "5",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, group):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def small_workloads(seed, tmp_path):
    return [
        TrEcimSuite(
            seed, machine_iterations=200, problems=("quad2", "rosenbrock2"), machine_seeds=2
        ),
        TrBallMultistart(seed, starts=2, problems=("quad5", "rosenbrock2")),
        OracleCampaign(seed, str(tmp_path), count=3, machine_iterations=500),
        MachineLargeN(seed, n=20, machine_iterations=500, instances=2),
    ]


def traced_counts(workload) -> dict:
    tracer = Tracer()
    with tracer.patched():
        workload.run(workload.inputs(), tracer)
    return tracer.layer_metrics()


def test_traced_counts_repeat_exactly(tmp_path):
    compared = (
        "trust_region.outer_iters",
        "objectives.n_f",
        "ecim.iters",
        "oracles.grid_points_computed",
    )
    totals = dict.fromkeys(compared, 0)
    for workload in small_workloads(3, tmp_path):
        first = traced_counts(workload)
        second = traced_counts(workload)
        for name in compared:
            assert first[name] == second[name], (workload.name, name)
            totals[name] += first[name]
    assert all(totals.values()), totals


def test_patches_are_undone(tmp_path):
    originals = [getattr(module, attr) for module, attr, _ in PATCHES]
    workload = small_workloads(1, tmp_path)[2]
    traced_counts(workload)
    assert [getattr(module, attr) for module, attr, _ in PATCHES] == originals
    assert itrust.cli.run_ecim is itrust.run_ecim
    assert itrust.trust_region.build_subproblem is itrust.build_subproblem


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampled_probe_times_each_call_and_stops_its_timer(tmp_path):
    workload = small_workloads(2, tmp_path)[3]
    probe = Sampled()
    outcomes = workload.run(workload.inputs(), probe)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.ops) == len(outcomes) == 2
    for (seconds, ref), outcome in zip(probe.ops, outcomes):
        assert 0.0 < seconds <= outcome.seconds
        assert ref > 0.0
    assert [o.fingerprint for o in outcomes] == [
        o.fingerprint for o in workload.run(workload.inputs(), Sampled())
    ]


def test_a_repeat_with_other_outputs_is_wrong():
    def one_pass(fingerprint, failed=0):
        return {"attempted": 2, "failed": failed, "wrong": [], "fingerprints": [1, fingerprint]}

    assert checked([one_pass(2), one_pass(2)]) == {"attempted": 2, "failed": 0, "wrong": []}
    result = checked([one_pass(2, failed=1), one_pass(2), one_pass(3)])
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["wrong"] == ["1 of 2 repeats changed the outputs of pass 0"]
