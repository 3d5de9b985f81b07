"""itrust benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload tr-ecim-suite --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout: the benchmark imports ``itrust``
from ``src/`` and refuses to run without it. Workloads, metrics and the
reasons for them are in ``bench/README.md``; ``BENCHMARK.json`` lists them.

The run starts the workload in fresh processes of its own (``worker.py``):
several that only set up, for the ``setup_s`` median, then one that
measures. That one is the only process generating load. It repeats one
pass of seeded inputs; ``attempted`` and ``failed`` count its operations
once, so they depend on the seed alone. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up samples per untraced run, the measuring process included; setup_s
# is their median. The traced run reports no setup_s and starts only the
# measuring process.
SETUP_SAMPLES = 9
# A run ends within TIME_LIMIT seconds even when a worker hangs: each set-up
# process may take SETUP_TIMEOUT, the measuring one what is left. A traced
# run makes one untraced and one traced pass whatever the budget: about 60 s
# on tr-ecim-suite, and 90 s at a seed whose rosenbrock10 solve stalls.
TIME_LIMIT = 170
SETUP_TIMEOUT = 5

WORKLOAD_NAMES = (
    "tr-ecim-suite",
    "tr-ball-multistart",
    "oracle-campaign",
    "machine-large-n",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: argparse.Namespace, setup_only: bool, timeout: float) -> dict:
    """Run ``worker.py`` once; its JSON line plus its set-up time."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed and reaped the worker.
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["itrust"]).resolve().parent != SRC / "itrust":
        raise BenchmarkError(f"imported itrust from {result['itrust']}, not {SRC}")
    result["setup_s"] = result["ready"] - spawned
    return result


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten values above it."""
    n = len(values)
    if n <= 10:
        return "none with 10 above it"
    q = int(100 * (n - 10) / n)
    return f"p{q} {statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.4f} s"


def report(args, setups: list[float], result: dict, units: dict) -> dict:
    passes = result["passes"]
    attempted = result["attempted"]
    failed = result["failed"]
    wrong = result["wrong"]
    walls = [p["seconds"] for p in passes]
    ops = [s for p in passes for s in p["op_seconds"]]
    env = result["env"]

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"blas {env['blas']}  threads {env['process_threads']}"
    )
    for message in wrong:
        print(f"WRONG OUTPUT: {message}")
    print(f"fail_frac    {failed / attempted:.4f}  ({failed} of {attempted} results failed)")
    print(f"setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)} process starts)")
    if args.trace:
        layers = result["layers"]
        for name, value in layers.items():
            print(f"{name:<30} {value}")
        print(f"spans: {result['spans']}")
        metrics = {name: layers[name] for name in units}
    else:
        print(
            f"wall_s       {statistics.median(walls):.4f} s  (median of {len(walls)} passes; "
            f"mean {statistics.mean(walls):.4f} s; tail {tail(walls)})"
        )
        print(
            f"op_s         {statistics.median(ops):.4f} s  (median of {len(ops)} operations; "
            f"tail {tail(ops)})"
        )
        refs = [p["ref"] for p in passes]
        print(
            f"wall_ref     {statistics.median(refs):.1f} ref  (median of {len(refs)} passes; "
            f"range {min(refs):.1f} to {max(refs):.1f})"
        )
        print(f"peak_rss_mb  {result['peak_rss_mb']:.2f} MB")
        metrics = {
            "wall_ref": statistics.median(refs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for this run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="itrust benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "itrust" / "__init__.py").is_file():
        print(f"no itrust sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    started = time.monotonic()
    try:
        setups = [
            spawn(args, setup_only=True, timeout=SETUP_TIMEOUT)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        timeout = started + TIME_LIMIT - time.monotonic()
        result = spawn(args, setup_only=False, timeout=timeout)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    print(json.dumps(report(args, setups, result, metric_units(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
