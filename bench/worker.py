"""One workload in one process: set up, run passes for a time budget, report.

``run.py`` starts this script once per set-up sample and once to measure.
It prints a single JSON line: the monotonic time at which set-up ended (the
first timed call), and, unless ``--setup-only``, the measured passes.

Every pass runs the same inputs, made from the seed, and must reproduce the
first pass's outputs; its results count once. Untraced (``--trace 0``):
nothing is patched, and each call is timed against the reference loop of
``reference.py``. Traced (``--trace 1``): passes run alternately untraced and
traced, so every traced pass must give the same counts and the overhead
compares like with like.
"""

import os

# BLAS threads must be pinned before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import itrust  # noqa: E402
from reference import Sampled  # noqa: E402
from tracing import EXACT_METRICS, Tracer  # noqa: E402
from workloads import Direct, make_workload  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "process_threads": threads,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_pass(workload, inputs, probe) -> dict:
    outcomes = workload.run(inputs, probe)
    return {
        "seconds": sum(o.seconds for o in outcomes),
        "op_seconds": [o.seconds for o in outcomes],
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "wrong": [o.wrong for o in outcomes if o.wrong],
        "fingerprints": [o.fingerprint for o in outcomes],
    }


def checked(passes: list[dict]) -> dict:
    """Counts of the run: every pass repeats the first one's operations, so
    its results count once. A repeat that does not reproduce the first
    pass's outputs is a wrong output."""
    first = passes[0]
    wrong = [w for p in passes for w in p["wrong"]]
    repeats = sum(p["fingerprints"] != first["fingerprints"] for p in passes[1:])
    if repeats:
        wrong.append(f"{repeats} of {len(passes) - 1} repeats changed the outputs of pass 0")
    return {"attempted": first["attempted"], "failed": first["failed"], "wrong": wrong}


def measure(workload, inputs, seconds: float) -> dict:
    """The same pass again and again until the next one would overrun
    ``seconds``; each call is timed against the reference loop."""
    passes = []
    start = time.perf_counter()
    while True:
        probe = Sampled()
        p = run_pass(workload, inputs, probe)
        # One probe call per operation.
        assert len(probe.ops) == len(p["op_seconds"]), workload.name
        p["op_seconds"] = [op_seconds for op_seconds, _ in probe.ops]
        p["seconds"] = sum(p["op_seconds"])
        p["ref"] = sum(ref for _, ref in probe.ops)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    result = checked(passes)
    for p in passes:
        del p["fingerprints"], p["wrong"]
    result.update(passes=passes, peak_rss_mb=peak_rss_mb())
    return result


def measure_traced(workload, inputs, seconds: float, spans_path: str) -> dict:
    """The same pass again and again, untraced then traced, within ``seconds``.

    The spans of the first traced pass go to ``spans_path``; later passes
    repeat its calls.
    """
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, inputs, Direct()))
        tracer = Tracer()
        with tracer.patched():
            traced.append(run_pass(workload, inputs, tracer))
        layers.append(tracer.layer_metrics())
        if len(traced) == 1:
            spans = tracer.spans
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break

    result = checked(untraced + traced)
    for name in EXACT_METRICS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            result["wrong"].append(
                f"{name} differs between runs of the same inputs: {sorted(values)}"
            )
    # Count-based metrics are the same on every pass (checked above); times
    # take the median.
    metrics = {
        name: value if name in EXACT_METRICS else statistics.median(m[name] for m in layers)
        for name, value in layers[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(
        t["seconds"] - u["seconds"] for t, u in zip(traced, untraced)
    )
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
        fh.write("\n")
    for p in traced:
        del p["fingerprints"], p["wrong"]
    result.update(passes=traced, layers=metrics, spans=spans_path)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed, args.out_dir)
    inputs = workload.inputs()
    ready = time.monotonic()
    result = {"ready": ready, "itrust": itrust.__file__}
    if not args.setup_only:
        result["env"] = environment()
        if args.trace:
            spans_path = os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"
            )
            result.update(measure_traced(workload, inputs, args.seconds, spans_path))
        else:
            result.update(measure(workload, inputs, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
