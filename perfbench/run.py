"""Layered pipeline benchmark for coracmg.

    python3 perfbench/run.py --workload rag-k3 --seed 1 --seconds 15 --trace 0

Run from the repository root.  Set-up runs three times (once, traced, with
``--trace 1``) and ``setup_s`` is the median.  The timed part repeats passes
of the workload until ``--seconds`` have elapsed and reports medians.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced set-up plus one traced pass are reported (the median
over traced passes), along with the span coverage of the traced pass and
its overhead over the untraced one.

Output checks run after the timed part.  A failed check prints the reason
to stderr and exits with status 1 without a result.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "answer_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workers: int) -> dict:
    import numpy

    import coracmg

    git = subprocess.run(["git", "--version"], capture_output=True, text=True, check=True)
    return {
        "kernel_backend": getattr(coracmg, "KERNEL_BACKEND", "none"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git.stdout.strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
    }


def measure(workload, seconds: float, trace: int):
    """Set-up times, the passes, and for a traced run the per-layer metrics.

    Each pass starts after a full garbage collection, so none pays for the
    last one's garbage.  Objects alive after set-up (the benchmark's own copy
    of the inputs, which a user's process would not hold) are frozen out of
    collection.
    """
    from layers import PER_LAYER_UNITS, instrument, layer_metrics
    from tracing import Tracer

    setup_times, setup_counts = [], {}
    setup_tracer = Tracer()
    if trace:
        instrument(setup_tracer)
        try:
            setup_counts = workload.setup()
        finally:
            setup_tracer.restore()
    else:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
    gc.collect()
    gc.freeze()

    passes, untraced_walls, traced_walls, per_pass = [], [], [], []

    def untraced_pass():
        started = time.perf_counter()
        passes.append(workload.run(lambda name: nullcontext()))
        untraced_walls.append(time.perf_counter() - started)

    def traced_pass():
        tracer = Tracer(base=setup_tracer)
        instrument(tracer)
        try:
            started = time.perf_counter()
            result = workload.run(tracer.span)
            ended = time.perf_counter()
        finally:
            tracer.restore()
        passes.append(result)
        traced_walls.append(ended - started)
        values = layer_metrics(tracer, {**setup_counts, **result["counts"]})
        values["trace.coverage"] = tracer.coverage(started, ended)
        per_pass.append(values)

    # Traced and untraced passes swap order every round, so neither side
    # always runs first.
    orders = [(untraced_pass, traced_pass), (traced_pass, untraced_pass)] if trace else [(untraced_pass,)]
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for one_pass in orders[len(untraced_walls) % len(orders)]:
            gc.collect()
            one_pass()
    if not trace:
        return setup_times, passes, None
    layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return setup_times, passes, {name: layer[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coracmg").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: coracmg sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from layers import PER_LAYER_UNITS
    from workloads import WORKERS, WORKLOADS, CheckFailed, check_backends, check_names

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times, passes, layer = measure(workload, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            facts = workload.check(passes)
            facts["backends"] = check_backends()
            if layer is not None and layer["trace.coverage"] < 0.9:
                raise CheckFailed(f"named spans cover only {layer['trace.coverage']:.1%} of the pass")
            if args.trace:
                check_names(ROOT / "BENCHMARK.json", "per_layer", PER_LAYER_UNITS)
            else:
                check_names(ROOT / "BENCHMARK.json", "end_to_end", END_TO_END_UNITS)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "answer_s": statistics.median(p["answer_s"] for p in passes),
            "items_per_s": statistics.median(p["items_per_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)}")
    print("env " + json.dumps(environment(WORKERS), sort_keys=True))
    print("checks " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<45} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
