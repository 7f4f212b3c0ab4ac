"""One workload in a fresh process: set up, run timed passes, report as JSON.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS threads
pinned.  It prints `ready` once the inputs exist (run.py times set-up by
that line) and, as its last line, one JSON object with the raw measurements.
With --setup-only it exits after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# first-cell-only passes per run at most.  They fill the time the whole
# passes leave, between those passes: the machine's speed drifts over tens
# of seconds, so samples spread over the whole run are steadier.
MAX_FIRST_CELLS = 500
TRACED_PASSES = 3

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ELASTOBIE_THREADS")


def _openblas_libraries() -> dict:
    """Version string and runtime thread count of each loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info = {"threads": threads(), "config": config().decode()}
                break
            if info:
                break
        found[Path(path).name] = info
    return found


def environment() -> dict:
    """Machine, library versions and thread settings of this process."""
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), "")
    blas = _openblas_libraries()
    pinned = (os.environ.get("OPENBLAS_NUM_THREADS") == "1"
              and bool(blas)
              and all(lib.get("threads") == 1 for lib in blas.values()))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "harness_threads": 1,
        "blas_threads_pinned": pinned,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, inputs, tracer=None) -> dict:
    """One closed-loop pass over the workload's cells."""
    cells = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        with tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext():
            body = workload.body(inputs)
            start = last = time.perf_counter()
            while True:
                try:
                    cell = next(body)
                except StopIteration as stop:
                    final = stop.value
                    break
                now = time.perf_counter()
                cell.seconds, last = now - last, now
                cells.append(cell)
            wall = time.perf_counter() - start
    return {"wall_s": wall, "cells": cells, "final": final,
            "layers": tracing.layer_metrics(tracer.spans) if tracer else None,
            "peak_rss_mb": _peak_rss_mb()}


def first_cell(workload, inputs) -> dict:
    """A pass cut short after its first cell: one more first_cell_s sample."""
    body = workload.body(inputs)
    start = time.perf_counter()
    cell = next(body)
    cell.seconds = time.perf_counter() - start
    body.close()
    return {"wall_s": None, "cells": [cell], "final": None, "layers": None,
            "peak_rss_mb": None}


def measure(workload, inputs, seconds: float, trace: bool) -> list[dict]:
    """A fixed number of whole passes, whatever the machine's speed, so that
    every run and every commit takes its medians over the same mix of cold
    and warm passes: `workload.passes` untraced ones, or with `trace` three
    that alternate untraced, traced, untraced.  The first pass also warms
    the process (its first large arrays fault in fresh pages), so
    trace.overhead_ratio leaves it out.  An untraced run spends the rest of
    `seconds` on first-cell-only passes, spread evenly between the whole
    passes, so that first_cell_s rests on samples from the whole run."""
    if trace:
        return [run_pass(workload, inputs,
                         tracing.Tracer() if i % 2 == 1 else None)
                for i in range(TRACED_PASSES)]
    start = time.perf_counter()
    passes = [run_pass(workload, inputs)]
    if not passes[0]["cells"]:
        return passes
    whole = passes[0]["wall_s"]
    for remaining in range(workload.passes - 1, -1, -1):
        # this gap's share of the time that the whole passes leave over
        now = time.perf_counter()
        left = seconds - (now - start) - remaining * whole
        gap_end = now + left / max(remaining, 1)
        while len(passes) < workload.passes + MAX_FIRST_CELLS:
            first = statistics.median(p["cells"][0].seconds for p in passes)
            if time.perf_counter() + first > gap_end:
                break
            passes.append(first_cell(workload, inputs))
        if remaining:
            passes.append(run_pass(workload, inputs))
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    import elastobie

    if Path(elastobie.__file__).resolve().parent != SRC / "elastobie":
        print(f"error: imported {elastobie.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    pins = workloads.load_pins(args.workload)
    passes = measure(workload, inputs, args.seconds, bool(args.trace))
    gate = None
    final = passes[0]["final"]  # a whole pass; later passes may be cut short
    if workload.gate is not None and final is not None:
        gate = workloads.check(workload.gate(final), pins)
    for p in passes:
        p.pop("final")
        p["cells"] = [asdict(workloads.check(c, pins)) for c in p["cells"]]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "gate": None if gate is None else asdict(gate),
        "gate_expected": workload.gate is not None,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
