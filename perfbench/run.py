"""elastobie benchmark: end-to-end or per-layer metrics of one workload.

    python3 perfbench/run.py --workload transmission|manufactured|multistatic
                             --seed N --seconds S --trace 0|1

Runs from the root of a checkout; imports elastobie from its `src`.  The
workload runs in a fresh process (worker.py) with BLAS threads and harness
threads pinned to 1.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; both check every cell
against the pinned seed values in baseline.json.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the full record,
with the environment, goes to perfbench/results/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

SETUP_PROBES = 3      # set-up-only processes before the worker and as many
                      # after it; setup_s is the median over all seven
RUN_LIMIT_S = 170.0   # the whole run must exit well within 180 s

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ELASTOBIE_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start(args: list[str], deadline: float):
    """Start worker.py; return (process, seconds until it printed `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=_env(),
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RunError(f"worker did not get ready: {line.strip()!r}")
    return proc, ready


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(record: dict, setup: list[float]) -> dict:
    passes = record["passes"]
    whole = [p for p in passes if p["wall_s"] is not None]
    cells = [c["seconds"] for p in whole for c in p["cells"]]
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median([p["wall_s"] for p in whole]), "s"),
        "cell_s.p50": (_median(cells), "s"),
        # warm passes only, when there are any: the run's first pass also
        # pays the process's one-time costs, and how many warm samples join
        # it depends on the machine's speed
        "first_cell_s": (_median([p["cells"][0]["seconds"]
                                  for p in passes[1:] or passes
                                  if p["cells"]]), "s"),
        # after the first pass: later passes reuse a heap grown by earlier ones
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MiB"),
    }


def per_layer(record: dict) -> dict:
    traced = [p for p in record["passes"] if p["layers"] is not None]
    plain = [p["wall_s"] for p in record["passes"][1:] if p["layers"] is None]
    values = tracer.median_metrics([p["layers"] for p in traced])
    values["trace.overhead_ratio"] = (
        _median([p["wall_s"] for p in traced]) / _median(plain) - 1.0)
    return {name: (values[name], unit)
            for name, unit in tracer.LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="elastobie benchmark (see perfbench/METRICS.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elastobie" / "__init__.py").is_file():
        print(f"error: no elastobie sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def probe_setup():
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe, seconds = _start(common + ["--setup-only"], deadline)
            _finish(probe, deadline)
            setup.append(seconds)

    try:
        probe_setup()
        proc, ready = _start(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], deadline)
        record = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
        setup.append(ready)
        probe_setup()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cells = [c for p in record["passes"] for c in p["cells"]]
    failures = [c for c in cells if c["problems"]]
    gate_ok = (not record["gate_expected"] or (record["gate"] is not None
                                               and not record["gate"]["problems"]))
    if not gate_ok:
        failures.append(record["gate"] or {"key": "gate", "problems": ["not run"]})
    valid = record["environment"]["blas_threads_pinned"]
    metrics = per_layer(record) if args.trace else end_to_end(record, setup)

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(record['passes'])}  cells {len(cells)}  "
          f"failed {len(failures)}  valid {valid}")
    print(f"env nproc {env['nproc']}  cpu {env['cpu_model']!r}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"threads {env['thread_env']}")
    for c in failures:
        print(f"FAILED {c['key']}: {'; '.join(c['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "valid": valid, "setup_samples_s": setup,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   **record}, fh, indent=1)
    print(json.dumps({
        "correct": valid and not failures,
        "attempted": len(cells) + record["gate_expected"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
