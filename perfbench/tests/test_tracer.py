"""Tests of the benchmark's tracer and of the metrics the benchmark reports.

    python3 -m pytest perfbench/tests -q

test_every_layer_metric_is_emitted runs each workload traced, about two
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import elastobie  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as BODY, Span  # noqa: E402

ORIGINAL_GMRES = elastobie.solvers.gmres


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(BODY, None, 0.0, 10.0),
        Span("harness.run_experiment", 0, 1.0, 9.0),
        Span("kernels.kernel_split", 1, 2.0, 6.0),
        Span("special.radial_suite", 2, 3.0, 4.0),
        Span("special.radial_suite", 2, 4.5, 5.5),
        Span("solvers.gmres", 1, 7.0, 8.5),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [2.0, 2.5, 2.0, 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(BODY, None, 0.0, 10.0),
        Span("solvers.gmres", 0, 1.0, 5.0),
        Span("solvers.lu_solve", 0, 3.0, 7.0),
        Span("postprocess.far_field", 0, 9.0, 12.0),  # clipped at 10
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_add_up_to_the_root_span():
    spans = [
        Span(BODY, None, 0.0, 10.0),
        Span("harness.run_experiment", 0, 1.0, 9.0),
        Span("kernels.kernel_split", 1, 2.0, 6.0, info=("mat", "V")),
        Span("special.radial_suite", 2, 3.0, 4.0, info=100),
        Span("special.radial_suite", 2, 4.5, 5.5, info=28),
        Span("kernels.kernel_split", 1, 6.0, 7.0, info=("mat", "V")),
        Span("solvers.gmres", 1, 7.0, 8.5, info=30),
    ]
    m = tracing.layer_metrics(spans)
    assert sum(m[name] for name in tracing.SELF_TIMES) == pytest.approx(10.0)
    assert m["harness.self_s"] == pytest.approx(2.0 + 1.5)
    assert m["kernels.kernel_split.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["kernels.kernel_split.calls"] == 2
    assert m["kernels.kernel_split.distinct_ratio"] == pytest.approx(0.5)
    assert m["special.radial_suite.points"] == 128
    assert m["solvers.gmres.iterations"] == 30
    assert m["solvers.gmres.s_per_iter"] == pytest.approx(1.5 / 30)
    assert m["quadrature.build_quadrature.distinct_ratio"] == 0.0


def _module_attributes() -> dict:
    return {(key, attr): id(value) for key, mod in sys.modules.items()
            if key == "elastobie" or key.startswith("elastobie.")
            for attr, value in vars(mod).items()}


SMALL = {
    "problem": "dirichlet",
    "geometry": {"kind": "circle"},
    "materials": {"exterior": {"lam": 2.0, "mu": 1.0}},
    "incidence": {"type": "P", "direction": [0.0, -1.0]},
    "formulations": [{"name": "CFIER"}],
    "cases": [{"omega": 2.0, "n": 8}],
    "solver": {"tol": 1e-8},
}


class _Probe:
    """A one-cell workload that records whether gmres is wrapped while it runs."""

    def __init__(self):
        self.wrapped = []

    def body(self, inputs):
        self.wrapped.append(elastobie.harness.gmres is not ORIGINAL_GMRES)
        (row,) = elastobie.run_experiment(SMALL, threads=1)
        yield workloads.Cell("cell", iterations=row.iterations)
        return "done"


def test_untraced_pass_patches_nothing_and_traced_pass_restores():
    before = _module_attributes()
    probe = _Probe()
    plain = worker.run_pass(probe, None)
    assert probe.wrapped == [False] and plain["layers"] is None
    assert plain["final"] == "done" and len(plain["cells"]) == 1

    traced = worker.run_pass(probe, None, tracing.Tracer())
    assert probe.wrapped == [False, True]
    assert _module_attributes() == before
    assert elastobie.harness.gmres is ORIGINAL_GMRES

    layers = traced["layers"]
    assert sum(layers[name] for name in tracing.SELF_TIMES) == pytest.approx(
        traced["wall_s"], rel=1e-3)
    assert layers["kernels.kernel_split.calls"] == 2          # V and K
    assert layers["quadrature.build_quadrature.calls"] == 1
    assert layers["solvers.gmres.iterations"] == traced["cells"][0].iterations
    assert layers["special.radial_suite.points"] > 0


def test_unit_table_matches_benchmark_json():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transmission",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_layer_metric_is_emitted(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _benchmark_spec()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
