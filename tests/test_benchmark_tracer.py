"""Guard for the benchmark (perfbench/): every function its tracer traces
still exists under its name in its elastobie module and takes the argument
names that the tracer's span records read, trace_and_traction still takes
the workloads' three positional arguments, and every `eb.<name>` that its
scripts call is still exported by elastobie."""

import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import elastobie as eb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, executed from its source so that nothing is
    written next to it."""
    module = types.ModuleType("_perfbench_tracer")
    sys.modules[module.__name__] = module  # dataclasses look the module up
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def _traced(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"elastobie.{module}"), attr)


def test_every_traced_function_resolves(tracer):
    for name in tracer.TRACED:
        assert inspect.isfunction(_traced(name)), name


def test_span_records_bind_their_arguments(tracer, mat21):
    grid = eb.sample_grid(eb.make_curve("circle"), 8)
    calls = {
        "special.radial_suite": (mat21, np.array([0.5, 1.0])),
        "quadrature.build_quadrature": (8,),
        "solvers.gmres": (np.eye(3), np.ones(3)),
        "kernels.kernel_split": (mat21, grid, "V"),
    }
    assert set(calls) == set(tracer.SPAN_INFO)
    infos = {}
    for name, args in calls.items():
        fn = _traced(name)
        bound = inspect.signature(fn).bind(*args).arguments
        infos[name] = tracer.SPAN_INFO[name](bound, fn(*args))
    assert infos["special.radial_suite"] == 2
    assert infos["quadrature.build_quadrature"] == 8
    assert infos["solvers.gmres"] == 1
    assert infos["kernels.kernel_split"][-2:] == (8, "V")


def test_benchmark_call_of_trace_and_traction_binds(mat21):
    # the workloads call trace_and_traction(wave, grid, material) and read
    # the Cauchy data off the result
    grid = eb.sample_grid(eb.make_curve("circle"), 8)
    wave = eb.plane_wave(mat21, [1.0, 0.0], [0.0, 1.0])
    fn = _traced("materials.trace_and_traction")
    inspect.signature(fn).bind(wave, grid, mat21)
    cd = fn(wave, grid, mat21)
    assert cd.trace.shape == cd.traction.shape == (grid.size, 2)


def test_star_import_binds_no_module():
    assert not [name for name in eb.__all__
                if isinstance(getattr(eb, name), types.ModuleType)]


def test_every_name_the_benchmark_calls_is_exported():
    names = {name for path in PERFBENCH.glob("*.py")
             for name in re.findall(r"\beb\.(\w+)", path.read_text())}
    assert "run_experiment" in names  # the scan sees the workloads
    assert not {name for name in names if not hasattr(eb, name)}
