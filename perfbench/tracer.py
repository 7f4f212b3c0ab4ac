"""Span tracer for elastobie, applied from outside the package.

While a Tracer is installed, each traced public function is replaced, at
every attribute of every elastobie module that holds it (the defining
module, the modules that import it by name, and the package itself), by a
wrapper that records a span.  Leaving `installed()` puts the originals back;
an untraced run never calls it and so patches nothing.  Spans are kept in
memory and reduced to the per-layer metrics when the traced pass ends.

Spans nest by call stack, so the tracer assumes one thread; the benchmark
runs the harness with one worker thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

ROOT = "body"

# Traced functions, named by defining module (the layer) and function.
TRACED = (
    "geometry.sample_grid",
    "materials.trace_and_traction",
    "special.radial_suite",
    "kernels.kernel_split",
    "quadrature.build_quadrature",
    "quadrature.assemble_bio",
    "multipliers.symbol_matrix",
    "multipliers.apply_multiplier",
    "formulations.boundary_operators",
    "formulations.assemble_dirichlet",
    "formulations.assemble_neumann",
    "formulations.assemble_transmission",
    "formulations.reconstruct_fields",
    "ddm.rtr_interior",
    "ddm.rtr_exterior",
    "ddm.assemble_ddm",
    "solvers.gmres",
    "solvers.lu_solve",
    "postprocess.far_field",
    "postprocess.eval_potential",
    "harness.run_experiment",
)

# Per-layer self-time metrics and the spans whose self time each one sums.
# Every traced span and the root belong to exactly one entry, so the entries
# add up to the duration of the root span (the traced wall time).
SELF_TIMES = {
    "special.radial_suite.self_s": ("special.radial_suite",),
    "kernels.kernel_split.self_s": ("kernels.kernel_split",),
    "quadrature.build_quadrature.self_s": ("quadrature.build_quadrature",),
    "quadrature.assemble_bio.self_s": ("quadrature.assemble_bio",),
    "multipliers.symbol_matrix.self_s": ("multipliers.symbol_matrix",),
    "multipliers.apply_multiplier.self_s": ("multipliers.apply_multiplier",),
    # block assembly and regularizer GEMMs of the assemble_* functions
    "formulations.assemble.self_s": ("formulations.boundary_operators",
                                     "formulations.assemble_dirichlet",
                                     "formulations.assemble_neumann",
                                     "formulations.assemble_transmission"),
    "formulations.reconstruct_fields.self_s": ("formulations.reconstruct_fields",),
    "ddm.rtr.self_s": ("ddm.rtr_interior", "ddm.rtr_exterior"),
    "ddm.assemble_ddm.self_s": ("ddm.assemble_ddm",),
    "solvers.gmres.self_s": ("solvers.gmres",),
    "solvers.lu_solve.self_s": ("solvers.lu_solve",),
    "postprocess.far_field.self_s": ("postprocess.far_field",),
    "postprocess.eval_potential.self_s": ("postprocess.eval_potential",),
    "materials.trace_and_traction.self_s": ("materials.trace_and_traction",),
    "geometry.sample_grid.self_s": ("geometry.sample_grid",),
    # run_experiment minus its children, plus the benchmark's own loop
    "harness.self_s": ("harness.run_experiment", ROOT),
}

# name -> unit of every per-layer metric the traced run reports.
LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "special.radial_suite.points": "count",
    "kernels.kernel_split.calls": "count",
    "kernels.kernel_split.distinct_ratio": "ratio",
    "quadrature.build_quadrature.calls": "count",
    "quadrature.build_quadrature.distinct_ratio": "ratio",
    "multipliers.symbol_matrix.calls": "count",
    "formulations.boundary_operators.calls": "count",
    "formulations.boundary_operators.s": "s",
    "solvers.gmres.iterations": "count",
    "solvers.gmres.s_per_iter": "s",
    "trace.overhead_ratio": "ratio",
}


def _points(args, result):
    return int(np.size(args["r"]))


def _operator_key(args, result):
    m, g = args["material"], args["grid"]
    return (m.lam, m.mu, m.omega, g.curve.name, g.curve.cos_coeffs.tobytes(),
            g.curve.sin_coeffs.tobytes(), g.n, args["tag"])


def _quadrature_key(args, result):
    return args["n"]


def _iterations(args, result):
    return result.iterations


# What a span records about its call, for the counts and distinct ratios.
SPAN_INFO = {
    "special.radial_suite": _points,
    "kernels.kernel_split": _operator_key,
    "quadrature.build_quadrature": _quadrature_key,
    "solvers.gmres": _iterations,
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    info: object = None


class Tracer:
    """Collects spans in memory; `installed()` patches elastobie while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def _wrap(self, name: str, fn):
        info = SPAN_INFO.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if info is not None:
                span.info = info(signature.bind(*args, **kwargs).arguments,
                                 result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function at every site that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "elastobie"
                                         or key.startswith("elastobie."))]
        patched = []
        try:
            for name in TRACED:
                module, attr = name.split(".")
                original = getattr(sys.modules[f"elastobie.{module}"], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_ratio)."""
    by_name = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name].append((span, own))

    def total_self(names):
        return sum(own for name in names for _, own in by_name[name])

    def infos(name):
        return [span.info for span, _ in by_name[name]]

    def distinct_ratio(name):
        keys = infos(name)
        return len(set(keys)) / len(keys) if keys else 0.0

    out = {metric: total_self(names) for metric, names in SELF_TIMES.items()}
    iterations = sum(infos("solvers.gmres"))
    out.update({
        "special.radial_suite.points": sum(infos("special.radial_suite")),
        "kernels.kernel_split.calls": len(by_name["kernels.kernel_split"]),
        "kernels.kernel_split.distinct_ratio":
            distinct_ratio("kernels.kernel_split"),
        "quadrature.build_quadrature.calls":
            len(by_name["quadrature.build_quadrature"]),
        "quadrature.build_quadrature.distinct_ratio":
            distinct_ratio("quadrature.build_quadrature"),
        "multipliers.symbol_matrix.calls":
            len(by_name["multipliers.symbol_matrix"]),
        "formulations.boundary_operators.calls":
            len(by_name["formulations.boundary_operators"]),
        "formulations.boundary_operators.s":
            sum(s.end - s.start for s, _ in by_name["formulations.boundary_operators"]),
        "solvers.gmres.iterations": iterations,
        "solvers.gmres.s_per_iter":
            out["solvers.gmres.self_s"] / iterations if iterations else 0.0,
    })
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
