"""Experiment configuration, benchmark runner, and CSV table emission.

A configuration is a plain dict (usually parsed from a JSON file) with the
following schema; see PRESETS for complete examples.

    {
      "table":        free-text name of the mirrored benchmark table,
      "problem":      "manufactured" | "dirichlet" | "neumann" | "transmission",
      "geometry":     {"kind": "circle" | "starfish" | "cavity"
                       | "fourier_custom", ...params},
      "materials":    {"exterior": {"lam": ..., "mu": ...},
                       "interior": {...}},          # interior: transmission only
      "incidence":    {"type": "P" | "S"?, "direction": [dx, dy],
                       "polarization": [px, py]?}
                      or {"type": "point_source", "location": [x, y],
                          "polarization": [qx, qy]},
      "formulations": [{"name": ..., "label": ...?, "coupling": ...?}, ...],
      "cases":        [{"omega": ..., "n": ...}, ...],
      "solver":       {"tol": ... (default 1e-8), "maxiter": ...?},
      "timing":       "wall" (default) | "none",
      "output":       optional CSV path
    }

Formulation names by problem: manufactured V | K | W; dirichlet CFIE | CFIER;
neumann CFIE | CFIER | DCFIER; transmission SC | KR | DCFIER | ICFIER | OS.
Defaults: the quasi-optimal coupling (CFIE) or complexified wavenumber rule
(CFIER/OS), the name as label, type "P", and the polarization d (P) or
(-dy, dx) (S).  run_experiment reads, checks and converts each field once
and, before any cell runs, names a missing required field (every key above
but "table", "solver", "timing", "output" and those marked ?; "interior" for
transmission only), an object or list that is none, and a value no cell can
run: an unknown problem, incidence type, formulation name or curve kind, a
material with mu <= 0 or lam + mu <= 0, a direction or polarization that is
not a nonzero finite 2-vector, a location that is not a finite 2-vector, an
omega that is not positive, an n that is not an integer >= 4, a label that
is not a string free of commas and line breaks, a CFIE coupling that is not
a nonzero finite number, a CFIER, DCFIER, ICFIER or OS coupling kappa
without Re kappa > 0 and Im kappa > 0 (JSON has no complex numbers: write
kappa as a string such as "10+2j"), a solver.tol that is not a positive
finite number, a solver.maxiter that is not a positive integer, a timing
other than "wall" or "none", and a worker-thread count (see run_experiment)
that is not an integer >= 1, naming its source.

Rows are deterministic given a config except for the wall-time column; set
"timing": "none" to zero it and obtain bit-identical CSV across runs.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .ddm import assemble_ddm
from .formulations import (assemble_dirichlet, assemble_neumann,
                           assemble_transmission, boundary_operators,
                           PotentialRepresentation, PotentialTerm)
from .geometry import make_curve, sample_grid
from .materials import make_material, plane_wave, point_source, trace_and_traction
from .multipliers import make_symbol
from .postprocess import (FarField, _gammas, default_directions, eps_inf,
                          far_field)
from .quadrature import flatten_density, unflatten_density
from .solvers import gmres, lu_solve

__all__ = ["ReportRow", "run_experiment", "emit_table", "load_config",
           "PRESETS", "THREADS_ENV_VAR"]

THREADS_ENV_VAR = "ELASTOBIE_THREADS"

CSV_COLUMNS = ("omega", "n", "formulation", "iterations", "eps_inf", "seconds")


@dataclass(frozen=True)
class ReportRow:
    """One benchmark cell: a (frequency, discretization, formulation) solve."""

    omega: float
    n: int
    formulation: str
    iterations: int
    eps_inf: float | None
    seconds: float

    def __post_init__(self):
        if self.iterations < 0 or self.seconds < 0:
            raise ValueError("counts and times must be non-negative")
        if self.eps_inf is not None and self.eps_inf < 0:
            raise ValueError("errors must be non-negative")


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# The layer potential each manufactured column (V, K or W) represents.
_MANUFACTURED_LAYERS = {"V": "SL", "K": "DL", "W": "DL"}

# The formulation names each problem knows.
_FORMULATIONS = {
    "manufactured": tuple(_MANUFACTURED_LAYERS),
    "dirichlet": ("CFIE", "CFIER"),
    "neumann": ("CFIE", "CFIER", "DCFIER"),
    "transmission": ("SC", "KR", "DCFIER", "ICFIER", "OS"),
}


def _get(parent, path: str, *default):
    """The config field named `path`, whose last key is read from `parent`;
    a missing field is required unless a default is given."""
    parent_path, _, key = path.rpartition(".")
    if not isinstance(parent, dict):
        raise ValueError(f"{parent_path or 'config'} {parent!r} is not an object")
    if key in parent:
        return parent[key]
    if not default:
        raise ValueError(f"config lacks the required field {path!r}")
    return default[0]


def _vector(parent, path: str, *default, nonzero: bool = True):
    """A finite 2-vector field as floats; nonzero unless told otherwise."""
    value = _get(parent, path, *default)
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = np.empty(0)
    if v.shape != (2,) or not np.isfinite(v).all() or nonzero and not v.any():
        raise ValueError(f"{path} {value!r} is not a "
                         f"{'nonzero ' if nonzero else ''}finite 2-vector")
    return v


def _formulation(form, path: str, problem: str) -> tuple:
    """The checked (name, label, coupling) of the formulation at `path`."""
    name = _get(form, f"{path}.name")
    if name not in _FORMULATIONS[problem]:
        raise ValueError(f"{path}.name {name!r} is not a {problem} formulation")
    # emit_table writes labels unquoted: these would split a CSV row
    label = _get(form, f"{path}.label", name)
    if not (isinstance(label, str) and "," not in label
            and "".join(label.splitlines()) == label):
        raise ValueError(f"{path}.label {label!r} is not a string free of "
                         "commas and line breaks")
    # CFIE reads the coupling as eta, SC, KR and the manufactured columns
    # ignore it, and the regularized formulations and OS read it as kappa
    value = _get(form, f"{path}.coupling", None)
    if value is None or name in ("SC", "KR", *_MANUFACTURED_LAYERS):
        return name, label, None
    try:
        coupling = complex(value)
        if name != "CFIE":
            make_symbol("LambdaKappa", kappa=coupling, n_max=0)
        elif coupling == 0 or not np.isfinite(coupling):
            raise ValueError("eta is not a nonzero finite number")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}.coupling {value!r}: {exc}") from None
    return name, label, coupling


def _cells(config: dict) -> list:
    """Check and convert each config field once, naming a bad one; return
    the function that runs each (case, formulation) cell, in table order."""
    problem = _get(config, "problem")
    if not (isinstance(problem, str) and problem in _FORMULATIONS):
        raise ValueError(f"problem {problem!r} is not one of "
                         f"{', '.join(_FORMULATIONS)}")
    geometry = _get(config, "geometry")
    kind = _get(geometry, "geometry.kind")
    try:
        curve = make_curve(kind, params={k: v for k, v in geometry.items()
                                         if k != "kind"} or None)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"geometry.kind {kind!r} cannot be built: "
                         f"{exc}") from None
    # (lam, mu) of the exterior material, then of the interior one
    materials, lame = _get(config, "materials"), []
    for role in ("exterior", "interior")[:1 + (problem == "transmission")]:
        material = _get(materials, f"materials.{role}")
        lame.append(tuple(_get(material, f"materials.{role}.{key}")
                          for key in ("lam", "mu")))
        try:
            make_material(*lame[-1], omega=1.0)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"materials.{role}: {exc}") from None
    incidence = _get(config, "incidence")
    kind = _get(incidence, "incidence.type", "P")
    kinds = ("point_source",) if problem == "manufactured" else (
        "P", "S", "point_source")
    if kind not in kinds:
        raise ValueError(f"incidence.type {kind!r} is not one of {kinds} "
                         f"for a {problem} problem")
    # the incident field is source(material, a, b)
    if kind == "point_source":
        source, a = point_source, _vector(incidence, "incidence.location",
                                          nonzero=False)
        b = _vector(incidence, "incidence.polarization")
    else:
        a = _vector(incidence, "incidence.direction")
        source, a = plane_wave, a / np.linalg.norm(a)
        b = _vector(incidence, "incidence.polarization",
                    [-a[1], a[0]] if kind == "S" else a)
    forms, cases = _get(config, "formulations"), _get(config, "cases")
    for key, value in (("formulations", forms), ("cases", cases)):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} {value!r} is not a list")
    forms = [_formulation(form, f"formulations[{i}]", problem)
             for i, form in enumerate(forms)]
    checked = []
    for i, case in enumerate(cases):
        omega, n = (_get(case, f"cases[{i}].{key}") for key in ("omega", "n"))
        if not (isinstance(omega, numbers.Real) and 0 < omega < np.inf):
            raise ValueError(f"cases[{i}].omega {omega!r} is not a positive "
                             "finite number")
        if not (isinstance(n, numbers.Integral) and n >= 4):
            raise ValueError(f"cases[{i}].n {n!r} is not an integer >= 4")
        checked.append((float(omega), int(n)))
    solver = _get(config, "solver", {})
    tol = _get(solver, "solver.tol", 1e-8)
    maxiter = _get(solver, "solver.maxiter", None)
    if not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise ValueError(f"solver.tol {tol!r} is not a positive finite number")
    if not (maxiter is None
            or isinstance(maxiter, numbers.Integral) and maxiter >= 1):
        raise ValueError(f"solver.maxiter {maxiter!r} is not a positive "
                         "integer")
    timing = _get(config, "timing", "wall")
    if timing not in ("wall", "none"):
        raise ValueError(f"timing {timing!r} is not 'wall' or 'none'")

    assemble = {"dirichlet": assemble_dirichlet, "neumann": assemble_neumann,
                "transmission": assemble_transmission}.get(problem)

    def cell(omega, n, name, label, coupling):
        t0 = time.perf_counter()
        grid = sample_grid(curve, n)
        mats = [make_material(lam, mu, omega) for lam, mu in lame]
        iterations, converged, err = 0, True, None
        if problem == "manufactured":
            err = _manufactured_cell(name, mats[0], grid, a, b)
        else:
            # every assembler takes the coupling (eta or kappa) after the grid
            args = (*mats, grid, coupling, source(mats[0], a, b))
            system = (assemble_ddm(*args) if name == "OS"
                      else assemble(name, *args))
            report = gmres(system.operator, system.rhs, tol, maxiter)
            iterations, converged = report.iterations, report.converged
        seconds = 0.0 if timing == "none" else time.perf_counter() - t0
        return ReportRow(omega=omega, n=n,
                         formulation=label if converged else label + "!",
                         iterations=iterations, eps_inf=err, seconds=seconds)

    return [functools.partial(cell, omega, n, *form)
            for omega, n in checked for form in forms]


def _manufactured_cell(form, material, grid, x0, q) -> float:
    """eps_inf of one manufactured-solution column (V, K or W), solved by
    direct LU, for the point source Phi(., x0) q."""
    cd = trace_and_traction(point_source(material, x0, q), grid, material)
    A = boundary_operators(material, grid, tags=(form,))[form]
    if form == "K":
        A = 0.5 * np.eye(2 * grid.size, dtype=complex) + A
    rhs = flatten_density(cd.traction if form == "W" else cd.trace)
    density = unflatten_density(lu_solve(A, rhs).x)
    rep = PotentialRepresentation(
        terms=(PotentialTerm(_MANUFACTURED_LAYERS[form], material, grid,
                             density),))
    reference = _point_source_far_field(material, x0, q, *default_directions())
    return eps_inf(far_field(rep), reference)


def _point_source_far_field(material, x0, q, angles, dirs) -> FarField:
    """Analytic far field of the elastodynamic point source Phi(., x0) q."""
    gp, gs = _gammas(material)
    phase_p = np.exp(-1j * material.kp * (dirs @ x0))
    phase_s = np.exp(-1j * material.ks * (dirs @ x0))
    xq = dirs @ q
    up = gp * phase_p[:, None] * dirs * xq[:, None]
    us = gs * phase_s[:, None] * (q[None, :] - dirs * xq[:, None])
    return FarField(angles=angles, directions=dirs, up=up, us=us)


def run_experiment(config: dict, threads: int | None = None) -> list[ReportRow]:
    """Run every (case, formulation) cell of the configuration.

    Independent cells run in a thread pool of the requested size (argument,
    else $ELASTOBIE_THREADS, else serial; an integer >= 1); the report is
    assembled in deterministic order regardless of scheduling.
    """
    cells = _cells(config)
    source, nthreads = "threads", threads
    if threads is None:
        source, nthreads = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR) or "1"
        nthreads = int(nthreads) if nthreads.isdecimal() else nthreads
    if not (isinstance(nthreads, numbers.Integral) and nthreads >= 1):
        raise ValueError(f"{source} {nthreads!r} is not an integer >= 1")
    if nthreads == 1:
        return [cell() for cell in cells]
    with concurrent.futures.ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [pool.submit(cell) for cell in cells]
        return [f.result() for f in futures]


def _format_row(row: ReportRow) -> list[str]:
    return [
        f"{row.omega:g}",
        str(row.n),
        row.formulation,
        str(row.iterations),
        "" if row.eps_inf is None else f"{row.eps_inf:.6e}",
        f"{row.seconds:.3f}",
    ]


def emit_table(rows, path=None, fmt: str = "csv", table_name: str | None = None) -> str:
    """Render rows as CSV (default) or aligned text; write to path if given.

    The first line is a comment naming the mirrored benchmark table."""
    cells = [_format_row(r) for r in rows]
    lines = []
    comment = f"# table: {table_name}" if table_name else "# table: (unnamed)"
    if fmt == "csv":
        lines.append(comment)
        lines.append(",".join(CSV_COLUMNS))
        lines.extend(",".join(c) for c in cells)
    elif fmt == "aligned-text":
        widths = [max(len(CSV_COLUMNS[j]), *(len(c[j]) for c in cells))
                  if cells else len(CSV_COLUMNS[j])
                  for j in range(len(CSV_COLUMNS))]
        lines.append(comment)
        lines.append("  ".join(h.ljust(w) for h, w in zip(CSV_COLUMNS, widths)))
        lines.extend("  ".join(c[j].ljust(widths[j])
                               for j in range(len(CSV_COLUMNS))) for c in cells)
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def _dirichlet_preset(geometry: str, table: str) -> dict:
    return {
        "table": table,
        "problem": "dirichlet",
        "geometry": {"kind": geometry},
        "materials": {"exterior": {"lam": 2.0, "mu": 1.0}},
        # The printed counts are reproduced by P-wave incidence d=(0,-1).
        "incidence": {"type": "P", "direction": [0.0, -1.0]},
        "formulations": [
            {"name": "CFIE", "coupling": 1.0, "label": "CFIE(eta=1)"},
            {"name": "CFIE", "label": "CFIE(eta-opt)"},
            {"name": "CFIER", "label": "CFIER"},
        ],
        "cases": [{"omega": 10, "n": 64}, {"omega": 20, "n": 128},
                  {"omega": 40, "n": 256}],
        "solver": {"tol": 1e-8},
    }


def _neumann_preset(geometry: str, table: str) -> dict:
    return {
        "table": table,
        "problem": "neumann",
        "geometry": {"kind": geometry},
        "materials": {"exterior": {"lam": 2.0, "mu": 1.0}},
        "incidence": {"type": "S", "direction": [0.0, -1.0],
                      "polarization": [1.0, 0.0]},
        "formulations": [
            {"name": "CFIE", "coupling": 1.0, "label": "CFIE(eta=1)"},
            {"name": "CFIE", "label": "CFIE(eta-opt)"},
            {"name": "CFIER", "label": "CFIER"},
        ],
        "cases": [{"omega": 10, "n": 64}, {"omega": 10, "n": 128},
                  {"omega": 20, "n": 128}, {"omega": 20, "n": 256}],
        "solver": {"tol": 1e-8},
    }


def _transmission_preset(geometry: str, table: str) -> dict:
    return {
        "table": table,
        "problem": "transmission",
        "geometry": {"kind": geometry},
        # subscript-1 material of the table caption is the interior one
        "materials": {"interior": {"lam": 2.0, "mu": 8.0},
                      "exterior": {"lam": 1.0, "mu": 1.0}},
        # The printed counts are reproduced by P-wave incidence d=(1,0).
        "incidence": {"type": "P", "direction": [1.0, 0.0]},
        "formulations": [
            {"name": "KR", "label": "KR"},
            {"name": "ICFIER", "label": "CFIER"},
            {"name": "OS", "label": "OS"},
        ],
        "cases": [{"omega": 10, "n": 128}, {"omega": 20, "n": 256}],
        "solver": {"tol": 1e-6},
    }


PRESETS: dict[str, dict] = {
    "manufactured": {
        "table": "manufactured-solution errors, starfish, lambda=mu=1 "
                 "(V/K/W columns; first rows of the published table)",
        "problem": "manufactured",
        "geometry": {"kind": "starfish"},
        "materials": {"exterior": {"lam": 1.0, "mu": 1.0}},
        "incidence": {"type": "point_source", "location": [0.1, -0.2],
                      "polarization": [1.0, 0.7]},
        "formulations": [{"name": "V"}, {"name": "K"}, {"name": "W"}],
        "cases": [{"omega": 16, "n": 32}, {"omega": 16, "n": 64},
                  {"omega": 16, "n": 128}, {"omega": 32, "n": 64},
                  {"omega": 32, "n": 128}, {"omega": 32, "n": 256}],
        "solver": {},
    },
    "dirichlet-circle": _dirichlet_preset(
        "circle", "Dirichlet GMRES counts, unit circle, tol 1e-8 "
        "(first three frequency rows of the published table)"),
    "dirichlet-starfish": _dirichlet_preset(
        "starfish", "Dirichlet GMRES counts, starfish, tol 1e-8 "
        "(first three frequency rows of the published table)"),
    "dirichlet-cavity": _dirichlet_preset(
        "cavity", "Dirichlet GMRES counts, cavity, tol 1e-8 "
        "(first three frequency rows of the published table)"),
    "neumann-starfish": _neumann_preset(
        "starfish", "Neumann GMRES counts, starfish, tol 1e-8, "
        "coarse/fine pairs (first two frequency rows of the published table)"),
    "neumann-cavity": _neumann_preset(
        "cavity", "Neumann GMRES counts, cavity, tol 1e-8, "
        "coarse/fine pairs (first two frequency rows of the published table)"),
    "transmission-starfish": _transmission_preset(
        "starfish", "transmission GMRES counts, starfish, tol 1e-6 "
        "(first two frequency rows of the published table)"),
    "transmission-cavity": _transmission_preset(
        "cavity", "transmission GMRES counts, cavity, tol 1e-6 "
        "(first two frequency rows of the published table)"),
}
