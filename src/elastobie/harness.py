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
      "incidence":    {"type": "P" | "S", "direction": [dx, dy]}
                      or {"type": "point_source", "location": [x, y],
                          "polarization": [qx, qy]},
      "formulations": [{"name": ..., "label": ...?, "coupling": ...?}, ...],
      "cases":        [{"omega": ..., "n": ...}, ...],
      "solver":       {"tol": ..., "maxiter": ...?},
      "timing":       "wall" (default) | "none",
      "output":       optional CSV path
    }

Formulation names by problem: manufactured V | K | W; dirichlet CFIE | CFIER;
neumann CFIE | CFIER | DCFIER; transmission SC | KR | DCFIER | ICFIER | OS.
A missing "coupling" uses the quasi-optimal coupling (CFIE) or the default
complexified wavenumber rule (CFIER/OS).  A label holds no comma or line break.
run_experiment rejects a config that lacks a required field (every key above
but "table", "solver", "timing" and "output"; "interior" for transmission
only, and "lam" and "mu" of each material) or holds an unknown problem,
incidence type or formulation name, before any cell runs, naming the field.

Rows are deterministic given a config except for the wall-time column; set
"timing": "none" to zero it and obtain bit-identical CSV across runs.
"""

from __future__ import annotations

import concurrent.futures
import json
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
from .postprocess import (FarField, _gammas, default_directions, eps_inf,
                          far_field)
from .quadrature import flatten_density, unflatten_density
from .solvers import gmres, lu_solve

__all__ = ["ReportRow", "run_experiment", "emit_table", "parse_table",
           "load_config", "PRESETS", "THREADS_ENV_VAR"]

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


def _make_incident(spec: dict, material):
    kind = spec.get("type", "P")
    if kind == "point_source":
        return point_source(material,
                            np.asarray(spec["location"], dtype=float),
                            np.asarray(spec["polarization"], dtype=float))
    d = np.asarray(spec["direction"], dtype=float)
    d = d / np.linalg.norm(d)
    p = spec.get("polarization", d if kind == "P" else [-d[1], d[0]])
    return plane_wave(material, d, np.asarray(p, dtype=float))


# The layer potential each manufactured column (V, K or W) represents.
_MANUFACTURED_LAYERS = {"V": "SL", "K": "DL", "W": "DL"}

# The formulation names each problem knows.
_FORMULATIONS = {
    "manufactured": tuple(_MANUFACTURED_LAYERS),
    "dirichlet": ("CFIE", "CFIER"),
    "neumann": ("CFIE", "CFIER", "DCFIER"),
    "transmission": ("SC", "KR", "DCFIER", "ICFIER", "OS"),
}


def _check_config(config: dict) -> None:
    """Reject, before any work, a config that lacks a field the schema
    requires, holds a value no cell can run, or holds a label the CSV cannot
    hold; name the field."""
    required = ["problem", "geometry.kind", "materials.exterior", "incidence",
                "formulations"]
    problem = config.get("problem")
    if problem == "transmission":
        required.append("materials.interior")
    incidence = config.get("incidence")
    if isinstance(incidence, dict):
        kind = incidence.get("type", "P")
        if kind not in ("P", "S", "point_source"):
            raise ValueError(f"incidence.type {kind!r} is not 'P', 'S' or "
                             "'point_source'")
        if problem == "manufactured" and kind != "point_source":
            raise ValueError("manufactured problems need incidence.type "
                             f"'point_source', not {kind!r}")
        required += (["incidence.location", "incidence.polarization"]
                     if kind == "point_source" else ["incidence.direction"])
    for path in required:
        node = config
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"config lacks the required field {path!r}")
            node = node[key]
    if problem not in _FORMULATIONS:
        raise ValueError(f"problem {problem!r} is not one of "
                         f"{', '.join(_FORMULATIONS)}")
    for role, material in config["materials"].items():
        for key in ("lam", "mu"):
            if not isinstance(material, dict) or key not in material:
                raise ValueError(f"config lacks the required field "
                                 f"'materials.{role}.{key}'")
    for i, case in enumerate(config.get("cases", [])):
        for key in ("omega", "n"):
            if key not in case:
                raise ValueError(f"config lacks the required field "
                                 f"'cases[{i}].{key}'")
    for i, form in enumerate(config["formulations"]):
        if "name" not in form:
            raise ValueError(f"config lacks the required field "
                             f"'formulations[{i}].name'")
        if form["name"] not in _FORMULATIONS[problem]:
            raise ValueError(f"formulations[{i}].name {form['name']!r} is not "
                             f"a {problem} formulation")
        # emit_table writes labels unquoted; parse_table splits on these
        label = form.get("label", "")
        if "," in label or "".join(label.splitlines()) != label:
            raise ValueError(f"formulations[{i}].label {label!r} holds a "
                             "comma or a line break")


def _manufactured_cell(form, material, grid, source, reference: FarField):
    """Solve one manufactured-solution column (V, K or W) by direct LU."""
    cd = trace_and_traction(source, grid, material)
    A = boundary_operators(material, grid, tags=(form,))[form]
    if form == "K":
        A = 0.5 * np.eye(2 * grid.size, dtype=complex) + A
    rhs = flatten_density(cd.traction if form == "W" else cd.trace)
    density = unflatten_density(lu_solve(A, rhs).x)
    rep = PotentialRepresentation(
        terms=(PotentialTerm(_MANUFACTURED_LAYERS[form], material, grid,
                             density),))
    ff = far_field(rep, directions=reference.directions)
    return 0, eps_inf(ff, reference)


def _iterative_cell(problem, form_spec, mats, grid, incident, solver):
    name = form_spec["name"]
    coupling = form_spec.get("coupling")
    if problem == "dirichlet":
        system = assemble_dirichlet(name, mats["exterior"], grid,
                                    coupling=coupling, incident=incident)
    elif problem == "neumann":
        system = assemble_neumann(name, mats["exterior"], grid,
                                  coupling=coupling, incident=incident)
    elif name == "OS":
        system = assemble_ddm(mats["exterior"], mats["interior"], grid,
                              kappa=coupling, incident=incident)
    else:
        system = assemble_transmission(name, mats["exterior"],
                                       mats["interior"], grid,
                                       kappa=coupling, incident=incident)
    report = gmres(system.operator.matrix, system.rhs,
                   tol=solver.get("tol", 1e-8),
                   maxiter=solver.get("maxiter"))
    return report.iterations, report.converged


def _run_cell(config, case, form_spec):
    t0 = time.perf_counter()
    problem = config["problem"]
    curve = make_curve(config["geometry"]["kind"],
                       params={k: v for k, v in config["geometry"].items()
                               if k != "kind"} or None)
    grid = sample_grid(curve, int(case["n"]))
    omega = float(case["omega"])
    mats = {role: make_material(lam=m["lam"], mu=m["mu"], omega=omega)
            for role, m in config["materials"].items()}
    label = form_spec.get("label", form_spec["name"])
    if problem == "manufactured":
        source = _make_incident(config["incidence"], mats["exterior"])
        x0 = np.asarray(config["incidence"]["location"], dtype=float)
        q = np.asarray(config["incidence"]["polarization"], dtype=float)
        angles, dirs = default_directions()
        reference = _point_source_far_field(mats["exterior"], x0, q,
                                            angles, dirs)
        iterations, err = _manufactured_cell(form_spec["name"],
                                             mats["exterior"], grid,
                                             source, reference)
        converged = True
    else:
        incident = _make_incident(config["incidence"], mats["exterior"])
        iterations, converged = _iterative_cell(problem, form_spec, mats,
                                                grid, incident,
                                                config.get("solver", {}))
        err = None
    seconds = time.perf_counter() - t0
    if config.get("timing", "wall") == "none":
        seconds = 0.0
    if not converged:
        label = label + "!"
    return ReportRow(omega=omega, n=int(case["n"]), formulation=label,
                     iterations=iterations, eps_inf=err, seconds=seconds)


def _point_source_far_field(material, x0, q, angles, dirs) -> FarField:
    """Analytic far field of the elastodynamic point source Phi(., x0) q."""
    gp, gs = _gammas(material)
    phase_p = np.exp(-1j * material.kp * (dirs @ x0))
    phase_s = np.exp(-1j * material.ks * (dirs @ x0))
    xq = dirs @ q
    up = gp * phase_p[:, None] * dirs * xq[:, None]
    us = gs * phase_s[:, None] * (q[None, :] - dirs * xq[:, None])
    return FarField(angles=angles, directions=dirs, up=up, us=us)


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        return max(1, int(env))
    return 1


def run_experiment(config: dict, threads: int | None = None) -> list[ReportRow]:
    """Run every (case, formulation) cell of the configuration.

    Independent cells run in a thread pool of the requested size (argument,
    else the ELASTOBIE_THREADS environment variable, else serial); the
    report is assembled in deterministic order regardless of scheduling.
    """
    _check_config(config)
    cells = [(case, form) for case in config.get("cases", [])
             for form in config["formulations"]]
    if not cells:
        return []
    nthreads = _resolve_threads(threads)
    if nthreads == 1:
        return [_run_cell(config, case, form) for case, form in cells]
    with concurrent.futures.ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [pool.submit(_run_cell, config, case, form)
                   for case, form in cells]
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


def parse_table(text: str) -> list[ReportRow]:
    """Inverse of emit_table for the CSV format (round-trip checks)."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("omega,"):
            continue
        omega, n, form, iters, err, secs = line.split(",")
        rows.append(ReportRow(omega=float(omega), n=int(n), formulation=form,
                              iterations=int(iters),
                              eps_inf=None if err == "" else float(err),
                              seconds=float(secs)))
    return rows


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
