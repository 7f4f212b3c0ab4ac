"""The benchmark's workloads: inputs made from a seed, the timed body, checks.

A workload is set up once per process (`setup`), then its body runs as a
closed loop with one caller: `body(inputs)` is a generator that yields one
Cell per result (a harness row, or one incidence of `multistatic`) and
returns whatever the workload's gate needs.  The benchmark calls the package
only through attributes of the `elastobie` package, looked up at call time,
so the tracer's patches apply.

Why these workloads (see METRICS.md for the metric map):

* transmission: every formulation of a case rebuilds both materials'
  Calderon operators, so the radial suite and the repeated kernel_split and
  build_quadrature calls dominate and GMRES is ~1% of the time.
* manufactured: one operator per cell up to n=256; the O(N^2 n) quadrature
  weights dominate and set peak memory.  Carries the accuracy gate.
* multistatic: one assembly, then many right-hand sides, so solver and
  postprocess work dominate and assembly changes barely show (the radial
  suite does, through eval_potential on every incidence).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import elastobie as eb
import numpy as np

BASELINE = Path(__file__).with_name("baseline.json")

# A cell's eps_inf may grow to EPS_REL * seed + EPS_ABS; EPS_ABS covers the
# cells whose seed error is at roundoff level (1e-16 .. 4e-12).
EPS_REL = 1.1
EPS_ABS = 1e-11

# multistatic: Neumann CFIER on the cavity, plane waves from a 1-degree grid
MULTISTATIC_N = 128
MULTISTATIC_OMEGA = 20.0
MULTISTATIC_LAME = (2.0, 1.0)
MULTISTATIC_TOL = 1e-8
MULTISTATIC_PER_POLARIZATION = 32
DEGREES = 360
RING = 2.0 * np.stack([np.cos(np.arange(16) * np.pi / 8),
                       np.sin(np.arange(16) * np.pi / 8)], axis=-1)
POINT_SOURCE = (np.array([0.8, 0.0]), np.array([1.0, 0.7]))  # inside cavity


@dataclass
class Cell:
    key: str
    iterations: int = 0
    converged: bool = True
    eps_inf: float | None = None
    error: str | None = None
    seconds: float = 0.0
    problems: list = field(default_factory=list)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def load_pins(name: str) -> dict:
    """Seed values a cell must reproduce, by cell key."""
    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    pins = dict(baseline[name].get("cells", {}))
    for pol, counts in baseline[name].get("iterations", {}).items():
        pins.update({f"{pol}{deg:03d}": {"iterations": it}
                     for deg, it in enumerate(counts)})
    if "point_source" in baseline[name]:
        pins["point-source"] = baseline[name]["point_source"]
    return pins


def check(cell: Cell, pins: dict) -> Cell:
    """Fill cell.problems: raised, not converged, moved count, lost accuracy."""
    pin = pins.get(cell.key)
    if cell.error is not None:
        cell.problems.append(cell.error)
    elif pin is None:
        cell.problems.append("no pinned seed value for this cell")
    else:
        if not cell.converged:
            cell.problems.append("did not converge")
        if cell.iterations != pin["iterations"]:
            cell.problems.append(
                f"iterations {cell.iterations} != seed {pin['iterations']}")
        if "eps_inf" in pin:
            limit = EPS_REL * pin["eps_inf"] + EPS_ABS
            if cell.eps_inf is None or not cell.eps_inf <= limit:
                cell.problems.append(f"eps_inf {cell.eps_inf} > {limit:.3e}")
    return cell


# --------------------------------------------------------------------------
# preset workloads: transmission, manufactured


@dataclass
class PresetInputs:
    config: dict
    cells: list  # (case, formulation spec) in table order


def _preset_setup(preset: str, cases=None) -> PresetInputs:
    config = dict(eb.PRESETS[preset])
    if cases is not None:
        config["cases"] = cases
    config["timing"] = "wall"
    cells = [(case, form) for case in config["cases"]
             for form in config["formulations"]]
    return PresetInputs(config=config, cells=cells)


def _preset_body(inputs: PresetInputs):
    for case, form in inputs.cells:
        key = f"{case['omega']:g}/{case['n']}/{form.get('label', form['name'])}"
        one = dict(inputs.config, cases=[case], formulations=[form])
        try:
            (row,) = eb.run_experiment(one, threads=1)
        except Exception as exc:  # a raising cell is a failed operation
            yield Cell(key, error=_error(exc))
            continue
        yield Cell(key, iterations=row.iterations,
                   converged=not row.formulation.endswith("!"),
                   eps_inf=row.eps_inf)


# --------------------------------------------------------------------------
# multistatic: one operator, many incident plane waves


@dataclass
class MultistaticInputs:
    material: object
    grid: object
    waves: list  # (key, IncidentField)


def plane_wave_at(material, pol: str, degree: int):
    theta = np.deg2rad(degree)
    d = np.array([np.cos(theta), np.sin(theta)])
    p = d if pol == "P" else np.array([-d[1], d[0]])
    return eb.plane_wave(material, d, p)


def multistatic_problem():
    material = eb.make_material(*MULTISTATIC_LAME, MULTISTATIC_OMEGA)
    grid = eb.sample_grid(eb.make_curve("cavity"), MULTISTATIC_N)
    return material, grid


def _multistatic_setup(seed: int) -> MultistaticInputs:
    material, grid = multistatic_problem()
    rng = np.random.default_rng(seed)
    draws = {pol: rng.choice(DEGREES, MULTISTATIC_PER_POLARIZATION,
                             replace=False) for pol in "PS"}
    waves = [(f"{pol}{int(deg):03d}", plane_wave_at(material, pol, deg))
             for pair in zip(draws["P"], draws["S"])
             for pol, deg in zip("PS", pair)]
    return MultistaticInputs(material=material, grid=grid, waves=waves)


def solve_incidence(system, traction: np.ndarray, tol: float):
    """GMRES on the assembled operator; returns (report, true residual)."""
    A = system.operator.matrix
    sol = eb.gmres(A, traction, tol=tol)
    residual = np.linalg.norm(traction - A @ sol.x) / np.linalg.norm(traction)
    return sol, residual


def _multistatic_body(inputs: MultistaticInputs):
    mat, grid = inputs.material, inputs.grid
    try:
        system = eb.assemble_neumann("CFIER", mat, grid,
                                     incident=inputs.waves[0][1])
    except Exception as exc:
        for key, _ in inputs.waves:
            yield Cell(key, error=_error(exc))
        return None
    for key, wave in inputs.waves:
        try:
            rhs = -eb.trace_and_traction(wave, grid, mat).traction.reshape(-1)
            sol, residual = solve_incidence(system, rhs, MULTISTATIC_TOL)
            rep = eb.reconstruct_fields(system, sol.x)
            ff = eb.far_field(rep)
            near = eb.eval_potential(rep, RING)
        except Exception as exc:
            yield Cell(key, error=_error(exc))
            continue
        finite = all(np.isfinite(a).all() for a in (ff.up, ff.us, near))
        yield Cell(key, iterations=sol.iterations,
                   converged=bool(sol.converged and residual <= 10 * MULTISTATIC_TOL),
                   error=None if finite else "non-finite field")
    return system


def point_source_far_field(material, x0, q, dirs):
    """Analytic P and S far fields of the point source Phi(., x0) q."""
    def gamma(k, modulus):
        return 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi) / modulus

    xq = dirs @ q
    up = (gamma(material.kp, material.lam + 2.0 * material.mu)
          * np.exp(-1j * material.kp * (dirs @ x0))[:, None]
          * dirs * xq[:, None])
    us = (gamma(material.ks, material.mu)
          * np.exp(-1j * material.ks * (dirs @ x0))[:, None]
          * (q[None, :] - dirs * xq[:, None]))
    return up, us


def point_source_cell(system) -> Cell:
    """Seed-independent accuracy gate: the exterior field of a point source
    inside the cavity, solved through the multistatic operator."""
    mat, grid = system.meta["material"], system.grid
    x0, q = POINT_SOURCE
    try:
        source = eb.point_source(mat, x0, q)
        traction = eb.trace_and_traction(source, grid, mat).traction.reshape(-1)
        sol, residual = solve_incidence(system, traction, MULTISTATIC_TOL)
        ff = eb.far_field(eb.reconstruct_fields(system, sol.x))
    except Exception as exc:
        return Cell("point-source", error=_error(exc))
    up, us = point_source_far_field(mat, x0, q, ff.directions)
    err = float(max(np.abs(ff.up - up).max(), np.abs(ff.us - us).max()))
    return Cell("point-source", iterations=sol.iterations,
                converged=bool(sol.converged and residual <= 10 * MULTISTATIC_TOL),
                eps_inf=err)


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object   # seed -> inputs
    body: object    # inputs -> generator of Cell, returning the gate's input
    gate: object = None  # body's return value -> Cell, checked once per run
    passes: int = 1      # whole untraced passes per run


WORKLOADS = {
    # the preset workloads record the seed and ignore it
    "transmission": Workload(
        setup=lambda seed: _preset_setup("transmission-starfish",
                                         cases=[{"omega": 10, "n": 128}]),
        body=_preset_body),
    "manufactured": Workload(
        setup=lambda seed: _preset_setup("manufactured"),
        body=_preset_body),
    "multistatic": Workload(
        setup=_multistatic_setup, body=_multistatic_body,
        gate=point_source_cell, passes=3),
}
