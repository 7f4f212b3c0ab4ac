"""Regenerate baseline.json: the seed values every benchmark cell must match.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_baseline.py

Pins what the code computes, not the published targets: the GMRES count of
each transmission cell, the eps_inf of each manufactured cell, the GMRES
count of every multistatic incidence on the 1-degree grid (P and S), and the
count and eps_inf of the point-source gate.  Takes about two minutes on two
cores.  Run it only when a change is meant to move these numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import elastobie as eb  # noqa: E402
import workloads  # noqa: E402


def preset_cells(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    pins = {}
    for cell in workload.body(workload.setup(0)):
        if cell.error is not None or not cell.converged:
            raise SystemExit(f"{name} {cell.key}: {cell.error or 'not converged'}")
        pins[cell.key] = {"iterations": cell.iterations}
        if cell.eps_inf is not None:
            pins[cell.key]["eps_inf"] = cell.eps_inf
    return pins


def multistatic() -> dict:
    material, grid = workloads.multistatic_problem()
    system = eb.assemble_neumann(
        "CFIER", material, grid,
        incident=workloads.plane_wave_at(material, "P", 0))
    counts = {}
    for pol in "PS":
        counts[pol] = []
        for degree in range(workloads.DEGREES):
            wave = workloads.plane_wave_at(material, pol, degree)
            rhs = -eb.trace_and_traction(wave, grid, material).traction.reshape(-1)
            sol, _ = workloads.solve_incidence(system, rhs,
                                               workloads.MULTISTATIC_TOL)
            counts[pol].append(sol.iterations)
    gate = workloads.point_source_cell(system)
    if gate.error is not None or not gate.converged:
        raise SystemExit(f"point source: {gate.error or 'not converged'}")
    return {"iterations": counts,
            "point_source": {"iterations": gate.iterations,
                             "eps_inf": gate.eps_inf}}


def main() -> None:
    baseline = {
        "transmission": {"cells": preset_cells("transmission")},
        "manufactured": {"cells": preset_cells("manufactured")},
        "multistatic": multistatic(),
    }
    with open(workloads.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
