"""Boundary-integral systems for Dirichlet, Neumann and transmission problems.

Conventions (verified against the discrete Calderon identities):

* exterior limits:  gamma DL = 1/2 I + K,  T DL = W,
                    gamma SL = V,          T SL = -1/2 I + K^T;
* exterior Cauchy data (g, eta): K g - V eta = 1/2 g, W g - K^T eta = 1/2 eta;
* exterior radiating fields:  u = DL g - SL eta;
  interior fields:            u = -DL g + SL eta;
* Calderon block operator C = [[K, -V], [W, -K^T]] acts as +1/2 on exterior
  Cauchy data and as -1/2 on interior Cauchy data.

Formulations assembled here:

* Dirichlet CFIE   (1/2 I + K - i eta V) phi = f,        u = DL phi - i eta SL phi
* Dirichlet CFIER  (1/2 I + K - V R^D) phi = f,          u = DL phi - SL R^D phi
                   with R^D = PS_kappa(Y+)
* Neumann CFIE     (1/2 I - K^T + i eta W) phi = lam,    u = -SL phi + i eta DL phi
* Neumann CFIER    (1/2 I - K^T + W R^N) phi = lam,      u = DL R^N phi - SL phi
                   with R^N = (PS_kappa(Y+))^{-1} per mode
* Neumann DCFIER   (1/2 I - K + R^N W) g = gamma u_inc - R^N T u_inc,
                   unknown g = trace of the total field, u_scat = DL g
* transmission SC      -(C+ + C-) (gamma u-, T- u-) = (gamma u_inc, T+ u_inc)
* transmission KR      (I + C- - C+) (...) = (gamma u_inc, T+ u_inc)
* transmission DCFIER  (1/2 I + C- - R^T (C+ + C-)) (...) = R^T (rhs of SC)
* transmission ICFIER  (1/2 I - C- + (C+ + C-) R) (g, phi) = (rhs of SC)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import _kernel_splits
from .materials import Material, trace_and_traction
from .multipliers import (make_transmission_regularizer, ps_dtn,
                          symbol_matrix, symbol_transpose, apply_multiplier)
from .quadrature import (assemble_bio, build_quadrature, flatten_density,
                         unflatten_density)

__all__ = [
    "DenseOperator",
    "LinearSystem",
    "PotentialRepresentation",
    "PotentialTerm",
    "boundary_operators",
    "calderon_matrix",
    "assemble_dirichlet",
    "assemble_neumann",
    "assemble_transmission",
    "reconstruct_fields",
    "discrete_dtn_exterior",
]


@dataclass(frozen=True)
class DenseOperator:
    """Dense system matrix acting on interleaved 2-component densities."""

    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LinearSystem:
    """Dense system A x = b plus everything needed to interpret x."""

    operator: DenseOperator
    rhs: np.ndarray = field(repr=False)
    tag: str
    grid: object = field(repr=False, default=None)
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.operator.matrix.shape[0] != self.rhs.shape[0]:
            raise ValueError("operator and rhs dimensions disagree")


@dataclass(frozen=True)
class PotentialTerm:
    """One layer-potential contribution: layer in {SL, DL}, acting region."""

    layer: str
    material: Material
    grid: object = field(repr=False)
    density: np.ndarray = field(repr=False)  # (N, 2) parametric density
    region: str = "exterior"


@dataclass(frozen=True)
class PotentialRepresentation:
    """Sum of layer potentials; evaluate with postprocess.eval_potential."""

    terms: tuple


def boundary_operators(material: Material, grid, tags=("V", "K", "Kt", "W")) -> dict:
    """Assemble the requested dense boundary integral operators.

    Kt is K's transpose: its split is K's block transpose, R and T are
    exactly symmetric, pv is exactly antisymmetric and J^T = -J.
    """
    quad = build_quadrature(grid.n)
    splits = _kernel_splits(material, grid, dict.fromkeys(
        "K" if tag == "Kt" else tag for tag in tags))
    ops = {tag: assemble_bio(split, quad, grid) for tag, split in splits.items()}
    if "Kt" in tags:
        ops["Kt"] = ops["K"].T.copy()
    return {tag: ops[tag] for tag in tags}


def calderon_matrix(material: Material, grid) -> np.ndarray:
    """Dense 8n x 8n Calderon block operator C = [[K, -V], [W, -K^T]]."""
    ops = boundary_operators(material, grid)
    return np.block([[ops["K"], -ops["V"]], [ops["W"], -ops["Kt"]]])


def _eye(N: int) -> np.ndarray:
    return np.eye(N, dtype=complex)


def _dirichlet_rhs(material, grid, incident, trace_data):
    if trace_data is not None:
        return flatten_density(np.asarray(trace_data, dtype=complex))
    if incident is None:
        raise ValueError("either incident field or trace data required")
    return -flatten_density(incident.u(grid.x))


def assemble_dirichlet(kind: str, material: Material, grid,
                       coupling=None, incident=None,
                       trace_data=None) -> LinearSystem:
    """Combined-field system for the exterior Dirichlet problem.

    coupling: CFIE coupling constant eta (default: the quasi-optimal
    eta_dirichlet); for CFIER the complexified wavenumber kappa (default
    material.kappa).
    """
    if kind not in ("CFIE", "CFIER"):
        raise ValueError(f"unknown Dirichlet formulation {kind!r}")
    N = grid.size
    ops = boundary_operators(material, grid, tags=("V", "K"))
    rhs = _dirichlet_rhs(material, grid, incident, trace_data)
    if kind == "CFIE":
        eta = material.eta_dirichlet if coupling is None else complex(coupling)
        if eta == 0:
            raise ValueError("CFIE coupling eta must be nonzero")
        A = 0.5 * _eye(2 * N) + ops["K"] - 1j * eta * ops["V"]
        meta = {"eta": eta, "material": material}
    else:  # CFIER
        kappa = material.kappa if coupling is None else complex(coupling)
        reg = ps_dtn(material, "exterior", kappa=kappa, n_max=grid.n)
        Rmat = symbol_matrix(reg, grid.n)
        A = 0.5 * _eye(2 * N) + ops["K"] - ops["V"] @ Rmat
        meta = {"kappa": kappa, "regularizer": reg, "material": material}
    return LinearSystem(operator=DenseOperator(A),
                        rhs=rhs, tag=f"dirichlet-{kind}", grid=grid, meta=meta)


def assemble_neumann(kind: str, material: Material, grid,
                     coupling=None, incident=None,
                     traction_data=None, trace_data=None) -> LinearSystem:
    """Combined-field system for the exterior Neumann (traction) problem."""
    N = grid.size
    if traction_data is not None:
        rhs_tr = flatten_density(np.asarray(traction_data, dtype=complex))
        inc_cd = None
    elif incident is not None:
        inc_cd = trace_and_traction(incident, grid, material)
        rhs_tr = -flatten_density(inc_cd.traction)
    else:
        raise ValueError("either incident field or traction data required")

    if kind == "CFIE":
        eta = material.eta_neumann if coupling is None else complex(coupling)
        if eta == 0:
            raise ValueError("CFIE coupling eta must be nonzero")
        ops = boundary_operators(material, grid, tags=("Kt", "W"))
        A = 0.5 * _eye(2 * N) - ops["Kt"] + 1j * eta * ops["W"]
        meta = {"eta": eta, "material": material}
        rhs = rhs_tr
    elif kind == "CFIER":
        kappa = material.kappa if coupling is None else complex(coupling)
        regN = ps_dtn(material, "exterior", kappa=kappa, n_max=grid.n).inv()
        ops = boundary_operators(material, grid, tags=("Kt", "W"))
        A = 0.5 * _eye(2 * N) - ops["Kt"] + ops["W"] @ symbol_matrix(regN, grid.n)
        meta = {"kappa": kappa, "regularizer": regN, "material": material}
        rhs = rhs_tr
    elif kind == "DCFIER":
        # direct regularized system on the total-field trace
        if incident is None and trace_data is None:
            raise ValueError("DCFIER needs the incident field (or trace data)")
        kappa = material.kappa if coupling is None else complex(coupling)
        regN = ps_dtn(material, "exterior", kappa=kappa, n_max=grid.n).inv()
        Rm = symbol_matrix(regN, grid.n)
        ops = boundary_operators(material, grid, tags=("K", "W"))
        A = 0.5 * _eye(2 * N) - ops["K"] + Rm @ ops["W"]
        if incident is not None:
            inc_cd = trace_and_traction(incident, grid, material)
            rhs = flatten_density(inc_cd.trace) - Rm @ flatten_density(inc_cd.traction)
        else:
            rhs = flatten_density(np.asarray(trace_data, dtype=complex))
        meta = {"kappa": kappa, "regularizer": regN, "material": material}
    else:
        raise ValueError(f"unknown Neumann formulation {kind!r}")
    return LinearSystem(operator=DenseOperator(A),
                        rhs=rhs, tag=f"neumann-{kind}", grid=grid, meta=meta)


def _regularizer_matrix(reg, n: int, transpose: bool = False):
    """Dense 8n x 8n realization of R_kappa or, with `transpose`, of its
    block transpose R^T = [[R22^T, -R12^T], [-R21^T, R11^T]] (multiplier
    transposes)."""
    m = {k: symbol_matrix(symbol_transpose(getattr(reg, k)) if transpose
                          else getattr(reg, k), n)
         for k in ("R11", "R12", "R21", "R22")}
    if transpose:
        return np.block([[m["R22"], -m["R12"]], [-m["R21"], m["R11"]]])
    return np.block([[m["R11"], m["R12"]], [m["R21"], m["R22"]]])


def _incident_cauchy_data(mat_plus: Material, grid, incident, cauchy_data):
    """Incident trace and EXTERIOR traction on the grid, as complex arrays."""
    if cauchy_data is not None:
        inc_trace, inc_traction = cauchy_data
    elif incident is not None:
        cd = trace_and_traction(incident, grid, mat_plus)
        inc_trace, inc_traction = cd.trace, cd.traction
    else:
        raise ValueError("either incident field or Cauchy data required")
    return (np.asarray(inc_trace, dtype=complex),
            np.asarray(inc_traction, dtype=complex))


def assemble_transmission(kind: str, mat_plus: Material, mat_minus: Material,
                          grid, kappa=None, incident=None,
                          cauchy_data=None) -> LinearSystem:
    """Transmission systems on the 8n x 8n Cauchy-data space.

    Unknowns: SC/KR/DCFIER solve for the interior Cauchy data
    (gamma u-, T- u-); ICFIER solves for indirect densities (g, phi).
    RHS Cauchy data of the incident field use the EXTERIOR traction T+.
    """
    if kind not in ("SC", "KR", "DCFIER", "ICFIER"):
        raise ValueError(f"unknown transmission formulation {kind!r}")
    inc_trace, inc_traction = _incident_cauchy_data(mat_plus, grid, incident,
                                                    cauchy_data)
    # The system is built in place in the Calderon matrices' memory.
    Cp = calderon_matrix(mat_plus, grid)
    Cm = calderon_matrix(mat_minus, grid)
    diag = np.diag_indices_from(Cp)
    b0 = np.concatenate([flatten_density(inc_trace),
                         flatten_density(inc_traction)])
    meta = {"mat_plus": mat_plus, "mat_minus": mat_minus,
            "inc_trace": inc_trace, "inc_traction": inc_traction}
    rhs = b0
    if kind == "KR":
        # RHS carries no factor 2: applying (I + C- - C+) to the interior
        # Cauchy data and using the Calderon identities yields exactly the
        # incident Cauchy data (verified against the SC solve).
        A = Cm
        A -= Cp
        A[diag] += 1.0
    else:
        S = Cp
        S += Cm  # C+ + C-
        if kind == "SC":
            A = np.negative(S, out=S)
        else:
            # kappa=None complexifies each material's Calderon symbol with
            # its own kappa (the benchmark convention); a complex value is
            # shared.
            reg = make_transmission_regularizer(mat_plus, mat_minus, kappa,
                                                n_max=grid.n)
            kappa = reg.kappa
            meta.update(kappa=kappa, regularizer=reg)
            if kind == "DCFIER":
                # 1/2 I + C- - R^T (C+ + C-)
                Rt = _regularizer_matrix(reg, grid.n, transpose=True)
                A = np.subtract(Cm, Rt @ S, out=Cm)
                rhs = Rt @ b0
            else:
                # 1/2 I - C- + (C+ + C-) R.  The indirect reconstruction's
                # Cauchy-data jumps equal +L_ind (g, phi); matching the
                # physical jumps -(incident data) requires the negated RHS
                # (verified against the direct solves).
                A = S @ _regularizer_matrix(reg, grid.n)
                A -= Cm
                rhs = -b0
            A[diag] += 0.5
    return LinearSystem(operator=DenseOperator(A),
                        rhs=rhs, tag=f"transmission-{kind}", grid=grid, meta=meta)


def reconstruct_fields(system: LinearSystem, solution: np.ndarray) -> PotentialRepresentation:
    """Layer-potential representation of the solved (scattered/interior)
    fields; exterior terms carry region='exterior', interior 'interior'."""
    tag, meta, grid = system.tag, system.meta, system.grid
    x = np.asarray(solution)
    if tag.startswith("dirichlet-") or tag.startswith("neumann-"):
        mat = meta["material"]
        phi = unflatten_density(x)
        if tag == "dirichlet-CFIE":
            terms = [PotentialTerm("DL", mat, grid, phi),
                     PotentialTerm("SL", mat, grid, -1j * meta["eta"] * phi)]
        elif tag == "dirichlet-CFIER":
            rphi = apply_multiplier(meta["regularizer"], phi)
            terms = [PotentialTerm("DL", mat, grid, phi),
                     PotentialTerm("SL", mat, grid, -rphi)]
        elif tag == "neumann-CFIE":
            terms = [PotentialTerm("SL", mat, grid, -phi),
                     PotentialTerm("DL", mat, grid, 1j * meta["eta"] * phi)]
        elif tag == "neumann-CFIER":
            rphi = apply_multiplier(meta["regularizer"], phi)
            terms = [PotentialTerm("DL", mat, grid, rphi),
                     PotentialTerm("SL", mat, grid, -phi)]
        elif tag == "neumann-DCFIER":
            # total-field trace g; zero total traction => u_scat = DL g
            terms = [PotentialTerm("DL", mat, grid, phi)]
        else:
            raise ValueError(f"unknown formulation tag {tag!r}")
        return PotentialRepresentation(terms=tuple(terms))

    if tag.startswith("transmission-"):
        mp, mm = meta["mat_plus"], meta["mat_minus"]
        g, eta = (unflatten_density(h) for h in np.split(x, 2))
        if tag in ("transmission-SC", "transmission-KR", "transmission-DCFIER"):
            # direct unknowns: interior Cauchy data (gamma u-, T- u-)
            gp = g - meta["inc_trace"]
            etap = eta - meta["inc_traction"]
            terms = [
                PotentialTerm("DL", mp, grid, gp, region="exterior"),
                PotentialTerm("SL", mp, grid, -etap, region="exterior"),
                PotentialTerm("DL", mm, grid, -g, region="interior"),
                PotentialTerm("SL", mm, grid, eta, region="interior"),
            ]
        elif tag == "transmission-ICFIER":
            reg = meta["regularizer"]
            r1 = apply_multiplier(reg.R11, g) + apply_multiplier(reg.R12, eta)
            r2 = apply_multiplier(reg.R21, g) + apply_multiplier(reg.R22, eta)
            terms = [
                PotentialTerm("DL", mp, grid, r1, region="exterior"),
                PotentialTerm("SL", mp, grid, -r2, region="exterior"),
                PotentialTerm("DL", mm, grid, g - r1, region="interior"),
                PotentialTerm("SL", mm, grid, -(eta - r2), region="interior"),
            ]
        else:
            raise ValueError(f"unknown formulation tag {tag!r}")
        return PotentialRepresentation(terms=tuple(terms))
    raise ValueError(f"unknown formulation tag {tag!r}")


def discrete_dtn_exterior(material: Material, grid,
                          cond_limit: float = 1e12) -> np.ndarray:
    """Discrete exterior Dirichlet-to-Neumann map Y+.

    Primary formula Y+ = -V^{-1}(1/2 I - K); falls back to
    (1/2 I + K^T)^{-1} W when V is ill-conditioned (omega^2 near an
    interior Dirichlet eigenvalue)."""
    N = grid.size
    ops = boundary_operators(material, grid)
    I = _eye(2 * N)
    if np.linalg.cond(ops["V"]) < cond_limit:
        Y = np.linalg.solve(ops["V"], -(0.5 * I - ops["K"]))
    else:
        A = 0.5 * I + ops["Kt"]
        if np.linalg.cond(A) >= cond_limit:
            raise ValueError("both DtN formulas ill-conditioned at this omega")
        Y = np.linalg.solve(A, ops["W"])
    return Y
