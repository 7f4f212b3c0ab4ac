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

One pass over the node pairs evaluates C+ and C- together and writes each
transmission system entry once, as the sum of their entries with
coefficients +-1: KR as C- - C+ plus I on the diagonal, SC as C+ + C-
negated in place, and DCFIER and ICFIER from C+ + C- and C- as two arrays.

Each assembler returns its system with its representation: `represent` maps
a solution to the layer potentials of its fields, as in the ansatz above.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .kernels import TAGS, _assemble, _check_tags
from .materials import Material, trace_and_traction
from .multipliers import _matmul_in_place, make_transmission_regularizer, ps_dtn
from .quadrature import flatten_density, unflatten_density

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
]


@dataclass(frozen=True)
class DenseOperator:
    """Dense system matrix acting on interleaved 2-component densities."""

    matrix: np.ndarray = field(repr=False)

    def __matmul__(self, x):
        return self.matrix @ x

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class LinearSystem:
    """System A x = b, A any operand with `@` and `shape`; represent maps a
    solution x to the tuple of PotentialTerms of its fields (reconstruct_fields
    wraps it).  meta holds a one-material system's material; plane_waves is
    the far-field factor memo every representation of the system shares."""

    operator: object
    rhs: np.ndarray = field(repr=False)
    grid: object = field(repr=False)
    represent: Callable = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)
    plane_waves: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.operator.shape[0] != self.rhs.shape[0]:
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
    """Sum of layer potentials; evaluate with postprocess.eval_potential.
    plane_waves memoizes far_field's plane-wave factors, (k, id(grid)) ->
    (directions, factor); reconstruct_fields passes the system's memo."""

    terms: tuple
    plane_waves: dict = field(default_factory=dict, repr=False, compare=False)


def _green_terms(material: Material, grid, a, b, region: str) -> tuple:
    """Green's formula for the densities a, b (interleaved or (N, 2)):
    u = DL a - SL b outside the curve, u = -DL a + SL b inside."""
    a, b = unflatten_density(a), unflatten_density(b)
    if region == "exterior":
        return (PotentialTerm("DL", material, grid, a, region),
                PotentialTerm("SL", material, grid, -b, region))
    return (PotentialTerm("DL", material, grid, -a, region),
            PotentialTerm("SL", material, grid, b, region))


def boundary_operators(material: Material, grid, tags=TAGS) -> dict:
    """Assemble the requested dense boundary integral operators (of V, K
    and W), as views of one array.  The adjoint double layer K^T is K.T: R
    and T are exactly symmetric, pv is exactly antisymmetric and J^T = -J."""
    tags = _check_tags(tags)
    size = 2 * grid.size
    (ops,) = _assemble((material,), grid, [(len(tags), size, size)],
                       {tag: [(0, k * size * size, (1,), False)]
                        for k, tag in enumerate(tags)})
    return dict(zip(tags, ops))


def _calderon_targets(grid, a, coefs) -> dict:
    """The kernels._assemble targets that write sum_k coefs[k] C_k into its
    array a, C_k = [[K, -V], [W, -K^T]] of material k: -V and -K^T take the
    negated coefficients, -K^T written as K's transpose."""
    size = 2 * grid.size
    lower = 2 * size * size  # flat index of the first row of W and -K^T
    neg = tuple(-c for c in coefs)
    return {"K": [(a, 0, coefs, False), (a, lower + size, neg, True)],
            "V": [(a, size, neg, False)],
            "W": [(a, lower, coefs, False)]}


def calderon_matrix(material: Material, grid) -> np.ndarray:
    """Dense 8n x 8n Calderon block operator C = [[K, -V], [W, -K^T]],
    each block written in place; -K^T is K's negated transpose."""
    (C,) = _assemble((material,), grid, [(4 * grid.size,) * 2],
                     _calderon_targets(grid, 0, (1,)))
    return C


def assemble_dirichlet(kind: str, material: Material, grid,
                       coupling=None, incident=None) -> LinearSystem:
    """Combined-field system for the exterior Dirichlet problem.

    coupling: CFIE coupling constant eta (default: the quasi-optimal
    eta_dirichlet); for CFIER the complexified wavenumber kappa (default
    material.kappa).
    """
    if kind not in ("CFIE", "CFIER"):
        raise ValueError(f"unknown Dirichlet formulation {kind!r}")
    if incident is None:
        raise ValueError("an incident field is required")
    rhs = -flatten_density(incident.u(grid.x))
    # A is a fresh array: a view of V or K would keep both alive.
    ops = boundary_operators(material, grid, tags=("V", "K"))
    V, K = ops["V"], ops["K"]
    K[np.diag_indices_from(K)] += 0.5
    if kind == "CFIE":
        eta = material.eta_dirichlet if coupling is None else complex(coupling)
        if eta == 0:
            raise ValueError("CFIE coupling eta must be nonzero")
        V *= 1j * eta
        A = K - V

        def represent(x):  # u = DL phi - i eta SL phi
            return _green_terms(material, grid, x, 1j * eta * x, "exterior")
    else:  # CFIER
        kappa = material.kappa if coupling is None else complex(coupling)
        reg = ps_dtn(material, "exterior", kappa=kappa, n_max=grid.n)
        A = K - _matmul_in_place(V, reg)

        def represent(x):  # u = DL phi - SL R^D phi
            return _green_terms(material, grid, x, reg @ x, "exterior")
    return LinearSystem(operator=DenseOperator(A), rhs=rhs, grid=grid,
                        represent=represent, meta={"material": material})


def assemble_neumann(kind: str, material: Material, grid,
                     coupling=None, incident=None) -> LinearSystem:
    """Combined-field system for the exterior Neumann (traction) problem."""
    if kind not in ("CFIE", "CFIER", "DCFIER"):
        raise ValueError(f"unknown Neumann formulation {kind!r}")
    if incident is None:
        raise ValueError("an incident field is required")
    inc_cd = trace_and_traction(incident, grid, material)
    rhs = -flatten_density(inc_cd.traction)
    if kind == "CFIE":
        eta = material.eta_neumann if coupling is None else complex(coupling)
        if eta == 0:
            raise ValueError("CFIE coupling eta must be nonzero")
    ops = boundary_operators(material, grid, tags=("K", "W"))
    K, W = ops["K"], ops["W"]
    # W's term is formed in W's memory before A is allocated
    if kind == "CFIE":
        W *= 1j * eta

        def represent(x):  # u = i eta DL phi - SL phi
            return _green_terms(material, grid, 1j * eta * x, x, "exterior")
    else:
        kappa = material.kappa if coupling is None else complex(coupling)
        regN = ps_dtn(material, "exterior", kappa=kappa, n_max=grid.n).inv()
        if kind == "CFIER":
            _matmul_in_place(W, regN)

            def represent(x):  # u = DL R^N phi - SL phi
                return _green_terms(material, grid, regN @ x, x, "exterior")
        else:  # DCFIER: direct regularized system on the total-field trace
            rhs = (flatten_density(inc_cd.trace)
                   - regN @ flatten_density(inc_cd.traction))
            _matmul_in_place(regN, W)

            def represent(x):  # zero total traction => u_scat = DL g
                return (PotentialTerm("DL", material, grid,
                                      unflatten_density(x)),)
    # A is a fresh array: a view of K or W would keep both alive.
    A = np.negative(K if kind == "DCFIER" else K.T, order="C")
    A[np.diag_indices_from(A)] += 0.5
    A += W
    return LinearSystem(operator=DenseOperator(A), rhs=rhs, grid=grid,
                        represent=represent, meta={"material": material})


def _incident_cauchy_data(mat_plus: Material, grid, incident,
                          cauchy_data=None):
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
    # One pass over the node pairs writes C+ and C- straight into the
    # system as their signed sum; the regularized systems also keep C-.
    mats, shape = (mat_plus, mat_minus), (4 * grid.size,) * 2
    diag = np.diag_indices(shape[0])
    b0 = np.concatenate([flatten_density(inc_trace),
                         flatten_density(inc_traction)])
    rhs = b0
    if kind == "KR":
        # RHS carries no factor 2: applying (I + C- - C+) to the interior
        # Cauchy data and using the Calderon identities yields exactly the
        # incident Cauchy data (verified against the SC solve).
        (A,) = _assemble(mats, grid, [shape], _calderon_targets(grid, 0, (-1, 1)))
        A[diag] += 1.0
    elif kind == "SC":
        # -(C+ + C-), negated after the sum: coefficients (-1, -1) would give
        # an exact zero of the sum the other sign
        (A,) = _assemble(mats, grid, [shape], _calderon_targets(grid, 0, (1, 1)))
        np.negative(A, out=A)
    else:
        S_targets = _calderon_targets(grid, 0, (1, 1))  # C+ + C-
        Cm_targets = _calderon_targets(grid, 1, (0, 1))
        S, Cm = _assemble(mats, grid, [shape, shape],
                          {tag: S_targets[tag] + Cm_targets[tag] for tag in TAGS})
        # kappa=None complexifies each material's Calderon symbol with
        # its own kappa (the benchmark convention); a complex value is
        # shared.
        reg = make_transmission_regularizer(mat_plus, mat_minus, kappa,
                                            n_max=grid.n)
        if kind == "DCFIER":
            # 1/2 I + C- - R^T (C+ + C-)
            A = np.subtract(Cm, _matmul_in_place(reg.RT, S), out=Cm)
            rhs = reg.RT @ b0
        else:
            # 1/2 I - C- + (C+ + C-) R.  The indirect reconstruction's
            # Cauchy-data jumps equal +L_ind (g, phi); matching the
            # physical jumps -(incident data) requires the negated RHS
            # (verified against the direct solves).
            A = _matmul_in_place(S, reg.R)
            A -= Cm
            rhs = -b0
        A[diag] += 0.5
    if kind == "ICFIER":
        def represent(x):
            # u+ = DL+ R1 - SL+ R2,  u- = DL- (g - R1) - SL- (phi - R2),
            # (R1, R2) = R (g, phi)
            g, phi = np.split(x, 2)
            r1, r2 = np.split(reg.R @ x, 2)
            return (_green_terms(mat_plus, grid, r1, r2, "exterior")
                    + _green_terms(mat_minus, grid, r1 - g, r2 - phi,
                                   "interior"))
    else:
        def represent(x):
            # direct unknowns: the interior Cauchy data (gamma u-, T- u-),
            # whose difference from the incident data is the scattered one
            return (_green_terms(mat_plus, grid, *np.split(x - b0, 2), "exterior")
                    + _green_terms(mat_minus, grid, *np.split(x, 2), "interior"))
    return LinearSystem(operator=DenseOperator(A), rhs=rhs, grid=grid,
                        represent=represent)


def reconstruct_fields(system: LinearSystem, solution: np.ndarray) -> PotentialRepresentation:
    """Layer-potential representation of the solved (scattered/interior)
    fields; exterior terms carry region='exterior', interior 'interior'."""
    return PotentialRepresentation(terms=system.represent(np.asarray(solution)),
                                   plane_waves=system.plane_waves)
