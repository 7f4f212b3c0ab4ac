"""Optimized Schwarz domain decomposition for the transmission problem.

The transmission problem is split into an exterior and an interior Navier
problem coupled through generalized Robin data

    lambda_+ = T+ u+ + Upsilon_+ gamma+ u+,
    lambda_- = T- u- + Upsilon_- gamma- u-,

with the complexified principal-symbol DtN approximations as transmission
operators (one shared complexified wavenumber kappa):

    Upsilon_- = -PS_kappa(Y_+) = +(1/beta+) Lambda_k^{-1} (1/2 I - alpha+ H),
    Upsilon_+ = -PS_kappa(Y_-) = -(1/beta-) Lambda_k^{-1} (1/2 I + alpha- H).

The Schwarz fixed-point system solved by GMRES is

    [[ I, -S_- ], [ -S_+, I ]] (lambda_+, lambda_-)
        = ( -(T u_inc + Upsilon_+ gamma u_inc),
            +(T u_inc + Upsilon_- gamma u_inc) ),

where S_+- are Robin-to-Robin (RtR) maps: S_+ lambda_+ = T+ u+ + Upsilon_-
gamma+ u+ with u+ the radiative exterior solution satisfying T+ u+ +
Upsilon_+ gamma+ u+ = lambda_+, and S_- lambda_- = T u- + Upsilon_+ gamma- u-
with u- the interior solution satisfying T u- + Upsilon_- gamma- u- =
lambda_-.  Each RtR map is realized as a dense matrix by a direct
boundary-integral solve of the subdomain Robin problem:

* interior:  [[-1/2 I - K-, V-], [W- - Upsilon_-, -1/2 I - K-^T]]
             (gamma u-, T u-) = -(0, lambda_-);
* exterior ("plain"):  [[1/2 I - K+, V+], [W+ + Upsilon_+, 1/2 I - K+^T]]
             (gamma u+, T u+) = (0, lambda_+);
* exterior ("eps"):  the same system with eps Vtilde (Upsilon_+, I) added to
  the first row, Vtilde = beta- Lambda_kappa (1/2 I - alpha- H), which stays
  uniquely solvable across all frequencies;
* exterior ("single"):  a single regularized second-kind equation B+ phi =
  lambda_+ for the ansatz u+ = DL+[R^os phi] - SL+[PS_kappa(Y+) R^os phi],
  R^os = (PS_kappa(Y+) - PS_kappa(Y-))^{-1}; the principal part of B+ is
  exactly the identity (see bplus_principal_symbol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .formulations import (DenseOperator, LinearSystem,
                           PotentialRepresentation, PotentialTerm,
                           _incident_cauchy_data, boundary_operators)
from .materials import Material
from .multipliers import (Symbol, identity_symbol, make_symbol, ps_dtn,
                          symbol_matrix, transmission_operators)
from .quadrature import flatten_density, unflatten_density

__all__ = [
    "RtRMap",
    "rtr_interior",
    "rtr_exterior",
    "assemble_ddm",
    "ddm_fields",
    "bplus_principal_symbol",
]


@dataclass(frozen=True)
class RtRMap:
    """Dense Robin-to-Robin map of one subdomain.

    matrix maps the incoming Robin datum lambda to the outgoing one
    (S lambda); data_map maps lambda to the stacked Cauchy data
    (flattened trace; flattened traction) of the subdomain solution.
    """

    matrix: np.ndarray = field(repr=False)    # (L, L), L = 2 * grid.size
    data_map: np.ndarray = field(repr=False)  # (2L, L)
    meta: dict = field(default_factory=dict, repr=False)  # "bplus" if single


def _robin_matrices(mat_plus: Material, mat_minus: Material, grid,
                    kappa: complex):
    ups_plus, ups_minus = transmission_operators(mat_plus, mat_minus, kappa,
                                                 n_max=grid.n)
    return symbol_matrix(ups_plus, grid.n), symbol_matrix(ups_minus, grid.n)


def rtr_interior(mat_minus: Material, grid, ups_plus_mat: np.ndarray,
                 ups_minus_mat: np.ndarray) -> RtRMap:
    """Interior RtR map S_- from a direct Calderon + Robin-row solve."""
    ops = boundary_operators(mat_minus, grid)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    A = np.block([
        [-0.5 * I - ops["K"], ops["V"]],
        [ops["W"] - ups_minus_mat, -0.5 * I - ops["Kt"]],
    ])
    rhs = np.zeros((2 * L, L), dtype=complex)
    rhs[L:] = -I
    X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
    S = ups_plus_mat @ X[:L] + X[L:]
    return RtRMap(matrix=S, data_map=X)


def rtr_exterior(mat_plus: Material, mat_minus: Material, grid,
                 kappa: complex, ups_plus_mat: np.ndarray,
                 ups_minus_mat: np.ndarray, variant: str = "plain",
                 eps: float = 0.1) -> RtRMap:
    """Exterior RtR map S_+; variants 'plain', 'eps', 'single'."""
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    if variant in ("plain", "eps"):
        ops = boundary_operators(mat_plus, grid)
        A = np.block([
            [0.5 * I - ops["K"], ops["V"]],
            [ops["W"] + ups_plus_mat, 0.5 * I - ops["Kt"]],
        ])
        rhs = np.zeros((2 * L, L), dtype=complex)
        rhs[L:] = I
        if variant == "eps":
            H = make_symbol("H", n_max=grid.n)
            Lk = make_symbol("LambdaKappa", kappa=kappa, n_max=grid.n)
            bracket = 0.5 * identity_symbol(grid.n) - mat_minus.alpha * H
            vt = symbol_matrix(mat_minus.beta * (Lk @ bracket), grid.n)
            A[:L, :L] += eps * (vt @ ups_plus_mat)
            A[:L, L:] += eps * vt
            rhs[:L] = eps * vt
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
        S = ups_minus_mat @ X[:L] + X[L:]
        return RtRMap(matrix=S, data_map=X)
    if variant == "single":
        ops = boundary_operators(mat_plus, grid)
        ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=grid.n)
        ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=grid.n)
        Pp = symbol_matrix(ps_p, grid.n)
        Ros = symbol_matrix((ps_p - ps_m).inv(), grid.n)
        trace_map = (0.5 * I + ops["K"] - ops["V"] @ Pp) @ Ros
        traction_map = (ops["W"] + (0.5 * I - ops["Kt"]) @ Pp) @ Ros
        B = traction_map + ups_plus_mat @ trace_map
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), I)
        data_map = np.vstack([trace_map @ X, traction_map @ X])
        S = traction_map @ X + ups_minus_mat @ (trace_map @ X)
        return RtRMap(matrix=S, data_map=data_map, meta={"bplus": B})
    raise ValueError(f"unknown exterior RtR variant {variant!r}")


def assemble_ddm(mat_plus: Material, mat_minus: Material, grid,
                 kappa=None, incident=None, cauchy_data=None,
                 variant: str = "plain", eps: float = 0.1) -> LinearSystem:
    """Schwarz system [[I, -S_-], [-S_+, I]] (lambda_+, lambda_-) = rhs.

    The incident Cauchy data on the right-hand side use the EXTERIOR
    traction; the shared kappa of the transmission operators defaults to
    the INTERIOR material's complexified wavenumber (the benchmark
    convention).
    """
    kappa = complex(kappa) if kappa is not None else mat_minus.kappa
    inc_trace, inc_traction = _incident_cauchy_data(mat_plus, grid, incident,
                                                    cauchy_data)
    Up, Um = _robin_matrices(mat_plus, mat_minus, grid, kappa)
    S_minus = rtr_interior(mat_minus, grid, Up, Um)
    S_plus = rtr_exterior(mat_plus, mat_minus, grid, kappa, Up, Um,
                          variant=variant, eps=eps)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    M = np.block([[I, -S_minus.matrix], [-S_plus.matrix, I]])
    b_tr = flatten_density(inc_trace)
    b_tn = flatten_density(inc_traction)
    rhs = np.concatenate([-(b_tn + Up @ b_tr), b_tn + Um @ b_tr])
    meta = {"mat_plus": mat_plus, "mat_minus": mat_minus, "kappa": kappa,
            "variant": variant, "S_plus": S_plus, "S_minus": S_minus,
            "inc_trace": inc_trace, "inc_traction": inc_traction}
    return LinearSystem(operator=DenseOperator(M),
                        rhs=rhs, tag="transmission-DDM", grid=grid, meta=meta)


def ddm_fields(system: LinearSystem, solution: np.ndarray) -> PotentialRepresentation:
    """Layer-potential representation of the subdomain fields from the
    solved Robin data (lambda_+, lambda_-)."""
    if system.tag != "transmission-DDM":
        raise ValueError("expected a transmission-DDM system")
    meta, grid = system.meta, system.grid
    L = 2 * grid.size
    lam_p, lam_m = np.asarray(solution)[:L], np.asarray(solution)[L:]
    dp = meta["S_plus"].data_map @ lam_p
    dm = meta["S_minus"].data_map @ lam_m
    g_p, t_p = unflatten_density(dp[:L]), unflatten_density(dp[L:])
    g_m, t_m = unflatten_density(dm[:L]), unflatten_density(dm[L:])
    terms = (
        # exterior scattered field: u+ = DL+ (gamma u+) - SL+ (T+ u+)
        PotentialTerm("DL", meta["mat_plus"], grid, g_p, region="exterior"),
        PotentialTerm("SL", meta["mat_plus"], grid, -t_p, region="exterior"),
        # interior total field: u- = -DL- (gamma u-) + SL- (T- u-)
        PotentialTerm("DL", meta["mat_minus"], grid, -g_m, region="interior"),
        PotentialTerm("SL", meta["mat_minus"], grid, t_m, region="interior"),
    )
    return PotentialRepresentation(terms=terms)


def bplus_principal_symbol(mat_plus: Material, mat_minus: Material,
                           kappa: complex, n_max: int = 256) -> Symbol:
    """Per-mode principal symbol of the single-equation exterior RtR
    operator B+; it collapses to the identity exactly."""
    kappa = complex(kappa)
    I = identity_symbol(n_max)
    H = make_symbol("H", n_max=n_max)
    Lk = make_symbol("LambdaKappa", kappa=kappa, n_max=n_max)
    Lki = make_symbol("LambdaKappaInv", kappa=kappa, n_max=n_max)
    ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=n_max)
    ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=n_max)
    Ros = (ps_p - ps_m).inv()
    Ks = mat_plus.alpha * H                    # PS(K+) = PS(K+^T)
    Vs = mat_plus.beta * Lk                    # PS(V+)
    Ws = mat_plus.delta * Lki                  # PS(W+)
    traction_part = Ws + 0.5 * ps_p - Ks @ ps_p
    trace_part = 0.5 * I + Ks - Vs @ ps_p
    return (traction_part - ps_m @ trace_part) @ Ros
