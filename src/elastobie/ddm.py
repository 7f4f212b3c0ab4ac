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

from .formulations import (DenseOperator, LinearSystem, _green_terms,
                           _incident_cauchy_data, boundary_operators)
from .materials import Material
from .multipliers import (Symbol, identity_symbol, make_symbol, ps_dtn,
                          symbol_matrix, transmission_operators)
from .quadrature import flatten_density

__all__ = [
    "RtRMap",
    "rtr_interior",
    "rtr_exterior",
    "assemble_ddm",
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


def rtr_interior(mat_minus: Material, grid, ups_plus: Symbol,
                 ups_minus: Symbol) -> RtRMap:
    """Interior RtR map S_- from a direct Calderon + Robin-row solve."""
    ops = boundary_operators(mat_minus, grid)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    A = np.block([
        [-0.5 * I - ops["K"], ops["V"]],
        [ops["W"] - symbol_matrix(ups_minus, grid.n), -0.5 * I - ops["Kt"]],
    ])
    rhs = np.zeros((2 * L, L), dtype=complex)
    rhs[L:] = -I
    X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
    return RtRMap(matrix=ups_plus @ X[:L] + X[L:], data_map=X)


def rtr_exterior(mat_plus: Material, mat_minus: Material, grid,
                 kappa: complex, ups_plus: Symbol, ups_minus: Symbol,
                 variant: str = "plain", eps: float = 0.1) -> RtRMap:
    """Exterior RtR map S_+; variants 'plain', 'eps', 'single'."""
    if variant not in ("plain", "eps", "single"):
        raise ValueError(f"unknown exterior RtR variant {variant!r}")
    ops = boundary_operators(mat_plus, grid)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    meta = {}
    if variant == "single":
        ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=grid.n)
        ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=grid.n)
        Ros = (ps_p - ps_m).inv()
        trace_map = (0.5 * I + ops["K"] - ops["V"] @ ps_p) @ Ros
        traction_map = (ops["W"] + (0.5 * I - ops["Kt"]) @ ps_p) @ Ros
        B = traction_map + ups_plus @ trace_map
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), I)
        X = np.vstack([trace_map @ X, traction_map @ X])
        meta["bplus"] = B
    else:
        A = np.block([
            [0.5 * I - ops["K"], ops["V"]],
            [ops["W"] + symbol_matrix(ups_plus, grid.n), 0.5 * I - ops["Kt"]],
        ])
        rhs = np.zeros((2 * L, L), dtype=complex)
        rhs[L:] = I
        if variant == "eps":
            H = make_symbol("H", n_max=grid.n)
            Lk = make_symbol("LambdaKappa", kappa=kappa, n_max=grid.n)
            bracket = 0.5 * identity_symbol(grid.n) - mat_minus.alpha * H
            vt = eps * symbol_matrix(mat_minus.beta * (Lk @ bracket), grid.n)
            A[:L, :L] += vt @ ups_plus
            A[:L, L:] += vt
            rhs[:L] = vt
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
    return RtRMap(matrix=ups_minus @ X[:L] + X[L:], data_map=X, meta=meta)


def assemble_ddm(mat_plus: Material, mat_minus: Material, grid,
                 kappa=None, incident=None, cauchy_data=None,
                 variant: str = "plain", eps: float = 0.1) -> LinearSystem:
    """Schwarz system [[I, -S_-], [-S_+, I]] (lambda_+, lambda_-) = rhs.

    The incident Cauchy data on the right-hand side use the EXTERIOR
    traction; the shared kappa of the transmission operators defaults to
    the INTERIOR material's complexified wavenumber (the benchmark
    convention).
    """
    if variant not in ("plain", "eps", "single"):
        raise ValueError(f"unknown exterior RtR variant {variant!r}")
    kappa = complex(kappa) if kappa is not None else mat_minus.kappa
    inc_trace, inc_traction = _incident_cauchy_data(mat_plus, grid, incident,
                                                    cauchy_data)
    Up, Um = transmission_operators(mat_plus, mat_minus, kappa, n_max=grid.n)
    S_minus = rtr_interior(mat_minus, grid, Up, Um)
    S_plus = rtr_exterior(mat_plus, mat_minus, grid, kappa, Up, Um,
                          variant=variant, eps=eps)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    M = np.block([[I, -S_minus.matrix], [-S_plus.matrix, I]])
    b_tr = flatten_density(inc_trace)
    b_tn = flatten_density(inc_traction)
    rhs = np.concatenate([-(b_tn + Up @ b_tr), b_tn + Um @ b_tr])

    # the representation keeps only the data maps, not the RtR matrices
    plus_map, minus_map = S_plus.data_map, S_minus.data_map

    def represent(x):  # Green's formula on each subdomain's Cauchy data
        plus, minus = plus_map @ x[:L], minus_map @ x[L:]
        return (_green_terms(mat_plus, grid, *np.split(plus, 2), "exterior")
                + _green_terms(mat_minus, grid, *np.split(minus, 2), "interior"))
    return LinearSystem(operator=DenseOperator(M), rhs=rhs, grid=grid,
                        represent=represent)


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
