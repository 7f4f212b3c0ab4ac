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

where S_+- are the Robin-to-Robin (RtR) maps: S_+ takes the datum lambda_+
of the radiating exterior solution u+ to T+ u+ + Upsilon_- gamma+ u+, and S_-
takes lambda_- of the interior solution u- to T u- + Upsilon_+ gamma- u-.
Neither map is formed: each keeps the LU factors of its subdomain's Robin
system, built from its Calderon matrix C = [[K, -V], [W, -K^T]]; with s = +1
outside and s = -1 inside (Upsilon_s = Upsilon_+ or Upsilon_-) it reads

    [[s/2 I - K, V], [W + s Upsilon_s, s/2 I - K^T]] (gamma u, T u) = (0, s lambda).

The exterior map has three discretizations:

* "plain":  this system;
* "eps":  EPS Vtilde times the Robin row (Upsilon_+, I) = lambda_+ added to
  the first row, Vtilde = beta- Lambda_kappa (1/2 I - alpha- H) = beta- delta-
  Upsilon_+^{-1}; it stays uniquely solvable at every frequency;
* "single":  one second-kind equation B+ phi = lambda_+ for the ansatz
  u+ = DL+[R^os phi] - SL+[PS_kappa(Y+) R^os phi], R^os = (PS_kappa(Y+) -
  PS_kappa(Y-))^{-1}, whose Cauchy data are (1/2 I + C)(R^os phi,
  PS_kappa(Y+) R^os phi); B+'s principal symbol is exactly the identity.

Every subdomain inverse (a Robin system, or B+) is applied through the LU
factors of its transpose, with two triangular solves and the row swaps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import solve_triangular

from .formulations import (LinearSystem, _green_terms,
                           _incident_cauchy_data, calderon_matrix)
from .materials import Material
from .multipliers import (Symbol, ps_dtn, symbol_matrix,
                          transmission_operators)
from .quadrature import flatten_density

__all__ = ["RtRMap", "SchwarzOperator", "rtr_interior", "rtr_exterior",
           "assemble_ddm"]

EPS = 0.1  # weight of the regularizing Vtilde rows of the "eps" variant


@dataclass(frozen=True)
class RtRMap:
    """Robin-to-Robin map S of one subdomain, kept as LU factors: for Robin
    data lam (vector or matrix), cauchy_data(lam) is the subdomain solution's
    stacked Cauchy data (trace; traction) and S @ lam its outgoing data."""

    cauchy_data: Callable = field(repr=False)
    ups_out: Symbol = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)  # "bplus" if single

    def __matmul__(self, lam) -> np.ndarray:
        trace, traction = np.split(self.cauchy_data(lam), 2)
        return self.ups_out @ trace + traction


@dataclass(frozen=True)
class SchwarzOperator:
    """Matrix-free [[I, -S_-], [-S_+, I]]: two subdomain solves per product."""

    s_plus: RtRMap
    s_minus: RtRMap
    shape: tuple

    def __matmul__(self, x) -> np.ndarray:
        plus, minus = np.split(x, 2)
        return np.concatenate([plus - self.s_minus @ minus,
                               minus - self.s_plus @ plus])


def _lu_inverse(AT: np.ndarray) -> Callable:
    """x -> A^-1 x (vector or matrix x), factoring the Fortran-ordered
    complex AT = A^T in place.  With A^T = P L U, A = U^T L^T P^T: two
    triangular solves and the row swaps, faster than lu_solve on one
    right-hand side."""
    lu, piv = scipy.linalg.lu_factor(AT, overwrite_a=True)  # no copy

    def solve(x):
        x = solve_triangular(lu, x, trans=1, check_finite=False)
        x = solve_triangular(lu, x, trans=1, lower=True, unit_diagonal=True,
                             check_finite=False)
        return scipy.linalg.lapack.zlaswp(x, piv, inc=-1)
    return solve


def _robin_map(C: np.ndarray, side: int, ups: Symbol, ups_out: Symbol,
               vt: Symbol | None = None) -> RtRMap:
    """RtR map of the subdomain on `side` (+1 exterior, -1 interior).  Its
    Robin system A is built in C, its Calderon matrix, and factored there
    as C.T = A^T, Fortran-ordered; vt adds the "eps" rows vt (Upsilon, I)."""
    L = C.shape[0] // 2  # 4n: one interleaved density on the 2n nodes
    C[:L] *= -1
    C[np.diag_indices_from(C)] += side / 2
    C[L:, :L] += symbol_matrix(side * ups, L // 4)
    if vt is not None:
        C[:L, :L] += symbol_matrix(vt @ ups, L // 4)
        C[:L, L:] += symbol_matrix(vt, L // 4)
    solve = _lu_inverse(C.T)

    def cauchy_data(lam):  # A^-1 (vt lam, side lam)
        return solve(np.concatenate([
            np.zeros_like(lam) if vt is None else vt @ lam, side * lam]))
    return RtRMap(cauchy_data, ups_out)


def rtr_interior(mat_minus: Material, grid, ups_plus: Symbol,
                 ups_minus: Symbol) -> RtRMap:
    """Interior RtR map S_- from a direct Calderon + Robin-row solve."""
    return _robin_map(calderon_matrix(mat_minus, grid), -1, ups_minus,
                      ups_plus)


def rtr_exterior(mat_plus: Material, mat_minus: Material, grid,
                 kappa: complex, ups_plus: Symbol, ups_minus: Symbol,
                 variant: str = "plain") -> RtRMap:
    """Exterior RtR map S_+; variants 'plain', 'eps', 'single'."""
    if variant not in ("plain", "eps", "single"):
        raise ValueError(f"unknown exterior RtR variant {variant!r}")
    C = calderon_matrix(mat_plus, grid)
    if variant != "single":
        vt = None if variant == "plain" else EPS * (
            (mat_minus.beta * mat_minus.delta) * ups_plus.inv())
        return _robin_map(C, +1, ups_plus, ups_minus, vt)
    L = 2 * grid.size
    ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=grid.n)
    ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=grid.n)
    Ros = (ps_p - ps_m).inv()
    C[np.diag_indices_from(C)] += 0.5
    D = C[:, :L] @ Ros + C[:, L:] @ (ps_p @ Ros)  # Cauchy data of u+ per phi
    B = D[L:] + ups_plus @ D[:L]
    solve = _lu_inverse(B.T.copy(order="F"))
    return RtRMap(lambda lam: D @ solve(lam), ups_minus, meta={"bplus": B})


def assemble_ddm(mat_plus: Material, mat_minus: Material, grid,
                 kappa=None, incident=None,
                 variant: str = "plain") -> LinearSystem:
    """Schwarz system [[I, -S_-], [-S_+, I]] (lambda_+, lambda_-) = rhs.

    The incident Cauchy data on the right-hand side use the EXTERIOR
    traction; the shared kappa of the transmission operators defaults to
    the INTERIOR material's complexified wavenumber (the benchmark
    convention).
    """
    kappa = complex(kappa) if kappa is not None else mat_minus.kappa
    inc_trace, inc_traction = _incident_cauchy_data(mat_plus, grid, incident)
    Up, Um = transmission_operators(mat_plus, mat_minus, kappa, n_max=grid.n)
    # the exterior map first: it rejects an unknown variant before assembly
    S_plus = rtr_exterior(mat_plus, mat_minus, grid, kappa, Up, Um,
                          variant=variant)
    S_minus = rtr_interior(mat_minus, grid, Up, Um)
    b_tr, b_tn = flatten_density(inc_trace), flatten_density(inc_traction)
    rhs = np.concatenate([-(b_tn + Up @ b_tr), b_tn + Um @ b_tr])

    def represent(x):  # Green's formula on each subdomain's Cauchy data
        plus, minus = np.split(x, 2)
        plus, minus = S_plus.cauchy_data(plus), S_minus.cauchy_data(minus)
        return (_green_terms(mat_plus, grid, *np.split(plus, 2), "exterior")
                + _green_terms(mat_minus, grid, *np.split(minus, 2), "interior"))
    M = SchwarzOperator(S_plus, S_minus, shape=(len(rhs), len(rhs)))
    return LinearSystem(operator=M, rhs=rhs, grid=grid, represent=represent)
