"""Optimized Schwarz domain decomposition for the transmission problem.

The transmission problem is split into an exterior and an interior Navier
problem coupled through generalized Robin data

    lambda_+ = T+ u+ + Upsilon_+ gamma+ u+,
    lambda_- = T- u- + Upsilon_- gamma- u-,

with the complexified principal-symbol DtN approximations P_+- = PS_kappa(Y_+-)
as transmission operators (one shared complexified wavenumber kappa):

    Upsilon_- = -P_+ = +(1/beta+) Lambda_k^{-1} (1/2 I - alpha+ H),
    Upsilon_+ = -P_- = -(1/beta-) Lambda_k^{-1} (1/2 I + alpha- H).

The Schwarz fixed-point system solved by GMRES is

    [[ I, -S_- ], [ -S_+, I ]] (lambda_+, lambda_-)
        = ( -(T u_inc + Upsilon_+ gamma u_inc),
            +(T u_inc + Upsilon_- gamma u_inc) ),

where S_+- are the Robin-to-Robin (RtR) maps: S_+ takes the datum lambda_+
of the radiating exterior solution u+ to T+ u+ + Upsilon_- gamma+ u+, and S_-
takes lambda_- of the interior solution u- to T u- + Upsilon_+ gamma- u-.

Both maps have one construction.  On side s (+1 outside, -1 inside) the
datum is lambda_s = T u_s + Upsilon_s gamma u_s; Upsilon_out is the other
operator, so -Upsilon_out = P_s is the side's own DtN symbol.  The ansatz

    u_s = s (DL[a] - SL[b]),  (a, b) = (I, -Upsilon_out) R_s phi,
    R_s = (Upsilon_s - Upsilon_out)^{-1} = (P_s - P_-s)^{-1},

that is u+ = DL+[R_+ phi] - SL+[P_+ R_+ phi] and
u- = -DL-[R_- phi] + SL-[P_- R_- phi], has the Cauchy data
(gamma u_s, T u_s) = D phi with D = (1/2 I + s C)(I, -Upsilon_out) R_s, C the
side's Calderon matrix [[K, -V], [W, -K^T]].  The Robin datum is one
second-kind equation B phi = lambda_s with

    B = D_traction + Upsilon_s D_trace.

Its principal symbol is the identity: at that level 1/2 I + s C is the
projector onto the Cauchy data (g, P_s g) of side s, and (a, b) = (a, P_s a)
lies in its range, so D ~ (I, P_s) R_s and B ~ (P_s + Upsilon_s) R_s =
(P_s - P_-s) R_s = I.  A map keeps D and the LU factors of B, and takes
lambda_s to the Cauchy data D B^{-1} lambda_s.

D is formed in one spectral pass.  One pass over the node pairs writes the
column halves of 1/2 I + s C, s [K; W] and s [-V; -K^T] plus 1/2 on their
diagonals, as two arrays; both are transformed over the nodes row by row,
mixed per mode with the stacked symbol (R_s; -Upsilon_out R_s) into the
first, which is transformed back and is D.  C is never formed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import solve_triangular

from .formulations import (LinearSystem, _calderon_targets, _green_terms,
                           _incident_cauchy_data)
from .kernels import _assemble
from .materials import Material
from .multipliers import Symbol, _matmul_in_place, transmission_operators
from .quadrature import flatten_density

__all__ = ["RtRMap", "SchwarzOperator", "rtr_interior", "rtr_exterior",
           "assemble_ddm"]


@dataclass(frozen=True)
class RtRMap:
    """Robin-to-Robin map S of one subdomain, kept as D and the LU factors of
    B: for Robin data lam (vector or matrix), cauchy_data(lam) is the
    subdomain solution's stacked Cauchy data (trace; traction) and S @ lam
    its outgoing data."""

    cauchy_data: Callable = field(repr=False)
    ups_out: Symbol = field(repr=False)

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
    """x -> A^-1 x (vector or matrix x) for a subdomain map's A = B,
    factoring AT = A^T in place: B is built C-ordered, so B.T is the
    Fortran-ordered array LAPACK factors without a copy.  With
    A^T = P L U, A = U^T L^T P^T: two triangular solves and the row swaps,
    faster than lu_solve on one right-hand side."""
    lu, piv = scipy.linalg.lu_factor(AT, overwrite_a=True)  # no copy

    def solve(x):
        x = solve_triangular(lu, x, trans=1, check_finite=False)
        x = solve_triangular(lu, x, trans=1, lower=True, unit_diagonal=True,
                             check_finite=False)
        return scipy.linalg.lapack.zlaswp(x, piv, inc=-1)
    return solve


def _rtr_map(material: Material, grid, side: int, ups: Symbol,
             ups_out: Symbol) -> RtRMap:
    """RtR map of the subdomain of `material` on `side` (+1 exterior, -1
    interior): lambda -> D B^-1 lambda (see the module docstring).  D is
    formed in the left column half of 1/2 I + side C; the right half is
    dropped once mixed in."""
    L = 2 * grid.size  # 4n: one interleaved density on the 2n nodes
    R = (ups - ups_out).inv()
    # side C's column halves; the coefficient -1 negates exactly
    D, right = _assemble((material,), grid, [(2 * L, L)] * 2,
                         _calderon_targets(grid, (side,), (0, 1)))
    diag = np.diag_indices(L)
    D[:L][diag] += 0.5
    right[L:][diag] += 0.5
    stacked = Symbol(R.n_max, np.concatenate(
        [R.values, -(ups_out @ R).values], axis=1))  # (R; -Upsilon_out R)
    _matmul_in_place((D, right), stacked)
    del right  # freed before B is allocated
    B = ups @ D[:L]
    B += D[L:]
    solve = _lu_inverse(B.T)
    return RtRMap(lambda lam: D @ solve(lam), ups_out)


def rtr_interior(mat_minus: Material, grid, ups_plus: Symbol,
                 ups_minus: Symbol) -> RtRMap:
    """Interior RtR map S_-: lambda_- -> T u- + Upsilon_+ gamma u-."""
    return _rtr_map(mat_minus, grid, -1, ups_minus, ups_plus)


def rtr_exterior(mat_plus: Material, grid, ups_plus: Symbol,
                 ups_minus: Symbol) -> RtRMap:
    """Exterior RtR map S_+: lambda_+ -> T u+ + Upsilon_- gamma u+."""
    return _rtr_map(mat_plus, grid, +1, ups_plus, ups_minus)


def assemble_ddm(mat_plus: Material, mat_minus: Material, grid,
                 kappa=None, incident=None) -> LinearSystem:
    """Schwarz system [[I, -S_-], [-S_+, I]] (lambda_+, lambda_-) = rhs.

    The incident Cauchy data on the right-hand side use the EXTERIOR
    traction; the shared kappa of the transmission operators defaults to
    the INTERIOR material's complexified wavenumber (the benchmark
    convention).
    """
    kappa = complex(kappa) if kappa is not None else mat_minus.kappa
    inc_trace, inc_traction = _incident_cauchy_data(mat_plus, grid, incident)
    Up, Um = transmission_operators(mat_plus, mat_minus, kappa, n_max=grid.n)
    S_plus = rtr_exterior(mat_plus, grid, Up, Um)
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
