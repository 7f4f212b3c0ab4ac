"""Nystrom quadrature rules and dense assembly of the boundary operators.

All rules live on the 2n equispaced nodes t_j = j pi / n and are exact (or
spectrally accurate) on trigonometric polynomials:

* trapezoid (weight pi/n) for smooth parts;
* Kusmaul-Martensen weights R for log(4 sin^2((tau-t)/2)) parts, normalized
  so that sum_m R[i,m] phi(t_m) ~ (1/2pi) Int log(4 sin^2((t_i-t)/2)) phi(t) dt
  with exact mode action e^{ikt} -> -e^{ik t_i}/|k| (0 for k = 0);
* Kress weights T for the finite-part csc^2 kernel, normalized so that
  sum_m T[i,m] phi(t_m) ~ f.p. (1/4pi) Int csc^2((t_i-t)/2) phi(t) dt with
  exact mode action e^{ikt} -> -|k| e^{ik t_i};
* a half-grid-shifted rule for the Cauchy principal value: densities are
  interpolated spectrally to the shifted nodes t_{m+1/2}, where the cot
  kernel is regular, so that (pv phi)_i ~ p.v. (1/2pi) Int cot((t-t_i)/2)
  phi(t) dt with mode action e^{ikt} -> i sign(k) e^{ik t_i}.

The singular weights depend on t_i - t_m only, so R, T and pv are circulant
matrices built from one column each.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "QuadratureSet",
    "build_quadrature",
    "assemble_bio",
    "flatten_density",
    "unflatten_density",
]

_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_I2 = np.eye(2)


@dataclass(frozen=True)
class QuadratureSet:
    """Weight matrices for the four singularity classes on a 2n-node grid."""

    n: int
    R: np.ndarray = field(repr=False)  # Kusmaul-Martensen log weights
    T: np.ndarray = field(repr=False)  # Kress finite-part weights
    pv: np.ndarray = field(repr=False)  # shifted-grid Cauchy p.v. rule
    trapezoid: float = 0.0


def build_quadrature(n: int) -> QuadratureSet:
    """Materialize all weight families for the 2n-point periodic grid.

    R, T and pv depend on t_i - t_m only, so each is a circulant,
    W[i, m] = col[(i - m) mod 2n].  With d_k = k pi / n the columns are

        R:  col[k] = -(1/n) sum_{j<n} cos(j d_k)/j - (1/2n^2) cos(n d_k)
        T:  col[k] = -(1/n) sum_{j<n} j cos(j d_k) - (1/2) cos(n d_k)
        pv: col[k] = -(1/n) sum_{j<n} sin(j d_k)

    (pv is the shifted-grid rule summed in closed form; the Nyquist mode
    vanishes at the shifted nodes).  The columns are computed for
    k = 0..n and mirrored, so R and T are exactly symmetric and pv exactly
    antisymmetric, at O(n^2) cost.
    """
    if not (isinstance(n, numbers.Integral) and n >= 4):
        raise ValueError(f"n {n!r} is not an integer >= 4")
    k = np.arange(n + 1)
    j = np.arange(1, n)
    jd = (np.outer(k, j) % (2 * n)) * (np.pi / n)  # j d_k reduced to [0, 2 pi)
    cos_jd = np.cos(jd)
    cos_nd = (-1.0) ** k
    R = _circulant(-(cos_jd / j).sum(axis=-1) / n - cos_nd / (2.0 * n**2))
    T = _circulant(-(cos_jd * j).sum(axis=-1) / n - 0.5 * cos_nd)
    pv = _circulant(-np.sin(jd).sum(axis=-1) / n, odd=True)
    return QuadratureSet(n=n, R=R, T=T, pv=pv, trapezoid=np.pi / n)


def _circulant(half: np.ndarray, odd: bool = False) -> np.ndarray:
    """Circulant matrix W[i, m] = col[(i - m) mod 2n] from col[0..n], extended
    as an even (col[2n-k] = col[k]) or odd (col[2n-k] = -col[k]) sequence."""
    n = half.size - 1
    tail = half[n - 1:0:-1]
    col = np.concatenate([half, -tail if odd else tail])
    if odd:
        col[0] = col[n] = 0.0
    return scipy.linalg.circulant(col)


def flatten_density(values: np.ndarray) -> np.ndarray:
    """(N, 2) nodal vector field -> interleaved (2N,) vector."""
    return np.asarray(values).reshape(-1)


def unflatten_density(vec: np.ndarray) -> np.ndarray:
    """Interleaved (2N,) vector -> (N, 2) nodal vector field."""
    return np.asarray(vec).reshape(-1, 2)


def assemble_bio(split, quadrature: QuadratureSet, grid) -> np.ndarray:
    """Assemble one boundary integral operator, as a dense 4n x 4n matrix on
    interleaved 2-component densities, from its kernel split.

    Component (p, q) of the split fills the plane out[p::2, q::2] with
    w M_smooth[p, q] + 2 pi R M_log[p, q], plus c_hs T where p == q and
    -(c_pv/2) J[p, q] pv where p != q.
    """
    N = grid.size
    if quadrature.n != grid.n or split.M_log.shape[-1] != N:
        raise ValueError("grid, quadrature and kernel split sizes disagree")
    w = quadrature.trapezoid
    R = 2.0 * np.pi * quadrature.R
    out = np.empty((2 * N, 2 * N),
                   dtype=np.result_type(split.M_smooth, split.M_log))
    # c_pv (1/4pi) Int cot((t_i - t)/2) J phi dt = -(c_pv/2) (pv phi) J
    for p in range(2):
        for q in range(2):
            plane = w * split.M_smooth[p, q]
            plane += R * split.M_log[p, q]
            if p == q and split.c_hs != 0.0:
                plane += split.c_hs * quadrature.T
            if p != q and split.c_pv != 0.0:
                plane += (-0.5 * split.c_pv) * quadrature.pv * _J[p, q]
            out[p::2, q::2] = plane
    return out
