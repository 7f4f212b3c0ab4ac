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

One rule realizes these and every dense multiplier (symbol_matrix): the
circulant of col = ifft(a), a(k) the mode action at the grid modes.  At the
Nyquist mode -n, R and T act as -1/n and -n, pv as 0 (shifted nodes).
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

    R, T and pv are the circulants of their mode actions -1/|k|, -|k| and
    i sign(k), with 0 at k = 0 and pv 0 at the Nyquist mode.
    """
    if not (isinstance(n, numbers.Integral) and n >= 4):
        raise ValueError(f"n {n!r} is not an integer >= 4")
    k = _grid_modes(2 * n)
    pv = 1j * np.sign(k)
    pv[n] = 0.0  # the Nyquist mode -n
    return QuadratureSet(n=n, R=_circulant(-1.0 / np.where(k, abs(k), np.inf)),
                         T=_circulant(-1.0 * abs(k)),
                         pv=_circulant(pv, odd=True), trapezoid=np.pi / n)


def _grid_modes(N: int) -> np.ndarray:
    """Integer Fourier modes of the N-point grid, in FFT (fftfreq) order."""
    return np.fft.fftfreq(N, d=1.0 / N).astype(int)


def _circulant(action: np.ndarray, odd: bool = False) -> np.ndarray:
    """W[i, m] = col[(i - m) mod 2n], col = ifft(action).real with col[0..n]
    mirrored (col[2n-k] = +-col[k]): W exactly symmetric or antisymmetric."""
    n = action.size // 2
    col = np.fft.ifft(action).real
    col[n + 1:] = (-1.0 if odd else 1.0) * col[n - 1:0:-1]
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
