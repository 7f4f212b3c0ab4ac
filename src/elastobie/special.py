"""Bessel-type special functions and the elastodynamic radial function suite.

The Navier fundamental solution and all four boundary-integral kernels are
combinations of two radial functions Phi1(r), Phi2(r) and their first two
derivatives.  Each of these is a linear combination of

    F0(r) = c_0(k r),          F1(r) = c_1(k r) / (k r)

over the two wavenumber families k in {k_p, k_s}, where c_j is a cylinder
function.  Two choices of c_j are used:

* ``basis="hankel"``: c_j(w) = (i/4) H^(1)_j(w) — the actual kernel values;
* ``basis="log"``:    c_j(w) = -(1/2 pi) J_j(w) — the coefficient of log(z)
  in the small-argument splitting of the Hankel basis.  Because taking the
  log-coefficient commutes with differentiation in r, the same linear
  combinations evaluated in this basis produce the log-coefficients of the
  kernels analytically.

Only the orders j = 0, 1 occur, so both bases come from SciPy's Cephes
routines j0, j1, y0 and y1: H^(1)_j = J_j + i Y_j for real arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import (j0 as bessel_j0, j1 as bessel_j1,
                           y0 as bessel_y0, y1 as bessel_y1)

__all__ = ["radial_suite", "RadialSuite"]

_LOG_SCALE = -1.0 / (2.0 * np.pi)


class RadialSuite(NamedTuple):
    """Phi1, Phi2 and their first (and optionally second) radial derivatives."""

    Phi1: np.ndarray
    Phi2: np.ndarray
    dPhi1: np.ndarray
    dPhi2: np.ndarray
    d2Phi1: np.ndarray | None = None
    d2Phi2: np.ndarray | None = None


def _quarter_i_hankel(j, y):
    """(i/4) H^(1) = (i/4) (J + i Y) from real J and Y."""
    out = np.empty(np.shape(j), dtype=complex)
    out.real = -0.25 * y
    out.imag = 0.25 * j
    return out


def _family(k: float, w: np.ndarray, j0: np.ndarray, j1: np.ndarray,
            basis: str, second: bool):
    """The pairs (F0, F1), (dF0, dF1) and, if `second`, (d2F0, d2F1), with
    F0 = c0(w) and F1 = c1(w)/w, for one wavenumber k at w = k r > 0, from
    j0 = J0(w) and j1 = J1(w).

    In the "log" basis c1/w, h2 = -3 c0/w^2 + 6 c1/w^3 and dF1 = -(k w/3) h2
    have finite w -> 0 limits that cancellation spoils: series for w <= 0.5.
    The Hankel basis keeps the direct formulas at every w.
    """
    if basis == "hankel":
        c0 = _quarter_i_hankel(j0, bessel_y0(w))
        c1 = _quarter_i_hankel(j1, bessel_y1(w))
    elif basis == "log":
        c0 = _LOG_SCALE * j0
        c1 = _LOG_SCALE * j1
    else:
        raise ValueError(f"unknown basis {basis!r}")
    c1_over_w = c1 / w
    dF1 = k * (c0 - 2.0 * c1_over_w) / w
    h2 = -3.0 * c0 / w**2 + 6.0 * c1 / w**3
    if basis == "log" and np.any(small := w <= 0.5):
        # with q = (w/2)^2, J1(w)/w = sum_m (-1)^m q^m / (2 m! (m+1)!) and
        # -3 J0/w^2 + 6 J1/w^3 = (3/4) sum_{m>=1} (-1)^{m+1} m q^{m-1}/((m+1) m!^2)
        q = (0.5 * w[small]) ** 2
        s1, s2 = np.zeros_like(q), np.zeros_like(q)
        for m in range(10):
            fm = math.factorial(m)
            s1 += (-1.0) ** m * q**m / (2.0 * fm * math.factorial(m + 1))
            if m >= 1:
                s2 += (-1.0) ** (m + 1) * m * q ** (m - 1) / ((m + 1.0) * fm * fm)
        c1_over_w[small] = _LOG_SCALE * s1
        h2[small] = _LOG_SCALE * (0.75 * s2)
        dF1[small] = -(k * w[small] / 3.0) * h2[small]
    pairs = [(c0, c1_over_w), (-k * c1, dF1)]
    if second:
        pairs.append((-(k**2) * (c0 - c1_over_w), k**2 * (-c1_over_w + h2)))
    return pairs


def radial_suite(material, r, basis="hankel", second: bool = False):
    """Evaluate Phi1, Phi2 (and radial derivatives) at distances r > 0.

    With w2 = omega^2, kp, ks the wavenumbers:

        psi  = ks^2 F1_s - kp^2 F1_p
        Phi1 = (ks^2 F0_s - psi) / w2   = (ks^2 (F0_s - F1_s) + kp^2 F1_p)/w2
        Phi2 = (kp^2 F0_p - ks^2 F0_s + 2 psi) / w2
             = (kp^2 (F0_p - 2 F1_p) - ks^2 (F0_s - 2 F1_s)) / w2

    and derivatives follow by linearity from the F-family derivatives.
    `basis` is "hankel", "log" or a tuple of them; a tuple gives the tuple of
    their suites, which share one J0 and J1 evaluation per wavenumber.
    """
    r = np.asarray(r, dtype=float)
    kp2, ks2, w2 = material.kp**2, material.ks**2, material.omega**2
    waves = []  # (k, w = k r, J0(w), J1(w)) of each wavenumber
    for k in (material.kp, material.ks):
        w = k * r
        waves.append((k, w, bessel_j0(w), bessel_j1(w)))
    suites = []
    for b in ((basis,) if isinstance(basis, str) else basis):
        out = []
        for (p0, p1), (s0, s1) in zip(*(_family(*wave, b, second) for wave in waves)):
            out.append((ks2 * (s0 - s1) + kp2 * p1) / w2)
            out.append((kp2 * (p0 - 2.0 * p1) - ks2 * (s0 - 2.0 * s1)) / w2)
        suites.append(RadialSuite(*out))
    return suites[0] if isinstance(basis, str) else tuple(suites)
