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

import numpy as np
from scipy.special import (j0 as bessel_j0, j1 as bessel_j1,
                           y0 as bessel_y0, y1 as bessel_y1)

__all__ = ["radial_suite", "RadialSuite"]

_LOG_SCALE = -1.0 / (2.0 * np.pi)


class RadialSuite:
    """Phi1, Phi2 and their first (and optionally second) radial derivatives."""

    __slots__ = ("Phi1", "Phi2", "dPhi1", "dPhi2", "d2Phi1", "d2Phi2")

    def __init__(self, Phi1, Phi2, dPhi1, dPhi2, d2Phi1=None, d2Phi2=None):
        self.Phi1 = Phi1
        self.Phi2 = Phi2
        self.dPhi1 = dPhi1
        self.dPhi2 = dPhi2
        self.d2Phi1 = d2Phi1
        self.d2Phi2 = d2Phi2


def _quarter_i_hankel(j, y):
    """(i/4) H^(1) = (i/4) (J + i Y) from real J and Y."""
    out = np.empty(np.shape(j), dtype=complex)
    out.real = -0.25 * y
    out.imag = 0.25 * j
    return out


def _family(k: float, r: np.ndarray, basis: str, second: bool):
    """F0 = c0(kr), F1 = c1(kr)/(kr) and derivatives for one wavenumber.

    In the "log" basis the w -> 0 limits are finite and evaluated by series
    (the direct expressions suffer 1/w^2 cancellation and are 0/0 at w = 0).
    """
    w = k * r
    if basis == "hankel":
        c0 = _quarter_i_hankel(bessel_j0(w), bessel_y0(w))
        c1 = _quarter_i_hankel(bessel_j1(w), bessel_y1(w))
        c1_over_w = c1 / w
        h2 = -3.0 * c0 / w**2 + 6.0 * c1 / w**3
    elif basis == "log":
        small = w <= 0.5
        j0 = bessel_j0(w)
        j1 = bessel_j1(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            j1_over_w = np.where(small, 0.0, j1 / np.where(small, 1.0, w))
            h2j = np.where(
                small, 0.0, (-3.0 * j0 + 6.0 * j1_over_w) / np.where(small, 1.0, w**2)
            )
        if np.any(small):
            ws = w[small]
            q = (0.5 * ws) ** 2  # (w/2)^2
            # J1(w)/w = sum_m (-1)^m q^m / (2 m! (m+1)!)
            s1 = np.zeros_like(ws)
            # -3 J0/w^2 + 6 J1/w^3 = (3/4) sum_{m>=1} (-1)^{m+1} m q^{m-1}/((m+1) m!^2)
            s2 = np.zeros_like(ws)
            for m in range(10):
                fm = math.factorial(m)
                s1 += (-1.0) ** m * q**m / (2.0 * fm * math.factorial(m + 1))
                if m >= 1:
                    s2 += (
                        (-1.0) ** (m + 1)
                        * m
                        * q ** (m - 1)
                        / ((m + 1.0) * fm * fm)
                    )
            j1_over_w[small] = s1
            h2j[small] = 0.75 * s2
        c0 = _LOG_SCALE * j0
        c1 = _LOG_SCALE * j1
        c1_over_w = _LOG_SCALE * j1_over_w
        h2 = _LOG_SCALE * h2j
    else:
        raise ValueError(f"unknown basis {basis!r}")
    F0 = c0
    F1 = c1_over_w
    dF0 = -k * c1
    dF1 = k * (c0 - 2.0 * c1_over_w) / np.where(np.asarray(w) == 0.0, 1.0, w)
    if basis == "log":
        # k (c0 - 2 c1/w)/w -> 0 as w -> 0 (the bracket is O(w^2)).
        dF1 = np.where(np.asarray(w) == 0.0, 0.0, dF1)
    out = {"F0": F0, "F1": F1, "dF0": dF0, "dF1": dF1}
    if second:
        out["d2F0"] = -(k**2) * (c0 - c1_over_w)
        out["d2F1"] = k**2 * (-c1_over_w + h2)
    return out


def radial_suite(material, r, basis: str = "hankel", second: bool = False) -> RadialSuite:
    """Evaluate Phi1, Phi2 (and radial derivatives) at distances r.

    With w2 = omega^2, kp, ks the wavenumbers:

        psi  = ks^2 F1_s - kp^2 F1_p
        Phi1 = (ks^2 F0_s - psi) / w2   = (ks^2 (F0_s - F1_s) + kp^2 F1_p)/w2
        Phi2 = (kp^2 F0_p - ks^2 F0_s + 2 psi) / w2
             = (kp^2 (F0_p - 2 F1_p) - ks^2 (F0_s - 2 F1_s)) / w2

    and derivatives follow by linearity from the F-family derivatives.
    """
    r = np.asarray(r, dtype=float)
    kp, ks, w2 = material.kp, material.ks, material.omega**2
    fp = _family(kp, r, basis, second)
    fs = _family(ks, r, basis, second)
    kp2, ks2 = kp**2, ks**2

    def combine(tag: str):
        p1 = (ks2 * (fs[tag + "0"] - fs[tag + "1"]) + kp2 * fp[tag + "1"]) / w2
        p2 = (
            kp2 * (fp[tag + "0"] - 2.0 * fp[tag + "1"])
            - ks2 * (fs[tag + "0"] - 2.0 * fs[tag + "1"])
        ) / w2
        return p1, p2

    Phi1, Phi2 = combine("F")
    dPhi1, dPhi2 = combine("dF")
    if second:
        d2Phi1, d2Phi2 = combine("d2F")
        return RadialSuite(Phi1, Phi2, dPhi1, dPhi2, d2Phi1, d2Phi2)
    return RadialSuite(Phi1, Phi2, dPhi1, dPhi2)
