"""Smooth closed-curve parameterizations, derivatives, normals and grids.

All built-in curves are trigonometric polynomials, so derivatives of any
order are available in closed form (no numerical differentiation anywhere).
The parameterization convention follows x : [0, 2pi) -> R^2 with the
(unnormalized) outward normal nu(t) = (x2'(t), -x1'(t)).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Curve", "CurveGrid", "make_curve", "sample_grid"]


class Curve:
    """Closed curve given by finite Fourier series per coordinate.

    x_i(t) = sum_k cos_coeffs[i, k] cos(k t) + sin_coeffs[i, k] sin(k t).
    """

    def __init__(self, cos_coeffs, sin_coeffs, name: str = "custom"):
        self.cos_coeffs = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        self.sin_coeffs = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
        if self.cos_coeffs.shape[0] != 2 or self.sin_coeffs.shape[0] != 2:
            raise ValueError("coefficient arrays must have two rows (x1, x2)")
        m = max(self.cos_coeffs.shape[1], self.sin_coeffs.shape[1])
        self.cos_coeffs = _pad(self.cos_coeffs, m)
        self.sin_coeffs = _pad(self.sin_coeffs, m)
        self.name = name
        if not np.isfinite([self.cos_coeffs, self.sin_coeffs]).all():
            raise ValueError(f"curve {name!r} has non-finite coefficients")
        # Regularity scan: |x'| must not vanish.
        tt = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        speed = np.linalg.norm(self.eval(tt, 1), axis=1)
        if speed.min() < 1e-10:
            raise ValueError(f"degenerate parameterization for curve {name!r}")

    def eval(self, t, deriv: int = 0) -> np.ndarray:
        """Evaluate x(t) or its deriv-th derivative; returns shape (..., 2)."""
        t = np.asarray(t, dtype=float)
        k = np.arange(self.cos_coeffs.shape[1], dtype=float)
        kt = np.multiply.outer(t, k)  # (..., m)
        # d/dt cos(kt) = -k sin(kt); d/dt sin(kt) = k cos(kt)
        ck, sk = np.cos(kt), np.sin(kt)
        kp = k**deriv
        phase = deriv % 4
        if phase == 0:
            bc, bs = ck, sk
        elif phase == 1:
            bc, bs = -sk, ck
        elif phase == 2:
            bc, bs = -ck, -sk
        else:
            bc, bs = sk, -ck
        out = (kp * bc) @ self.cos_coeffs.T + (kp * bs) @ self.sin_coeffs.T
        return out

    def normal(self, t) -> np.ndarray:
        """Unnormalized outward normal nu(t) = (x2'(t), -x1'(t))."""
        dx = self.eval(t, 1)
        return np.stack([dx[..., 1], -dx[..., 0]], axis=-1)


def _pad(a: np.ndarray, m: int) -> np.ndarray:
    if a.shape[1] < m:
        a = np.pad(a, ((0, 0), (0, m - a.shape[1])))
    return a


@dataclass(frozen=True)
class CurveGrid:
    """Equispaced sampling of a curve with 2n nodes t_j = j pi / n."""

    curve: Curve
    n: int
    t: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    speed: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        """Number of nodes (2n)."""
        return 2 * self.n


def make_curve(kind: str, params: dict | None = None) -> Curve:
    """Build a curve: 'circle', 'starfish', 'cavity' or 'fourier_custom'."""
    params = dict(params or {})
    if kind == "circle":
        r = float(params.get("radius", 1.0))
        if not 0 < r < np.inf:
            raise ValueError(f"radius {r!r} is not a positive finite number")
        # x1 = r cos t, x2 = r sin t
        cos_c = [[0.0, r], [0.0, 0.0]]
        sin_c = [[0.0, 0.0], [0.0, r]]
        return Curve(cos_c, sin_c, name="circle")
    if kind == "starfish":
        # x(t) = (1 + (1/4) sin 5t)(cos t, sin t)
        # sin5t cos t = (sin6t + sin4t)/2 ; sin5t sin t = (cos4t - cos6t)/2
        cos_c = np.zeros((2, 7))
        sin_c = np.zeros((2, 7))
        cos_c[0, 1] = 1.0
        sin_c[0, 6] = 1.0 / 8.0
        sin_c[0, 4] = 1.0 / 8.0
        sin_c[1, 1] = 1.0
        cos_c[1, 4] = 1.0 / 8.0
        cos_c[1, 6] = -1.0 / 8.0
        return Curve(cos_c, sin_c, name="starfish")
    if kind == "cavity":
        # x1 = (2/5)(cos t + 2 cos 2t)
        # x2 = (1/2) sin t + (1/2) sin 2t + (1/4) sin 3t
        #      + (1/48)(4 sin t - 7 sin 2t + 6 sin 3t - 2 sin 4t)
        cos_c = np.zeros((2, 5))
        sin_c = np.zeros((2, 5))
        cos_c[0, 1] = 2.0 / 5.0
        cos_c[0, 2] = 4.0 / 5.0
        sin_c[1, 1] = 0.5 + 4.0 / 48.0
        sin_c[1, 2] = 0.5 - 7.0 / 48.0
        sin_c[1, 3] = 0.25 + 6.0 / 48.0
        sin_c[1, 4] = -2.0 / 48.0
        return Curve(cos_c, sin_c, name="cavity")
    if kind == "fourier_custom":
        try:
            cos_c = params["cos"]
            sin_c = params["sin"]
        except KeyError as exc:
            raise ValueError("fourier_custom requires 'cos' and 'sin' arrays") from exc
        return Curve(cos_c, sin_c, name=params.get("name", "custom"))
    raise ValueError(f"unknown curve kind {kind!r}")


def sample_grid(curve: Curve, n: int) -> CurveGrid:
    """Sample the curve at the 2n equispaced Nystrom nodes t_j = j pi/n."""
    if not (isinstance(n, numbers.Integral) and n >= 4):
        raise ValueError(f"n {n!r} is not an integer >= 4")
    t = np.arange(2 * n) * np.pi / n
    nu = curve.normal(t)
    return CurveGrid(curve=curve, n=n, t=t, x=curve.eval(t, 0), nu=nu,
                     speed=np.linalg.norm(nu, axis=1))
