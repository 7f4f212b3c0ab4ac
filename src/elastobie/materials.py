"""Elastic materials, incident fields, and boundary Cauchy data.

Conventions:

* wavenumbers k_p = omega / sqrt(lam + 2 mu), k_s = omega / sqrt(mu);
* the traction uses the UNNORMALIZED outward normal nu = (x2', -x1'), so the
  |x'| surface weight is built into the traction density throughout;
* gradients are stored as grad[..., i, j] = d u_i / d x_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import _J
from .special import radial_suite

__all__ = [
    "Material",
    "IncidentField",
    "CauchyData",
    "make_material",
    "plane_wave",
    "point_source",
    "trace_and_traction",
]


@dataclass(frozen=True)
class Material:
    """Lame pair, frequency, and all derived scalar constants."""

    lam: float
    mu: float
    omega: float
    kp: float
    ks: float
    alpha: complex
    beta: float
    delta: float

    @property
    def eta_dirichlet(self) -> float:
        """Spectrally optimal CFIE coupling for the Dirichlet problem."""
        return 2.0 * self.mu * (self.lam + 2.0 * self.mu) * self.ks / (
            self.lam + 3.0 * self.mu
        )

    @property
    def eta_neumann(self) -> float:
        """Spectrally optimal CFIE coupling for the Neumann problem."""
        return (self.lam + 3.0 * self.mu) / (
            2.0 * self.mu * (self.lam + 2.0 * self.mu) * self.ks
        )

    @property
    def kappa(self) -> complex:
        """Complexified wavenumber for square-root regularizers."""
        return self.ks + 0.4j * self.ks ** (1.0 / 3.0)


def make_material(lam: float, mu: float, omega: float) -> Material:
    """Validate a Lame pair and populate derived constants."""
    lam, mu, omega = float(lam), float(mu), float(omega)
    if not np.isfinite([lam, mu, omega]).all():
        raise ValueError("lam, mu and omega must be finite")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if lam + mu <= 0.0:
        raise ValueError("lam + mu must be positive")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    kp = omega / np.sqrt(lam + 2.0 * mu)
    ks = omega / np.sqrt(mu)
    alpha = 1j * mu / (2.0 * (lam + 2.0 * mu))
    beta = (lam + 3.0 * mu) / (4.0 * mu * (lam + 2.0 * mu))
    delta = -mu * (lam + mu) / (lam + 2.0 * mu)
    if abs(alpha**2 + beta * delta + 0.25) > 1e-14:
        raise AssertionError("constant identity alpha^2 + beta delta + 1/4 = 0 failed")
    return Material(lam=lam, mu=mu, omega=omega, kp=kp, ks=ks,
                    alpha=alpha, beta=beta, delta=delta)


@dataclass(frozen=True)
class IncidentField:
    """A solution of the Navier equation with pointwise value and gradient."""

    u: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    grad: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def plane_wave(material: Material, d, p) -> IncidentField:
    """Elastic plane wave with propagation direction d and polarization p.

    u(x) = (1/mu) e^{i ks x.d} (p - (d.p) d)
         + (1/(lam+2mu)) e^{i kp x.d} (d.p) d
    """
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=complex)
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("direction must be a unit vector")
    if np.linalg.norm(p) == 0.0:
        raise ValueError("polarization must be nonzero")
    dp = d @ p
    s_amp = (p - dp * d) / material.mu          # shear part amplitude
    p_amp = dp * d / (material.lam + 2.0 * material.mu)
    ks, kp = material.ks, material.kp

    def u(x):
        x = np.asarray(x, dtype=float)
        xd = x @ d
        es = np.exp(1j * ks * xd)[..., None]
        ep = np.exp(1j * kp * xd)[..., None]
        return es * s_amp + ep * p_amp

    def grad(x):
        x = np.asarray(x, dtype=float)
        xd = x @ d
        es = np.exp(1j * ks * xd)[..., None, None]
        ep = np.exp(1j * kp * xd)[..., None, None]
        gs = 1j * ks * np.multiply.outer(s_amp, d)
        gp = 1j * kp * np.multiply.outer(p_amp, d)
        return es * gs + ep * gp

    return IncidentField(u=u, grad=grad)


def point_source(material: Material, x0, q) -> IncidentField:
    """Field of a point force: u(x) = Phi(x, x0) q, with analytic gradient."""
    x0 = np.asarray(x0, dtype=float)
    q = np.asarray(q, dtype=complex)
    if np.linalg.norm(q) == 0.0:
        raise ValueError("polarization must be nonzero")

    def u(x):
        x = np.asarray(x, dtype=float)
        rvec = x - x0
        r = np.linalg.norm(rvec, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("point source evaluated at its own location")
        rs = radial_suite(material, r, basis="hankel")
        rq = np.einsum("...i,i->...", rvec, q)
        return rs.Phi1[..., None] * q + (rs.Phi2 * rq / r**2)[..., None] * rvec

    def grad(x):
        x = np.asarray(x, dtype=float)
        rvec = x - x0
        r = np.linalg.norm(rvec, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("point source evaluated at its own location")
        rs = radial_suite(material, r, basis="hankel")
        rhat = rvec / r[..., None]
        rq = np.einsum("...i,i->...", rvec, q)
        gq = rhat * (np.einsum("...i,i->...", rhat, q))[..., None]  # G q
        out = np.einsum("...i,...j->...ij", rs.dPhi1[..., None] * q, rhat)
        out += np.einsum("...i,...j->...ij", rs.dPhi2[..., None] * gq, rhat)
        eye = np.eye(2)
        r2 = r**2
        out += (rs.Phi2 / r2)[..., None, None] * (
            eye * rq[..., None, None]
            + np.einsum("...i,j->...ij", rvec, q)
            - 2.0
            * np.einsum("...i,...j->...ij", rvec * rq[..., None], rvec)
            / r2[..., None, None]
        )
        return out

    return IncidentField(u=u, grad=grad)


@dataclass(frozen=True)
class CauchyData:
    """Trace and (unnormalized-normal) traction sampled at grid nodes."""

    trace: np.ndarray
    traction: np.ndarray


def traction_from_gradient(grad: np.ndarray, nu: np.ndarray,
                           material: Material) -> np.ndarray:
    """T u = lam (div u) nu + 2 mu (nu . grad) u - mu (curl u) J nu."""
    div = grad[..., 0, 0] + grad[..., 1, 1]
    curl = grad[..., 1, 0] - grad[..., 0, 1]
    nu_grad = np.einsum("...ij,...j->...i", grad, nu)
    jnu = nu @ _J.T  # J nu componentwise: (-nu2, nu1)
    return (
        material.lam * div[..., None] * nu
        + 2.0 * material.mu * nu_grad
        - material.mu * curl[..., None] * jnu
    )


def trace_and_traction(field: IncidentField, grid, material: Material) -> CauchyData:
    """Sample gamma(u) and T(u) (unnormalized normal) on a curve grid."""
    trace = field.u(grid.x)
    traction = traction_from_gradient(field.grad(grid.x), grid.nu, material)
    return CauchyData(trace=trace, traction=traction)
