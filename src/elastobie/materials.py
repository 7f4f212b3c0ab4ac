"""Elastic materials, incident fields, and boundary Cauchy data.

Conventions:

* wavenumbers k_p = omega / sqrt(lam + 2 mu), k_s = omega / sqrt(mu);
* the traction uses the UNNORMALIZED outward normal nu = (x2', -x1'), so the
  |x'| surface weight is built into the traction density throughout;
* an incident field is its pointwise value u and traction T u: the Cauchy
  data that the solvers read (trace_and_traction).

The fundamental solution Phi has one implementation, the kernels module:
a point source takes its trace and traction from the single- and
double-layer kernels there; a plane wave's traction is in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import _PairFields, _kernel_values
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
    """A solution of the Navier equation, sampled as its Cauchy data.

    u(x) is the field at points x (..., 2); traction(x, nu, material) is
    T u = sigma(u) nu there for unnormalized normals nu (..., 2), with the
    traction law's Lame pair taken from `material`.
    """

    u: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    traction: Callable[[np.ndarray, np.ndarray, Material], np.ndarray] = field(
        repr=False)


def plane_wave(material: Material, d, p) -> IncidentField:
    """Elastic plane wave with propagation direction d and polarization p.

    u(x) = (1/mu) e^{i ks x.d} (p - (d.p) d)
         + (1/(lam+2mu)) e^{i kp x.d} (d.p) d

    and each wave a e^{i k x.d} has traction
    i k e^{i k x.d} (lam (a.d) nu + mu ((nu.d) a + (nu.a) d)).
    """
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=complex)
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("direction must be a unit vector")
    if not np.isfinite(p).all():
        raise ValueError(f"polarization {p} must be finite")
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

    def traction(x, nu, law):
        xd = np.asarray(x, dtype=float) @ d
        nu = np.asarray(nu, dtype=float)
        nd = (nu @ d)[..., None]
        out = 0.0
        for k, a in ((ks, s_amp), (kp, p_amp)):
            t = law.lam * (a @ d) * nu + law.mu * (
                nd * a + (nu @ a)[..., None] * d)
            out = out + 1j * k * np.exp(1j * k * xd)[..., None] * t
        return out

    return IncidentField(u=u, traction=traction)


def point_source(material: Material, x0, q) -> IncidentField:
    """Field of a point force at x0: u(x) = Phi(x, x0) q.

    Its trace is V(x0, x) q and its traction K(x0, x)^T q: the single- and
    double-layer kernels of the kernels module, with x0 as the row point.
    """
    x0 = np.asarray(x0, dtype=float)
    q = np.asarray(q, dtype=complex)
    if not (x0.shape == (2,) and np.isfinite(x0).all()):
        raise ValueError(f"location {x0} is not a finite point in the plane")
    if not np.isfinite(q).all():
        raise ValueError(f"polarization {q} must be finite")
    if np.linalg.norm(q) == 0.0:
        raise ValueError("polarization must be nonzero")

    def cauchy(x, nu, law, tag):
        """V(x0, x) q (tag "V"; V is symmetric) or K(x0, x)^T q (tag "K")
        at the points x (..., 2) with normals nu."""
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1, 2).T
        if np.any((xs == x0[:, None]).all(axis=0)):
            raise ValueError("point source evaluated at its own location")
        if nu is not None:
            nu = np.asarray(nu, dtype=float).reshape(-1, 2).T
        pf = _PairFields(law, x0[:, None], None, xs, nu)
        ker = _kernel_values(pf, radial_suite(material, pf.r), (tag,))[tag]
        return np.einsum("pqi,p->iq", ker, q).reshape(x.shape)

    return IncidentField(u=lambda x: cauchy(x, None, material, "V"),
                         traction=lambda x, nu, law: cauchy(x, nu, law, "K"))


@dataclass(frozen=True)
class CauchyData:
    """Trace and (unnormalized-normal) traction sampled at grid nodes."""

    trace: np.ndarray
    traction: np.ndarray


def trace_and_traction(field: IncidentField, grid, material: Material) -> CauchyData:
    """Sample gamma(u) and T(u) (unnormalized normal) on a curve grid; the
    traction law takes lam and mu from `material`."""
    return CauchyData(trace=field.u(grid.x),
                      traction=field.traction(grid.x, grid.nu, material))
