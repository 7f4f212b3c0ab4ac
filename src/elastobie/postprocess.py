"""Off-surface evaluation, far-field patterns, and the eps_inf error metric.

Far fields follow the Kupradze radiation structure: the scattered field
separates into a longitudinal (P) and a transversal (S) part,

    u_w(x) = e^{i k_w |x|} / sqrt(|x|) (u_{w,inf}(xhat) + O(1/|x|)),  w in {p, s},

with u_{p,inf} parallel and u_{s,inf} orthogonal to xhat.  The far-field
kernels come from the leading Hankel asymptotics of the fundamental solution

    Phi ~ sum_w gamma_w P_w(xhat) e^{i k_w |x|}/sqrt(|x|) e^{-i k_w xhat.y},
    gamma_p = (i/4) sqrt(2/(pi k_p)) e^{-i pi/4} / (lam + 2 mu),
    gamma_s = (i/4) sqrt(2/(pi k_s)) e^{-i pi/4} / mu,
    P_p = xhat xhat^T,  P_s = I - xhat xhat^T,

and, for the double layer, from applying the traction in y to the plane-wave
factor: T[e^{-ik xhat.y} c] = -ik e^{-ik xhat.y} (lam (xhat.c) nu
+ mu (nu.xhat) c + mu (c.nu) xhat) with the unnormalized normal nu.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import _PairFields, _kernel_values
from .special import radial_suite

__all__ = ["FarField", "eval_potential", "far_field", "eps_inf",
           "default_directions"]


@dataclass(frozen=True)
class FarField:
    """P and S far-field patterns sampled at unit directions."""

    angles: np.ndarray = field(repr=False)      # (M,)
    directions: np.ndarray = field(repr=False)  # (M, 2)
    up: np.ndarray = field(repr=False)          # (M, 2) longitudinal
    us: np.ndarray = field(repr=False)          # (M, 2) transversal


def default_directions(m: int = 360):
    """m equispaced unit directions on the circle (angles in [0, 2pi))."""
    angles = np.arange(m) * (2.0 * np.pi / m)
    return angles, np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _term_kernel(term, points):
    """(2, 2, M, N) potential kernel of one representation term."""
    grid = term.grid
    x_r = np.asarray(points, dtype=float).T[:, :, None]
    # Off the surface there is no row normal; only W would read one.
    pf = _PairFields(term.material, x_r, None, grid.x.T[:, None, :],
                     grid.nu.T[:, None, :])
    tag = "V" if term.layer == "SL" else "K"
    return _kernel_values(pf, radial_suite(term.material, pf.r), (tag,))[tag]


def eval_potential(representation, points, region: str = "exterior") -> np.ndarray:
    """Evaluate the layer-potential representation at off-surface points.

    Only terms tagged with the requested region contribute (transmission
    representations carry both exterior and interior terms).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    terms = [t for t in representation.terms if t.region == region]
    if not terms:
        raise ValueError(f"representation has no {region!r} terms")
    out = np.zeros((points.shape[0], 2), dtype=complex)
    for term in terms:
        grid = term.grid
        dmin = np.min(np.linalg.norm(points[:, None, :] - grid.x[None, :, :],
                                     axis=-1))
        hmax = np.max(grid.speed) * np.pi / grid.n
        if dmin <= 0.0:
            raise ValueError("evaluation point lies on the boundary grid")
        if dmin < 5.0 * hmax:
            warnings.warn("evaluation point within 5 grid spacings of the "
                          "boundary; plain trapezoid quadrature degrades",
                          stacklevel=2)
        ker = _term_kernel(term, points)  # (2, 2, M, N)
        w = np.pi / grid.n
        out += w * (ker[:, 0] @ term.density[:, 0] + ker[:, 1] @ term.density[:, 1]).T
    return out


def _gammas(material):
    gp = 0.25j * np.sqrt(2.0 / (np.pi * material.kp)) * np.exp(-0.25j * np.pi) \
        / (material.lam + 2.0 * material.mu)
    gs = 0.25j * np.sqrt(2.0 / (np.pi * material.ks)) * np.exp(-0.25j * np.pi) \
        / material.mu
    return gp, gs


def far_field(representation, directions=None, region: str = "exterior") -> FarField:
    """P- and S-wave far-field patterns of the representation's radiating part."""
    if directions is None:
        angles, dirs = default_directions()
    else:
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        angles = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2.0 * np.pi)
    terms = [t for t in representation.terms if t.region == region]
    if not terms:
        raise ValueError(f"representation has no {region!r} terms")
    M = dirs.shape[0]
    up = np.zeros((M, 2), dtype=complex)
    us = np.zeros((M, 2), dtype=complex)
    phases = {}  # (k, id(grid)) -> plane-wave factor, shared by the terms
    for term in terms:
        mat, grid, g = term.material, term.grid, term.density
        lam, mu = mat.lam, mat.mu
        w = np.pi / grid.n
        if term.layer == "DL":
            nu = grid.nu
            nug = np.einsum("ni,ni->n", nu, g)  # nu.g per node
            nux = dirs @ nu.T                   # (M, N) nu.xhat
            xg = dirs @ g.T                     # (M, N) xhat.g
        for wave, k, gam in zip("ps", (mat.kp, mat.ks), _gammas(mat)):
            E = phases.get((k, id(grid)))
            if E is None:
                E = phases[k, id(grid)] = np.exp(-1j * k * (dirs @ grid.x.T))
            if term.layer == "SL":
                mom = w * (E @ g)  # (M, 2)
                if wave == "p":
                    coef = np.einsum("mi,mi->m", dirs, mom)
                    contrib = gam * dirs * coef[:, None]
                else:
                    contrib = gam * (mom - dirs * np.einsum(
                        "mi,mi->m", dirs, mom)[:, None])
            else:  # DL
                Enx = E * nux
                c = (Enx * xg).sum(axis=1)  # Sum E (nu.xhat)(xhat.g)
                if wave == "p":
                    # -ik gam xhat Sum E w [lam (nu.g) + 2 mu (nu.xhat)(xhat.g)]
                    s = lam * (E @ nug) + 2.0 * mu * c
                    contrib = (-1j * k * gam * w) * dirs * s[:, None]
                else:
                    # -ik gam Sum E w mu [(nu.xhat) P g + (P nu)(xhat.g)],
                    # with (nu.xhat) P g + (P nu)(xhat.g)
                    #    = (nu.xhat) g + (xhat.g) nu - 2 xhat (nu.xhat)(xhat.g)
                    s = mu * (Enx @ g + (E * xg) @ nu - 2.0 * dirs * c[:, None])
                    contrib = (-1j * k * gam * w) * s
            if wave == "p":
                up += contrib
            else:
                us += contrib
    return FarField(angles=angles, directions=dirs, up=up, us=us)


def eps_inf(computed: FarField, reference: FarField) -> float:
    """Max over directions and both wave families of the componentwise
    absolute far-field difference."""
    if computed.directions.shape != reference.directions.shape or not np.allclose(
            computed.directions, reference.directions, atol=1e-12):
        raise ValueError("far fields sampled at different directions")
    dp = np.abs(computed.up - reference.up).max()
    ds = np.abs(computed.us - reference.us).max()
    return float(max(dp, ds))
