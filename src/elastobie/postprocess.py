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


def eval_potential(representation, points, region: str = "exterior") -> np.ndarray:
    """Evaluate the layer-potential representation at off-surface points.

    Only terms tagged with the requested region contribute (transmission
    representations carry both exterior and interior terms).  The terms of
    one (material, grid) share one pair geometry and radial suite.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not (points.ndim == 2 and points.shape[1] == 2 and len(points)
            and np.isfinite(points).all()):
        raise ValueError(f"points {points.shape} are not a finite (M > 0, 2) array")
    terms = [t for t in representation.terms if t.region == region]
    if not terms:
        raise ValueError(f"representation has no {region!r} terms")
    tags = ["V" if t.layer == "SL" else "K" for t in terms]
    keys = [(id(t.material), id(t.grid)) for t in terms]
    kernels = {}
    out = np.zeros((points.shape[0], 2), dtype=complex)
    for term, tag, key in zip(terms, tags, keys):
        grid = term.grid
        if key not in kernels:
            dmin = np.min(np.linalg.norm(points[:, None, :] - grid.x[None, :, :],
                                         axis=-1))
            hmax = np.max(grid.speed) * np.pi / grid.n
            if dmin <= 0.0:
                raise ValueError("evaluation point lies on the boundary grid")
            if dmin < 5.0 * hmax:
                warnings.warn("evaluation point within 5 grid spacings of the "
                              "boundary; plain trapezoid quadrature degrades",
                              stacklevel=2)
            # Off the surface there is no row normal; only W would read one.
            pf = _PairFields(term.material, points.T[:, :, None], None,
                             grid.x.T[:, None, :], grid.nu.T[:, None, :])
            kernels[key] = _kernel_values(pf, radial_suite(term.material, pf.r),
                                          {t for t, k in zip(tags, keys) if k == key})
        ker = kernels[key][tag]  # (2, 2, M, N)
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
    """P- and S-wave far-field patterns of the representation's radiating part.

    One product per term and wave with E = exp(-ik xhat.y): E g, or for a DL
    F = Sum E nu g^T, whose tr F, xhat^T F xhat, xhat^T F and F xhat are the
    sums of E (nu.g), E (nu.xhat)(xhat.g), E (nu.xhat) g and E (xhat.g) nu.
    """
    if directions is None:
        angles, dirs = default_directions()
    else:
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        if not np.all(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) <= 1e-12):
            raise ValueError("directions must be finite unit vectors")
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
            B = (grid.nu[:, :, None] * g[:, None, :]).reshape(-1, 4)  # nu g^T
        for wave, k, gam, acc in zip("ps", (mat.kp, mat.ks), _gammas(mat),
                                     (up, us)):
            E = phases.get((k, id(grid)))
            if E is None:  # cos and sin of the real phase cost less than exp
                phase = -k * (dirs @ grid.x.T)
                E = phases[k, id(grid)] = np.empty(phase.shape, dtype=complex)
                np.cos(phase, out=E.real)
                np.sin(phase, out=E.imag)
            if term.layer == "SL":
                mom = w * (E @ g)  # (M, 2)
                coef = np.einsum("mi,mi->m", dirs, mom)[:, None]
                contrib = (gam * dirs * coef if wave == "p"
                           else gam * (mom - dirs * coef))
            else:  # DL, from F = Sum E nu g^T
                F = (E @ B).reshape(M, 2, 2)
                Fx = np.einsum("mab,mb->ma", F, dirs)  # F xhat
                c = np.einsum("ma,ma->m", dirs, Fx)    # xhat^T F xhat
                if wave == "p":
                    # -ik gam xhat Sum E w [lam (nu.g) + 2 mu (nu.xhat)(xhat.g)]
                    s = lam * (F[:, 0, 0] + F[:, 1, 1]) + 2.0 * mu * c
                    contrib = (-1j * k * gam * w) * dirs * s[:, None]
                else:
                    # -ik gam Sum E w mu [(nu.xhat) P g + (P nu)(xhat.g)]
                    #   = -ik gam w mu (xhat^T F + F xhat - 2 xhat xhat^T F xhat)
                    xF = np.einsum("ma,mab->mb", dirs, F)  # xhat^T F
                    s = mu * (xF + Fx - 2.0 * dirs * c[:, None])
                    contrib = (-1j * k * gam * w) * s
            acc += contrib
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
