"""Elastodynamic boundary-integral kernels and their singularity splittings.

Kernels are expressed in the parameterized convention with ROW index tau
(observation) and COLUMN index t (integration), r = x(tau) - x(t) and
UNNORMALIZED normals nu = (x2', -x1'):

    V (tau,t)  = Phi(x(tau), x(t))                      single layer
    K (tau,t)  = [T_t Phi(x(tau), x(t))]^T              double layer
    Kt(tau,t)  =  T_tau Phi(x(tau), x(t)) = K(t,tau)^T  adjoint double layer
    W (tau,t)  =  T_tau [T_t Phi(x(tau), x(t))]^T       hypersingular

Every kernel is split as

    kernel = c_hs (1/4pi) csc^2((tau-t)/2) I
           + c_pv (1/4pi) cot((tau-t)/2) J        (J = [[0,-1],[1,0]])
           + M_log(tau,t) log(4 sin^2((tau-t)/2))
           + M_smooth(tau,t)

with smooth biperiodic matrices M_log, M_smooth.  M_log is computed
analytically: replacing every radial Hankel function phi_j by the coefficient
of log z in its small-argument splitting (i.e. phi_j -> -(1/2pi) J_j) turns a
kernel formula into the formula for its log r coefficient, and the factor 1/2
converts log r into log(4 sin^2((tau-t)/2)).  M_smooth follows by subtraction
off the diagonal; diagonal values of M_smooth (and of M_log for W) are
obtained by even-part Richardson extrapolation along the parameterization.
V, K and W share one pair-field build and one radial suite per basis.  Kt is
never evaluated: its split is K's block transpose, diagonal included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import _I2, _J
from .special import radial_suite

__all__ = ["KernelSplit", "fundamental_solution", "kernel_split", "TAGS"]

TAGS = ("V", "K", "Kt", "W")


def fundamental_solution(material, x, y):
    """Phi(x, y) = Phi1(r) I + Phi2(r) G(x - y), shape (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rvec = x - y
    r = np.linalg.norm(rvec, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("fundamental solution evaluated on the diagonal")
    rs = radial_suite(material, r, basis="hankel")
    G = np.einsum("...i,...j->...ij", rvec, rvec) / (r**2)[..., None, None]
    return rs.Phi1[..., None, None] * _I2 + rs.Phi2[..., None, None] * G


# ---------------------------------------------------------------------------
# pointwise kernel evaluation
# ---------------------------------------------------------------------------


def _outer(a, b):
    return np.einsum("...i,...j->...ij", a, b)


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


class _PairFields:
    """Geometric fields for batches of (row, column) point/normal pairs.

    The row-normal field U1r and the traction fields TA, TB and TC enter the
    hypersingular kernel only and are built on first use.
    """

    def __init__(self, material, x_r, nu_r, x_c, nu_c):
        self.lam, self.mu = lam, mu = material.lam, material.mu
        self.nu_r, self.nu_c = nu_r, nu_c
        self.rvec = x_r - x_c
        self.r = np.linalg.norm(self.rvec, axis=-1)
        r2 = (self.r**2)[..., None, None]
        self.G = _outer(self.rvec, self.rvec) / r2
        self.U1c = self._u1(lam, mu, nu_c, self.rvec)
        self.U2c = self._u2(lam, mu, nu_c, self.rvec, self.G)

    @cached_property
    def U1r(self):
        return self._u1(self.lam, self.mu, self.nu_r, self.rvec)

    # Traction (at the row point, normal nu_r =: m) of the matrix fields
    # A = U1^T(nu_c, r), B = G A, C = U2^T(nu_c, r) appearing in the
    # double-layer kernel.  Built from the verified primitive identities
    #   T[f(r) I] = (f'/r) U1(m, r),    T[G] = (1/r^2) U2(m, r),
    #   T[r nu^T] = 2(lam+mu) m nu^T,
    #   T[nu r^T] = T[(nu.r) I] = lam m nu^T + mu nu m^T + mu (m.nu) I,
    #   T[w r^T]  = lam m w^T + mu w m^T + mu (m.w) I + T(w) r^T.

    @cached_property
    def _traction_terms(self):
        """nu_r nu_c^T, Q = T[nu_c r^T], T[G], r.nu_c and Q G."""
        lam, mu, nu_r, nu_c = self.lam, self.mu, self.nu_r, self.nu_c
        nrc = _outer(nu_r, nu_c)
        nn = _dot(nu_r, nu_c)[..., None, None]
        Q = lam * nrc + mu * _outer(nu_c, nu_r) + mu * nn * _I2
        TG = self._u2(lam, mu, nu_r, self.rvec, self.G) / (self.r**2)[..., None, None]
        rnu_c = _dot(self.rvec, nu_c)[..., None, None]
        return nrc, Q, TG, rnu_c, Q @ self.G

    @cached_property
    def TA(self):
        lam, mu = self.lam, self.mu
        nrc, Q = self._traction_terms[:2]
        return 2.0 * lam * (lam + mu) * nrc + 2.0 * mu * Q

    @cached_property
    def TB(self):
        lam, mu, nu_r = self.lam, self.mu, self.nu_r
        nrc, Q, TG, rnu_c, QG = self._traction_terms
        w = np.einsum("...ij,...j->...i", self.G, self.nu_c)
        TGnu = np.einsum("...ij,...j->...i", TG, self.nu_c)
        return (
            2.0 * lam * (lam + mu) * nrc
            + mu
            * (
                lam * _outer(nu_r, w)
                + mu * _outer(w, nu_r)
                + mu * _dot(nu_r, w)[..., None, None] * _I2
            )
            + mu * _outer(TGnu, self.rvec)
            + mu * QG
            + mu * rnu_c * TG
        )

    @cached_property
    def TC(self):
        lam, mu = self.lam, self.mu
        nrc, Q, TG, rnu_c, QG = self._traction_terms
        return (
            2.0 * (lam + 2.0 * mu) * (lam + mu) * nrc
            + 2.0 * mu * Q
            - 4.0 * mu * QG
            - 4.0 * mu * rnu_c * TG
        )

    @staticmethod
    def _u1(lam, mu, nu, rvec):
        return (
            lam * _outer(nu, rvec)
            + mu * _outer(rvec, nu)
            + mu * _dot(nu, rvec)[..., None, None] * _I2
        )

    @staticmethod
    def _u2(lam, mu, nu, rvec, G):
        return (
            (lam + 2.0 * mu) * _outer(nu, rvec)
            + mu * _outer(rvec, nu)
            + mu * _dot(nu, rvec)[..., None, None] * (_I2 - 4.0 * G)
        )


def _kernel_values(pf: _PairFields, rs, tags) -> dict:
    """Evaluate the kernels `tags` (of V, K and W) on a batch of point pairs:
    the kernels themselves from a Hankel-basis radial suite `rs`, their log r
    coefficients from a log-basis one.  Values have shape (..., 2, 2)."""
    out = {}
    if "V" in tags:
        out["V"] = rs.Phi1[..., None, None] * _I2 + rs.Phi2[..., None, None] * pf.G
    if not set(tags) - {"V"}:
        return out
    rc = pf.r[..., None, None]
    f1 = rs.dPhi1[..., None, None] / rc
    f2 = rs.dPhi2[..., None, None] / rc
    f3 = rs.Phi2[..., None, None] / rc**2
    A = np.swapaxes(pf.U1c, -1, -2)
    C = np.swapaxes(pf.U2c, -1, -2)
    GA = pf.G @ A
    if "K" in tags:
        out["K"] = -f1 * A - f2 * GA - f3 * C
    if "W" in tags:
        # W = T_tau K(tau, t) with T_tau(g(r) I) = (g'/r) U1(nu_tau, r).
        f1p = rs.d2Phi1[..., None, None] / rc**2 - rs.dPhi1[..., None, None] / rc**3
        f2p = rs.d2Phi2[..., None, None] / rc**2 - rs.dPhi2[..., None, None] / rc**3
        f3p = rs.dPhi2[..., None, None] / rc**3 - 2.0 * rs.Phi2[..., None, None] / rc**4
        V1 = pf.U1r
        out["W"] = (
            -f1p * (V1 @ A)
            - f1 * pf.TA
            - f2p * (V1 @ GA)
            - f2 * pf.TB
            - f3p * (V1 @ C)
            - f3 * pf.TC
        )
    return out


def _split_values(material, pf: _PairFields, tags) -> tuple[dict, dict]:
    """Log coefficients M_log = (1/2) [kernel]_log and kernel values of every
    tag in `tags` on a batch of pairs, from one radial suite per basis."""
    second = "W" in tags
    logs = _kernel_values(pf, radial_suite(material, pf.r, basis="log",
                                           second=second), tags)
    fulls = _kernel_values(pf, radial_suite(material, pf.r, basis="hankel",
                                            second=second), tags)
    return {tag: 0.5 * v for tag, v in logs.items()}, fulls


def _c_hs(material, tag):
    if tag == "W":
        return -material.delta  # = mu (lam + mu)/(lam + 2 mu)
    return 0.0


def _c_pv(material, tag):
    if tag in ("K", "Kt"):
        return -material.mu / (material.lam + 2.0 * material.mu)
    return 0.0


def _singular_parts(material, tag, dtau):
    """c_hs (1/4pi) csc^2(d/2) I + c_pv (1/4pi) cot(d/2) J at offsets dtau."""
    out = np.zeros(dtau.shape + (2, 2), dtype=complex)
    chs = _c_hs(material, tag)
    cpv = _c_pv(material, tag)
    with np.errstate(divide="ignore", invalid="ignore"):
        if chs != 0.0:
            out += (chs / (4.0 * np.pi) / np.sin(0.5 * dtau) ** 2)[
                ..., None, None
            ] * _I2
        if cpv != 0.0:
            out += (cpv / (4.0 * np.pi) / np.tan(0.5 * dtau))[..., None, None] * _J
    return out


@dataclass(frozen=True)
class KernelSplit:
    """Split of one boundary-integral kernel on a grid.

    kernel[i, m] = c_hs (1/4pi) csc^2((t_i - t_m)/2) I
                 + c_pv (1/4pi) cot((t_i - t_m)/2) J
                 + M_log[i, m] log(4 sin^2((t_i - t_m)/2))
                 + M_smooth[i, m]
    """

    c_hs: float
    c_pv: complex
    M_log: np.ndarray = field(repr=False)
    M_smooth: np.ndarray = field(repr=False)


def _diagonal_limits(material, grid, tags) -> tuple[dict, dict]:
    """Diagonal limits of M_smooth for every tag and of M_log for W.

    The smooth remainder kernel - singular parts - log part (and the W log
    coefficient) is evaluated at parameter pairs (t_i +- h, t_i) from one
    pair-field build per step and extrapolated to h -> 0.
    """
    curve = grid.curve
    with_w_log = "W" in tags

    def fn(tau, t):
        pf = _PairFields(material, curve.eval(tau), curve.normal(tau),
                         curve.eval(t), curve.normal(t))
        mlogs, fulls = _split_values(material, pf, tags)
        d = tau - t
        logfac = np.log(4.0 * np.sin(0.5 * d) ** 2)[..., None, None]
        out = [fulls[tag] - _singular_parts(material, tag, d) - mlogs[tag] * logfac
               for tag in tags]
        if with_w_log:
            out.append(mlogs["W"])
        return np.stack(out, axis=1)

    limits = _diag_extrapolate(fn, grid, material)
    smooth = {tag: limits[:, i] for i, tag in enumerate(tags)}
    return smooth, ({"W": limits[:, -1]} if with_w_log else {})


def _neville_even(values, h):
    """Richardson/Neville extrapolation to h -> 0 of even-in-h data.

    values: (..., m) samples of the even part at steps h[0..m-1].
    """
    m = len(h)
    tab = [np.asarray(v, dtype=complex) for v in np.moveaxis(values, -1, 0)]
    h2 = np.asarray(h, dtype=float) ** 2
    for level in range(1, m):
        new = []
        for j in range(m - level):
            num = h2[j] * tab[j + 1] - h2[j + level] * tab[j]
            new.append(num / (h2[j] - h2[j + level]))
        tab = new
    return tab[0]


def _diag_extrapolate(fn, grid, material, steps: int = 7):
    """Diagonal limit of a smooth biperiodic pair function by even-part
    extrapolation along the parameterization.

    Steps stay >= ~4e-3 so the subtractive evaluation of the remainder never
    enters its rounding-noise regime (the hypersingular remainder is computed
    as a difference of csc^2-sized terms); the ratio 1/sqrt(2) trades step
    count for depth, which Neville in h^2 converts into ~1e-8 absolute
    accuracy of the diagonal limits.
    """
    h0 = min(5e-2, 0.8 / material.ks)
    hs = h0 * (0.5**0.5) ** np.arange(steps)
    t = grid.t
    vals = []
    for h in hs:
        vp = fn(t + h, t)
        vm = fn(t - h, t)
        vals.append(0.5 * (vp + vm))
    vals = np.stack(vals, axis=-1)  # (2n, ..., steps)
    return _neville_even(vals, hs)


def _kernel_splits(material, grid, tags) -> dict:
    """Four-way splits of the kernels `tags` on `grid`.

    V, K and W come from one pair-field build and one radial suite per basis
    on all node pairs, their diagonal limits from one shared extrapolation.
    Kt(tau, t) = K(t, tau)^T: r, G, U1 and U2 only change sign under the
    swap, and the cot and log parts of K transpose into those of Kt, so
    Kt's M_log and M_smooth are K's block transposes, diagonal included.
    """
    tags = tuple(tags)
    for tag in tags:
        if tag not in TAGS:
            raise ValueError(f"unknown kernel tag {tag!r}; expected one of {TAGS}")
    evaluated = tuple(dict.fromkeys("K" if tag == "Kt" else tag for tag in tags))
    N = grid.size
    diag = np.arange(N)
    x, nu, t = grid.x, grid.nu, grid.t
    d = t[:, None] - t[None, :]
    smooth_diag, log_diag = _diagonal_limits(material, grid, evaluated)
    splits = {}
    # Values at r = 0 are not finite; the diagonal is replaced by its limits.
    with np.errstate(divide="ignore", invalid="ignore"):
        pf = _PairFields(
            material, x[:, None, :], nu[:, None, :], x[None, :, :], nu[None, :, :]
        )
        mlogs, fulls = _split_values(material, pf, evaluated)
        logfac = np.log(4.0 * np.sin(0.5 * d) ** 2)
        logfac[diag, diag] = 0.0
        for tag in evaluated:
            M_log = mlogs[tag]
            if tag == "V":
                # L Phi2 = O(r^2) and G stays bounded: only L Phi1(0) I survives.
                lphi0 = radial_suite(material, np.zeros(1), basis="log").Phi1[0]
                M_log[diag, diag] = 0.5 * lphi0 * _I2
            elif tag == "W":
                M_log[diag, diag] = log_diag["W"].real  # the log basis is real
            else:
                # K: the log coefficient vanishes on the diagonal.
                M_log[diag, diag] = 0.0
            M_smooth = (fulls[tag] - _singular_parts(material, tag, d)
                        - M_log * logfac[..., None, None])
            M_smooth[diag, diag] = smooth_diag[tag]
            splits[tag] = (M_log, M_smooth)
    if "Kt" in tags:
        splits["Kt"] = tuple(np.ascontiguousarray(m.transpose(1, 0, 3, 2))
                             for m in splits["K"])
    return {tag: KernelSplit(_c_hs(material, tag), _c_pv(material, tag),
                             *splits[tag])
            for tag in tags}


def kernel_split(material, grid, tag: str) -> KernelSplit:
    """Compute the four-way singularity split of kernel `tag` on `grid`."""
    return _kernel_splits(material, grid, (tag,))[tag]
