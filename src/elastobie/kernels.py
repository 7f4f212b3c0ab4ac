"""Elastodynamic boundary-integral kernels and their singularity splittings.

Kernels are expressed in the parameterized convention with ROW index tau
(observation) and COLUMN index t (integration), r = x(tau) - x(t) and
UNNORMALIZED normals nu = (x2', -x1'):

    V (tau,t)  = Phi(x(tau), x(t))                      single layer
    K (tau,t)  = [T_t Phi(x(tau), x(t))]^T              double layer
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

Evaluation.  On a grid the kernels are evaluated on the N(N-1)/2 node pairs
i < j only: r, G and both radial suites are symmetric under the swap of the
two points, V and W are block-symmetric (the lower triangle is the block
transpose of the upper one), and K's lower triangle is K's formula with r
negated and the normals exchanged, on the same radial suites.  Each kernel
is a sum of radial functions times real 2x2 tensors (A, G A, C for K; the
products with U1(nu_tau, r) and the tractions of A, G A, C for W), written
out in closed form by component and built once per set of pairs for both
bases.  The adjoint double layer K^T is not split here: its assembled
operator is K's transpose (formulations.boundary_operators).  Splits are
stored component-major too, as (2, 2, N, N) arrays indexed [p, q, i, m].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import _I2
from .special import radial_suite

__all__ = ["KernelSplit", "fundamental_solution", "kernel_split", "TAGS"]

TAGS = ("V", "K", "W")


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
# pointwise kernel evaluation, component-major: a batch of vectors is a
# (2, ...) array and a batch of 2x2 tensors a (2, 2, ...) array
# ---------------------------------------------------------------------------


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _outer(a, b):
    """a b^T for (2, ...) vector fields, shape (2, 2, ...)."""
    return a[:, None] * b[None, :]


def _combine(coefs, tensors, diag=None):
    """sum_k coefs[k] tensors[k] + diag I for scalar fields coefs and diag
    and (2, 2, ...) tensor fields, formed one component at a time (the
    component arrays stay in cache, the stacked ones do not)."""
    shape = np.broadcast_shapes(tensors[0].shape[2:], np.shape(diag),
                                *(np.shape(c) for c in coefs))
    out = np.empty((2, 2) + shape, dtype=np.result_type(*coefs, *tensors))
    for p in range(2):
        for q in range(2):
            acc = out[p, q]
            np.multiply(coefs[0], tensors[0][p, q], out=acc)
            for c, T in zip(coefs[1:], tensors[1:]):
                acc += c * T[p, q]
            if diag is not None and p == q:
                acc += diag
    return out


class _PairFields:
    """Real geometry of a batch of (row, column) point pairs.

    With r = x_row - x_col, m the row normal, n the column normal and
    G = r r^T / r^2, the kernels are radial functions times the tensors
    below, written out in closed form.  Each is built once, on first use,
    and shared by the log and Hankel bases.  The row normal enters W only
    and may be None otherwise.
    """

    def __init__(self, material, x_r, nu_r, x_c, nu_c):
        self.lam, self.mu = material.lam, material.mu
        self.m, self.n = nu_r, nu_c
        self.rvec = x_r - x_c
        self.r2 = _dot(self.rvec, self.rvec)
        self.r = np.sqrt(self.r2)
        self.rho = 1.0 / self.r2
        self.rr = _outer(self.rvec, self.rvec)
        self.G = self.rr * self.rho

    @cached_property
    def k_tensors(self):
        """A = U1(n, r)^T, G A and C = U2(n, r)^T of the double layer
        K = -f1 A - f2 G A - f3 C."""
        lam, mu, n, r = self.lam, self.mu, self.n, self.rvec
        s_n = _dot(n, r)
        rn, nr = _outer(r, n), _outer(n, r)
        return (_combine((lam, mu), (rn, nr), diag=mu * s_n),
                _combine((lam, 2.0 * mu * s_n), (rn, self.G)),
                _combine((lam + 2.0 * mu, mu, -4.0 * mu * s_n),
                         (rn, nr, self.G), diag=mu * s_n))

    # The hypersingular kernel W = T_m K adds U1(m, r) A, U1(m, r) G A and
    # U1(m, r) C, from T_m[f(r) I] = (f'/r) U1(m, r), and the tractions at
    # the row point of A, G A and C, from the identities
    #   T[G] = (1/r^2) U2(m, r),       T[r n^T] = 2(lam+mu) m n^T,
    #   T[n r^T] = T[(n.r) I] = lam m n^T + mu n m^T + mu (m.n) I,
    #   T[w r^T] = lam m w^T + mu w m^T + mu (m.w) I + T(w) r^T.
    # With s_m = m.r, s_n = n.r and rho = 1/r^2, each is a combination of
    # the outer products of m, n and r, and of I:
    #   U1(m, r) A   = lam^2 r^2 m n^T + 2 lam mu (s_n m r^T + s_m r n^T)
    #                  + mu^2 ((m.n) r r^T + s_n r m^T + s_m n r^T + s_m s_n I)
    #   U1(m, r) G A = lam^2 r^2 m n^T + 2 lam mu (s_n m r^T + s_m r n^T)
    #                  + 4 mu^2 s_m s_n G
    #   U1(m, r) C   = U1(m, r) A + 2 lam mu r^2 m n^T + 4 mu^2 s_m r n^T
    #                  - 4 lam mu s_n m r^T - 8 mu^2 s_m s_n G
    #   T A   = 2 lam (lam+2mu) m n^T + 2 mu^2 (n m^T + (m.n) I)
    #   T[GA] = 2 lam (lam+mu) m n^T + 4 mu (lam+mu) Z + 2 mu^2 (X + Y)
    #   T C   = (2 (lam+2mu)(lam+mu) + 2 lam mu) m n^T
    #           + 2 mu^2 (n m^T + (m.n) I) - 8 mu (lam+mu) Z - 4 mu^2 (X + Y)
    # with X = rho (s_n r m^T + s_m n r^T + s_m s_n I),
    # Y = ((m.n) - 4 rho s_m s_n) G and Z = rho s_n m r^T.

    @cached_property
    def w_tensors(self):
        """U1(m, r) A, T A, U1(m, r) G A, T[G A], U1(m, r) C and T C."""
        lam, mu, m, n, r, rho = self.lam, self.mu, self.m, self.n, self.rvec, self.rho
        lm, mm = lam * mu, mu * mu
        s_m, s_n, nn = _dot(m, r), _dot(n, r), _dot(m, n)
        ss = s_m * s_n
        mn, nm, mr, rm = _outer(m, n), _outer(n, m), _outer(m, r), _outer(r, m)
        nr, rn, rr = _outer(n, r), _outer(r, n), self.rr
        lr2, lm_s_n, lm_s_m = lam * lam * self.r2, 2.0 * lm * s_n, 2.0 * lm * s_m
        U1A = _combine((lr2, lm_s_n, lm_s_m, mm * nn, mm * s_n, mm * s_m),
                       (mn, mr, rn, rr, rm, nr), diag=mm * ss)
        U1GA = _combine((lr2, lm_s_n, lm_s_m, 4.0 * mm * ss * rho),
                        (mn, mr, rn, rr))
        U1C = _combine((lam * (lam + 2.0 * mu) * self.r2, -lm_s_n,
                        2.0 * mu * (lam + 2.0 * mu) * s_m,
                        mm * (nn - 8.0 * ss * rho), mm * s_n, mm * s_m),
                       (mn, mr, rn, rr, rm, nr), diag=mm * ss)
        rho_s_n, rho_s_m = rho * s_n, rho * s_m
        y_rr = rho * (nn - 4.0 * rho * ss)  # Y = y_rr r r^T
        TA = _combine((2.0 * lam * (lam + 2.0 * mu), 2.0 * mm), (mn, nm),
                      diag=2.0 * mm * nn)
        TB = _combine((2.0 * lam * (lam + mu), 4.0 * mu * (lam + mu) * rho_s_n,
                       2.0 * mm * rho_s_n, 2.0 * mm * rho_s_m, 2.0 * mm * y_rr),
                      (mn, mr, rm, nr, rr), diag=2.0 * mm * rho * ss)
        TC = _combine((2.0 * (lam + 2.0 * mu) * (lam + mu) + 2.0 * lm, 2.0 * mm,
                       -8.0 * mu * (lam + mu) * rho_s_n, -4.0 * mm * rho_s_n,
                       -4.0 * mm * rho_s_m, -4.0 * mm * y_rr),
                      (mn, nm, mr, rm, nr, rr),
                      diag=2.0 * mm * nn - 4.0 * mm * rho * ss)
        return U1A, TA, U1GA, TB, U1C, TC


def _kernel_values(pf: _PairFields, rs, tags) -> dict:
    """Evaluate the kernels `tags` (of V, K and W) on a batch of point pairs:
    the kernels themselves from a Hankel-basis radial suite `rs`, their log r
    coefficients from a log-basis one.  Values have shape (2, 2, ...)."""
    out = {}
    if "V" in tags:
        out["V"] = _combine((rs.Phi2,), (pf.G,), diag=rs.Phi1)
    if not set(tags) - {"V"}:
        return out
    inv_r = 1.0 / pf.r
    f1 = rs.dPhi1 * inv_r
    f2 = rs.dPhi2 * inv_r
    f3 = rs.Phi2 * pf.rho
    if "K" in tags:
        out["K"] = _combine((-f1, -f2, -f3), pf.k_tensors)
    if "W" in tags:
        # W = T_tau K(tau, t): the derivatives (f/r)'/r of f1, f2 and f3.
        f1p = (rs.d2Phi1 - f1) * pf.rho
        f2p = (rs.d2Phi2 - f2) * pf.rho
        f3p = (f2 - 2.0 * f3) * pf.rho
        out["W"] = _combine((-f1p, -f1, -f2p, -f2, -f3p, -f3), pf.w_tensors)
    return out


def _radial_suites(material, r, tags):
    """Log-basis and Hankel-basis radial suites at the distances r."""
    second = "W" in tags
    return (radial_suite(material, r, basis="log", second=second),
            radial_suite(material, r, basis="hankel", second=second))


def _split_values(material, pf: _PairFields, suites, tags, dtau):
    """M_log = (1/2) [kernel]_log and M_smooth of every tag in `tags` on a
    batch of pairs off the diagonal, at parameter offsets dtau."""
    mlogs = _kernel_values(pf, suites[0], tags)
    smooths = _kernel_values(pf, suites[1], tags)
    logfac = np.log(4.0 * np.sin(0.5 * dtau) ** 2)
    for tag in tags:
        mlogs[tag] *= 0.5
        smooths[tag] -= mlogs[tag] * logfac
        _subtract_singular(material, tag, dtau, smooths[tag])
    return mlogs, smooths


def _c_hs(material, tag):
    if tag == "W":
        return -material.delta  # = mu (lam + mu)/(lam + 2 mu)
    return 0.0


def _c_pv(material, tag):
    if tag == "K":
        return -material.mu / (material.lam + 2.0 * material.mu)
    return 0.0


def _subtract_singular(material, tag, dtau, values):
    """values -= c_hs (1/4pi) csc^2(d/2) I + c_pv (1/4pi) cot(d/2) J at
    offsets d = dtau, in place on (2, 2, ...) values."""
    chs = _c_hs(material, tag)
    cpv = _c_pv(material, tag)
    if chs != 0.0:
        csc2 = chs / (4.0 * np.pi) / np.sin(0.5 * dtau) ** 2
        values[0, 0] -= csc2
        values[1, 1] -= csc2
    if cpv != 0.0:
        cot = cpv / (4.0 * np.pi) / np.tan(0.5 * dtau)
        values[0, 1] += cot  # J = [[0, -1], [1, 0]]
        values[1, 0] -= cot


@dataclass(frozen=True)
class KernelSplit:
    """Split of one boundary-integral kernel on a grid.

    kernel[i, m] = c_hs (1/4pi) csc^2((t_i - t_m)/2) I
                 + c_pv (1/4pi) cot((t_i - t_m)/2) J
                 + M_log[:, :, i, m] log(4 sin^2((t_i - t_m)/2))
                 + M_smooth[:, :, i, m]

    M_log and M_smooth have shape (2, 2, N, N): component (p, q) of the 2x2
    block of the node pair (i, m) is M[p, q, i, m].
    """

    c_hs: float
    c_pv: complex
    M_log: np.ndarray = field(repr=False)
    M_smooth: np.ndarray = field(repr=False)


def _diagonal_limits(material, grid, tags) -> tuple[dict, dict]:
    """Diagonal limits, as (2, 2, N) component arrays, of M_smooth for every
    tag and of M_log for W.

    The smooth remainder kernel - singular parts - log part (and the W log
    coefficient) is evaluated at the parameter pairs (t_i +- h, t_i) of all
    steps h from one pair-field build and extrapolated to h -> 0.
    """
    curve = grid.curve
    with_w_log = "W" in tags

    def fn(tau, t):
        pf = _PairFields(material, *(np.moveaxis(v, -1, 0) for v in (
            curve.eval(tau), curve.normal(tau), curve.eval(t), curve.normal(t))))
        mlogs, smooths = _split_values(material, pf, _radial_suites(
            material, pf.r, tags), tags, tau - t)
        out = [smooths[tag] for tag in tags]
        if with_w_log:
            out.append(mlogs["W"])
        return np.stack(out)

    limits = _diag_extrapolate(fn, grid, material)
    smooth = dict(zip(tags, limits))
    return smooth, ({"W": limits[-1]} if with_w_log else {})


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
    # fn on all steps at once: (..., 2 steps, 2n) at offsets +hs, then -hs
    vals = fn(t + np.concatenate([hs, -hs])[:, None], t[None, :])
    even = 0.5 * (vals[..., :steps, :] + vals[..., steps:, :])
    return _neville_even(np.swapaxes(even, -1, -2), hs)


def _kernel_splits(material, grid, tags) -> dict:
    """Four-way splits of the kernels `tags` on `grid`.

    V, K and W are evaluated on the N(N-1)/2 node pairs i < j only, from one
    pair-field build and one radial suite per basis; r, G and the radial
    suites are symmetric under the swap of the two points.  V and W are
    block-symmetric, so their lower triangle is the block transpose of the
    upper one; K's lower triangle is K's formula on the swapped pairs (r
    negated, normals exchanged).  The diagonal limits of all tags come from
    one shared extrapolation.
    """
    tags = tuple(dict.fromkeys(tags))
    for tag in tags:
        if tag not in TAGS:
            raise ValueError(f"unknown kernel tag {tag!r}; expected one of {TAGS}")
    N = grid.size
    i, j = np.triu_indices(N, 1)
    # take() keeps the (2, P) rows contiguous; x.T[:, i] would interleave them
    x, nu = grid.x.T, grid.nu.T
    x_i, nu_i, x_j, nu_j = x.take(i, 1), nu.take(i, 1), x.take(j, 1), nu.take(j, 1)
    d = grid.t[i] - grid.t[j]
    upper = _PairFields(material, x_i, nu_i, x_j, nu_j)
    suites = _radial_suites(material, upper.r, tags)
    mlogs, smooths = _split_values(material, upper, suites, tags, d)
    if "K" in tags:
        swapped = _PairFields(material, x_j, nu_j, x_i, nu_i)
        k_lower = _split_values(material, swapped, suites, ("K",), -d)
    smooth_diag, log_diag = _diagonal_limits(material, grid, tags)
    # V: L Phi2 = O(r^2) and G stays bounded, so only (1/2) L Phi1(0) I =
    # -beta/(2 pi) I survives; K: the log coefficient vanishes on the diagonal.
    v_log = -material.beta / (2.0 * np.pi) * _I2
    log_diag.update(V=np.broadcast_to(v_log[:, :, None], (2, 2, N)),
                    K=np.zeros((2, 2, N)))
    flat_up, flat_low, flat_diag = i * N + j, j * N + i, np.arange(N) * (N + 1)

    def planes(up, low, diagonal):
        """(2, 2, N, N) planes from the values on the pairs i < j, the swapped
        pairs and the diagonal; flat indices beat out[..., i, j] by ~3x."""
        out = np.empty((2, 2, N * N), dtype=np.result_type(up, diagonal))
        for p in range(2):
            for q in range(2):
                plane = out[p, q]
                plane[flat_up] = up[p, q]
                plane[flat_low] = low[p, q]
                plane[flat_diag] = diagonal[p, q]
        return out.reshape(2, 2, N, N)

    splits = {}
    for tag in tags:
        if tag == "K":
            lows = (k_lower[0]["K"], k_lower[1]["K"])
        else:
            lows = (mlogs[tag].swapaxes(0, 1), smooths[tag].swapaxes(0, 1))
        # the log basis is real; the extrapolated limits are complex-typed
        splits[tag] = KernelSplit(
            _c_hs(material, tag), _c_pv(material, tag),
            planes(mlogs[tag], lows[0], log_diag[tag].real),
            planes(smooths[tag], lows[1], smooth_diag[tag]))
    return splits


def kernel_split(material, grid, tag: str) -> KernelSplit:
    """Compute the four-way singularity split of kernel `tag` on `grid`."""
    return _kernel_splits(material, grid, (tag,))[tag]
