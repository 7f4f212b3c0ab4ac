"""Kernel split tests: reassembly against the fundamental solution, the
component forms against the stacked products, split structure."""

import math

import numpy as np
import pytest
from scipy.special import hankel1

from elastobie import kernel_split
from elastobie.formulations import boundary_operators
from elastobie.kernels import (TAGS, _LIMIT_WEIGHTS, _STEPS, _c_hs, _c_pv,
                               _kernel_splits)
from elastobie.special import _family, radial_suite


def _reassemble(split, grid):
    """Off-diagonal kernel values implied by the four-way split, as a
    (2, 2, N, N) array like the split's own."""
    t = grid.t
    d = t[:, None] - t[None, :]
    off = ~np.eye(grid.size, dtype=bool)
    out = np.zeros_like(split.M_smooth)
    out[:, :, off] = (
        _singular_parts_from(split, d)[:, :, off]
        + split.M_log[:, :, off] * np.log(4.0 * np.sin(0.5 * d[off]) ** 2)
        + split.M_smooth[:, :, off]
    )
    return out, off


def _singular_parts_from(split, d):
    """c_hs and c_pv parts of the split at offsets d, shape (2, 2) + d.shape."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((2, 2) + d.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if split.c_hs != 0.0:
            out += (split.c_hs / (4 * np.pi) / np.sin(0.5 * d) ** 2) \
                * np.eye(2)[:, :, None, None]
        if split.c_pv != 0.0:
            out += (split.c_pv / (4 * np.pi) / np.tan(0.5 * d)) \
                * J[:, :, None, None]
    return out


def test_single_layer_split_reassembles_fundamental_solution(
        circle48, mat21, fundamental_solution):
    split = kernel_split(mat21, circle48, "V")
    assert split.c_hs == 0.0 and split.c_pv == 0.0
    full, off = _reassemble(split, circle48)
    x = circle48.x
    ii, jj = np.where(off)
    phi = fundamental_solution(mat21, x[ii], x[jj])
    assert np.abs(full[:, :, off] - phi.transpose(1, 2, 0)).max() < 1e-12


def test_hankel_family_matches_amos_hankel():
    # The Cephes J + i Y evaluation against scipy's AMOS hankel1.
    for k in (0.5, 3.0, 40.0):
        w = np.geomspace(1e-6, 400.0, 4001)
        (F0, F1), _ = _family(k, w / k, "hankel", False)
        h0, h1 = 0.25j * hankel1(0, w), 0.25j * hankel1(1, w)
        assert (np.abs(F0 - h0) / np.abs(h0)).max() <= 1e-13
        assert (np.abs(F1 * w - h1) / np.abs(h1)).max() <= 1e-13


def test_log_family_is_continuous_across_the_series_switch():
    # c1/w = F1 and h2 = d2F1/k^2 + F1 on the floats either side of w = 0.5,
    # where the log basis switches from its series to the direct formulas.
    for k in (1.0, 4.0):  # powers of two, so that k (w / k) == w
        w = np.array([0.5, np.nextafter(0.5, 1.0)])
        assert np.array_equal(k * (w / k), w)
        (_, F1), _, (_, d2F1) = _family(k, w / k, "log", True)
        h2 = d2F1 / k**2 + F1
        for v in (F1, h2):
            assert abs(v[1] - v[0]) <= 1e-12 * abs(v[0]), (k, v)


def test_log_family_first_derivative_of_F1_keeps_its_digits_near_zero():
    # dF1/k = d/dw [c1(w)/w] with c1 = -J1/(2 pi), against its term-by-term
    # series sum_{m>=1} (-1)^m m q^(m-1) (w/2) / (2 m! (m+1)!), q = (w/2)^2.
    w = np.array([1e-3, 4e-3, 1.6e-2, 0.1])
    _, (_, dF1) = _family(1.0, w, "log", False)
    q = (0.5 * w) ** 2
    ref = sum((-1.0) ** m * m * q ** (m - 1) * (0.5 * w)
              / (2.0 * math.factorial(m) * math.factorial(m + 1))
              for m in range(1, 12)) / (-2.0 * np.pi)
    assert (np.abs(dF1 - ref) / np.abs(ref)).max() <= 1e-14


def test_diagonal_limit_weights_return_the_constant_term():
    # The 14 samples at +-h_j of an even polynomial of degree <= 6 in h^2
    # (plus odd terms, which the +-h pairs cancel) sum to its value at 0.
    rng = np.random.default_rng(3)
    for h0 in (1.0, 5e-2):
        h = h0 * np.concatenate([_STEPS, -_STEPS])
        coef = rng.standard_normal(13)
        samples = np.polynomial.polynomial.polyval(h, coef)
        assert abs(_LIMIT_WEIGHTS @ samples - coef[0]) <= 1e-12


def _stacked_kernels(material, grid, rs):
    """V, K and W on all node pairs from the stacked (N, N, 2, 2) products
    of U1, U2, G and their tractions: the reference for the component forms."""
    lam, mu = material.lam, material.mu
    I2 = np.eye(2)

    def outer(a, b):
        return np.einsum("...i,...j->...ij", a, b)

    def dot(a, b):
        return np.einsum("...i,...i->...", a, b)[..., None, None]

    rvec = grid.x[:, None, :] - grid.x[None, :, :]
    m = np.broadcast_to(grid.nu[:, None, :], rvec.shape)
    n = np.broadcast_to(grid.nu[None, :, :], rvec.shape)
    rc = np.linalg.norm(rvec, axis=-1)[..., None, None]
    G = outer(rvec, rvec) / rc**2

    def u1(nv):
        return lam * outer(nv, rvec) + mu * outer(rvec, nv) + mu * dot(nv, rvec) * I2

    def u2(nv):
        return ((lam + 2 * mu) * outer(nv, rvec) + mu * outer(rvec, nv)
                + mu * dot(nv, rvec) * (I2 - 4 * G))

    A = np.swapaxes(u1(n), -1, -2)
    C = np.swapaxes(u2(n), -1, -2)
    GA = G @ A
    nrc = outer(m, n)
    Q = lam * nrc + mu * outer(n, m) + mu * dot(m, n) * I2
    TG = u2(m) / rc**2
    rnu = dot(rvec, n)
    w = np.einsum("...ij,...j->...i", G, n)
    TA = 2 * lam * (lam + mu) * nrc + 2 * mu * Q
    TB = (2 * lam * (lam + mu) * nrc
          + mu * (lam * outer(m, w) + mu * outer(w, m) + mu * dot(m, w) * I2)
          + mu * outer(np.einsum("...ij,...j->...i", TG, n), rvec)
          + mu * Q @ G + mu * rnu * TG)
    TC = (2 * (lam + 2 * mu) * (lam + mu) * nrc + 2 * mu * Q
          - 4 * mu * Q @ G - 4 * mu * rnu * TG)
    p1, p2, dp1, dp2, d2p1, d2p2 = (
        getattr(rs, k)[..., None, None]
        for k in ("Phi1", "Phi2", "dPhi1", "dPhi2", "d2Phi1", "d2Phi2"))
    f1, f2, f3 = dp1 / rc, dp2 / rc, p2 / rc**2
    f1p = d2p1 / rc**2 - dp1 / rc**3
    f2p = d2p2 / rc**2 - dp2 / rc**3
    f3p = dp2 / rc**3 - 2 * p2 / rc**4
    V1 = u1(m)
    return {"V": p1 * I2 + p2 * G,
            "K": -f1 * A - f2 * GA - f3 * C,
            "W": (-f1p * (V1 @ A) - f1 * TA - f2p * (V1 @ GA) - f2 * TB
                  - f3p * (V1 @ C) - f3 * TC)}


def test_component_forms_match_stacked_products(starfish32, mat28):
    # Off the diagonal, M_log and M_smooth of V, K and W against the same
    # split built from the stacked 2x2 products on all N^2 pairs, moved to
    # the split's (2, 2, N, N) layout.
    grid = starfish32
    N = grid.size
    off = ~np.eye(N, dtype=bool)
    r = np.linalg.norm(grid.x[:, None, :] - grid.x[None, :, :], axis=-1)
    d = grid.t[:, None] - grid.t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = _stacked_kernels(mat28, grid, radial_suite(mat28, r, "log", True))
        fulls = _stacked_kernels(mat28, grid, radial_suite(mat28, r, "hankel", True))
        logfac = np.log(4 * np.sin(0.5 * d) ** 2)
    for tag in ("V", "K", "W"):
        split = kernel_split(mat28, grid, tag)
        m_log = 0.5 * logs[tag].transpose(2, 3, 0, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            m_smooth = (fulls[tag].transpose(2, 3, 0, 1)
                        - _singular_parts_from(split, d) - m_log * logfac)
        for new, ref in ((split.M_log, m_log), (split.M_smooth, m_smooth)):
            err = (np.abs(new[:, :, off] - ref[:, :, off]).max()
                   / np.abs(ref[:, :, off]).max())
            assert err <= 1e-13, (tag, err)


def test_single_and_hypersingular_splits_are_exactly_block_symmetric(
        starfish32, mat28):
    off = ~np.eye(starfish32.size, dtype=bool)
    for tag in ("V", "W"):
        split = kernel_split(mat28, starfish32, tag)
        for M in (split.M_log, split.M_smooth):
            assert M.shape == (2, 2) + off.shape
            assert np.array_equal(M[:, :, off],
                                  M.transpose(1, 0, 3, 2)[:, :, off]), tag


def test_split_evaluates_each_unordered_pair_once(starfish32, mat28, monkeypatch):
    points = []

    def counting_suite(material, r, *args, **kwargs):
        points.append(np.size(r))
        return radial_suite(material, r, *args, **kwargs)

    monkeypatch.setattr("elastobie.kernels.radial_suite", counting_suite)
    _kernel_splits(mat28, starfish32, TAGS)
    N = starfish32.size
    # Both bases: the N(N-1)/2 pairs i < j, and 7 extrapolation steps at
    # +-h for each of the N diagonal entries.
    assert sum(points) == 2 * (N * (N - 1) // 2) + 2 * (2 * 7 * N)


def test_singularity_constants(mat21):
    lam, mu = mat21.lam, mat21.mu
    assert _c_hs(mat21, "W") == pytest.approx(mu * (lam + mu) / (lam + 2 * mu))
    assert _c_hs(mat21, "W") == pytest.approx(-mat21.delta)
    for tag in ("V", "K"):
        assert _c_hs(mat21, tag) == 0.0
    assert _c_pv(mat21, "K") == pytest.approx(-mu / (lam + 2 * mu))
    for tag in ("V", "W"):
        assert _c_pv(mat21, tag) == 0.0


def test_log_coefficient_diagonal(circle48, mat21):
    # V: M_log(t, t) = -beta/(2 pi) I (static log coefficient of Phi1);
    # K: the log coefficient vanishes on the diagonal.
    idx = np.arange(circle48.size)
    v = kernel_split(mat21, circle48, "V")
    diag = v.M_log[:, :, idx, idx]
    expected = -mat21.beta / (2.0 * np.pi) * np.eye(2)[:, :, None]
    assert np.abs(diag - expected).max() < 1e-10
    s = kernel_split(mat21, circle48, "K")
    d = s.M_log[:, :, idx, idx]
    assert np.abs(d).max() < 1e-13


def test_smooth_part_is_smooth(circle48, mat21):
    # The remainder of the split must be a smooth biperiodic function: its
    # Fourier coefficients along a row decay spectrally.
    s = kernel_split(mat21, circle48, "W")
    row = s.M_smooth[0, 0, 0, :]
    coeffs = np.abs(np.fft.fft(row)) / row.size
    mid = circle48.n  # highest resolved mode
    assert coeffs[mid - 4:mid + 5].max() < 1e-8 * max(coeffs.max(), 1.0)


def test_unknown_tag_raises(circle48, mat21):
    with pytest.raises(ValueError):
        kernel_split(mat21, circle48, "Z")
    # K^T is K.T, not a tag
    with pytest.raises(ValueError, match="'Kt'"):
        boundary_operators(mat21, circle48, tags=("K", "Kt"))
    assert TAGS == ("V", "K", "W")


def test_diagonal_evaluation_of_fundamental_solution_raises(
        mat21, fundamental_solution):
    with pytest.raises(ValueError):
        fundamental_solution(mat21, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
