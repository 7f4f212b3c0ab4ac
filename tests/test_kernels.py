"""Kernel split tests: reassembly against the fundamental solution, the
component forms against the stacked products, split structure, and the
direct operator assembly against the assembled splits."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import hankel1, j0, j1

from elastobie import (assemble_transmission, kernel_split, kernels, make_curve,
                       make_material, plane_wave, sample_grid, trace_and_traction)
from elastobie.formulations import boundary_operators, calderon_matrix
from elastobie.kernels import TAGS, _LIMIT_WEIGHTS, _STEPS, _c_hs, _c_pv
from elastobie.multipliers import make_transmission_regularizer
from elastobie.quadrature import assemble_bio, build_quadrature, flatten_density
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


def _family_at(k, w, basis, second):
    """The F family of `basis` for the wavenumber k at w."""
    return _family(k, w, j0(w), j1(w), basis, second)


def test_hankel_family_matches_amos_hankel():
    # The Cephes J + i Y evaluation against scipy's AMOS hankel1.
    for k in (0.5, 3.0, 40.0):
        w = np.geomspace(1e-6, 400.0, 4001)
        (F0, F1), _ = _family_at(k, w, "hankel", False)
        h0, h1 = 0.25j * hankel1(0, w), 0.25j * hankel1(1, w)
        assert (np.abs(F0 - h0) / np.abs(h0)).max() <= 1e-13
        assert (np.abs(F1 * w - h1) / np.abs(h1)).max() <= 1e-13


def test_log_family_is_continuous_across_the_series_switch():
    # c1/w = F1 and h2 = d2F1/k^2 + F1 on the floats either side of w = 0.5,
    # where the log basis switches from its series to the direct formulas.
    for k in (1.0, 4.0):
        w = np.array([0.5, np.nextafter(0.5, 1.0)])
        (_, F1), _, (_, d2F1) = _family_at(k, w, "log", True)
        h2 = d2F1 / k**2 + F1
        for v in (F1, h2):
            assert abs(v[1] - v[0]) <= 1e-12 * abs(v[0]), (k, v)


@pytest.mark.parametrize("second", [False, True])
def test_suites_of_both_bases_equal_their_separate_evaluations(mat28, second):
    # Both bases from one J0 and J1 evaluation per wavenumber, in either
    # order, against each basis on its own, at w = k r below and above the
    # log basis's switch to its series at w = 0.5 for both wavenumbers.
    r = np.geomspace(1e-3, 4.0, 301) / mat28.kp
    for k in (mat28.kp, mat28.ks):
        assert (k * r < 0.5).any() and (k * r > 0.5).any()
    alone = {basis: radial_suite(mat28, r, basis, second) for basis in ("log", "hankel")}
    for bases in (("log", "hankel"), ("hankel", "log")):
        for basis, suite in zip(bases, radial_suite(mat28, r, bases, second)):
            for got, want in zip(suite, alone[basis]):
                assert np.array_equal(got, want), basis  # None for d2 if not second


def test_log_family_first_derivative_of_F1_keeps_its_digits_near_zero():
    # dF1/k = d/dw [c1(w)/w] with c1 = -J1/(2 pi), against its term-by-term
    # series sum_{m>=1} (-1)^m m q^(m-1) (w/2) / (2 m! (m+1)!), q = (w/2)^2.
    w = np.array([1e-3, 4e-3, 1.6e-2, 0.1])
    _, (_, dF1) = _family_at(1.0, w, "log", False)
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
    boundary_operators(mat28, starfish32, TAGS)
    N = starfish32.size
    # The operators' assembly evaluates both bases in one call on the
    # N(N-1)/2 pairs i < j, a block of pairs at a time, and at 7
    # extrapolation steps at +-h for each of the N diagonal entries.
    assert sum(points) == N * (N - 1) // 2 + 2 * 7 * N
    assert max(points) <= max(kernels._PAIR_BLOCK, 2 * 7 * N)


@pytest.mark.parametrize("curve", ["circle", "starfish", "cavity"])
@pytest.mark.parametrize("n", [64, 128])
def test_assembly_is_the_same_for_every_pair_block(curve, n, monkeypatch):
    # Blocks of less than one row (row 0 holds N - 1 pairs, so blocks start
    # and end inside rows), the default, and one block of all pairs: every
    # entry is computed elementwise, so the operators agree to the bit.  At
    # n = 64 each transmission system, whose one pass over the pairs
    # evaluates both materials, equals its formula (and its right-hand side)
    # from two calderon_matrix calls to the bit as well.
    material = make_material(2.0, 1.0, 20.0)
    grid = sample_grid(make_curve(curve), n)
    N = grid.size
    builds = [(lambda: [calderon_matrix(material, grid)], None)] + [
        (lambda tags=tags: list(boundary_operators(material, grid, tags).values()), None)
        for k in (1, 2, 3) for tags in itertools.combinations(TAGS, k)]
    if n == 64:
        builds += _transmission_builds(grid, make_material(1.0, 1.0, 20.0), material)
    default = kernels._PAIR_BLOCK
    for build, want in builds:
        blocks = (N - 3, N * (N - 1) // 2)
        if want is None:
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", default)
            want = build()
        else:
            blocks += (default,)
        for block in blocks:
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
            got = build()
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), block


def _transmission_builds(grid, mp, mm):
    """(build, want) of each transmission system: the system's matrix and
    right-hand side, and the same from its formula on C+ and C-."""
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    cd = trace_and_traction(inc, grid, mp)
    b0 = np.concatenate([flatten_density(cd.trace), flatten_density(cd.traction)])
    Cp, Cm = calderon_matrix(mp, grid), calderon_matrix(mm, grid)
    eye = np.eye(len(Cp))
    reg = make_transmission_regularizer(mp, mm, n_max=grid.n)
    formulas = {"SC": (-(Cp + Cm), b0),
                "KR": (Cm - Cp + eye, b0),
                "DCFIER": (Cm - reg.RT @ (Cp + Cm) + 0.5 * eye, reg.RT @ b0),
                "ICFIER": ((Cp + Cm) @ reg.R - Cm + 0.5 * eye, -b0)}

    def build(kind):
        system = assemble_transmission(kind, mp, mm, grid, incident=inc)
        return [system.operator.matrix, system.rhs]
    return [(lambda kind=kind: build(kind), list(want)) for kind, want in formulas.items()]


@pytest.mark.parametrize("curve", ["circle", "starfish", "cavity"])
@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("lame", [(2.0, 8.0, 10.0), (2.0, 1.0, 40.0)])
def test_direct_assembly_matches_the_assembled_splits(curve, n, lame):
    # Oracle: assemble_bio of each kernel split, with K, -V, W and -K^T put
    # together by hand.  The diagonal 2x2 blocks come from extrapolated
    # limits, which amplify rounding, so they get a looser bound.
    material = make_material(*lame)
    grid = sample_grid(make_curve(curve), n)
    quad = build_quadrature(n)
    ref = {tag: assemble_bio(kernel_split(material, grid, tag), quad, grid)
           for tag in TAGS}
    ops = boundary_operators(material, grid)
    C = calderon_matrix(material, grid)
    on = np.kron(np.eye(grid.size, dtype=bool), np.ones((2, 2), dtype=bool))
    K, V, W = ref["K"], ref["V"], ref["W"]
    cases = [(ops[tag], ref[tag], on) for tag in TAGS] + [
        (C, np.block([[K, -V], [W, -K.T]]), np.tile(on, (2, 2)))]
    for got, want, blocks in cases:
        scale = np.abs(want).max()
        err = np.abs(got - want)
        assert err[~blocks].max() <= 1e-14 * scale, err[~blocks].max() / scale
        assert err[blocks].max() <= 1e-11 * scale, err[blocks].max() / scale
    # one evaluation serves both layouts: the Calderon blocks are the
    # operators, -V and -K^T exactly negated
    h = 2 * grid.size
    assert np.array_equal(C[:h, :h], ops["K"])
    assert np.array_equal(C[:h, h:], -ops["V"])
    assert np.array_equal(C[h:, :h], ops["W"])
    assert np.array_equal(C[h:, h:], -ops["K"].T)


def test_calderon_matrix_allocates_little_beyond_its_result():
    # starfish, (lam, mu) = (2, 8), omega = 10: the result (16 MiB at
    # n = 128, 64 MiB at n = 256) plus at most 4 MiB of pair temporaries,
    # which the row blocks keep to a fixed size.  Measured: 18.8 and
    # 67.0 MiB; 29.3 and 117.0 MiB when all pairs were evaluated at once.
    material = make_material(lam=2.0, mu=8.0, omega=10.0)
    for n, result in ((128, 16 * 2**20), (256, 64 * 2**20)):
        grid = sample_grid(make_curve("starfish"), n)
        tracemalloc.start()
        try:
            C = calderon_matrix(material, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.nbytes == result
        assert peak <= C.nbytes + 4 * 2**20, (n, peak / 2**20)
        del C


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
