"""Kernel split tests: reassembly against the fundamental solution,
reciprocity between the double layer and its adjoint, split structure."""

import numpy as np
import pytest
from scipy.special import hankel1

from elastobie import fundamental_solution, kernel_split
from elastobie.formulations import boundary_operators
from elastobie.kernels import TAGS, _c_hs, _c_pv, _singular_parts
from elastobie.quadrature import matrix_to_blocks
from elastobie.special import _family


def _reassemble(split, grid):
    """Off-diagonal kernel values implied by the four-way split."""
    t = grid.t
    d = t[:, None] - t[None, :]
    off = ~np.eye(grid.size, dtype=bool)
    out = np.zeros_like(split.M_smooth)
    out[off] = (
        _singular_parts_from(split, d)[off]
        + split.M_log[off]
        * np.log(4.0 * np.sin(0.5 * d[off]) ** 2)[..., None, None]
        + split.M_smooth[off]
    )
    return out, off


def _singular_parts_from(split, d):
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros(d.shape + (2, 2), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if split.c_hs != 0.0:
            out += (split.c_hs / (4 * np.pi) / np.sin(0.5 * d) ** 2)[
                ..., None, None] * np.eye(2)
        if split.c_pv != 0.0:
            out += (split.c_pv / (4 * np.pi) / np.tan(0.5 * d))[
                ..., None, None] * J
    return out


def test_single_layer_split_reassembles_fundamental_solution(circle48, mat21):
    split = kernel_split(mat21, circle48, "V")
    assert split.c_hs == 0.0 and split.c_pv == 0.0
    full, off = _reassemble(split, circle48)
    x = circle48.x
    ii, jj = np.where(off)
    phi = fundamental_solution(mat21, x[ii], x[jj])
    assert np.abs(full[off] - phi).max() < 1e-12


def test_double_layer_reciprocity(starfish32, mat21):
    # Kt(x, y) = K(y, x)^T pointwise off the diagonal.
    k = kernel_split(mat21, starfish32, "K")
    kt = kernel_split(mat21, starfish32, "Kt")
    fk, off = _reassemble(k, starfish32)
    fkt, _ = _reassemble(kt, starfish32)
    swapped = np.swapaxes(np.swapaxes(fk, 0, 1), -1, -2)
    assert np.abs(fkt[off] - swapped[off]).max() < 1e-11


def test_hankel_family_matches_amos_hankel():
    # The Cephes J + i Y evaluation against scipy's AMOS hankel1.
    for k in (0.5, 3.0, 40.0):
        w = np.geomspace(1e-6, 400.0, 4001)
        f = _family(k, w / k, "hankel", False)
        h0, h1 = 0.25j * hankel1(0, w), 0.25j * hankel1(1, w)
        assert (np.abs(f["F0"] - h0) / np.abs(h0)).max() <= 1e-13
        assert (np.abs(f["F1"] * w - h1) / np.abs(h1)).max() <= 1e-13


def test_adjoint_double_layer_is_exact_block_transpose(starfish32, mat28):
    K = matrix_to_blocks(boundary_operators(mat28, starfish32, tags=("K",))["K"])
    for tags in (("K", "Kt"), ("Kt",)):
        ops = boundary_operators(mat28, starfish32, tags=tags)
        Kt = matrix_to_blocks(ops["Kt"])
        assert np.array_equal(Kt, K.transpose(1, 0, 3, 2)), tags


def test_singularity_constants(mat21):
    lam, mu = mat21.lam, mat21.mu
    assert _c_hs(mat21, "W") == pytest.approx(mu * (lam + mu) / (lam + 2 * mu))
    assert _c_hs(mat21, "W") == pytest.approx(-mat21.delta)
    for tag in ("V", "K", "Kt"):
        assert _c_hs(mat21, tag) == 0.0
    for tag in ("K", "Kt"):
        assert _c_pv(mat21, tag) == pytest.approx(-mu / (lam + 2 * mu))
    for tag in ("V", "W"):
        assert _c_pv(mat21, tag) == 0.0


def test_log_coefficient_diagonal(circle48, mat21):
    # V: M_log(t, t) = -beta/(2 pi) I (static log coefficient of Phi1);
    # K, Kt: the log coefficient vanishes on the diagonal.
    v = kernel_split(mat21, circle48, "V")
    diag = v.M_log[np.arange(circle48.size), np.arange(circle48.size)]
    expected = -mat21.beta / (2.0 * np.pi) * np.eye(2)
    assert np.abs(diag - expected).max() < 1e-10
    for tag in ("K", "Kt"):
        s = kernel_split(mat21, circle48, tag)
        d = s.M_log[np.arange(circle48.size), np.arange(circle48.size)]
        assert np.abs(d).max() < 1e-13


def test_smooth_part_is_smooth(circle48, mat21):
    # The remainder of the split must be a smooth biperiodic function: its
    # Fourier coefficients along a row decay spectrally.
    s = kernel_split(mat21, circle48, "W")
    row = s.M_smooth[0, :, 0, 0]
    coeffs = np.abs(np.fft.fft(row)) / row.size
    mid = circle48.n  # highest resolved mode
    assert coeffs[mid - 4:mid + 5].max() < 1e-8 * max(coeffs.max(), 1.0)


def test_unknown_tag_raises(circle48, mat21):
    with pytest.raises(ValueError):
        kernel_split(mat21, circle48, "Z")
    assert TAGS == ("V", "K", "Kt", "W")


def test_diagonal_evaluation_of_fundamental_solution_raises(mat21):
    with pytest.raises(ValueError):
        fundamental_solution(mat21, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
