"""Quadrature rule tests against exact Fourier-mode actions.

The three singular rules have closed-form actions on trigonometric
monomials e_k(t) = e^{i k t} (independent Fourier-analysis oracle):

    log rule R    : (1/2pi) int log(4 sin^2((t-s)/2)) e_k(s) ds = -e_k(t)/|k|
    finite part T : (1/2pi) f.p. int csc^2((t-s)/2)   e_k(s) ds = -|k| e_k(t) * 2
                    (the discrete T rule realizes action -|k| with the 1/(2n)
                     node weight absorbed, see below)
    Cauchy p.v.   : (1/2pi) p.v. int cot((s-t)/2)     e_k(s) ds = i sign(k) e_k(t)
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastobie import kernel_split
from elastobie.quadrature import (assemble_bio, build_quadrature,
                                  flatten_density, unflatten_density)


@pytest.fixture(scope="module")
def quad16():
    return build_quadrature(16)


def _modes(n):
    return [k for k in range(-(n - 1), n) if True]


def test_log_rule_mode_action(quad16):
    n = quad16.n
    t = np.arange(2 * n) * np.pi / n
    for k in (-10, -3, 1, 7, 15):
        e = np.exp(1j * k * t)
        assert np.allclose(quad16.R @ e, -e / abs(k), atol=1e-12)
    # zero mode: the log kernel integrates to zero
    assert np.abs(quad16.R @ np.ones(2 * n)).max() < 1e-12


def test_finite_part_rule_mode_action(quad16):
    n = quad16.n
    t = np.arange(2 * n) * np.pi / n
    for k in (-12, -1, 2, 9, 15):
        e = np.exp(1j * k * t)
        assert np.allclose(quad16.T @ e, -abs(k) * e, atol=1e-11)
    assert np.abs(quad16.T @ np.ones(2 * n)).max() < 1e-12


def test_cauchy_pv_rule_mode_action(quad16):
    n = quad16.n
    t = np.arange(2 * n) * np.pi / n
    for k in (-12, -1, 2, 9):
        e = np.exp(1j * k * t)
        assert np.allclose(quad16.pv @ e, 1j * np.sign(k) * e, atol=1e-12)
    assert np.abs(quad16.pv @ np.ones(2 * n)).max() < 1e-12


def test_trapezoid_weight(quad16):
    # plain periodic trapezoid weight pi/n integrates trig polynomials exactly
    assert quad16.trapezoid == pytest.approx(np.pi / 16)


def shifted_interpolation_matrix(n: int) -> np.ndarray:
    """Matrix mapping nodal values at t_j to values at t_j + pi/(2n), by
    trigonometric interpolation (FFT with phase factors; Nyquist mode is
    treated symmetrically as cos(nt) so real data stay real): the oracle
    for the shifted-grid p.v. rule."""
    N = 2 * n
    h = np.pi / (2 * n)
    k = np.fft.fftfreq(N, d=1.0 / N)  # 0..n-1, -n..-1
    phase = np.exp(1j * k * h)
    phase[n] = np.cos(n * h)  # Nyquist
    F = np.fft.fft(np.eye(N), axis=0)
    S = np.fft.ifft(phase[:, None] * F, axis=0)
    return np.ascontiguousarray(np.real(S))


def test_shifted_interpolation_is_exact_for_trig_polynomials():
    n = 12
    S = shifted_interpolation_matrix(n)
    t = np.arange(2 * n) * np.pi / n
    ts = t + np.pi / (2 * n)
    for k in range(-(n - 1), n):
        e = np.exp(1j * k * t)
        assert np.allclose(S @ e, np.exp(1j * k * ts), atol=1e-12)
    # real data stay real (Nyquist handled symmetrically)
    x = np.cos(3 * t) + 0.2 * np.sin(7 * t)
    assert np.abs(np.imag(S @ (x + 0j))).max() < 1e-14
    assert S.dtype == np.float64


@given(st.integers(min_value=1, max_value=12))
def test_flatten_round_trip(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    assert np.array_equal(unflatten_density(flatten_density(v)), v)


def test_build_quadrature_rejects_tiny_n():
    with pytest.raises(ValueError):
        build_quadrature(3)


@pytest.mark.parametrize("n", [4, 16, 33])
def test_weights_are_circulants_of_the_cosine_sums(n):
    # Reference: the O(N^2 n) double sums over d = t_i - t_m, and the
    # shifted-grid p.v. rule built from the interpolation matrix.
    q = build_quadrature(n)
    N = 2 * n
    t = np.arange(N) * np.pi / n
    d = t[:, None] - t[None, :]
    j = np.arange(1, n)
    cosjd = np.cos(j[None, None, :] * d[:, :, None])
    R = -(cosjd / j).sum(axis=-1) / n - np.cos(n * d) / (2.0 * n**2)
    T = -(cosjd * j).sum(axis=-1) / n - 0.5 * np.cos(n * d)
    cot = 1.0 / np.tan(0.5 * (t[None, :] + np.pi / (2 * n) - t[:, None]))
    pv = (cot / N) @ shifted_interpolation_matrix(n)
    offset = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    for got, ref in ((q.R, R), (q.T, T), (q.pv, pv)):
        assert np.array_equal(got, got[:, 0][offset])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(q.R, q.R.T) and np.array_equal(q.T, q.T.T)
    assert np.array_equal(q.pv, -q.pv.T)


def test_assemble_bio_matches_the_block_formula(starfish32, mat28):
    # Reference: the operator formed on (N, N, 2, 2) per-pair blocks,
    # w M_smooth + 2 pi R M_log + c_hs T I - (c_pv/2) pv J, then interleaved
    # so that block (i, m) sits at rows 2i:2i+2, columns 2m:2m+2.
    q = build_quadrature(starfish32.n)
    N = starfish32.size
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for tag in ("V", "K", "W"):
        split = kernel_split(mat28, starfish32, tag)
        M_log, M_smooth = (M.transpose(2, 3, 0, 1)
                           for M in (split.M_log, split.M_smooth))
        blocks = q.trapezoid * M_smooth + (
            2.0 * np.pi * q.R[:, :, None, None]) * M_log
        if split.c_hs != 0.0:
            blocks = blocks + split.c_hs * q.T[:, :, None, None] * np.eye(2)
        if split.c_pv != 0.0:
            blocks = blocks + (-0.5 * split.c_pv) * q.pv[:, :, None, None] * J
        ref = blocks.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)
        got = assemble_bio(split, q, starfish32)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), tag
