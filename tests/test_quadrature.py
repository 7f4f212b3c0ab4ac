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

from elastobie.quadrature import (blocks_to_matrix, build_quadrature,
                                  flatten_density, matrix_to_blocks,
                                  shifted_interpolation_matrix,
                                  unflatten_density)


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


@given(st.integers(min_value=2, max_value=8))
def test_blocks_matrix_round_trip(m):
    rng = np.random.default_rng(m)
    blocks = rng.standard_normal((m, m, 2, 2))
    M = blocks_to_matrix(blocks)
    assert M.shape == (2 * m, 2 * m)
    assert np.array_equal(matrix_to_blocks(M), blocks)
    # interleaving: block (i, j) sits at rows 2i:2i+2, cols 2j:2j+2
    assert np.array_equal(M[2:4, 0:2], blocks[1, 0])


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
