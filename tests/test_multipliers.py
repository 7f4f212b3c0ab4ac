"""Fourier-multiplier tests: symbol algebra, DtN symbols, regularizers,
and the transmission constant rho."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from elastobie import make_material, make_symbol
from elastobie.multipliers import (Symbol, _calderon_symbol,
                                   make_transmission_regularizer, ps_dtn,
                                   rho_constant, symbol_matrix,
                                   symbol_transpose, transmission_operators)

positive = st.floats(min_value=0.1, max_value=10.0,
                     allow_nan=False, allow_infinity=False)


def _mat(lam, mu, omega=1.0):
    return make_material(lam=lam, mu=mu, omega=omega)


# ---------------------------------------------------------------------------
# symbol algebra
# ---------------------------------------------------------------------------


def test_symbol_algebra_is_per_mode():
    rng = np.random.default_rng(3)
    n = 6
    a = Symbol(n_max=n, values=rng.standard_normal((2 * n + 1, 2, 2))
               + 1j * rng.standard_normal((2 * n + 1, 2, 2)))
    b = Symbol(n_max=n, values=rng.standard_normal((2 * n + 1, 2, 2)) + 0j)
    for k in range(-n, n + 1):
        assert np.allclose((a @ b).at(k), a.at(k) @ b.at(k))
        assert np.allclose((a + b).at(k), a.at(k) + b.at(k))
        assert np.allclose((a - b).at(k), a.at(k) - b.at(k))
        assert np.allclose((2.5j * a).at(k), 2.5j * a.at(k))
        assert np.allclose(a.inv().at(k) @ a.at(k), np.eye(2), atol=1e-12)
        assert np.allclose(symbol_transpose(a).at(k), a.at(-k).T)


def test_scalar_symbol_values():
    lam_inv = make_symbol("LambdaInv", n_max=8)
    for k in (-8, -3, 0, 1, 5):
        a = max(abs(k), 1)  # zero mode regularized to 1
        assert np.allclose(lam_inv.at(k), a * np.eye(2))  # order +1
    for kind in ("Lambda", "LambdaHalfInv"):
        with pytest.raises(ValueError):
            make_symbol(kind, n_max=8)


def test_h_symbol_squares_to_minus_identity():
    H = make_symbol("H", n_max=16)
    for k in range(-16, 17):
        assert np.allclose(H.at(k) @ H.at(k), -np.eye(2), atol=1e-14)


def test_lambda_kappa_branch():
    kappa = 3.0 + 0.5j
    lk = make_symbol("LambdaKappa", kappa=kappa, n_max=12)
    lki = make_symbol("LambdaKappaInv", kappa=kappa, n_max=12)
    for k in (-12, -2, 0, 4, 9):
        root = np.sqrt(k**2 - kappa**2 + 0j)
        if root.real < 0:
            root = -root
        assert root.real > 0 and root.imag < 0
        assert np.allclose(lki.at(k), root * np.eye(2))
        assert np.allclose(lk.at(k) @ lki.at(k), np.eye(2))


def _blocks(sym):
    """The 2x2 block symbols R11, R12, R21, R22 of a 4x4 symbol."""
    return [Symbol(sym.n_max, sym.values[:, i:i + 2, j:j + 2])
            for i in (0, 2) for j in (0, 2)]


def test_apply_multiplier_and_matrix_agree(circle48):
    # sym @ x and A @ sym by FFT against the dense realizations: a 2x2
    # symbol against symbol_matrix, the 4x4 regularizer against its 2x2
    # blocks, and its block transpose against the transposed blocks.
    rng = np.random.default_rng(5)
    n = circle48.n
    H = make_symbol("H", n_max=n)
    reg = make_transmission_regularizer(_mat(1.0, 1.0, 3.0),
                                        _mat(2.0, 8.0, 3.0), n_max=n)
    r11, r12, r21, r22 = (symbol_matrix(b, n) for b in _blocks(reg.R))
    t11, t12, t21, t22 = (symbol_matrix(symbol_transpose(b), n)
                          for b in _blocks(reg.R))
    cases = [(H, symbol_matrix(H, n)),
             (reg.R, np.block([[r11, r12], [r21, r22]])),
             (reg.RT, np.block([[t22, -t12], [-t21, t11]]))]
    for sym, dense in cases:
        size = dense.shape[0]
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        A = rng.standard_normal((size, 5)) + 1j * rng.standard_normal((size, 5))
        for got, want in ((sym @ x, dense @ x), (sym @ A, dense @ A),
                          (x @ sym, x @ dense), (A.T @ sym, A.T @ dense)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _random_symbol(n_max, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * n_max + 1, 2, 2)
    return Symbol(n_max=n_max, values=rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape))


def test_symbol_matrix_matches_the_block_ifft():
    # Reference: the (N, N, 2, 2) per-pair blocks, one circulant of the
    # inverse FFT per component, interleaved so that block (i, j) sits at
    # rows 2i:2i+2, columns 2j:2j+2.
    n, n_max = 12, 16
    N = 2 * n
    sym = _random_symbol(n_max, 11)
    M = sym.values[np.fft.fftfreq(N, d=1.0 / N).astype(int) + n_max]
    blocks = np.empty((N, N, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            blocks[:, :, a, b] = scipy.linalg.circulant(np.fft.ifft(M[:, a, b]))
    ref = blocks.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)
    got = symbol_matrix(sym, n)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("n", [6, 12])
def test_symbol_matrix_matches_its_definition(n):
    # block (i, j) = (1/N) sum_k e^{i k t_i} M(k) e^{-i k t_j}, summed
    # directly over the grid modes k = -n .. n-1 (no FFT).
    N = 2 * n
    sym = _random_symbol(n + 2, 7)
    t = np.arange(N) * np.pi / n
    ref = np.zeros((N, 2, N, 2), dtype=complex)
    for k in range(-n, n):
        e = np.exp(1j * k * t)
        ref += np.einsum("i,ab,j->iajb", e, sym.at(k), e.conj()) / N
    got = symbol_matrix(sym, n)
    ref = ref.reshape(2 * N, 2 * N)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_multiplier_acts_diagonally_on_modes():
    n = 16
    t = np.arange(2 * n) * np.pi / n
    H = make_symbol("H", n_max=n)
    for k in (-7, 2, 5):
        for comp in (0, 1):
            g = np.zeros((2 * n, 2), dtype=complex)
            g[:, comp] = np.exp(1j * k * t)
            out = (H @ g.reshape(-1)).reshape(-1, 2)
            expect = np.exp(1j * k * t)[:, None] * H.at(k)[:, comp]
            assert np.allclose(out, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# DtN symbols and transmission operators
# ---------------------------------------------------------------------------


def test_ps_dtn_structure():
    m = _mat(2.0, 1.0, 3.0)
    H = make_symbol("H", n_max=8)
    li = make_symbol("LambdaInv", n_max=8)
    ext = ps_dtn(m, "exterior", n_max=8)
    inte = ps_dtn(m, "interior", n_max=8)
    for k in (-8, -1, 0, 3):
        expect_ext = -(1.0 / m.beta) * li.at(k) @ (
            0.5 * np.eye(2) - m.alpha * H.at(k))
        expect_int = +(1.0 / m.beta) * li.at(k) @ (
            0.5 * np.eye(2) + m.alpha * H.at(k))
        assert np.allclose(ext.at(k), expect_ext, atol=1e-13)
        assert np.allclose(inte.at(k), expect_int, atol=1e-13)
    with pytest.raises(ValueError):
        ps_dtn(m, "sideways", n_max=8)


def test_transmission_operators_signs():
    # Upsilon+ = -(1/beta_-) Lk^-1 (1/2 I + alpha_- H)
    # Upsilon- = +(1/beta_+) Lk^-1 (1/2 I - alpha_+ H)
    mp, mm = _mat(1.0, 1.0, 3.0), _mat(2.0, 8.0, 3.0)
    kappa = mm.kappa
    up, um = transmission_operators(mp, mm, kappa, n_max=8)
    H = make_symbol("H", n_max=8)
    lki = make_symbol("LambdaKappaInv", kappa=kappa, n_max=8)
    for k in (-5, 0, 2, 8):
        eup = -(1.0 / mm.beta) * lki.at(k) @ (0.5 * np.eye(2) + mm.alpha * H.at(k))
        eum = +(1.0 / mp.beta) * lki.at(k) @ (0.5 * np.eye(2) - mp.alpha * H.at(k))
        assert np.allclose(up.at(k), eup, atol=1e-13)
        assert np.allclose(um.at(k), eum, atol=1e-13)


# ---------------------------------------------------------------------------
# rho and the transmission regularizer
# ---------------------------------------------------------------------------


def test_rho_benchmark_value_and_symmetry():
    a, b = _mat(2.0, 8.0), _mat(1.0, 1.0)
    assert rho_constant(a, b) == pytest.approx(3604.0 / 1728.0, abs=1e-15)
    assert rho_constant(a, b) == pytest.approx(rho_constant(b, a), abs=1e-15)


@settings(max_examples=60)
@given(positive, positive, positive)
def test_rho_equals_one_iff_equal_shear_moduli(lam_p, lam_m, mu):
    assert abs(rho_constant(_mat(lam_p, mu), _mat(lam_m, mu)) - 1.0) < 1e-13


@settings(max_examples=60)
@given(positive, positive, positive, positive)
def test_rho_matches_calderon_sum_square(lam_p, mu_p, lam_m, mu_m):
    # rho is the spectral constant of (C+ + C-)^2 = rho I (shared kappa):
    # verify the closed form against the operator-level construction.
    mp, mm = _mat(lam_p, mu_p, 2.0), _mat(lam_m, mu_m, 2.0)
    kappa = mm.kappa
    cs = _calderon_symbol(mp, kappa, 6) + _calderon_symbol(mm, kappa, 6)
    rho = rho_constant(mp, mm)
    for idx in (0, 4, 9):
        assert np.allclose(cs[idx] @ cs[idx], rho * np.eye(4), atol=1e-9)


def test_rho_below_one_counterexample():
    # The published lower bound rho >= 1 fails for general positive Lame
    # pairs (the acceptance suite asserts the sharp bound
    # cos^2((theta+ - theta-)/2) instead); this pins a concrete witness so
    # the closed form cannot silently change.
    mp = _mat(0.2204329275574864, 1.0701781305088474)
    mm = _mat(2.9907097351525174, 0.878435685163454)
    assert rho_constant(mp, mm) == pytest.approx(0.9822997890419944, abs=1e-12)


def test_rho_lower_bound_for_strong_shear_contrast(rng):
    # Provable regime: mu-ratio outside (1/3, 3) forces rho >= 1.
    for _ in range(300):
        lam_p, mu_p, lam_m = rng.uniform(0.1, 10.0, 3)
        factor = rng.choice([rng.uniform(3.0, 50.0), rng.uniform(0.02, 1 / 3)])
        assert rho_constant(_mat(lam_p, mu_p),
                            _mat(lam_m, mu_p * factor)) >= 1.0 - 1e-12


def test_regularizer_identity_shared_kappa():
    mp, mm = _mat(1.0, 1.0, 3.0), _mat(2.0, 8.0, 3.0)
    kappa = mp.kappa
    reg = make_transmission_regularizer(mp, mm, kappa, n_max=24)
    cp = _calderon_symbol(mp, kappa, 24)
    cm = _calderon_symbol(mm, kappa, 24)
    ident = 0.5 * np.eye(4)
    assert np.allclose(reg.R.values, (cp + cm) @ (ident + cm)
                       / rho_constant(mp, mm), atol=1e-13)
    for idx in (0, 3, 17, 40, 48):
        R = reg.R.values[idx]
        assert np.allclose((cp[idx] + cm[idx]) @ R, ident + cm[idx], atol=1e-13)
        assert np.allclose(cp[idx] @ cp[idx], 0.25 * np.eye(4), atol=1e-13)


def test_regularized_indirect_symbol_is_well_conditioned_per_mode():
    # Per-material kappa: the regularizer R itself need not be invertible
    # mode by mode, but the indirect operator 1/2 I - C- + (C+ + C-) R it
    # builds must stay uniformly well conditioned.
    mp, mm = _mat(1.0, 1.0, 3.0), _mat(2.0, 8.0, 3.0)
    n_max = 16
    reg = make_transmission_regularizer(mp, mm, kappa=None, n_max=n_max)
    cp = _calderon_symbol(mp, mp.kappa, n_max)  # each material's own kappa
    cm = _calderon_symbol(mm, mm.kappa, n_max)
    assert np.allclose(reg.R.values, (cp + cm) @ (0.5 * np.eye(4) + cm)
                       / rho_constant(mp, mm), atol=1e-13)
    for idx in range(2 * n_max + 1):
        R = reg.R.values[idx]
        M = 0.5 * np.eye(4) - cm[idx] + (cp[idx] + cm[idx]) @ R
        assert np.linalg.cond(M) < 1e3
