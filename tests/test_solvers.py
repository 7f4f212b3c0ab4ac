"""Linear solver tests: GMRES against direct solves and scipy's reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastobie import (assemble_neumann, gmres, lu_solve, make_curve,
                       make_material, plane_wave, sample_grid,
                       trace_and_traction)
from elastobie.multipliers import Symbol, symbol_matrix

# GMRES counts of Neumann CFIER on the cavity at (lam, mu) = (2, 1),
# omega = 20, n = 128, tol 1e-8, for P and S plane waves from 0, 30, ..., 330
# degrees (the seed values of the multistatic benchmark)
CAVITY_COUNTS = {
    "P": [94, 97, 96, 96, 96, 95, 93, 95, 96, 97, 96, 97],
    "S": [95, 98, 97, 97, 97, 96, 94, 96, 97, 97, 97, 97],
}


@pytest.fixture(scope="module")
def cavity():
    """The cavity's Neumann CFIER operator and a right-hand side per wave."""
    mat = make_material(2.0, 1.0, omega=20.0)
    grid = sample_grid(make_curve("cavity"), 128)
    rhs = {}
    for pol in "PS":
        for deg in range(0, 360, 30):
            theta = np.deg2rad(deg)
            d = np.array([np.cos(theta), np.sin(theta)])
            wave = plane_wave(mat, d, d if pol == "P" else np.array([-d[1], d[0]]))
            rhs[pol, deg] = -trace_and_traction(wave, grid, mat).traction.reshape(-1)
    system = assemble_neumann("CFIER", mat, grid, incident=wave)
    return system.operator.matrix, rhs


def _well_conditioned(rng, m):
    A = np.eye(m, dtype=complex)
    A += 0.2 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m)
    return A


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_gmres_matches_direct_solve(m, seed):
    rng = np.random.default_rng(seed)
    A = _well_conditioned(rng, m)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    rep = gmres(A, b, tol=1e-12)
    ref = lu_solve(A, b)
    assert rep.converged
    assert rep.iterations <= m
    assert np.linalg.norm(rep.x - ref.x) < 1e-9 * np.linalg.norm(ref.x)


def test_residual_is_rhs_relative(rng):
    A = _well_conditioned(rng, 25)
    b = rng.standard_normal(25) + 0j
    rep = gmres(A, b, tol=1e-10)
    true_res = np.linalg.norm(A @ rep.x - b) / np.linalg.norm(b)
    assert rep.residual == pytest.approx(true_res, abs=1e-12)
    assert rep.residual <= 1e-10


def test_iteration_count_matches_scipy(rng):
    scipy_sparse = pytest.importorskip("scipy.sparse.linalg")
    A = _well_conditioned(rng, 60)
    A += np.diag(np.linspace(0, 1.5, 60)).astype(complex)
    b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    rep = gmres(A, b, tol=1e-8)
    count = [0]
    scipy_sparse.gmres(A, b, rtol=1e-8, restart=300, maxiter=1,
                       callback=lambda r: count.__setitem__(0, count[0] + 1),
                       callback_type="pr_norm")
    assert rep.iterations == count[0]


def test_maxiter_and_convergence_flag(rng):
    A = _well_conditioned(rng, 30) + np.diag(np.linspace(0, 3, 30))
    b = rng.standard_normal(30) + 0j
    rep = gmres(A, b, tol=1e-14, maxiter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.reason == "maxiter"
    full = gmres(A, b, tol=1e-12, maxiter=30)
    assert full.converged
    assert full.reason == "tol"


@pytest.mark.parametrize("maxiter", [-1, 0, 2.5, "3"])
def test_bad_maxiter_is_rejected(maxiter):
    with pytest.raises(ValueError, match="maxiter"):
        gmres(np.eye(3), np.ones(3), maxiter=maxiter)


def test_residual_history(rng):
    A = _well_conditioned(rng, 40) + np.diag(np.linspace(0, 2, 40))
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for maxiter in (3, None):
        rep = gmres(A, b, tol=1e-12, maxiter=maxiter)
        history = np.array(rep.history)
        assert len(history) == rep.iterations
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] == rep.residual


def test_cavity_counts_are_pinned(cavity):
    A, rhs = cavity
    counts = {pol: [gmres(A, rhs[pol, deg], tol=1e-8).iterations
                    for deg in range(0, 360, 30)] for pol in "PS"}
    assert counts == CAVITY_COUNTS


def test_history_is_the_true_residual(cavity):
    # the rotated right-hand side tracks ||b - A x_k|| / ||b|| at every step
    A, rhs = cavity
    b = rhs["S", 30]
    history = gmres(A, b, tol=1e-8).history
    for k in (1, 2, 10, 40, 90):
        rep = gmres(A, b, tol=1e-8, maxiter=k)
        true_res = np.linalg.norm(b - A @ rep.x) / np.linalg.norm(b)
        assert rep.history == history[:k]
        assert abs(history[k - 1] - true_res) < 1e-10


@pytest.mark.parametrize("A, b", [
    ([[0, 1], [0, 0]], [1, 0]),
    (np.zeros((3, 3)), np.ones(3)),
])
def test_singular_breakdown_stops_unconverged(A, b):
    rep = gmres(A, b)
    assert rep.reason == "breakdown"
    assert not rep.converged
    assert rep.iterations == 0 and rep.history == ()
    assert rep.residual == 1.0
    assert np.all(rep.x == 0.0)


def test_gmres_applies_any_operand_with_matmul(rng):
    n = 8
    values = (np.eye(2) + 0.3 * (rng.standard_normal((2 * n + 1, 2, 2))
                                 + 1j * rng.standard_normal((2 * n + 1, 2, 2))))
    sym = Symbol(n_max=n, values=values)
    b = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
    by_fft = gmres(sym, b, tol=1e-10)
    dense = gmres(symbol_matrix(sym, n), b, tol=1e-10)
    assert by_fft.iterations == dense.iterations > 2
    assert np.linalg.norm(by_fft.x - dense.x) < 1e-12 * np.linalg.norm(dense.x)


def test_storage_grows_with_the_iterations_run(rng):
    # 1024 unknowns, converged in under 64 iterations: the basis, H and the
    # rotations take O(k N), about 1 MiB here, not the 2 x 16.8 MB of a
    # basis and an H sized for maxiter = N (32.1 MiB measured that way).
    N = 1024
    A = np.eye(N) + 0.3 * (rng.standard_normal((N, N))
                           + 1j * rng.standard_normal((N, N))) / np.sqrt(2 * N)
    b = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    tracemalloc.start()
    try:
        report = gmres(A, b, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations < 64
    assert peak <= 2 * 2**20, peak / 2**20
    assert np.linalg.norm(A @ report.x - b) <= 1e-11 * np.linalg.norm(b)


def test_exact_solution_in_few_iterations():
    # diagonal matrix with k distinct eigenvalues: GMRES converges in <= k steps
    d = np.repeat([1.0, 2.0, 3.0], 10).astype(complex)
    A = np.diag(d)
    b = np.ones(30, dtype=complex)
    rep = gmres(A, b, tol=1e-13)
    assert rep.converged and rep.iterations <= 3


def test_zero_rhs():
    A = np.eye(4, dtype=complex)
    rep = gmres(A, np.zeros(4, dtype=complex), tol=1e-10)
    assert rep.converged
    assert rep.history == () and rep.reason == "tol"
    assert np.linalg.norm(rep.x) == 0.0


def test_lu_solve_report():
    rng = np.random.default_rng(0)
    A = _well_conditioned(rng, 12)
    b = rng.standard_normal(12) + 0j
    rep = lu_solve(A, b)
    assert rep.method == "lu"
    assert rep.history == () and rep.reason == "tol"
    assert np.linalg.norm(A @ rep.x - b) < 1e-12
