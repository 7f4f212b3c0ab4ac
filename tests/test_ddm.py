"""Optimized-Schwarz tests: Robin-to-Robin maps against manufactured
solutions and against their dense construction, the single-equation
principal symbol, system invertibility, and the memory of one map."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from elastobie import (assemble_ddm, assemble_transmission, eps_inf,
                       far_field, gmres, lu_solve, make_curve, make_material,
                       plane_wave, point_source, reconstruct_fields,
                       sample_grid, trace_and_traction)
from elastobie.ddm import EPS, _robin_map, rtr_exterior, rtr_interior
from elastobie.formulations import boundary_operators, calderon_matrix
from elastobie.multipliers import (make_symbol, ps_dtn, symbol_matrix,
                                   transmission_operators)
from elastobie.quadrature import flatten_density

OMEGA = 4.0


@pytest.fixture(scope="module")
def grid():
    return sample_grid(make_curve("starfish"), 48)


@pytest.fixture(scope="module")
def mats():
    return (make_material(lam=1.0, mu=1.0, omega=OMEGA),   # exterior (+)
            make_material(lam=2.0, mu=8.0, omega=OMEGA))   # interior (-)


@pytest.fixture(scope="module")
def robin(grid, mats):
    mp, mm = mats
    return transmission_operators(mp, mm, mm.kappa, n_max=grid.n)


def test_bplus_principal_symbol_is_identity(mats, bplus_principal_symbol):
    mp, mm = mats
    sym = bplus_principal_symbol(mp, mm, mm.kappa, n_max=64)
    for k in range(-64, 65):
        assert np.allclose(sym.at(k), np.eye(2), atol=1e-12)


def test_robin_systems_match_the_block_construction(grid, mats, robin,
                                                    monkeypatch):
    # Oracle: the interior and "plain" exterior Robin systems written out
    # block by block; _robin_map builds them in place in the Calderon matrix
    # and factors them there, so C is read as it is handed to lu_factor.
    mp, mm = mats
    Up, Um = robin
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    ops = boundary_operators(mm, grid)
    interior = np.block([
        [-0.5 * I - ops["K"], ops["V"]],
        [ops["W"] - symbol_matrix(Um, grid.n), -0.5 * I - ops["K"].T]])
    ops = boundary_operators(mp, grid)
    plain = np.block([
        [0.5 * I - ops["K"], ops["V"]],
        [ops["W"] + symbol_matrix(Up, grid.n), 0.5 * I - ops["K"].T]])
    lu_factor = scipy.linalg.lu_factor
    factored = []

    def recording_lu_factor(a, **kwargs):
        system = a.T.copy()  # the Robin system, before it is factored
        factored.append((system, lu_factor(a, **kwargs)))
        return factored[-1][1]

    for mat, side, ups, ups_out, A in ((mm, -1, Um, Up, interior),
                                       (mp, +1, Up, Um, plain)):
        C = calderon_matrix(mat, grid)
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "lu_factor", recording_lu_factor)
            S = _robin_map(C, side, ups, ups_out)
        system, (lu, _) = factored.pop()
        assert np.array_equal(system, A)
        assert np.shares_memory(lu, C)  # factored in place, no copy
        rhs = np.zeros((2 * L, L), dtype=complex)
        rhs[L:] = side * I
        X = scipy.linalg.lu_solve(lu_factor(A.T), rhs, trans=1)
        assert np.array_equal(S.cauchy_data(I), X)
        assert np.array_equal(S @ I, ups_out @ X[:L] + X[L:])
    assert np.array_equal(rtr_interior(mm, grid, Up, Um).cauchy_data(I),
                          _robin_map(calderon_matrix(mm, grid), -1, Um,
                                     Up).cauchy_data(I))


def _dense_rtr_maps(mp, mm, grid, Up, Um):
    """The maps S and Cauchy-data maps X as dense matrices: a block Robin
    solve with L right-hand sides and S = Upsilon_out X_top + X_bottom, and
    for "single" X = D B+^-1."""
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    Up_m, Um_m = symbol_matrix(Up, grid.n), symbol_matrix(Um, grid.n)
    vt = EPS * symbol_matrix((mm.beta * mm.delta) * Up.inv(), grid.n)
    robin = {}  # name: (A, rhs, Upsilon_out)
    for name, mat, side, ups, ups_out in (("interior", mm, -1, Um_m, Up),
                                          ("plain", mp, +1, Up_m, Um),
                                          ("eps", mp, +1, Up_m, Um)):
        ops = boundary_operators(mat, grid)
        A = np.block([[side * 0.5 * I - ops["K"], ops["V"]],
                      [ops["W"] + side * ups, side * 0.5 * I - ops["K"].T]])
        rhs = np.zeros((2 * L, L), dtype=complex)
        rhs[L:] = side * I
        if name == "eps":
            A[:L] += np.hstack([vt @ Up_m, vt])
            rhs[:L] = vt
        robin[name] = (A, rhs, ups_out)
    maps = {}
    for name, (A, rhs, ups_out) in robin.items():
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
        maps[name] = (ups_out @ X[:L] + X[L:], X)
    ps_p = ps_dtn(mp, "exterior", kappa=mm.kappa, n_max=grid.n)
    ps_m = ps_dtn(mm, "interior", kappa=mm.kappa, n_max=grid.n)
    Ros = (ps_p - ps_m).inv()
    C = calderon_matrix(mp, grid) + 0.5 * np.eye(2 * L)
    D = C[:, :L] @ Ros + C[:, L:] @ (ps_p @ Ros)
    B = D[L:] + Up @ D[:L]
    X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), D.T, trans=1).T
    maps["single"] = (Um @ X[:L] + X[L:], X)
    return maps


@pytest.fixture(scope="module")
def starfish64():
    return sample_grid(make_curve("starfish"), 64)


@pytest.fixture(scope="module")
def preset_mats():
    """The transmission presets' materials at omega = 10, where the interior
    Robin system needs row interchanges (at OMEGA it needs none)."""
    return (make_material(lam=1.0, mu=1.0, omega=10.0),
            make_material(lam=2.0, mu=8.0, omega=10.0))


def test_matrix_free_maps_match_the_dense_construction(starfish64,
                                                       preset_mats):
    mp, mm = preset_mats
    grid = starfish64
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    dense = _dense_rtr_maps(mp, mm, grid, Up, Um)
    maps = {v: rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant=v)
            for v in ("plain", "eps", "single")}
    maps["interior"] = rtr_interior(mm, grid, Up, Um)
    I = np.eye(2 * grid.size, dtype=complex)
    for name, S in maps.items():
        S_dense, X_dense = dense[name]
        for got, ref in ((S @ I, S_dense), (S.cauchy_data(I), X_dense)):
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (name, err)


@pytest.mark.parametrize("variant", ["plain", "eps", "single"])
def test_gmres_on_matrix_free_and_dense_schwarz_systems_agree(starfish64,
                                                               preset_mats,
                                                               variant):
    # no preset runs "eps" or "single"
    mp, mm = preset_mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    system = assemble_ddm(mp, mm, starfish64, incident=inc, variant=variant)
    M = system.operator @ np.eye(len(system.rhs))
    assert system.operator.shape == M.shape
    free = gmres(system.operator, system.rhs, tol=1e-8)
    dense = gmres(M, system.rhs, tol=1e-8)
    assert free.converged and free.iterations == dense.iterations == 35
    assert np.linalg.norm(free.x - dense.x) <= 1e-10 * np.linalg.norm(dense.x)


def test_no_schwarz_product_calls_lu_solve(grid, mats, robin, monkeypatch):
    # Every subdomain inverse is applied by two triangular solves and the
    # row swaps; lu_solve on one right-hand side costs about twice that.
    def no_lu_solve(*args, **kwargs):
        raise AssertionError("lu_solve called in a Schwarz product")

    monkeypatch.setattr(scipy.linalg, "lu_solve", no_lu_solve)
    mp, mm = mats
    Up, Um = robin
    x = np.ones(2 * grid.size, dtype=complex)
    for variant in ("plain", "eps", "single"):
        S = rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant=variant)
        assert np.all(np.isfinite(S @ x)), variant
    system = assemble_ddm(mp, mm, grid,
                          incident=plane_wave(mp, [1.0, 0.0], [1.0, 0.0]),
                          variant="single")
    assert np.all(np.isfinite(system.operator @ system.rhs))


def test_robin_map_allocates_little_beyond_its_calderon_matrix(preset_mats):
    # The Robin system is built and factored in the Calderon matrix's own
    # memory (16 MiB at n=128); forming it once cost 32 MiB more, of which
    # 16 MiB was the Fortran-ordered copy lu_factor made of it.
    mp, mm = preset_mats
    grid = sample_grid(make_curve("starfish"), 128)
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    C = calderon_matrix(mm, grid)
    tracemalloc.start()
    try:
        _robin_map(C, -1, Um, Up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak / 2**20


def test_eps_vtilde_is_beta_delta_times_inverse_upsilon_plus(
        mats, identity_symbol):
    # Vtilde = beta- Lambda_kappa (1/2 I - alpha- H) = beta- delta- Upsilon_+^{-1}
    mp, mm = mats
    n_max = 64
    Up, _ = transmission_operators(mp, mm, mm.kappa, n_max=n_max)
    H = make_symbol("H", n_max=n_max)
    Lk = make_symbol("LambdaKappa", kappa=mm.kappa, n_max=n_max)
    vtilde = mm.beta * (Lk @ (0.5 * identity_symbol(n_max) - mm.alpha * H))
    ident = (mm.beta * mm.delta) * Up.inv()
    assert np.abs(vtilde.values - ident.values).max() < 1e-14


def test_interior_rtr_against_manufactured_solution(grid, mats, robin):
    # u- = field of a source OUTSIDE is a regular interior Navier solution;
    # S- must map its incoming Robin trace to the outgoing one.
    mp, mm = mats
    Up, Um = robin
    S = rtr_interior(mm, grid, Up, Um)
    cd = trace_and_traction(point_source(mm, [2.5, 1.5], [0.4, -1.0]),
                            grid, mm)
    g, t = flatten_density(cd.trace), flatten_density(cd.traction)
    lam_in = t + Um @ g     # data S- is driven by
    lam_out = t + Up @ g    # data S- must produce
    assert np.linalg.norm(S @ lam_in - lam_out) \
        < 5e-6 * np.linalg.norm(lam_out)


@pytest.mark.parametrize("variant", ["plain", "eps", "single"])
def test_exterior_rtr_against_manufactured_solution(grid, mats, robin, variant):
    # u+ = field of a source INSIDE is a radiating exterior Navier solution.
    mp, mm = mats
    Up, Um = robin
    S = rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant=variant)
    cd = trace_and_traction(point_source(mp, [0.1, -0.2], [1.0, 0.7]),
                            grid, mp)
    g, t = flatten_density(cd.trace), flatten_density(cd.traction)
    lam_in = t + Up @ g
    lam_out = t + Um @ g
    assert np.linalg.norm(S @ lam_in - lam_out) \
        < 1e-6 * np.linalg.norm(lam_out)


def test_exterior_rtr_variants_agree_on_smooth_data(grid, mats, robin):
    # The three discretizations of S+ agree on the action applied to smooth
    # (band-limited) densities; raw matrix entries differ in the unresolved
    # high modes, so the comparison must be action-based.
    mp, mm = mats
    Up, Um = robin
    maps = {v: rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant=v)
            for v in ("plain", "eps", "single")}
    t = grid.t
    g = np.zeros(2 * grid.size, dtype=complex)
    g[0::2] = np.exp(2j * t) + 0.3 * np.cos(t)
    g[1::2] = np.exp(-3j * t)
    ref = maps["plain"] @ g
    for v in ("eps", "single"):
        assert np.linalg.norm(maps[v] @ g - ref) \
            < 1e-5 * np.linalg.norm(ref)


def test_schwarz_system_is_well_conditioned(grid, mats):
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    system = assemble_ddm(mp, mm, grid, incident=inc)
    L = 2 * grid.size
    M = system.operator @ np.eye(2 * L)
    assert M.shape == (2 * L, 2 * L)
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    assert smin > 1e-3


def test_ddm_far_field_matches_direct_transmission_solve(grid, mats):
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    ddm = assemble_ddm(mp, mm, grid, incident=inc)
    M = ddm.operator @ np.eye(len(ddm.rhs))
    rep_ddm = reconstruct_fields(ddm, lu_solve(M, ddm.rhs).x)
    kr = assemble_transmission("KR", mp, mm, grid, incident=inc)
    rep_kr = reconstruct_fields(kr, lu_solve(kr.operator.matrix, kr.rhs).x)
    assert eps_inf(far_field(rep_ddm), far_field(rep_kr)) < 1e-6


def test_error_paths(grid, mats):
    mp, mm = mats
    with pytest.raises(ValueError):
        assemble_ddm(mp, mm, grid)  # no data
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    with pytest.raises(ValueError):
        rtr_exterior(mp, mm, grid, mm.kappa, Up, Um, variant="triple")


def test_unknown_variant_fails_before_assembly(grid, mats, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled for a variant that cannot run")

    monkeypatch.setattr("elastobie.formulations.boundary_operators",
                        no_assembly)
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="'triple'"):
        assemble_ddm(mp, mm, grid, incident=inc, variant="triple")
