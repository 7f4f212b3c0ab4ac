"""Optimized-Schwarz tests: Robin-to-Robin maps against manufactured
solutions (Robin data and Cauchy data), against their dense construction and
against the subdomain Robin systems, the principal symbols of B+ and B-,
invertibility over a frequency scan, independence of kappa, and the memory
one map keeps."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from elastobie import (assemble_ddm, assemble_transmission, eps_inf,
                       far_field, gmres, lu_solve, make_curve, make_material,
                       plane_wave, point_source, reconstruct_fields,
                       sample_grid, trace_and_traction)
from elastobie.ddm import rtr_exterior, rtr_interior
from elastobie.multipliers import transmission_operators
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


def _sides(mats, Up, Um):
    """(material, side, Upsilon, Upsilon_out, map builder) per subdomain."""
    mp, mm = mats
    return ((mp, +1, Up, Um, lambda g: rtr_exterior(mp, g, Up, Um)),
            (mm, -1, Um, Up, lambda g: rtr_interior(mm, g, Up, Um)))


@pytest.mark.parametrize("side", [+1, -1], ids=["bplus", "bminus"])
def test_principal_symbol_is_identity(mats, rtr_principal_symbol, side):
    mp, mm = mats
    sym = rtr_principal_symbol(mp, mm, mm.kappa, side, n_max=64)
    for k in range(-64, 65):
        assert np.allclose(sym.at(k), np.eye(2), atol=1e-12)


def test_subdomain_equations_match_the_block_construction(
        grid, mats, robin, dense_subdomain_equation, monkeypatch):
    # Each map factors B.T in place, so B is read as it is handed to
    # lu_factor and compared with B written out with dense multipliers.
    lu_factor = scipy.linalg.lu_factor
    factored = []

    def recording_lu_factor(a, **kwargs):
        system = a.T.copy()  # B, before it is factored
        factored.append((system, lu_factor(a, **kwargs), a))
        return factored[-1][1]

    for mat, side, ups, ups_out, build in _sides(mats, *robin):
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "lu_factor", recording_lu_factor)
            build(grid)
        system, (lu, _), a = factored.pop()
        _, B = dense_subdomain_equation(mat, grid, side, ups, ups_out)
        err = np.linalg.norm(system - B) / np.linalg.norm(B)
        assert err <= 1e-13, (side, err)
        assert np.shares_memory(lu, a)  # factored in place, no copy


@pytest.fixture(scope="module")
def starfish64():
    return sample_grid(make_curve("starfish"), 64)


@pytest.fixture(scope="module")
def preset_mats():
    """The transmission presets' materials at omega = 10."""
    return (make_material(lam=1.0, mu=1.0, omega=10.0),
            make_material(lam=2.0, mu=8.0, omega=10.0))


def test_matrix_free_maps_match_the_dense_construction(
        starfish64, preset_mats, dense_subdomain_equation):
    # Oracle: X = D B^-1 and S = Upsilon_out X_trace + X_traction as dense
    # matrices.
    grid = starfish64
    mp, mm = preset_mats
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    for mat, side, ups, ups_out, build in _sides(preset_mats, Up, Um):
        D, B = dense_subdomain_equation(mat, grid, side, ups, ups_out)
        X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), D.T, trans=1).T
        S = build(grid)
        for got, ref in ((S @ I, ups_out @ X[:L] + X[L:]),
                         (S.cauchy_data(I), X)):
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (side, err)


def test_gmres_on_matrix_free_and_dense_schwarz_systems_agree(starfish64,
                                                               preset_mats):
    mp, mm = preset_mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    system = assemble_ddm(mp, mm, starfish64, incident=inc)
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
    mp, _ = mats
    x = np.ones(2 * grid.size, dtype=complex)
    for *_, build in _sides(mats, *robin):
        assert np.all(np.isfinite(build(grid) @ x))
    system = assemble_ddm(*mats, grid,
                          incident=plane_wave(mp, [1.0, 0.0], [1.0, 0.0]))
    assert np.all(np.isfinite(system.operator @ system.rhs))


def test_subdomain_maps_keep_less_than_their_calderon_matrices(preset_mats):
    # A map keeps D (2L x L) and the LU factors of B (L x L): 12 MiB at
    # n=128, 3/4 of its 16 MiB Calderon matrix, which it does not keep.
    # The second Calderon build, next to the first map, sets the assembly's
    # peak: 36.3 MiB measured with the pairs evaluated in row blocks, against
    # 41.3 MiB when all pairs were evaluated at once and 53.1 MiB when each
    # multiplier product also made a conjugate-transposed copy of its column
    # half and a second array for its result.
    mp, mm = preset_mats
    grid = sample_grid(make_curve("starfish"), 128)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    calderon_bytes = (4 * grid.size) ** 2 * 16  # complex, 2L x 2L
    Up, Um = transmission_operators(mp, mm, mm.kappa, n_max=grid.n)
    tracemalloc.start()
    try:
        assemble_ddm(mp, mm, grid, incident=inc)
        peak = tracemalloc.get_traced_memory()[1]
        for *_, build in _sides(preset_mats, Up, Um):
            before = tracemalloc.get_traced_memory()[0]
            S = build(grid)
            kept = tracemalloc.get_traced_memory()[0] - before
            # beyond D and B: the pivots (L int32) and the map's objects
            assert kept <= 0.75 * calderon_bytes + 2**14, kept / 2**20
            del S
    finally:
        tracemalloc.stop()
    assert peak <= 37.5 * 2**20, peak / 2**20


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


def test_exterior_rtr_against_manufactured_solution(grid, mats, robin):
    # u+ = field of a source INSIDE is a radiating exterior Navier solution.
    mp, mm = mats
    Up, Um = robin
    S = rtr_exterior(mp, grid, Up, Um)
    cd = trace_and_traction(point_source(mp, [0.1, -0.2], [1.0, 0.7]),
                            grid, mp)
    g, t = flatten_density(cd.trace), flatten_density(cd.traction)
    lam_in = t + Up @ g
    lam_out = t + Um @ g
    assert np.linalg.norm(S @ lam_in - lam_out) \
        < 1e-6 * np.linalg.norm(lam_out)


# Per curve: a source point inside it (the exterior field's source) and
# the bound on the Cauchy data's relative error at n = 64, where the maps
# measured at most 4.5e-8 (circle), 4.9e-9 (starfish) and 1.4e-5 (cavity).
CURVES = {"circle": ([0.1, -0.2], 1e-6),
          "starfish": ([0.1, -0.2], 1e-6),
          "cavity": ([0.8, 0.3], 1e-4)}


@pytest.mark.parametrize("side", [+1, -1], ids=["exterior", "interior"])
@pytest.mark.parametrize("curve", list(CURVES))
def test_cauchy_data_of_manufactured_solutions(mats, curve, side):
    # cauchy_data is what reconstruct_fields reads: driven by the Robin
    # datum of an exact subdomain solution, it must return that solution's
    # trace and traction, each to the curve's bound.
    inside, tol = CURVES[curve]
    grid = sample_grid(make_curve(curve), 64)
    Up, Um = transmission_operators(*mats, mats[1].kappa, n_max=grid.n)
    mat, _, ups, _, build = _sides(mats, Up, Um)[0 if side > 0 else 1]
    source = inside if side > 0 else [2.5, 1.5]
    cd = trace_and_traction(point_source(mat, source, [1.0, 0.7]), grid, mat)
    g, t = flatten_density(cd.trace), flatten_density(cd.traction)
    got_g, got_t = np.split(build(grid).cauchy_data(t + ups @ g), 2)
    assert np.linalg.norm(got_g - g) < tol * np.linalg.norm(g)
    assert np.linalg.norm(got_t - t) < tol * np.linalg.norm(t)


def test_rtr_maps_agree_with_robin_systems_on_smooth_data(
        grid, mats, robin, dense_robin_map):
    # The second-kind maps and the subdomain Robin systems discretize the
    # same maps; they agree on the action applied to smooth (band-limited)
    # densities, not on raw matrix entries in the unresolved high modes.
    t = grid.t
    g = np.zeros(2 * grid.size, dtype=complex)
    g[0::2] = np.exp(2j * t) + 0.3 * np.cos(t)
    g[1::2] = np.exp(-3j * t)
    for mat, side, ups, ups_out, build in _sides(mats, *robin):
        ref = dense_robin_map(mat, grid, side, ups, ups_out)[0] @ g
        assert np.linalg.norm(build(grid) @ g - ref) \
            < 1e-5 * np.linalg.norm(ref), side


def test_schwarz_system_is_well_conditioned(grid, mats):
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    system = assemble_ddm(mp, mm, grid, incident=inc)
    L = 2 * grid.size
    M = system.operator @ np.eye(2 * L)
    assert M.shape == (2 * L, 2 * L)
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    assert smin > 1e-3


def test_invertibility_over_a_frequency_scan(dense_subdomain_equation,
                                              dense_robin_map):
    # The ansatz u_s = s (DL[a] - SL[b]) could make B singular at a
    # frequency where the Robin system is not; on the circle neither B+ nor
    # B- comes near singular for omega in [1, 12], and the Schwarz matrix
    # has the smallest singular value of the Robin systems' one.
    grid = sample_grid(make_curve("circle"), 32)
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    for omega in np.linspace(1.0, 12.0, 23):
        mats = (make_material(lam=1.0, mu=1.0, omega=omega),
                make_material(lam=2.0, mu=8.0, omega=omega))
        Up, Um = transmission_operators(*mats, mats[1].kappa, n_max=grid.n)
        robin = []
        for mat, side, ups, ups_out, _ in _sides(mats, Up, Um):
            B = dense_subdomain_equation(mat, grid, side, ups, ups_out)[1]
            smin_b = np.linalg.svd(B, compute_uv=False)[-1]
            assert smin_b > 1e-2, (omega, side, smin_b)
            robin.append(dense_robin_map(mat, grid, side, ups, ups_out)[0])
        system = assemble_ddm(*mats, grid,
                              incident=plane_wave(mats[0], [1.0, 0.0],
                                                  [1.0, 0.0]))
        smin = np.linalg.svd(system.operator @ np.eye(2 * L),
                             compute_uv=False)[-1]
        ref = np.linalg.svd(np.block([[I, -robin[1]], [-robin[0], I]]),
                            compute_uv=False)[-1]
        assert abs(smin - ref) <= 1e-6 * ref, (omega, smin, ref)


def test_ddm_far_field_matches_direct_transmission_solve(grid, mats):
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    ddm = assemble_ddm(mp, mm, grid, incident=inc)
    M = ddm.operator @ np.eye(len(ddm.rhs))
    rep_ddm = reconstruct_fields(ddm, lu_solve(M, ddm.rhs).x)
    kr = assemble_transmission("KR", mp, mm, grid, incident=inc)
    rep_kr = reconstruct_fields(kr, lu_solve(kr.operator.matrix, kr.rhs).x)
    assert eps_inf(far_field(rep_ddm), far_field(rep_kr)) < 1e-6


def test_ddm_far_field_does_not_depend_on_kappa(grid, mats):
    # kappa only chooses the transmission operators; the exterior and the
    # interior material's wavenumber and a third value solve the same
    # transmission problem.
    mp, mm = mats
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    kr = assemble_transmission("KR", mp, mm, grid, incident=inc)
    ref = far_field(reconstruct_fields(
        kr, lu_solve(kr.operator.matrix, kr.rhs).x))
    for kappa in (mp.kappa, mm.kappa, 1.5 * mm.kappa):
        ddm = assemble_ddm(mp, mm, grid, kappa=kappa, incident=inc)
        M = ddm.operator @ np.eye(len(ddm.rhs))
        rep = reconstruct_fields(ddm, lu_solve(M, ddm.rhs).x)
        assert eps_inf(far_field(rep), ref) < 1e-6, kappa


def test_error_paths(grid, mats):
    mp, mm = mats
    with pytest.raises(ValueError):
        assemble_ddm(mp, mm, grid)  # no data
