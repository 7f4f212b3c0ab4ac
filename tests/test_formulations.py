"""Formulation tests against manufactured solutions.

Oracle: if the "incident" field radiates from a point source placed INSIDE
the obstacle, the exterior scattered field equals minus that source field
everywhere outside (uniqueness), so every formulation must reproduce the
analytic point-source far field.  Besides: the one-material systems against
their formulas, and the memory the ICFIER assembly takes.
"""

import tracemalloc

import numpy as np
import pytest

from elastobie import (assemble_ddm, assemble_dirichlet, assemble_neumann,
                       assemble_transmission, eps_inf, eval_potential,
                       far_field, lu_solve, make_curve, make_material,
                       plane_wave, point_source, reconstruct_fields,
                       sample_grid, trace_and_traction)
from elastobie.formulations import boundary_operators, calderon_matrix
from elastobie.multipliers import ps_dtn
from elastobie.harness import _point_source_far_field
from elastobie.postprocess import default_directions
from elastobie.quadrature import flatten_density

OMEGA = 4.0


@pytest.fixture(scope="module")
def grid():
    return sample_grid(make_curve("starfish"), 48)


@pytest.fixture(scope="module")
def mat():
    return make_material(lam=2.0, mu=1.0, omega=OMEGA)


@pytest.fixture(scope="module")
def source(mat):
    return point_source(mat, [0.1, -0.2], [1.0, 0.7])


@pytest.fixture(scope="module")
def source_ff(mat):
    angles, dirs = default_directions()
    return _point_source_far_field(mat, np.array([0.1, -0.2]),
                                   np.array([1.0, 0.7]), angles, dirs)


def _negate(ff):
    return type(ff)(angles=ff.angles, directions=ff.directions,
                    up=-ff.up, us=-ff.us)


@pytest.mark.parametrize("kind,coupling", [
    ("CFIE", None), ("CFIE", 1.0), ("CFIER", None)])
def test_dirichlet_formulations_reproduce_point_source(
        grid, mat, source, source_ff, kind, coupling):
    system = assemble_dirichlet(kind, mat, grid, coupling=coupling,
                                incident=source)
    rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                              system.rhs).x)
    assert eps_inf(far_field(rep), _negate(source_ff)) < 5e-7


@pytest.mark.parametrize("kind", ["CFIE", "CFIER"])
def test_neumann_formulations_reproduce_point_source(
        grid, mat, source, source_ff, kind):
    system = assemble_neumann(kind, mat, grid, incident=source)
    rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                              system.rhs).x)
    assert eps_inf(far_field(rep), _negate(source_ff)) < 5e-7


def test_neumann_dcfier_agrees_with_cfier_on_plane_wave(grid, mat):
    # DCFIER is a direct formulation on the total-field trace; its
    # reconstruction u_s = DL g assumes the incident field is regular inside
    # the obstacle, so the oracle is a plane wave cross-checked against the
    # indirect CFIER solve rather than the interior-source trick above.
    inc = plane_wave(mat, [0.0, -1.0], [0.0, -1.0])
    ffs = []
    for kind in ("CFIER", "DCFIER"):
        system = assemble_neumann(kind, mat, grid, incident=inc)
        rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                                  system.rhs).x)
        ffs.append(far_field(rep))
    assert eps_inf(ffs[0], ffs[1]) < 1e-6


def test_transmission_icfier_reproduces_manufactured_pair(grid):
    # The indirect ansatz solves for any prescribed Cauchy-data jumps, so it
    # admits a fully manufactured pair: exterior field = source inside,
    # interior field = source outside.  (The direct formulations additionally
    # require the data to be a genuine incident field -- tested below.)
    mp = make_material(lam=1.0, mu=1.0, omega=OMEGA)
    mm = make_material(lam=2.0, mu=8.0, omega=OMEGA)
    src_plus = point_source(mp, [0.1, -0.2], [1.0, 0.7])   # radiating u+
    src_minus = point_source(mm, [2.5, 1.5], [0.4, -1.0])  # regular inside u-
    cd_p = trace_and_traction(src_plus, grid, mp)
    cd_m = trace_and_traction(src_minus, grid, mm)
    # transmission jumps: (gamma u_inc, T+ u_inc) = (g- - g+, t- - t+)
    inc = (cd_m.trace - cd_p.trace, cd_m.traction - cd_p.traction)
    system = assemble_transmission("ICFIER", mp, mm, grid, cauchy_data=inc)
    rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                              system.rhs).x)
    angles, dirs = default_directions()
    ref = _point_source_far_field(mp, np.array([0.1, -0.2]),
                                  np.array([1.0, 0.7]), angles, dirs)
    assert eps_inf(far_field(rep, region="exterior"), ref) < 1e-7
    pts = np.array([[0.2, 0.1], [-0.3, -0.1]])
    with pytest.warns(UserWarning, match="within 5 grid spacings"):
        u_int = eval_potential(rep, pts, region="interior")
    scale = np.abs(src_minus.u(pts)).max()
    assert np.abs(u_int - src_minus.u(pts)).max() < 5e-6 * scale


def test_transmission_formulations_agree_on_plane_wave(grid):
    # All four formulations solve the same plane-wave scattering problem:
    # far fields and interior fields must agree pairwise.
    mp = make_material(lam=1.0, mu=1.0, omega=OMEGA)
    mm = make_material(lam=2.0, mu=8.0, omega=OMEGA)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    pts = np.array([[0.2, 0.1], [-0.3, -0.1]])
    ffs, interiors = [], []
    for kind in ("SC", "KR", "DCFIER", "ICFIER"):
        system = assemble_transmission(kind, mp, mm, grid, incident=inc)
        rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                                  system.rhs).x)
        ffs.append(far_field(rep, region="exterior"))
        with pytest.warns(UserWarning, match="within 5 grid spacings"):
            interiors.append(eval_potential(rep, pts, region="interior"))
    scale = max(np.abs(u).max() for u in interiors)
    for i in range(1, 4):
        assert eps_inf(ffs[0], ffs[i]) < 1e-7, i
        assert np.abs(interiors[0] - interiors[i]).max() < 1e-6 * scale, i


def test_one_material_systems_equal_their_formulas_in_their_own_memory():
    # The documented systems with a dense 1/2 I, in the same order of
    # operations: the assemblers add 1/2 on a diagonal in place and form
    # the products in the operators' memory, to the same bits.  A system
    # is a fresh C-ordered array, not a view that keeps V, K and W alive.
    grid = sample_grid(make_curve("cavity"), 32)
    mat = make_material(lam=2.0, mu=1.0, omega=10.0)
    inc = plane_wave(mat, [1.0, 0.0], [1.0, 0.0])
    ops = boundary_operators(mat, grid)
    K, V, W = ops["K"], ops["V"], ops["W"]
    half = 0.5 * np.eye(2 * grid.size)
    eta_d, eta_n = mat.eta_dirichlet, mat.eta_neumann
    regD = ps_dtn(mat, "exterior", kappa=mat.kappa, n_max=grid.n)
    regN = regD.inv()
    cases = [(assemble_dirichlet, "CFIE", half + K - 1j * eta_d * V),
             (assemble_dirichlet, "CFIER", half + K - V @ regD),
             (assemble_neumann, "CFIE", half - K.T + 1j * eta_n * W),
             (assemble_neumann, "CFIER", half - K.T + W @ regN),
             (assemble_neumann, "DCFIER", half - K + regN @ W)]
    for assemble, kind, want in cases:
        A = assemble(kind, mat, grid, incident=inc).operator.matrix
        assert np.array_equal(A, want), kind
        assert A.flags.owndata and A.flags.c_contiguous, kind


def test_kr_and_sc_assembly_keep_to_their_system():
    # The transmission-starfish preset's KR cell at omega = 10, n = 128: one
    # pass over the node pairs writes C- - C+ (or C+ + C-) straight into the
    # 16 MiB system, plus at most 5.5 MiB (20.0 MiB measured, against
    # 34.9 MiB when C+ and C- were built as two matrices and combined).
    mp = make_material(lam=1.0, mu=1.0, omega=10.0)
    mm = make_material(lam=2.0, mu=8.0, omega=10.0)
    grid = sample_grid(make_curve("starfish"), 128)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    for kind in ("KR", "SC"):
        tracemalloc.start()
        try:
            system = assemble_transmission(kind, mp, mm, grid, incident=inc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.operator.matrix.nbytes == 16 * 2**20
        assert peak <= 16 * 2**20 + 5.5 * 2**20, (kind, peak / 2**20)


def test_icfier_assembly_keeps_to_its_two_calderon_matrices():
    # The transmission-starfish preset's ICFIER cell at omega = 10, n = 128:
    # C+ + C- and C- (16 MiB each), written in one pass over the node pairs,
    # plus at most 7.5 MiB.  S R is formed in S's memory (38.2 MiB
    # measured, as when C+ and C- were built one after the other; 45.3 MiB
    # when all pairs were evaluated at once and 66.2 MiB when S @ R also
    # made a conjugate-transposed copy of S and a second array for its
    # result).
    mp = make_material(lam=1.0, mu=1.0, omega=10.0)
    mm = make_material(lam=2.0, mu=8.0, omega=10.0)
    grid = sample_grid(make_curve("starfish"), 128)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    calderon_bytes = (4 * grid.size) ** 2 * 16
    tracemalloc.start()
    try:
        system = assemble_transmission("ICFIER", mp, mm, grid, incident=inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.operator.matrix.nbytes == calderon_bytes == 16 * 2**20
    assert peak <= 2 * calderon_bytes + 7.5 * 2**20, peak / 2**20


def test_neumann_assembly_keeps_to_its_three_matrices():
    # The multistatic benchmark's operator (cavity, (lam, mu) = (2, 1),
    # omega = 20, n = 128): K, W and the system (4 MiB each) plus at most
    # 1.5 MiB.  W's term is formed in W's memory before the system is
    # allocated (CFIER 12.2 MiB measured, against 14.1 MiB when the system
    # came first and 21.3 MiB when all pairs were evaluated at once).
    mat = make_material(lam=2.0, mu=1.0, omega=20.0)
    grid = sample_grid(make_curve("cavity"), 128)
    inc = plane_wave(mat, [1.0, 0.0], [1.0, 0.0])
    for kind in ("CFIE", "CFIER", "DCFIER"):
        tracemalloc.start()
        try:
            system = assemble_neumann(kind, mat, grid, incident=inc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.operator.matrix.nbytes == 4 * 2**20
        assert peak <= 3 * 4 * 2**20 + 1.5 * 2**20, (kind, peak / 2**20)


def test_calderon_acts_as_half_on_exterior_and_interior_data(grid, mat):
    C = calderon_matrix(mat, grid)
    # exterior (radiating) Cauchy data: source inside -> C q = +1/2 q
    src_in = point_source(mat, [0.1, -0.2], [1.0, 0.7])
    cd = trace_and_traction(src_in, grid, mat)
    q = np.concatenate([flatten_density(cd.trace),
                        flatten_density(cd.traction)])
    assert np.linalg.norm(C @ q - 0.5 * q) < 5e-6 * np.linalg.norm(q)
    # interior (regular) Cauchy data: source outside -> C q = -1/2 q
    src_out = point_source(mat, [2.5, 1.5], [0.4, -1.0])
    cd = trace_and_traction(src_out, grid, mat)
    q = np.concatenate([flatten_density(cd.trace),
                        flatten_density(cd.traction)])
    assert np.linalg.norm(C @ q + 0.5 * q) < 5e-6 * np.linalg.norm(q)


def test_discrete_dtn_maps_trace_to_traction(grid, mat, discrete_dtn_exterior):
    Y = discrete_dtn_exterior(mat, grid)
    src = point_source(mat, [0.1, -0.2], [1.0, 0.7])
    cd = trace_and_traction(src, grid, mat)
    g = flatten_density(cd.trace)
    t = flatten_density(cd.traction)
    assert np.linalg.norm(Y @ g - t) < 1e-5 * np.linalg.norm(t)


def test_error_paths(grid, mat):
    wave = plane_wave(mat, [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        assemble_dirichlet("MFIE", mat, grid, incident=wave)
    with pytest.raises(ValueError):
        assemble_dirichlet("CFIE", mat, grid)  # no data at all
    with pytest.raises(ValueError):
        assemble_dirichlet("CFIE", mat, grid, coupling=0.0, incident=wave)
    with pytest.raises(ValueError):
        assemble_neumann("XFIE", mat, grid, incident=wave)
    with pytest.raises(ValueError):
        assemble_transmission("XX", mat, mat, grid, incident=wave)
    with pytest.raises(ValueError):
        assemble_transmission("KR", mat, mat, grid)


def _no_assembly(*args, **kwargs):
    raise AssertionError("operators assembled for a formulation that cannot run")


def test_unknown_dirichlet_formulation_fails_before_assembly(grid, mat, monkeypatch):
    monkeypatch.setattr("elastobie.formulations.boundary_operators", _no_assembly)
    with pytest.raises(ValueError, match="'MFIE'"):
        assemble_dirichlet("MFIE", mat, grid,
                           incident=plane_wave(mat, [1.0, 0.0], [1.0, 0.0]))


def test_unknown_transmission_formulation_fails_before_assembly(grid, mat, monkeypatch):
    monkeypatch.setattr("elastobie.formulations.boundary_operators", _no_assembly)
    with pytest.raises(ValueError, match="'XX'"):
        assemble_transmission("XX", mat, mat, grid,
                              incident=plane_wave(mat, [1.0, 0.0], [1.0, 0.0]))


def _kind_system(kind, variant, mp, mm, grid, inc):
    if kind == "dirichlet":
        return assemble_dirichlet(variant, mp, grid, incident=inc)
    if kind == "neumann":
        return assemble_neumann(variant, mp, grid, incident=inc)
    if kind == "transmission":
        return assemble_transmission(variant, mp, mm, grid, incident=inc)
    return assemble_ddm(mp, mm, grid, incident=inc)


@pytest.mark.parametrize("kind,variant", [
    ("dirichlet", "CFIE"), ("dirichlet", "CFIER"),
    ("neumann", "CFIE"), ("neumann", "CFIER"), ("neumann", "DCFIER"),
    ("transmission", "SC"), ("transmission", "KR"),
    ("transmission", "DCFIER"), ("transmission", "ICFIER"),
    ("ddm", "OS")])
def test_every_system_reconstructs_its_documented_terms(kind, variant):
    grid = sample_grid(make_curve("circle"), 8)
    mp = make_material(lam=1.0, mu=1.0, omega=OMEGA)
    mm = make_material(lam=2.0, mu=8.0, omega=OMEGA)
    inc = plane_wave(mp, [1.0, 0.0], [1.0, 0.0])
    system = _kind_system(kind, variant, mp, mm, grid, inc)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(system.rhs.size) + 1j * rng.standard_normal(system.rhs.size)
    rep = reconstruct_fields(system, x)
    if kind in ("dirichlet", "neumann"):
        expected = [("DL", mp, "exterior"), ("SL", mp, "exterior")]
        if variant == "DCFIER":
            expected = expected[:1]
    else:
        expected = [("DL", mp, "exterior"), ("SL", mp, "exterior"),
                    ("DL", mm, "interior"), ("SL", mm, "interior")]
    got = sorted(((t.layer, t.material, t.region) for t in rep.terms),
                 key=lambda term: (term[2], term[0]))
    assert got == expected
    for term in rep.terms:
        assert term.grid is grid
        assert term.density.shape == (grid.size, 2)
        assert np.isfinite(term.density).all()
