"""Potential evaluation and far-field tests via Green's representation.

Oracle: for a radiating exterior solution u (point source inside the
curve), Green's formula gives u = DL(gamma u) - SL(T u) outside, so both
the near field and the far field of that representation must match the
analytic point-source values.
"""

import tracemalloc

import numpy as np
import pytest

import elastobie.postprocess as postprocess
from elastobie import (assemble_neumann, assemble_transmission, eps_inf,
                       eval_potential, far_field, lu_solve, make_curve,
                       make_material, plane_wave, point_source,
                       reconstruct_fields, sample_grid, trace_and_traction)
from elastobie.formulations import PotentialRepresentation, PotentialTerm
from elastobie.harness import _point_source_far_field
from elastobie.postprocess import _gammas, default_directions


@pytest.fixture(scope="module")
def setup():
    mat = make_material(lam=2.0, mu=1.0, omega=4.0)
    grid = sample_grid(make_curve("starfish"), 48)
    src = point_source(mat, [0.1, -0.2], [1.0, 0.7])
    cd = trace_and_traction(src, grid, mat)
    rep = PotentialRepresentation(terms=(
        PotentialTerm("DL", mat, grid, cd.trace),
        PotentialTerm("SL", mat, grid, -cd.traction),
    ))
    return mat, grid, src, rep


def test_greens_representation_near_field(setup):
    mat, grid, src, rep = setup
    pts = np.array([[2.0, 1.0], [-1.8, 0.4], [0.3, -2.2]])
    u = eval_potential(rep, pts)
    ref = src.u(pts)
    assert np.abs(u - ref).max() < 1e-9 * np.abs(ref).max()


def test_greens_representation_far_field(setup):
    mat, grid, src, rep = setup
    angles, dirs = default_directions()
    ref = _point_source_far_field(mat, np.array([0.1, -0.2]),
                                  np.array([1.0, 0.7]), angles, dirs)
    assert eps_inf(far_field(rep), ref) < 1e-9


def test_far_field_polarization_split(setup):
    # longitudinal component parallel to x-hat, transversal orthogonal
    mat, grid, src, rep = setup
    ff = far_field(rep)
    dirs = ff.directions
    cross = dirs[:, 0] * ff.up[:, 1] - dirs[:, 1] * ff.up[:, 0]
    dot = dirs[:, 0] * ff.us[:, 0] + dirs[:, 1] * ff.us[:, 1]
    scale = max(np.abs(ff.up).max(), np.abs(ff.us).max())
    assert np.abs(cross).max() < 1e-10 * scale
    assert np.abs(dot).max() < 1e-10 * scale


def test_default_directions_layout():
    angles, dirs = default_directions()
    assert dirs.shape == (angles.size, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[:, 0], np.cos(angles))


@pytest.mark.parametrize("bad", [[[2.0, 0.0]], [[0.0, 0.0]],
                                 [[np.nan, 0.0]], [[1.0, 0.0], [0.0, 1.1]],
                                 [[1.0, 0.0, 0.0]], [[[1.0, 0.0]]],
                                 np.empty((0, 2))])
def test_far_field_rejects_non_unit_directions(setup, bad):
    *_, rep = setup
    with pytest.raises(ValueError, match="directions"):
        far_field(rep, directions=bad)
    ff = far_field(rep, directions=[[0.6, 0.8]])  # a unit row is accepted
    assert ff.up.shape == (1, 2)


@pytest.mark.parametrize("bad", [np.empty((0, 2)), [[np.nan, 3.0]],
                                 [[np.inf, 3.0]], [[3.0, 0.0, 1.0]],
                                 np.full((2, 2, 2), 3.0)])
def test_eval_potential_rejects_bad_points(setup, bad):
    *_, rep = setup
    with pytest.raises(ValueError, match="points"):
        eval_potential(rep, bad)


def test_eps_inf_is_zero_on_identical_fields(setup):
    *_, rep = setup
    ff = far_field(rep)
    assert eps_inf(ff, ff) == 0.0


def test_far_field_is_the_in_order_sum_of_its_terms():
    # Terms on two grids of one size and of two materials: the plane-wave
    # factor shared within a call must be the one of each term's wavenumber
    # and grid.
    rng = np.random.default_rng(3)
    grids = [sample_grid(make_curve(kind), 16) for kind in ("circle", "starfish")]
    mats = [make_material(lam=2.0, mu=1.0, omega=4.0),
            make_material(lam=1.0, mu=3.0, omega=4.0)]
    terms = tuple(
        PotentialTerm(layer, mat, grid,
                      rng.standard_normal((16 * 2, 2))
                      + 1j * rng.standard_normal((16 * 2, 2)))
        for mat in mats for grid in grids for layer in ("DL", "SL"))
    ff = far_field(PotentialRepresentation(terms=terms))
    up = np.zeros_like(ff.up)
    us = np.zeros_like(ff.us)
    for term in terms:
        one = far_field(PotentialRepresentation(terms=(term,)))
        up += one.up
        us += one.us
    assert np.array_equal(ff.up, up)
    assert np.array_equal(ff.us, us)


def _neumann_system(grid):
    mat = make_material(lam=2.0, mu=1.0, omega=6.0)
    return assemble_neumann("CFIER", mat, grid,
                            incident=plane_wave(mat, [1.0, 0.0], [1.0, 0.0]))


def _transmission_system(grid):
    outside = make_material(lam=1.0, mu=1.0, omega=4.0)
    inside = make_material(lam=2.0, mu=8.0, omega=4.0)
    return assemble_transmission("ICFIER", outside, inside, grid,
                                 incident=plane_wave(outside, [1.0, 0.0],
                                                     [1.0, 0.0]))


@pytest.mark.parametrize("make_system, regions", [
    (_neumann_system, ("exterior",)),
    (_transmission_system, ("exterior", "interior"))])
def test_far_fields_of_one_system_reuse_its_plane_wave_factors(make_system,
                                                               regions):
    # Every representation of a system shares the system's memo; the far
    # fields must be those of a hand-built representation (empty memo),
    # also after the directions change and change back.
    grid = sample_grid(make_curve("starfish"), 32)
    system, other = make_system(grid), make_system(grid)
    A = system.operator.matrix
    rng = np.random.default_rng(5)
    second = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    rep_a, rep_b = (reconstruct_fields(system, lu_solve(A, b).x)
                    for b in (system.rhs, second))
    assert rep_a.plane_waves is system.plane_waves is rep_b.plane_waves
    angles = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)
    dirs90 = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    for region in regions:
        for rep, dirs in ((rep_a, None), (rep_b, None), (rep_a, dirs90),
                          (rep_b, None)):
            ff = far_field(rep, directions=dirs, region=region)
            fresh = PotentialRepresentation(terms=rep.terms)
            assert not fresh.plane_waves
            ref = far_field(fresh, directions=dirs, region=region)
            assert np.array_equal(ff.up, ref.up), region
            assert np.array_equal(ff.us, ref.us), region
    used = {(k, id(t.grid)) for t in rep_a.terms if t.region in regions
            for k in (t.material.kp, t.material.ks)}
    assert set(system.plane_waves) == used
    assert len(used) == 2 * len(regions)
    for stored_dirs, E in system.plane_waves.values():
        assert np.array_equal(stored_dirs, default_directions()[1])
        assert E.shape == (360, grid.size)
    assert other.plane_waves == {}


def test_far_field_of_a_solved_system_builds_no_factor_twice():
    # Once a system's factors exist, a far field of a new representation of
    # it allocates far less than one 360 x N complex plane-wave factor.
    grid = sample_grid(make_curve("cavity"), 64)
    system = _neumann_system(grid)
    A = system.operator.matrix
    far_field(reconstruct_fields(system, lu_solve(A, system.rhs).x))
    rep = reconstruct_fields(system, lu_solve(A, 1j * system.rhs).x)
    tracemalloc.start()
    try:
        far_field(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 360 * grid.size * 16, peak


def _elementwise_far_field(representation, dirs):
    """Oracle: the double layer's sums formed from M x N elementwise arrays
    of nu.xhat and xhat.g, term by term and wave by wave."""
    M = dirs.shape[0]
    up = np.zeros((M, 2), dtype=complex)
    us = np.zeros((M, 2), dtype=complex)
    for term in representation.terms:
        mat, grid, g = term.material, term.grid, term.density
        lam, mu = mat.lam, mat.mu
        w = np.pi / grid.n
        nu = grid.nu
        nug = np.einsum("ni,ni->n", nu, g)
        nux = dirs @ nu.T
        xg = dirs @ g.T
        for wave, k, gam in zip("ps", (mat.kp, mat.ks), _gammas(mat)):
            E = np.exp(-1j * k * (dirs @ grid.x.T))
            if term.layer == "SL":
                mom = w * (E @ g)
                xm = np.einsum("mi,mi->m", dirs, mom)[:, None]
                contrib = gam * (dirs * xm if wave == "p" else mom - dirs * xm)
            else:
                Enx = E * nux
                c = (Enx * xg).sum(axis=1)
                if wave == "p":
                    s = lam * (E @ nug) + 2.0 * mu * c
                    contrib = (-1j * k * gam * w) * dirs * s[:, None]
                else:
                    s = mu * (Enx @ g + (E * xg) @ nu - 2.0 * dirs * c[:, None])
                    contrib = (-1j * k * gam * w) * s
            if wave == "p":
                up += contrib
            else:
                us += contrib
    return up, us


def test_far_field_matches_the_elementwise_oracle():
    rng = np.random.default_rng(7)
    grids = [sample_grid(make_curve(kind), 24) for kind in ("circle", "starfish")]
    mats = [make_material(lam=2.0, mu=1.0, omega=6.0),
            make_material(lam=1.0, mu=3.0, omega=6.0)]
    for mat in mats:
        for grid in grids:
            for layer in ("DL", "SL"):
                density = (rng.standard_normal((grid.size, 2))
                           + 1j * rng.standard_normal((grid.size, 2)))
                rep = PotentialRepresentation(
                    terms=(PotentialTerm(layer, mat, grid, density),))
                ff = far_field(rep)
                up, us = _elementwise_far_field(rep, ff.directions)
                for new, old in ((ff.up, up), (ff.us, us)):
                    assert (np.abs(new - old).max()
                            <= 1e-13 * np.abs(old).max()), (layer, mat, grid)


def test_eval_potential_is_the_per_term_sum_with_one_kernel_per_grid(monkeypatch):
    # ICFIER carries exterior terms of one material and interior terms of
    # another; an extra interior term on a second grid of the same size must
    # get its own kernel, not the one of the first grid.
    outside = make_material(lam=1.0, mu=1.0, omega=4.0)
    inside = make_material(lam=2.0, mu=8.0, omega=4.0)
    grid = sample_grid(make_curve("starfish"), 48)
    system = assemble_transmission("ICFIER", outside, inside, grid,
                                   incident=plane_wave(outside, [1.0, 0.0],
                                                       [1.0, 0.0]))
    rep = reconstruct_fields(system, lu_solve(system.operator.matrix,
                                              system.rhs).x)
    rng = np.random.default_rng(11)
    second = PotentialTerm("SL", inside, sample_grid(make_curve("circle"), 48),
                           rng.standard_normal((96, 2)) + 0j, "interior")
    rep = PotentialRepresentation(terms=rep.terms + (second,))
    calls = []
    radial_suite = postprocess.radial_suite

    def counted(material, r, *args, **kwargs):
        calls.append(material)
        return radial_suite(material, r, *args, **kwargs)

    monkeypatch.setattr(postprocess, "radial_suite", counted)
    points = {"exterior": np.array([[3.0, 0.5], [-2.5, -2.0]]),
              "interior": np.array([[0.1, 0.05], [-0.1, -0.05]])}
    for region, suites in (("exterior", 1), ("interior", 2)):
        calls.clear()
        u = eval_potential(rep, points[region], region=region)
        assert len(calls) == suites, region
        total = np.zeros_like(u)
        for term in rep.terms:
            if term.region == region:
                total += eval_potential(PotentialRepresentation(terms=(term,)),
                                        points[region], region=region)
        assert np.array_equal(u, total), region
