"""Potential evaluation and far-field tests via Green's representation.

Oracle: for a radiating exterior solution u (point source inside the
curve), Green's formula gives u = DL(gamma u) - SL(T u) outside, so both
the near field and the far field of that representation must match the
analytic point-source values.
"""

import numpy as np
import pytest

from elastobie import (eps_inf, eval_potential, far_field, make_curve,
                       make_material, point_source, sample_grid,
                       trace_and_traction)
from elastobie.formulations import PotentialRepresentation, PotentialTerm
from elastobie.harness import _point_source_far_field
from elastobie.postprocess import default_directions


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
