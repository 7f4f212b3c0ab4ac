"""Shared fixtures: small cached grids and materials for the unit tests,
and the discrete exterior Dirichlet-to-Neumann oracle."""

import numpy as np
import pytest

from elastobie import make_curve, make_material, sample_grid
from elastobie.formulations import boundary_operators

_COND_LIMIT = 1e12  # condition number above which a DtN formula is refused


def _discrete_dtn_exterior(material, grid) -> np.ndarray:
    """Discrete exterior Dirichlet-to-Neumann map Y+.

    Primary formula Y+ = -V^{-1}(1/2 I - K); falls back to
    (1/2 I + K^T)^{-1} W when V is ill-conditioned (omega^2 near an
    interior Dirichlet eigenvalue)."""
    ops = boundary_operators(material, grid)
    I = np.eye(2 * grid.size, dtype=complex)
    if np.linalg.cond(ops["V"]) < _COND_LIMIT:
        return np.linalg.solve(ops["V"], -(0.5 * I - ops["K"]))
    A = 0.5 * I + ops["Kt"]
    if np.linalg.cond(A) >= _COND_LIMIT:
        raise ValueError("both DtN formulas ill-conditioned at this omega")
    return np.linalg.solve(A, ops["W"])


@pytest.fixture(scope="session")
def discrete_dtn_exterior():
    """The oracle Y+(material, grid), shared by two test modules."""
    return _discrete_dtn_exterior


@pytest.fixture(scope="session")
def circle48():
    return sample_grid(make_curve("circle"), 48)


@pytest.fixture(scope="session")
def starfish32():
    return sample_grid(make_curve("starfish"), 32)


@pytest.fixture(scope="session")
def mat21():
    """Benchmark exterior material lambda=2, mu=1 at a low frequency."""
    return make_material(lam=2.0, mu=1.0, omega=4.0)


@pytest.fixture(scope="session")
def mat11():
    return make_material(lam=1.0, mu=1.0, omega=4.0)


@pytest.fixture(scope="session")
def mat28():
    return make_material(lam=2.0, mu=8.0, omega=4.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
