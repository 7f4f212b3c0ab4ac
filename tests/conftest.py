"""Shared fixtures: small cached grids and materials for the unit tests,
and the oracles that only the tests call: the discrete exterior
Dirichlet-to-Neumann map, the fundamental solution, the identity symbol,
and the principal symbol of the single-equation exterior RtR operator B+."""

import numpy as np
import pytest

from elastobie import make_curve, make_material, sample_grid
from elastobie.formulations import boundary_operators
from elastobie.multipliers import Symbol, make_symbol, ps_dtn
from elastobie.special import radial_suite

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
    A = 0.5 * I + ops["K"].T
    if np.linalg.cond(A) >= _COND_LIMIT:
        raise ValueError("both DtN formulas ill-conditioned at this omega")
    return np.linalg.solve(A, ops["W"])


@pytest.fixture(scope="session")
def discrete_dtn_exterior():
    """The oracle Y+(material, grid), shared by two test modules."""
    return _discrete_dtn_exterior


def _fundamental_solution(material, x, y):
    """Phi(x, y) = Phi1(r) I + Phi2(r) G(x - y), shape (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rvec = x - y
    r = np.linalg.norm(rvec, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("fundamental solution evaluated on the diagonal")
    rs = radial_suite(material, r, basis="hankel")
    G = np.einsum("...i,...j->...ij", rvec, rvec) / (r**2)[..., None, None]
    return rs.Phi1[..., None, None] * np.eye(2) + rs.Phi2[..., None, None] * G


@pytest.fixture(scope="session")
def fundamental_solution():
    """The oracle Phi(material, x, y), shared by two test modules."""
    return _fundamental_solution


def _identity_symbol(n_max):
    """The 2x2 identity at every mode -n_max .. n_max."""
    return Symbol(n_max, np.broadcast_to(np.eye(2, dtype=complex),
                                         (2 * n_max + 1, 2, 2)).copy())


@pytest.fixture(scope="session")
def identity_symbol():
    """The oracle I(n_max), shared by two test modules."""
    return _identity_symbol


def _bplus_principal_symbol(mat_plus, mat_minus, kappa, *, n_max):
    """Per-mode principal symbol of the single-equation exterior RtR
    operator B+; it collapses to the identity exactly."""
    kappa = complex(kappa)
    H = make_symbol("H", n_max=n_max)
    Lk = make_symbol("LambdaKappa", kappa=kappa, n_max=n_max)
    Lki = make_symbol("LambdaKappaInv", kappa=kappa, n_max=n_max)
    ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=n_max)
    ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=n_max)
    Ros = (ps_p - ps_m).inv()
    Ks = mat_plus.alpha * H                    # PS(K+) = PS(K+^T)
    Vs = mat_plus.beta * Lk                    # PS(V+)
    Ws = mat_plus.delta * Lki                  # PS(W+)
    traction_part = Ws + 0.5 * ps_p - Ks @ ps_p
    trace_part = 0.5 * _identity_symbol(n_max) + Ks - Vs @ ps_p
    return (traction_part - ps_m @ trace_part) @ Ros


@pytest.fixture(scope="session")
def bplus_principal_symbol():
    """The oracle PS(B+)(mat_plus, mat_minus, kappa, n_max), shared by two
    test modules."""
    return _bplus_principal_symbol


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
