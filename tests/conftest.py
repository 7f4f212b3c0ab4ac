"""Shared fixtures: small cached grids and materials for the unit tests,
and the oracles that only the tests call: the discrete exterior
Dirichlet-to-Neumann map, the fundamental solution, the principal symbol
of the second-kind RtR operators B+ and B-, and each subdomain's dense
Robin-to-Robin map, from its Robin system and from its D and B."""

import numpy as np
import pytest
import scipy.linalg

from elastobie import make_curve, make_material, sample_grid
from elastobie.formulations import boundary_operators, calderon_matrix
from elastobie.multipliers import Symbol, make_symbol, ps_dtn, symbol_matrix
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


def _rtr_principal_symbol(mat_plus, mat_minus, kappa, side, *, n_max):
    """Per-mode principal symbol of the second-kind operator B of the RtR
    map on `side` (+1: B+, -1: B-); it collapses to the identity exactly.
    With P_s the side's own DtN symbol and R = (P_s - P_-s)^{-1}, B is the
    traction minus P_-s times the trace of (1/2 I + side C)(I; P_s) R."""
    kappa = complex(kappa)
    H = make_symbol("H", n_max=n_max)
    Lk = make_symbol("LambdaKappa", kappa=kappa, n_max=n_max)
    Lki = make_symbol("LambdaKappaInv", kappa=kappa, n_max=n_max)
    ps_p = ps_dtn(mat_plus, "exterior", kappa=kappa, n_max=n_max)
    ps_m = ps_dtn(mat_minus, "interior", kappa=kappa, n_max=n_max)
    mat, own, other = ((mat_plus, ps_p, ps_m) if side > 0
                       else (mat_minus, ps_m, ps_p))
    R = (own - other).inv()
    Ks = mat.alpha * H                         # PS(K) = PS(K^T)
    Vs = mat.beta * Lk                         # PS(V)
    Ws = mat.delta * Lki                       # PS(W)
    trace_part = 0.5 * _identity_symbol(n_max) + side * (Ks - Vs @ own)
    traction_part = 0.5 * own + side * (Ws - Ks @ own)
    return (traction_part - other @ trace_part) @ R


@pytest.fixture(scope="session")
def rtr_principal_symbol():
    """The oracle PS(B)(mat_plus, mat_minus, kappa, side, n_max), shared by
    two test modules."""
    return _rtr_principal_symbol


def _dense_robin_map(material, grid, side, ups, ups_out):
    """The RtR map of the subdomain on `side` (+1 exterior, -1 interior) from
    its Robin system, as dense matrices (S, X): the Calderon identities of
    the side's Cauchy data (gamma u, T u) with the Robin row,

        [[s/2 I - K, V], [W + s Upsilon, s/2 I - K^T]] (gamma u, T u)
            = (0, s lambda),

    solved for the L right-hand sides lambda = I.  X is the Cauchy data per
    lambda and S = Upsilon_out X_trace + X_traction."""
    L = 2 * grid.size
    I = np.eye(L, dtype=complex)
    ops = boundary_operators(material, grid)
    A = np.block([
        [side * 0.5 * I - ops["K"], ops["V"]],
        [ops["W"] + side * symbol_matrix(ups, grid.n),
         side * 0.5 * I - ops["K"].T]])
    rhs = np.zeros((2 * L, L), dtype=complex)
    rhs[L:] = side * I
    X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
    return ups_out @ X[:L] + X[L:], X


@pytest.fixture(scope="session")
def dense_robin_map():
    """The oracle (S, X)(material, grid, side, ups, ups_out), shared by two
    test modules."""
    return _dense_robin_map


def _dense_subdomain_equation(material, grid, side, ups, ups_out):
    """D and B of the RtR map on `side` (see the ddm docstring) with every
    multiplier a dense symbol_matrix: R = (Upsilon - Upsilon_out)^{-1},
    D = (1/2 I + side C)(R; -Upsilon_out R), B = D_traction + Upsilon D_trace."""
    R = (ups - ups_out).inv()
    C = calderon_matrix(material, grid)
    D = (0.5 * np.eye(len(C)) + side * C) @ np.vstack(
        [symbol_matrix(R, grid.n), -symbol_matrix(ups_out @ R, grid.n)])
    L = D.shape[1]
    return D, D[L:] + symbol_matrix(ups, grid.n) @ D[:L]


@pytest.fixture(scope="session")
def dense_subdomain_equation():
    """The oracle (D, B)(material, grid, side, ups, ups_out), shared by two
    test modules."""
    return _dense_subdomain_equation


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
