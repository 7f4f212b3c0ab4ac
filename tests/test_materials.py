"""Material constants and incident-field tests against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastobie import (make_curve, make_material, plane_wave, point_source,
                       sample_grid, trace_and_traction)

positive = st.floats(min_value=0.05, max_value=50.0,
                     allow_nan=False, allow_infinity=False)


@given(positive, positive, positive)
def test_material_constants(lam, mu, omega):
    m = make_material(lam=lam, mu=mu, omega=omega)
    # wavenumbers
    assert np.isclose(m.kp, omega / np.sqrt(lam + 2.0 * mu), rtol=1e-14)
    assert np.isclose(m.ks, omega / np.sqrt(mu), rtol=1e-14)
    # alpha^2 + beta delta + 1/4 = 0 and admissibility
    assert abs(m.alpha**2 + m.beta * m.delta + 0.25) < 1e-13
    assert m.alpha.real == 0.0 and 0.0 < abs(m.alpha) < 0.5
    assert m.beta > 0.0 > m.delta
    # complexified wavenumber kappa = ks + 0.4 i ks^{1/3}
    assert np.isclose(m.kappa, m.ks + 0.4j * m.ks ** (1.0 / 3.0), rtol=1e-14)


def _fd_grad(f, x, h):
    """Central differences of f at the points x: [..., j] = d f / d x_j."""
    e = np.eye(2)
    return np.stack([(f(x + h * e[j]) - f(x - h * e[j])) / (2.0 * h)
                     for j in range(2)], axis=-1)


def _navier_residual(material, field, x, h=1e-4):
    """mu Lap u + (lam+mu) grad div u + omega^2 u by central differences."""
    lam, mu, om = material.lam, material.mu, material.omega
    e = np.eye(2)
    u0 = field.u(x)
    lap = sum(field.u(x + h * e[j]) + field.u(x - h * e[j]) - 2.0 * u0
              for j in range(2)) / h**2

    def div(y):
        return np.trace(_fd_grad(field.u, y, h), axis1=-2, axis2=-1)

    graddiv = _fd_grad(div, x, h)
    return mu * lap + (lam + mu) * graddiv + om**2 * u0


@pytest.mark.parametrize("make_field", [
    lambda m: plane_wave(m, [0.0, -1.0], [0.0, -1.0]),
    lambda m: plane_wave(m, [0.6, 0.8], [0.8, -0.6]),
    lambda m: point_source(m, [0.1, -0.2], [1.0, 0.7]),
])
def test_fields_satisfy_navier_equation(make_field):
    m = make_material(lam=2.0, mu=1.0, omega=3.0)
    field = make_field(m)
    x = np.array([[1.3, 0.4], [-0.8, 1.1], [0.3, -1.7]])
    res = _navier_residual(m, field, x)
    scale = np.abs(field.u(x)).max() * m.omega**2
    assert np.abs(res).max() < 1e-5 * scale


@pytest.mark.parametrize("make_field", [
    lambda m: plane_wave(m, [0.6, 0.8], [0.6, 0.8]),   # P wave
    lambda m: plane_wave(m, [0.6, 0.8], [-0.8, 0.6]),  # S wave
    lambda m: point_source(m, [0.1, -0.2], [1.0, 0.7]),
], ids=["P", "S", "point_source"])
def test_traction_is_stress_of_the_field_times_normal(make_field):
    # T u = sigma(u) nu, sigma = lam (div u) I + mu (grad u + grad u^T), with
    # grad u by central differences of u at the nodes and unnormalized nu
    m = make_material(lam=1.5, mu=0.8, omega=2.5)
    grid = sample_grid(make_curve("starfish"), 16)
    field = make_field(m)
    grad = _fd_grad(field.u, grid.x, 1e-5)  # [..., i, j] = d u_i / d x_j
    div = grad[..., 0, 0] + grad[..., 1, 1]
    sigma = m.lam * div[..., None, None] * np.eye(2) + m.mu * (
        grad + grad.swapaxes(-1, -2))
    expected = np.einsum("...ij,...j->...i", sigma, grid.nu)
    traction = trace_and_traction(field, grid, m).traction
    assert np.abs(traction - expected).max() < 1e-8 * np.abs(expected).max()


def test_point_source_is_fundamental_solution_column(fundamental_solution):
    m = make_material(lam=2.0, mu=1.0, omega=5.0)
    q = np.array([0.3, -1.1])
    field = point_source(m, [0.2, 0.1], q)
    x = np.array([[1.4, -0.6], [0.9, 2.0]])
    expected = fundamental_solution(m, x, np.array([0.2, 0.1])) @ q
    assert np.allclose(field.u(x), expected, atol=1e-13)


def test_trace_and_traction_sampling():
    m = make_material(lam=2.0, mu=1.0, omega=4.0)
    grid = sample_grid(make_curve("circle"), 8)
    field = plane_wave(m, [0.0, -1.0], [0.0, -1.0])
    cd = trace_and_traction(field, grid, m)
    assert cd.trace.shape == (grid.size, 2)
    assert cd.traction.shape == (grid.size, 2)
    assert np.allclose(cd.trace, field.u(grid.x))


def test_error_paths():
    m = make_material(lam=1.0, mu=1.0, omega=1.0)
    with pytest.raises(ValueError):
        plane_wave(m, [1.0, 1.0], [1.0, 0.0])  # non-unit direction
    with pytest.raises(ValueError):
        plane_wave(m, [np.nan, 1.0], [1.0, 0.0])  # NaN compares False
    with pytest.raises(ValueError):
        make_material(lam=np.nan, mu=1.0, omega=1.0)
    with pytest.raises(ValueError):
        plane_wave(m, [1.0, 0.0], [0.0, 0.0])  # zero polarization
    with pytest.raises(ValueError):
        point_source(m, [0.0, 0.0], [0.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0.0, np.inf)]):
        with pytest.raises(ValueError, match="polarization"):
            plane_wave(m, [1.0, 0.0], bad)
        with pytest.raises(ValueError, match="polarization"):
            point_source(m, [0.5, 0.5], bad)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="location"):
            point_source(m, bad, [1.0, 0.0])
    src = point_source(m, [0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        src.u(np.array([[0.5, 0.5]]))
