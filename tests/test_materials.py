"""Material constants and incident-field tests against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastobie import (make_curve, make_material, plane_wave, point_source,
                       sample_grid, trace_and_traction)
from elastobie.materials import traction_from_gradient

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


def _navier_residual(material, field, x, h=1e-4):
    """mu Lap u + (lam+mu) grad div u + omega^2 u by central differences."""
    lam, mu, om = material.lam, material.mu, material.omega
    e = np.eye(2)
    u0 = field.u(x)
    lap = sum(field.u(x + h * e[j]) + field.u(x - h * e[j]) - 2.0 * u0
              for j in range(2)) / h**2
    # div u via the analytic gradient, then FD of the scalar div
    def div(y):
        g = field.grad(y)
        return g[..., 0, 0] + g[..., 1, 1]
    graddiv = np.stack([(div(x + h * e[j]) - div(x - h * e[j])) / (2.0 * h)
                        for j in range(2)], axis=-1)
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
    lambda m: plane_wave(m, [0.6, 0.8], [1.0, 0.5]),
    lambda m: point_source(m, [0.1, -0.2], [1.0, 0.7]),
])
def test_analytic_gradient_matches_finite_differences(make_field):
    m = make_material(lam=1.5, mu=0.8, omega=2.5)
    field = make_field(m)
    x = np.array([[1.1, 0.3], [-0.9, 0.8]])
    h = 1e-6
    e = np.eye(2)
    fd = np.stack([(field.u(x + h * e[j]) - field.u(x - h * e[j])) / (2 * h)
                   for j in range(2)], axis=-1)  # (..., i, j) = d_j u_i
    assert np.allclose(fd, field.grad(x), atol=1e-7)


def test_point_source_is_fundamental_solution_column(fundamental_solution):
    m = make_material(lam=2.0, mu=1.0, omega=5.0)
    q = np.array([0.3, -1.1])
    field = point_source(m, [0.2, 0.1], q)
    x = np.array([[1.4, -0.6], [0.9, 2.0]])
    expected = fundamental_solution(m, x, np.array([0.2, 0.1])) @ q
    assert np.allclose(field.u(x), expected, atol=1e-13)


matrix_entries = st.floats(min_value=-5.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False)


@settings(max_examples=50)
@given(st.lists(matrix_entries, min_size=8, max_size=8), positive, positive)
def test_traction_equals_stress_times_normal(vals, lam, mu):
    # T u = sigma(u) nu with sigma = lam (div u) I + mu (grad u + grad u^T)
    m = make_material(lam=lam, mu=mu, omega=1.0)
    grad = np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2)
    nu = np.array([0.8, -0.6])
    div = grad[0, 0] + grad[1, 1]
    sigma = lam * div * np.eye(2) + mu * (grad + grad.T)
    assert np.allclose(traction_from_gradient(grad, nu, m), sigma @ nu,
                       atol=1e-11 * max(1.0, lam + mu))


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
    src = point_source(m, [0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        src.u(np.array([[0.5, 0.5]]))
