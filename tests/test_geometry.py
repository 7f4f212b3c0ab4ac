"""Curve and grid tests: parameterizations, derivatives, node layout."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastobie import build_quadrature, make_curve, sample_grid
from elastobie.geometry import Curve


ALL_KINDS = ("circle", "starfish", "cavity")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_curve_is_closed_and_smooth(kind):
    curve = make_curve(kind)
    t = np.linspace(0.0, 2.0 * np.pi, 17)
    x = curve.eval(t)
    assert np.allclose(x[0], x[-1], atol=1e-14)
    speed = np.linalg.norm(curve.eval(t, 1), axis=-1)
    assert speed.min() > 1e-3


@given(st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_starfish_radius_formula(t):
    # x(t) = (1 + sin(5t)/4)(cos t, sin t)
    x = make_curve("starfish").eval(np.array([t]))[0]
    r = 1.0 + 0.25 * np.sin(5.0 * t)
    assert np.allclose(x, [r * np.cos(t), r * np.sin(t)], atol=1e-12)


@given(st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_cavity_coordinate_formulas(t):
    x = make_curve("cavity").eval(np.array([t]))[0]
    x1 = 0.4 * (np.cos(t) + 2.0 * np.cos(2.0 * t))
    x2 = (0.5 * np.sin(t) + 0.5 * np.sin(2.0 * t) + 0.25 * np.sin(3.0 * t)
          + (4.0 * np.sin(t) - 7.0 * np.sin(2.0 * t)
             + 6.0 * np.sin(3.0 * t) - 2.0 * np.sin(4.0 * t)) / 48.0)
    assert np.allclose(x, [x1, x2], atol=1e-12)


def test_circle_radius_parameter():
    x = make_curve("circle", {"radius": 2.5}).eval(np.linspace(0, 6, 7))
    assert np.allclose(np.linalg.norm(x, axis=-1), 2.5)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("deriv", [1, 2, 3])
def test_derivatives_match_finite_differences(kind, deriv):
    curve = make_curve(kind)
    t = np.array([0.3, 1.1, 2.9, 4.4, 6.0])
    h = 1e-3
    lower = curve.eval(t - h, deriv - 1)
    upper = curve.eval(t + h, deriv - 1)
    fd = (upper - lower) / (2.0 * h)
    exact = curve.eval(t, deriv)
    assert np.allclose(fd, exact, atol=5e-4 * max(1.0, np.abs(exact).max()))


def test_normal_is_rotated_tangent_and_outward():
    curve = make_curve("circle")
    t = np.linspace(0.1, 6.0, 9)
    nu = curve.normal(t)
    dx = curve.eval(t, 1)
    assert np.allclose(np.einsum("ij,ij->i", nu, dx), 0.0, atol=1e-13)
    # unit circle: unnormalized outward normal equals the position vector
    assert np.allclose(nu, curve.eval(t), atol=1e-13)


def test_grid_layout(starfish32):
    g = starfish32
    assert g.size == 64
    assert np.allclose(np.diff(g.t), np.pi / g.n)
    dx = g.curve.eval(g.t, 1)
    assert np.allclose(g.nu[:, 0], dx[:, 1])
    assert np.allclose(g.nu[:, 1], -dx[:, 0])
    assert np.allclose(g.speed, np.linalg.norm(dx, axis=-1))


def test_error_paths():
    with pytest.raises(ValueError):
        make_curve("heptagon")
    with pytest.raises(ValueError):
        make_curve("circle", {"radius": -1.0})
    with pytest.raises(ValueError):
        make_curve("fourier_custom", {})
    with pytest.raises(ValueError):
        sample_grid(make_curve("circle"), 3)
    with pytest.raises(ValueError):
        # constant map: |x'| vanishes identically
        Curve([[1.0], [0.5]], [[0.0], [0.0]])
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            make_curve("circle", {"radius": radius})
    with pytest.raises(ValueError, match="non-finite"):
        make_curve("fourier_custom", {"cos": [[0.0, 1.0], [0.0, np.nan]],
                                      "sin": [[0.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize("n", [8.5, 8.0, "8"])
def test_non_integer_n_is_rejected(n):
    with pytest.raises(ValueError, match="^n "):
        sample_grid(make_curve("circle"), n)
    with pytest.raises(ValueError, match="^n "):
        build_quadrature(n)


def test_fourier_custom_round_trip():
    base = make_curve("starfish")
    clone = make_curve("fourier_custom",
                       {"cos": base.cos_coeffs, "sin": base.sin_coeffs})
    t = np.linspace(0.0, 6.2, 11)
    assert np.allclose(base.eval(t), clone.eval(t))
