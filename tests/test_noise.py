"""Noise spectral models: closed forms, power accounting, scaling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from noisespec import (
    NoiseSpectrum,
    ValidationError,
    composite,
    gaussian_peak,
    lorentzian_dc,
    tabulated,
)


def test_lorentzian_dc_value():
    spec = lorentzian_dc(delta=1e5, sigma=5e4)
    expected = 1e10 / (math.pi * 5e4)
    assert spec(0.0) == pytest.approx(expected, rel=1e-12)
    # half value at the corner frequency
    assert spec(5e4) == pytest.approx(expected / 2, rel=1e-12)


def test_gaussian_peak_value_and_symmetry():
    spec = gaussian_peak(delta=5e5, sigma=25e3, omega_center=392e3)
    top = 2.5e11 / (math.sqrt(2 * math.pi) * 25e3)
    assert spec(392e3) == pytest.approx(top, rel=1e-12)
    assert spec(392e3 + 25e3) == pytest.approx(spec(392e3 - 25e3), rel=1e-12)


def test_composite_line_dominates_at_center(bath):
    gauss_only = gaussian_peak(delta=500e3, sigma=25e3, omega_center=392e3)
    lorentz_only = lorentzian_dc(delta=40e3, sigma=50e3)
    at_line = bath(392e3)
    assert at_line == pytest.approx(gauss_only(392e3) + lorentz_only(392e3),
                                    rel=1e-12)
    assert lorentz_only(392e3) < 1e-4 * gauss_only(392e3)


def test_total_power_closed_form(bath):
    # Gaussian line power + Lorentzian power, one-sided convention.
    gauss = 0.5 * 500e3 ** 2 * (1.0 + math.erf(392e3 / (math.sqrt(2) * 25e3)))
    lorentz = 0.5 * 40e3 ** 2
    assert bath.total_power() == pytest.approx(gauss + lorentz, rel=1e-9)


def test_tabulated_interpolates_linearly():
    spec = tabulated(np.array([0.0, 2.0]), np.array([4.0, 8.0]))
    assert spec(1.0) == pytest.approx(6.0, rel=1e-12)
    assert spec(0.0) == pytest.approx(4.0, rel=1e-12)
    # beyond the table the spectrum is zero
    assert spec(5.0) == 0.0


def test_eval_accepts_arrays(bath):
    w = np.geomspace(1e2, 1e6, 64)
    values = bath.eval(w)
    assert values.shape == w.shape
    assert np.all(values > 0.0)
    assert np.all(np.isfinite(values))


def test_negative_frequency_rejected(bath):
    with pytest.raises(ValidationError):
        bath(-1.0)
    with pytest.raises(ValidationError):
        bath.eval(np.array([1.0, -2.0, 3.0]))


def test_scaled_is_pointwise_exact(bath):
    w = np.geomspace(1e3, 1e6, 40)
    for factor in (0.5, 2.0, 10.0, 1.7):
        doubled = bath.scaled(factor)
        assert np.array_equal(doubled.eval(w), factor * bath.eval(w))
    assert bath.scaled(2.0).total_power() == pytest.approx(
        2.0 * bath.total_power(), rel=1e-12)


def test_coupling_scaling_is_quadratic():
    base = lorentzian_dc(delta=1e5, sigma=5e4)
    doubled = lorentzian_dc(delta=2e5, sigma=5e4)
    w = np.geomspace(1e3, 1e6, 32)
    assert np.array_equal(doubled.eval(w), 4.0 * base.eval(w))


def test_extent_covers_the_line(bath):
    extent = bath.extent()
    assert math.isfinite(extent)
    assert extent > 392e3 + 4 * 25e3
    # less than 1e-3 of the power lies past it
    tail, _ = quad(lambda w: float(bath(w)), extent, math.inf)
    assert tail < 1e-3 * bath.total_power()


def test_refinement_points_cover_the_line(bath):
    pts = bath.refinement_points()
    assert np.all(np.diff(pts) > 0)
    near_line = (pts > 392e3 - 3 * 25e3) & (pts < 392e3 + 3 * 25e3)
    assert int(np.count_nonzero(near_line)) >= 3


def test_default_bath_matches_composite(bath):
    clone = composite(500e3, 25e3, 392e3, 40e3, 50e3)
    w = np.geomspace(1e2, 2e6, 64)
    assert np.array_equal(clone.eval(w), bath.eval(w))


def test_component_validation():
    with pytest.raises(ValidationError):
        lorentzian_dc(delta=-1.0, sigma=5e4)
    with pytest.raises(ValidationError):
        lorentzian_dc(delta=1e5, sigma=0.0)
    with pytest.raises(ValidationError):
        gaussian_peak(delta=1e5, sigma=25e3, omega_center=-392e3)


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        tabulated(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):
        tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, -2.0, 3.0]))


def test_spectrum_needs_content():
    with pytest.raises(ValidationError):
        NoiseSpectrum(components=())
