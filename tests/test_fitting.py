"""Least-squares fits: noise model, envelope, revival comb, Gaussian peak."""

import itertools
import math

import numpy as np
import pytest

from noisespec import (
    FLAG_CLIPPED,
    Method,
    NumericError,
    ReconstructedSpectrum,
    SequenceSpec,
    ValidationError,
    add_measurement_noise,
    chi,
    filter_for,
    fit_envelope,
    fit_gaussian_peak,
    fit_noise_params,
    fit_revival_comb,
    synth_cpmg_family,
    synth_dysco_sweep,
)
from noisespec.fitting import (
    _DEFAULT_BOUND_FACTORS,
    _NOISE_PARAM_ORDER,
    _chi_operator,
    _noise_window,
    _peak_jacobian,
    _peak_model,
    _spectrum_from,
)

TRUTH = {"gauss_delta": 500e3, "gauss_sigma": 25e3, "gauss_center": 392e3,
         "lorentz_delta": 40e3, "lorentz_sigma": 50e3}


# --------------------------------------------------------------------------
# Stretched-exponential envelope


def _envelope(times, t2, power):
    return np.exp(-np.power(times / t2, power))


def test_envelope_fit_recovers_model_exactly():
    times = np.linspace(5e-5, 3e-3, 40)
    result = fit_envelope(times, _envelope(times, 1e-3, 1.5))
    assert result["t2"] == pytest.approx(1e-3, rel=1e-6)
    assert result["power"] == pytest.approx(1.5, rel=1e-6)
    assert result.residual_norm < 1e-9
    assert result.converged
    assert set(result.covariance_diag) == {"t2", "power"}


def test_envelope_fit_with_fixed_power():
    times = np.linspace(5e-5, 3e-3, 40)
    result = fit_envelope(times, _envelope(times, 1e-3, 1.0), fix_power=1.0)
    assert result["t2"] == pytest.approx(1e-3, rel=1e-9)
    assert result["power"] == 1.0
    assert result.metadata["power_fixed"] is True


def test_envelope_fit_flags_degenerate_data():
    times = np.linspace(1e-5, 1e-4, 10)
    result = fit_envelope(times, np.full(10, 0.5))
    assert result.metadata["degenerate"] is True
    assert result.covariance_diag is None


def test_envelope_fit_validation():
    times = np.linspace(1e-5, 1e-4, 10)
    with pytest.raises(ValidationError):
        fit_envelope(times[:3], np.full(3, 0.5))
    with pytest.raises(ValidationError):
        fit_envelope(times, np.full(10, 1.2))
    with pytest.raises(ValidationError):
        fit_envelope(times, np.zeros(10))


def test_envelope_fit_accepts_noise_within_three_sigma():
    times = np.linspace(5e-5, 3e-3, 40)
    cs = _envelope(times, 1e-3, 1.5)
    cs[0], cs[-1] = 1.0 + 0.059, -0.059
    us = np.full(40, 0.02)
    result = fit_envelope(times, cs, uncertainties=us)
    assert result["t2"] == pytest.approx(1e-3, rel=0.05)
    for bad in (1.0 + 0.061, -0.06):
        cs[0] = bad
        with pytest.raises(ValidationError):
            fit_envelope(times, cs, uncertainties=us)


# --------------------------------------------------------------------------
# Revival comb


def _comb(times, rate, power, t_rev, width, teeth=7):
    centers = np.arange(teeth) * t_rev
    comb = np.exp(-(times[:, None] - centers[None, :]) ** 2
                  / (2.0 * width ** 2)).sum(axis=1)
    return np.exp(-np.power(times * rate, power)) * comb


def test_comb_fit_recovers_spacing_exactly():
    times = np.linspace(1e-7, 1.05e-4, 400)
    cs = _comb(times, rate=1.0 / 8e-5, power=1.3, t_rev=1.6e-5, width=2.4e-6)
    result = fit_revival_comb(times, cs)
    assert result["revival_time"] == pytest.approx(1.6e-5, rel=1e-6)
    assert result["revival_width"] == pytest.approx(2.4e-6, rel=1e-3)
    assert result["t2"] == pytest.approx(8e-5, rel=1e-3)
    assert result["power"] == pytest.approx(1.3, rel=1e-2)
    assert result.residual_norm < 1e-6
    assert result.metadata["n_peaks_found"] >= 3


def test_comb_fit_without_envelope_decay():
    times = np.linspace(1e-7, 1.05e-4, 400)
    cs = _comb(times, rate=1e-6, power=1.3, t_rev=1.6e-5, width=2.4e-6)
    result = fit_revival_comb(times, cs)
    assert result["revival_time"] == pytest.approx(1.6e-5, rel=1e-6)
    assert result.residual_norm < 1e-6


def test_comb_fit_needs_three_peaks():
    times = np.linspace(1e-7, 1.05e-4, 200)
    with pytest.raises(ValidationError):
        fit_revival_comb(times, _envelope(times, 4e-5, 1.5))


def test_comb_fit_needs_enough_points():
    times = np.linspace(1e-7, 1e-4, 6)
    with pytest.raises(ValidationError):
        fit_revival_comb(times, np.full(6, 0.5))


# --------------------------------------------------------------------------
# Gaussian peak on a reconstructed spectrum


def _peak_spectrum(center=3.9e5, amp=4e6, width=2.6e4, offset=1e3):
    w = np.linspace(3e5, 5e5, 60)
    v = amp * np.exp(-((w - center) ** 2) / (2.0 * width ** 2)) + offset
    return ReconstructedSpectrum(
        omegas=w, values=v, uncertainties=np.zeros(60),
        flags=np.zeros(60, dtype=int), method=Method.CPMG_SD)


def test_peak_fit_recovers_parameters_exactly():
    result = fit_gaussian_peak(_peak_spectrum())
    assert result["center_hz"] == pytest.approx(3.9e5 / (2 * math.pi), rel=1e-9)
    assert result["width_hz"] == pytest.approx(2.6e4 / (2 * math.pi), rel=1e-6)
    assert result["amplitude"] == pytest.approx(4e6, rel=1e-6)
    assert result["offset"] == pytest.approx(1e3, rel=1e-3)
    assert result.residual_norm < 1e-6


def test_peak_fit_is_translation_equivariant():
    base = fit_gaussian_peak(_peak_spectrum())
    shift = 1e4
    moved = fit_gaussian_peak(_peak_spectrum().shifted(shift))
    expected = base["center_hz"] + shift / (2 * math.pi)
    assert moved["center_hz"] == pytest.approx(expected, abs=1e-6)
    assert moved["width_hz"] == pytest.approx(base["width_hz"], rel=1e-9)


@pytest.mark.parametrize("p", [(4e6, 1.3e3, 2.6e4, 1e3),
                               (2.5, -4e4, 9e3, -0.3),
                               (1e-3, 7e4, 1.5e5, 0.0)])
def test_peak_jacobian_matches_a_central_difference(p):
    x = np.linspace(-1e5, 1e5, 81)
    jac = _peak_jacobian(p, x)
    assert jac.shape == (x.size, 4)
    amp, _, width, _ = p
    for k, scale in enumerate((amp, width, width, amp)):
        h = 1e-5 * scale
        up, down = list(p), list(p)
        up[k] += h
        down[k] -= h
        diff = (_peak_model(up, x) - _peak_model(down, x)) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - diff)) \
            <= 1e-8 * np.max(np.abs(diff)), k


def test_peak_fit_window_selects_points():
    lo_hz = 3.2e5 / (2 * math.pi)
    hi_hz = 4.8e5 / (2 * math.pi)
    result = fit_gaussian_peak(_peak_spectrum(), window=(lo_hz, hi_hz))
    assert result["center_hz"] == pytest.approx(3.9e5 / (2 * math.pi), rel=1e-6)


def test_peak_fit_rejects_edge_maximum():
    w = np.linspace(3e5, 5e5, 30)
    rising = ReconstructedSpectrum(
        omegas=w, values=np.linspace(1.0, 2.0, 30),
        uncertainties=np.zeros(30), flags=np.zeros(30, dtype=int),
        method=Method.CPMG_SD)
    with pytest.raises(ValidationError):
        fit_gaussian_peak(rising)


def test_peak_fit_needs_valid_points():
    spec = _peak_spectrum()
    clipped = ReconstructedSpectrum(
        omegas=spec.omegas, values=spec.values,
        uncertainties=spec.uncertainties,
        flags=np.full(60, FLAG_CLIPPED, dtype=int), method=spec.method)
    with pytest.raises(ValidationError):
        fit_gaussian_peak(clipped)


# --------------------------------------------------------------------------
# Noise-model fit


def _bath_curve(bath, points=24):
    grids = {8: np.geomspace(3e-5, 1.2e-3, points)}
    (curve,) = synth_cpmg_family(bath, [8], time_grid_per_n=grids)
    return curve


def test_noise_fit_operator_matches_chi_at_the_box_corners(bath):
    # criterion-10 geometry, guess 2x truth: wherever the default box lets
    # the solver put the line, including its narrowest width at the shortest
    # duration, the fit's K @ S must agree with the adaptive quadrature
    times = np.linspace(2.6e-5, 1.6e-3, 16)
    (curve,) = synth_cpmg_family(bath, [8], time_grid_per_n={8: times})
    guess = np.array([2.0 * TRUTH[k] for k in _NOISE_PARAM_ORDER])
    box = {k: tuple(f * g for f in _DEFAULT_BOUND_FACTORS[k])
           for k, g in zip(_NOISE_PARAM_ORDER, guess)}
    grid, kernel = _chi_operator(curve, _noise_window(guess, box))
    assert kernel.shape == (16, grid.size)
    for center, sigma in itertools.product(box["gauss_center"],
                                           box["gauss_sigma"]):
        spectrum = _spectrum_from(
            np.array([guess[0], sigma, center, guess[3], guess[4]]))
        want = np.array([
            chi(spectrum, filter_for(SequenceSpec.cpmg(8, duration=float(t))),
                rel_tol=1e-6)
            for t in times])
        got = kernel @ spectrum(grid)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-3, (center, sigma)


def test_noise_fit_fixed_point_at_truth(bath):
    # Started at the generating parameters the fit must stay there up to the
    # quadrature-grid mismatch between synthesis and the fit's shared grid.
    curve = _bath_curve(bath)
    result = fit_noise_params(curve, initial=dict(TRUTH),
                              max_iterations=1500)
    assert result.converged
    assert result.residual_norm < 1e-3
    for name, truth in TRUTH.items():
        assert result[name] == pytest.approx(truth, rel=0.03), name
    assert result.metadata["n_points"] == 24
    assert result.metadata["at_bound"] == []
    assert result.metadata["grid_nodes"] > 1000


def test_noise_fit_reports_a_parameter_stopped_on_its_bound(bath):
    # criterion-10 geometry, noise seed 0: one CPMG-8 curve barely constrains
    # the Lorentzian background, and the solve drives its width down to the
    # lower edge of the default box (0.05 x the guess, i.e. -90% of truth,
    # 5000); it stops 1.2e-6 above that edge
    times = np.linspace(2.6e-5, 1.6e-3, 64)
    (curve,) = synth_cpmg_family(bath, [8], time_grid_per_n={8: times})
    noisy = add_measurement_noise(curve, 0.01, seed=0)
    initial = {k: 2.0 * v for k, v in TRUTH.items()}
    result = fit_noise_params(noisy, initial=initial)
    assert result.metadata["at_bound"] == ["lorentz_sigma"]
    assert result["lorentz_sigma"] == pytest.approx(5000.00588, rel=1e-6)
    assert result["gauss_center"] == pytest.approx(392e3, rel=0.02)


def test_noise_fit_reports_a_stop_just_inside_a_bound(bath):
    # the README `fit --mode noise --initial default` example: the solve ends
    # a few 1e-6 above the lower edge of lorentz_sigma's box, inside the
    # solver's own active-set tolerance but still on the bound
    grid = {8: np.geomspace(3e-5, 3e-3, 12)}
    (curve,) = synth_cpmg_family(bath, [8], time_grid_per_n=grid)
    noisy = add_measurement_noise(curve, 0.02, 6)
    result = fit_noise_params(noisy, initial=dict(TRUTH))
    floor = 0.05 * TRUTH["lorentz_sigma"]
    assert result["lorentz_sigma"] != floor
    assert result["lorentz_sigma"] == pytest.approx(floor, rel=1e-5)
    assert result.metadata["at_bound"] == ["lorentz_sigma"]


def test_noise_fit_is_deterministic(bath):
    curve = _bath_curve(bath, points=12)
    a = fit_noise_params(curve, initial=dict(TRUTH), max_iterations=400)
    b = fit_noise_params(curve, initial=dict(TRUTH), max_iterations=400)
    assert a.parameters == b.parameters
    assert a.residual_norm == b.residual_norm


def test_noise_fit_validation(bath):
    curve = _bath_curve(bath, points=12)
    sweep = synth_dysco_sweep(
        bath, SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5),
        [5e4, 1e5])
    with pytest.raises(ValidationError):
        fit_noise_params(sweep, initial=dict(TRUTH))
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=None)
    partial = dict(TRUTH)
    del partial["lorentz_sigma"]
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=partial)
    negative = dict(TRUTH, gauss_delta=-1.0)
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=negative)
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=dict(TRUTH),
                         bounds={"gauss_center": (500e3, 600e3)})
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=dict(TRUTH),
                         bounds={"gauss_center": (392e3, 392e3)})
    with pytest.raises(ValidationError):
        fit_noise_params(curve, initial=dict(TRUTH), max_iterations=0)


def test_fit_result_getitem():
    times = np.linspace(5e-5, 3e-3, 40)
    result = fit_envelope(times, _envelope(times, 1e-3, 1.5))
    assert result["t2"] == result.parameters["t2"]
    with pytest.raises(KeyError):
        result["no_such_parameter"]
