"""Spectral reconstruction: decomposition sweep, direct extraction, ranges."""

import math
from dataclasses import replace

import numpy as np
import pytest

from noisespec import (
    FLAG_CLIPPED,
    FLAG_OK,
    CoherenceCurve,
    CpmgFilterProvider,
    Method,
    Provenance,
    ReconstructedSpectrum,
    SequenceSpec,
    ValidationError,
    add_measurement_noise,
    cpmg_sd,
    default_experiment_spectrum,
    direct_extract,
    dynamic_range,
    dysco_ff,
    peak_stats,
    peak_study_curves,
    plateau_contrast,
    synth_cpmg_family,
    synth_dysco_sweep,
    tabulated,
)


def _flat(level: float, top: float = 1e9):
    return tabulated(np.array([0.0, top]), np.array([level, level]))


# --------------------------------------------------------------------------
# Filter statistics provider


def test_provider_scales_with_duration(provider):
    assert provider.omega0(8, 2e-4) == pytest.approx(
        provider.omega0(8, 1.0) / 2e-4, rel=1e-12)
    assert provider.lobe_top(8, 2e-4) == pytest.approx(
        provider.lobe_top(8, 1.0) / 2e-4, rel=1e-12)


def test_provider_lobe_boundaries(provider):
    # Main lobe of the n-pulse filter closes at the flanking zeros.
    assert provider.lobe_top(8, 1.0) == pytest.approx(10 * math.pi, rel=0.02)
    assert provider.lobe_top(16, 1.0) == pytest.approx(18 * math.pi, rel=0.02)
    assert provider.lobe_area(2) == pytest.approx(0.7360, rel=5e-3)
    assert provider.gain(16) == pytest.approx(0.5851, rel=5e-3)


# --------------------------------------------------------------------------
# CPMG spectral decomposition


def _sd_curves(spectrum, n_list, times, rel_tol=1e-6):
    grids = {n: times for n in n_list}
    return synth_cpmg_family(spectrum, n_list, time_grid_per_n=grids,
                             rel_tol=rel_tol)


def test_sd_is_linear_in_the_spectrum(dc_lorentzian):
    times = np.concatenate([np.geomspace(1e-7, 3e-7, 3),
                            np.geomspace(8e-5, 8e-4, 6)])
    base = cpmg_sd(_sd_curves(dc_lorentzian, (1, 2), times), bin_count=None)
    doubled = cpmg_sd(_sd_curves(dc_lorentzian.scaled(2.0), (1, 2), times),
                      bin_count=None)
    assert np.array_equal(base.omegas, doubled.omegas)
    ok = base.valid & doubled.valid
    ratio = doubled.values[ok] / base.values[ok]
    assert float(np.max(np.abs(ratio - 2.0))) < 1e-6


def test_sd_top_valid_point_is_first_order_estimate(provider, dc_lorentzian):
    # The highest unclipped frequency gets no harmonic correction, so its
    # value is exactly -2 ln(c / ref) / (t * lobe_area).
    times = np.geomspace(5e-5, 5e-4, 6)
    (curve,) = _sd_curves(dc_lorentzian, (2,), times)
    recon = cpmg_sd([curve], bin_count=None)
    order = np.argsort(recon.omegas)[::-1]
    top = next(i for i in order if recon.flags[i] == FLAG_OK)
    t = provider.omega0(2, 1.0) / recon.omegas[top]
    k = int(np.argmin(np.abs(curve.xs - t)))
    ref = float(np.mean(curve.coherences[:3]))
    expected = -2.0 * math.log(curve.coherences[k] / ref) \
        / (curve.xs[k] * provider.lobe_area(2))
    assert recon.values[top] == pytest.approx(expected, rel=1e-12)


def test_sd_recovers_flat_spectrum_after_correction():
    level = 3e3
    times = np.geomspace(3e-5, 3e-3, 10)
    recon = cpmg_sd(_sd_curves(_flat(level), (1, 2, 4, 8), times,
                               rel_tol=1e-4), bin_count=None)
    rel = np.abs(recon.values[recon.valid] / level - 1.0)
    assert float(np.median(rel)) < 0.10


def test_sd_binning_aggregates_points(dc_lorentzian):
    times = np.geomspace(5e-5, 1e-3, 8)
    raw = cpmg_sd(_sd_curves(dc_lorentzian, (1, 2), times), bin_count=None)
    binned = cpmg_sd(_sd_curves(dc_lorentzian, (1, 2), times), bin_count=6)
    assert binned.bins is not None
    assert binned.omegas.size <= 6
    assert int(np.sum(binned.bins.counts)) == int(np.count_nonzero(raw.valid))
    assert np.all(np.isfinite(binned.values))
    assert binned.method is Method.CPMG_SD


def test_sd_rejects_a_negative_bin_count(dc_lorentzian):
    curves = _sd_curves(dc_lorentzian, (1,), np.geomspace(5e-5, 1e-3, 4))
    with pytest.raises(ValidationError, match="bin_count"):
        cpmg_sd(curves, bin_count=-3)
    # None and 0 both mean raw points
    raw = cpmg_sd(curves, bin_count=None)
    assert np.array_equal(cpmg_sd(curves, bin_count=0).values, raw.values,
                          equal_nan=True)


def test_binned_uncertainty_is_the_spread_of_its_bin(dc_lorentzian):
    times = np.geomspace(5e-5, 1e-3, 8)
    curves = _sd_curves(dc_lorentzian, (1, 2, 4), times)
    raw = cpmg_sd(curves, bin_count=None)
    binned = cpmg_sd(curves, bin_count=6)
    w, v = raw.omegas[raw.valid], raw.values[raw.valid]
    edges = binned.bins.edges
    masks = [(w >= lo) & (w < hi) for lo, hi in zip(edges[:-1], edges[1:])]
    masks = [m for m in masks if np.any(m)]
    spreads = [float(np.std(v[m])) for m in masks]
    assert np.count_nonzero(spreads) >= 2
    assert binned.uncertainties.tolist() == pytest.approx(spreads, rel=1e-12)
    # the per-bin mask loop is the reference for the binned means, bit for bit
    assert binned.omegas.tolist() == [float(np.mean(w[m])) for m in masks]
    assert binned.values.tolist() == [float(np.mean(v[m])) for m in masks]


@pytest.fixture(scope="module")
def coincident_probes():
    # the peak study's pulse trains probe 112 points at 28 frequencies,
    # each n meeting them as z0 / (z0 / g), i.e. g up to an ulp
    curves, _, _ = peak_study_curves(default_experiment_spectrum())
    return [add_measurement_noise(c, 0.03, seed=i)
            for i, c in enumerate(curves)]


def test_sd_ignores_a_one_ulp_move_of_coincident_probes(coincident_probes):
    # the stable sort's order of near-ties and np.interp over duplicate
    # nodes moved the binned values by 1e-2 of their maximum
    nudged = [replace(c, xs=np.nextafter(c.xs, np.inf))
              for c in coincident_probes]
    base, moved = cpmg_sd(coincident_probes), cpmg_sd(nudged)
    assert base.omegas.size == moved.omegas.size
    assert np.max(np.abs(moved.values - base.values)) \
        <= 1e-9 * np.max(np.abs(base.values))


@pytest.mark.parametrize("bin_count", [40, None])
def test_sd_does_not_depend_on_the_order_of_its_curves(coincident_probes,
                                                       bin_count):
    a = cpmg_sd(coincident_probes, bin_count)
    b = cpmg_sd(coincident_probes[::-1], bin_count)
    for key in ("omegas", "values", "uncertainties", "flags"):
        assert np.array_equal(getattr(a, key), getattr(b, key),
                              equal_nan=key != "flags"), key


def test_coincident_probes_share_one_frequency(coincident_probes):
    raw = cpmg_sd(coincident_probes, bin_count=None)
    assert raw.omegas.size == 112
    assert np.unique(raw.omegas).size == 28


def test_sd_requires_pulsed_time_curves(bath):
    sweep = synth_dysco_sweep(bath, SequenceSpec.dysco(duration=2e-4,
                                                       mod_frequency=1e5),
                              [5e4, 1e5, 2e5])
    with pytest.raises(ValidationError):
        cpmg_sd([sweep])
    with pytest.raises(ValidationError):
        cpmg_sd([])


def test_sd_flags_unphysical_points():
    # A plateau head keeps the rescale reference neutral; the point that
    # decayed through zero has no usable log and must be flagged.
    xs = np.geomspace(5e-5, 5e-4, 6)
    cs = np.array([0.9, 0.9, 0.9, 0.7, 0.5, -0.02])
    bad = CoherenceCurve(
        xs=xs, coherences=cs,
        uncertainties=np.zeros(6),
        sequence=SequenceSpec.cpmg(2, duration=float(xs[-1])),
        provenance=Provenance("synthetic"))
    recon = cpmg_sd([bad], bin_count=None)
    assert recon.metadata["n_clipped"] == 1
    clipped = recon.flags == FLAG_CLIPPED
    assert int(np.count_nonzero(clipped)) == 1
    assert np.all(np.isnan(recon.values[clipped]))
    assert int(np.count_nonzero(recon.valid)) == 5


def test_sd_warns_when_band_top_carries_power():
    # Probing far below the spectral extent leaves unsubtracted harmonics.
    times = np.geomspace(2e-4, 2e-3, 6)
    recon = cpmg_sd(_sd_curves(_flat(2e3), (1,), times), bin_count=None)
    assert "warning" in recon.metadata


# --------------------------------------------------------------------------
# Direct extraction from a continuous sweep


@pytest.mark.parametrize("family", ["dysco", "gdysco"])
def test_direct_extract_identity_on_lobe_limited_bath(family):
    # If the bath is constant across the filter lobe (and absent outside),
    # extraction at the lobe center returns the level exactly.
    ctor = SequenceSpec.dysco if family == "dysco" else SequenceSpec.gdysco
    template = ctor(duration=2e-4, mod_frequency=2e5)
    stats = peak_stats(dysco_ff(template))
    w0 = 2.0 * math.pi * stats.f0
    half = math.pi * stats.fwhm
    level = 4e3
    lo, hi = w0 - half, w0 + half
    hat = tabulated(
        np.array([0.0, lo * (1 - 1e-6), lo, hi, hi * (1 + 1e-6), 1e9]),
        np.array([0.0, 0.0, level, level, 0.0, 0.0]))
    sweep = synth_dysco_sweep(hat, template, [1.4e5, 1.7e5, 2e5, 2.3e5, 2.6e5],
                              rel_tol=1e-6)
    recon = direct_extract(sweep, contrast=1.0)
    center = int(np.argmin(np.abs(recon.omegas - w0)))
    assert recon.values[center] == pytest.approx(level, rel=5e-3)
    assert recon.method is (Method.DYSCO_DIRECT if family == "dysco"
                            else Method.GDYSCO_DIRECT)


def test_direct_extract_uses_plateau_when_no_contrast_given(bath):
    template = SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5)
    fs = np.linspace(2e4, 6e5, 30)
    sweep = synth_dysco_sweep(bath, template, fs)
    recon = direct_extract(sweep)
    assert recon.metadata["contrast"] == pytest.approx(
        plateau_contrast(sweep), rel=1e-12)
    assert np.any(recon.valid)


def test_plateau_contrast_is_top_decile_median():
    xs = np.linspace(1e4, 1e5, 20)
    cs = np.linspace(0.2, 0.99, 20)
    curve = CoherenceCurve(
        xs=xs, coherences=cs,
        uncertainties=np.zeros(20),
        sequence=SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5),
        provenance=Provenance("synthetic"))
    assert plateau_contrast(curve) == pytest.approx(
        float(np.median(np.sort(cs)[-2:])), rel=1e-12)


def test_direct_extract_flags_out_of_range_points():
    xs = np.array([5e4, 1e5, 2e5])
    cs = np.array([0.9, 1.2, -0.01])
    curve = CoherenceCurve(
        xs=xs, coherences=cs,
        uncertainties=np.full(3, 0.01),
        sequence=SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5),
        provenance=Provenance("synthetic"))
    recon = direct_extract(curve, contrast=1.0)
    assert recon.flags[0] == FLAG_OK
    assert recon.flags[1] == FLAG_CLIPPED
    assert recon.flags[2] == FLAG_CLIPPED
    assert recon.metadata["n_clipped"] == 2


# Both routes share one clip rule: with u = 0.01 a rescaled coherence of
# exactly 1 + 3u is kept, the next double above it is clipped, and so is 0.
_EDGE = 1.0 + 3.0 * 0.01
_CLIP_CASES = np.array([1.0, 1.0, 1.0, _EDGE, np.nextafter(_EDGE, 2.0), 0.0, 0.5])
_CLIPPED = np.array([False, False, False, False, True, True, False])


def _sd_route(cs):
    # the plateau head of three 1.0 points makes the rescale reference 1.0
    xs = np.geomspace(5e-5, 5e-4, cs.size)
    curve = CoherenceCurve(
        xs=xs, coherences=cs,
        uncertainties=np.full(cs.size, 0.01),
        sequence=SequenceSpec.cpmg(2, duration=float(xs[-1])),
        provenance=Provenance("synthetic"))
    recon = cpmg_sd([curve], bin_count=None)
    return recon.flags[::-1], recon.values[::-1]    # omega0 falls as t grows


def _direct_route(cs):
    xs = np.linspace(5e4, 2e5, cs.size)
    curve = CoherenceCurve(
        xs=xs, coherences=cs,
        uncertainties=np.full(cs.size, 0.01),
        sequence=SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5),
        provenance=Provenance("synthetic"))
    recon = direct_extract(curve, contrast=1.0)
    return recon.flags, recon.values


@pytest.mark.parametrize("route", [_sd_route, _direct_route],
                         ids=["cpmg_sd", "direct_extract"])
def test_clip_boundary_is_shared_by_both_routes(route):
    flags, values = route(_CLIP_CASES)
    assert np.array_equal(flags, np.where(_CLIPPED, FLAG_CLIPPED, FLAG_OK))
    assert np.array_equal(np.isnan(values), _CLIPPED)


def test_direct_extract_rejects_time_curves(bath):
    (curve,) = synth_cpmg_family(bath, [2],
                                 time_grid_per_n=[np.geomspace(1e-5, 1e-4, 4)])
    with pytest.raises(ValidationError):
        direct_extract(curve, contrast=1.0)


# --------------------------------------------------------------------------
# Dynamic range


def test_dynamic_range_frozen_values():
    dur, eps = 2e-4, 0.03
    cpmg = dynamic_range(SequenceSpec.cpmg(16, duration=dur), eps)
    dysco_template = SequenceSpec.dysco(duration=dur, mod_frequency=2e5)
    dysco = dynamic_range(dysco_template, eps, a_max=0.8)
    dysco_norm = dynamic_range(dysco_template, eps, a_max=0.8,
                               normalized_contrast=True)
    gdysco = dynamic_range(SequenceSpec.gdysco(duration=dur,
                                               mod_frequency=2e5), eps)
    assert cpmg.ratio == pytest.approx(115.1231, rel=1e-3)
    assert dysco.ratio == pytest.approx(13.4163, rel=1e-3)
    assert dysco_norm.ratio == pytest.approx(85.9056, rel=1e-3)
    assert gdysco.s_max / cpmg.s_max == pytest.approx(5.2061, rel=1e-3)
    for r in (cpmg, dysco, dysco_norm, gdysco):
        assert 0.0 < r.s_min < r.s_max


def test_dynamic_range_validation():
    template = SequenceSpec.cpmg(16, duration=2e-4)
    with pytest.raises(ValidationError):
        dynamic_range(template, epsilon=0.0)
    with pytest.raises(ValidationError):
        dynamic_range(template, epsilon=0.5, a_max=0.4)
    with pytest.raises(ValidationError):
        dynamic_range(template, epsilon=0.03, a_max=1.5)


# --------------------------------------------------------------------------
# ReconstructedSpectrum container


def test_reconstruction_shift():
    recon = ReconstructedSpectrum(
        omegas=np.array([1.0, 2.0, 3.0]), values=np.array([4.0, 5.0, 6.0]),
        uncertainties=np.zeros(3), flags=np.zeros(3, dtype=int),
        method=Method.CPMG_SD)
    moved = recon.shifted(10.0)
    assert np.array_equal(moved.omegas, [11.0, 12.0, 13.0])
    assert np.array_equal(moved.values, recon.values)


def test_reconstruction_validation():
    with pytest.raises(ValidationError):
        ReconstructedSpectrum(
            omegas=np.array([1.0, 2.0]), values=np.array([1.0]),
            uncertainties=np.zeros(2), flags=np.zeros(2, dtype=int),
            method=Method.CPMG_SD)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reconstruction_rejects_non_finite_omegas(bad):
    # a NaN value is legal (a clipped point carries one); a NaN omega is not
    def make(omegas):
        return ReconstructedSpectrum(
            omegas=np.asarray(omegas), values=np.array([1.0, math.nan, 3.0]),
            uncertainties=np.zeros(3), flags=np.array([0, FLAG_CLIPPED, 0]),
            method=Method.CPMG_SD)
    assert make([1.0, 2.0, 3.0]).omegas.size == 3
    with pytest.raises(ValidationError, match="finite"):
        make([1.0, 2.0, bad])
    with pytest.raises(ValidationError, match="finite"):
        make([bad, 2.0, 3.0])
