"""Filter functions: analytic forms, numeric transforms, peak statistics."""

import math

import numpy as np
import pytest

from noisespec import (
    Family,
    SensitivityTrace,
    SequenceSpec,
    ValidationError,
    build_trace,
    cpmg_ff,
    default_continuous_omegas,
    default_cpmg_omegas,
    dysco_ff,
    numeric_ff,
    peak_stats,
)
from noisespec.filters import FilterRows, _cpmg_values

# Frozen from an independent dense-grid scan of the closed forms; peak
# positions quoted as z0/pi with z = omega * duration.
PEAK_Z_OVER_PI = {
    1: 1.48405,
    2: 2.29565,
    3: 3.21297,
    4: 4.16513,
    8: 8.08561,
    16: 16.04323,
}

GAIN_BY_N = {1: 0.6829, 2: 0.5878, 4: 0.5837, 8: 0.5847, 16: 0.5851}
LOBE_BY_N = {1: 0.8557, 2: 0.7360, 4: 0.7321, 8: 0.7318, 16: 0.7318}


# --------------------------------------------------------------------------
# Closed-form pulsed filters


@pytest.mark.parametrize("n", sorted(PEAK_Z_OVER_PI))
def test_cpmg_peak_positions(n):
    stats = peak_stats(cpmg_ff(n, 1.0))
    z0 = 2.0 * math.pi * stats.f0
    assert z0 / math.pi == pytest.approx(PEAK_Z_OVER_PI[n], rel=1e-3)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_cpmg_gain_and_lobe_area(n, provider):
    stats = peak_stats(cpmg_ff(n, 1.0))
    assert stats.gain == pytest.approx(GAIN_BY_N[n], rel=5e-3)
    assert stats.main_lobe_area == pytest.approx(LOBE_BY_N[n], rel=5e-3)
    assert provider.gain(n) == pytest.approx(stats.gain, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_cpmg_gain_lobe_total_ordering(n):
    stats = peak_stats(cpmg_ff(n, 1.0))
    assert 0.0 < stats.gain <= stats.main_lobe_area <= stats.total_area


def test_cpmg_normalization_against_independent_rule():
    # Unit mean-square traces must carry unit filter area.
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        z = np.arange(1e-4, 400.0 * math.pi * n, math.pi / 16.0)
        ff = cpmg_ff(n, 1.0, omegas=z)
        area = float(np.trapezoid(ff.values, ff.omegas))
        tail = 0.375 * (math.pi * n) / z[-1]
        assert area + tail == pytest.approx(1.0, abs=1e-3), f"n={n}"


def test_cpmg_duration_scaling_is_exact():
    base = peak_stats(cpmg_ff(8, 1.0))
    scaled = peak_stats(cpmg_ff(8, 2e-4))
    assert scaled.f0 == pytest.approx(base.f0 / 2e-4, rel=1e-9)
    assert scaled.fwhm == pytest.approx(base.fwhm / 2e-4, rel=1e-9)
    assert scaled.gain == pytest.approx(base.gain, rel=1e-9)


def test_cpmg_fwhm_narrows_toward_089_over_t():
    fwhm_t = {n: peak_stats(cpmg_ff(n, 1.0)).fwhm for n in (1, 4, 16)}
    assert fwhm_t[1] < fwhm_t[4] < fwhm_t[16]
    assert fwhm_t[16] == pytest.approx(0.88434, rel=1e-3)


def test_cpmg8_second_harmonic_near_three_omega0():
    stats = peak_stats(cpmg_ff(8, 1.0))
    ratios = np.asarray(stats.harmonic_frequencies) / stats.f0
    assert np.any((ratios > 2.8) & (ratios < 3.05))


def test_cpmg_pole_frequencies_are_finite():
    # cos(z/2N) vanishes at z = N*pi; the evaluation must stay finite there.
    n, t = 2, 1.0
    z = np.array([1.0, 2.0, 2.0 * math.pi, 8.0, 10.0, 12.0, 14.0, 16.0])
    ff = cpmg_ff(n, t, omegas=z)
    assert np.all(np.isfinite(ff.values))
    assert np.all(ff.values >= 0.0)


_LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps


@pytest.mark.skipif(not _LONG_DOUBLE, reason="long double is double here")
def test_cpmg_values_match_a_long_double_evaluation():
    # the same closed form at the same double arguments (z = omega t, the
    # quarter angle z / 4n and z / 2), evaluated in long double: squaring
    # sin^4 instead of calling pow keeps the kernel within a few roundings
    ld = np.longdouble
    pi = 4.0 * np.arctan(ld(1.0))
    rng = np.random.default_rng(7)
    errors = []
    for n in range(1, 65):
        t = 10.0 ** rng.uniform(-5.0, -3.0)
        w = 10.0 ** rng.uniform(-2.0, 4.0, 4000) / t
        z = w * t
        quarter = (z / (4.0 * n)).astype(ld)
        half = (0.5 * z).astype(ld)
        den = np.cos(2.0 * quarter)
        num = np.sin(half) if n % 2 == 0 else np.cos(half)
        ref = 16.0 * np.sin(quarter) ** 4 * (num / den) ** 2 \
            / (pi * ld(t) * w.astype(ld) ** 2)
        keep = (np.abs(den) >= 1e-7) & (ref > 0.0)   # poles are nudged
        got = _cpmg_values(w, n, t)[keep].astype(ld)
        errors.append((np.abs(got - ref[keep]) / ref[keep]).astype(float))
    errors = np.concatenate(errors)
    assert errors.size > 250_000
    assert np.max(errors) <= 2e-15
    assert np.median(errors) <= 4e-16


def _pair_sum_remainder(n, start, t):
    # the O(n^2) sum over the jump pairs that comb_remainder groups by lag
    times = np.concatenate([[0.0], (np.arange(1, n + 1) - 0.5) / n, [1.0]])
    jumps = np.concatenate([[-1.0], 2.0 * (-1.0) ** np.arange(n),
                            [(-1.0) ** n]])
    i, j = np.triu_indices(n + 2, 1)
    lag, pair = times[j] - times[i], jumps[i] * jumps[j]
    q = np.array([np.sum(pair * np.cos(z * lag) / lag ** 2) for z in start * t])
    return 2.0 * q / (math.pi * t ** 3)


def test_comb_remainder_matches_the_pair_sum():
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        t = 10.0 ** rng.uniform(-5.0, -2.0, 6)
        ids = np.arange(t.size)
        rows = FilterRows(Family.CPMG, t, n_pulses=n)
        start = rows.comb_start(10.0 ** rng.uniform(3.0, 8.0, t.size), ids)
        q = rows.comb_remainder(start, ids)
        ref = _pair_sum_remainder(n, start, t)
        assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref)), n
        # each row alone gives the same bits as in the batch
        assert [rows.comb_remainder(start[[r]], [r])[0] for r in ids] == list(q)


def test_comb_remainder_memory_is_linear_in_the_pulse_count():
    # grouping the n^2 jump pairs by lag: 206 MB traced at n = 3000 before
    import tracemalloc

    t = np.array([1e-4, 3e-4, 1e-3, 3e-3])
    ids = np.arange(t.size)
    rows = FilterRows(Family.CPMG, t, n_pulses=3000)
    start = rows.comb_start(np.full(t.size, 1e9), ids)
    tracemalloc.start()
    try:
        q = rows.comb_remainder(start, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(q))
    assert peak < 5e6


# --------------------------------------------------------------------------
# Continuous filters


def test_dysco_peak_at_modulation_frequency():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    stats = peak_stats(dysco_ff(spec))
    assert stats.f0 == pytest.approx(2e5, rel=1e-6)
    assert stats.fwhm * spec.duration == pytest.approx(0.88592, rel=1e-3)
    assert stats.gain == pytest.approx(0.36099, rel=5e-3)


def test_dysco_first_side_lobe_height():
    # sinc^2 sidelobe: ~4.72% of the peak.
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    ff = dysco_ff(spec)
    peak = float(np.max(ff.values))
    w0 = 2.0 * math.pi * 2e5
    dw = 2.0 * math.pi / spec.duration
    mask = (ff.omegas > w0 + 1.02 * dw) & (ff.omegas < w0 + 1.9 * dw)
    side = float(np.max(ff.values[mask]))
    assert side / peak == pytest.approx(0.04719, rel=0.05)


def test_gdysco_peak_width_and_gain():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)
    stats = peak_stats(dysco_ff(spec))
    assert stats.f0 == pytest.approx(2e5, rel=1e-6)
    assert stats.fwhm * spec.duration == pytest.approx(1.59010, rel=1e-3)
    analytic = math.sqrt(math.log(2.0)) / (math.pi * spec.envelope_sigma)
    assert stats.fwhm == pytest.approx(analytic, rel=1e-3)
    assert stats.gain == pytest.approx(0.11239, rel=5e-3)


def test_gdysco_suppresses_out_of_band_leakage():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)
    ff = dysco_ff(spec)
    peak = float(np.max(ff.values))
    w0 = 2.0 * math.pi * spec.mod_frequency
    low = ff.evaluate(np.array([0.1 * w0, 0.25 * w0, 0.5 * w0]))
    assert float(np.max(low)) < 1e-3 * peak


def test_continuous_total_area_matches_mean_square():
    for spec in (SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5),
                 SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)):
        grid = default_continuous_omegas(spec, span=60.0, points=6000)
        ff = dysco_ff(spec, omegas=grid)
        trace = build_trace(spec, sample_rate=2e7)
        assert ff.total_area() == pytest.approx(trace.mean_square(), rel=0.01)


def test_cpmg_total_area_matches_mean_square():
    z = np.arange(1e-4, 800.0 * math.pi, math.pi / 16.0)
    ff = cpmg_ff(2, 1.0, omegas=z)
    area = float(np.trapezoid(ff.values, ff.omegas)) + 0.375 * 2.0 * math.pi / z[-1]
    trace = build_trace(SequenceSpec.cpmg(n_pulses=2, tau_free=0.25),
                        sample_rate=100.0)
    assert area == pytest.approx(trace.mean_square(), rel=0.01)


# --------------------------------------------------------------------------
# Numeric transform of sampled traces


def test_numeric_cpmg_matches_closed_form_exactly():
    spec = SequenceSpec.cpmg(n_pulses=4, tau_free=2.5e-5)
    trace = build_trace(spec, sample_rate=4e6)
    grid = default_cpmg_omegas(4, spec.duration)
    numeric = numeric_ff(trace, grid)
    analytic = cpmg_ff(4, spec.duration, omegas=grid)
    stats = peak_stats(analytic)
    lobe = (grid > 2 * math.pi * (stats.f0 - stats.fwhm)) & \
           (grid < 2 * math.pi * (stats.f0 + stats.fwhm))
    rel = np.abs(numeric.values[lobe] - analytic.values[lobe]) / np.max(analytic.values)
    # Piecewise-constant traces use the exact segment transform.
    assert float(np.max(rel)) < 1e-6


@pytest.mark.parametrize("family", ["dysco", "gdysco"])
def test_numeric_continuous_matches_closed_form(family):
    ctor = SequenceSpec.dysco if family == "dysco" else SequenceSpec.gdysco
    spec = ctor(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=4e7)
    grid = default_continuous_omegas(spec)
    numeric = numeric_ff(trace, grid)
    analytic = dysco_ff(spec, omegas=grid)
    stats = peak_stats(analytic)
    lobe = (grid > 2 * math.pi * (stats.f0 - stats.fwhm)) & \
           (grid < 2 * math.pi * (stats.f0 + stats.fwhm))
    rel = np.abs(numeric.values[lobe] - analytic.values[lobe]) / np.max(analytic.values)
    assert float(np.max(rel)) < 0.02


def test_numeric_dysco_total_area_near_half():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=4e7)
    grid = default_continuous_omegas(spec, span=60.0, points=6000)
    numeric = numeric_ff(trace, grid)
    assert numeric.total_area() == pytest.approx(0.5, rel=0.01)


def test_numeric_ff_stable_under_sampling_doubling():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    grid = default_continuous_omegas(spec)
    coarse = numeric_ff(build_trace(spec, sample_rate=2e7), grid)
    fine = numeric_ff(build_trace(spec, sample_rate=4e7), grid)
    peak = float(np.max(fine.values))
    drift = float(np.max(np.abs(coarse.values - fine.values))) / peak
    assert drift < 1e-3


def test_constant_trace_concentrates_at_low_frequency():
    t_total = 1e-4
    edges = (np.array([0.0, t_total]), np.array([1.0]))
    times = (np.arange(400) + 0.5) * (t_total / 400)
    trace = SensitivityTrace(times, np.ones(400), t_total, edges)
    base = 2.0 * math.pi / t_total
    grid = np.sort(np.append(np.geomspace(0.05 * base, 40.0 * base, 3000), base))
    ff = numeric_ff(trace, grid)
    peak = float(np.max(ff.values))
    assert int(np.argmax(ff.values)) == 0
    at_base = float(ff.values[np.searchsorted(grid, base)])
    beyond = ff.values[grid > base]
    assert at_base < 1e-2 * peak
    assert float(np.median(beyond)) < 1e-2 * peak
    # first sinc^2 side lobe tops out near 4.7% of the peak
    assert float(np.max(beyond)) < 0.06 * peak


def test_numeric_ff_rejects_undersampled_frequencies():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=1e7)
    nyquist = math.pi / trace.dt
    with pytest.raises(ValidationError):
        numeric_ff(trace, np.linspace(0.1 * nyquist, 3.0 * nyquist, 64))


# --------------------------------------------------------------------------
# Grids and peak statistics plumbing


def test_default_cpmg_grid_resolves_the_main_lobe():
    for n in (1, 8, 64):
        grid = default_cpmg_omegas(n, 1.0)
        assert grid.size >= 8
        assert np.all(np.diff(grid) > 0)
        assert grid[0] > 0
        stats = peak_stats(cpmg_ff(n, 1.0))
        lo, hi = 2 * math.pi * (stats.f0 - stats.fwhm / 2), \
            2 * math.pi * (stats.f0 + stats.fwhm / 2)
        assert int(np.count_nonzero((grid > lo) & (grid < hi))) >= 50


def test_peak_stats_rejects_edge_peaks():
    t_total = 1e-4
    edges = (np.array([0.0, t_total]), np.array([1.0]))
    times = (np.arange(400) + 0.5) * (t_total / 400)
    trace = SensitivityTrace(times, np.ones(400), t_total, edges)
    base = 2.0 * math.pi / t_total
    ff = numeric_ff(trace, np.geomspace(0.05 * base, 40.0 * base, 500))
    with pytest.raises(ValidationError):
        peak_stats(ff)


def test_filter_grid_needs_enough_points():
    with pytest.raises(ValidationError):
        cpmg_ff(2, 1.0, omegas=np.array([1.0, 2.0, 3.0]))


def test_filter_grid_must_increase():
    z = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    with pytest.raises(ValidationError):
        cpmg_ff(2, 1.0, omegas=z)
