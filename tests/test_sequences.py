"""Sequence definitions, sampled traces, and bandwidth planning."""

import math

import numpy as np
import pytest

from noisespec import (
    Family,
    SequenceSpec,
    ValidationError,
    bandwidth_report,
    build_trace,
)


# --------------------------------------------------------------------------
# SequenceSpec construction and validation


def test_cpmg_constructor_sets_duration():
    spec = SequenceSpec.cpmg(n_pulses=16, tau_free=5e-6)
    assert spec.family is Family.CPMG
    assert spec.n_pulses == 16
    assert spec.duration == pytest.approx(160e-6, rel=1e-12)


def test_hahn_is_single_pulse():
    spec = SequenceSpec.hahn(tau_free=5e-6)
    assert spec.family is Family.HAHN
    assert spec.family.pulsed
    assert spec.n_pulses == 1
    assert spec.duration == pytest.approx(1e-5, rel=1e-12)


_DURATIONS = np.geomspace(3e-5, 3e-3, 997)


@pytest.mark.parametrize("n", range(1, 9))
def test_given_cpmg_duration_is_kept_bitwise(n):
    # 2n (t / 2n) moves t by 1 ulp for some t at n = 3, 5, 6
    for t in _DURATIONS:
        spec = SequenceSpec.cpmg(n, duration=float(t))
        assert spec.duration == t
        assert spec.tau_free == t / (2 * n)


def test_given_hahn_duration_is_kept_bitwise():
    for t in _DURATIONS:
        assert SequenceSpec(Family.HAHN, duration=float(t)).duration == t
        assert SequenceSpec.hahn(float(t) / 2.0).duration == t


def test_duration_tau_mismatch_rejected():
    with pytest.raises(ValidationError):
        SequenceSpec(family=Family.CPMG, n_pulses=4, tau_free=1e-6,
                     duration=9e-6)


def test_pulsed_needs_positive_pulse_count():
    with pytest.raises(ValidationError):
        SequenceSpec(family=Family.CPMG, n_pulses=0, tau_free=1e-6,
                     duration=2e-6)


def test_continuous_needs_at_least_one_period():
    # f0 * duration >= 1 so the trace contains a full modulation cycle.
    with pytest.raises(ValidationError):
        SequenceSpec.dysco(duration=1e-6, mod_frequency=1e5)


def test_gdysco_default_sigma_is_sixth_of_duration():
    spec = SequenceSpec.gdysco(duration=200e-6, mod_frequency=2e5)
    assert spec.envelope_sigma == pytest.approx(200e-6 / 6, rel=1e-12)


def test_amplitude_must_be_in_unit_interval():
    with pytest.raises(ValidationError):
        SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5, amplitude=1.5)
    with pytest.raises(ValidationError):
        SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5, amplitude=0.0)


@pytest.mark.parametrize("family, n", [(Family.CPMG, 8), (Family.HAHN, 1)])
def test_pulse_train_has_unit_amplitude(family, n):
    # its filter is the unit-amplitude closed form: a lower amplitude would
    # scale the trace, and the Monte Carlo chi (by 1/4 at 0.5), but not
    # the filter that the quadrature chi integrates
    with pytest.raises(ValidationError, match="amplitude"):
        SequenceSpec(family, duration=2e-5, n_pulses=n, amplitude=0.5)
    assert SequenceSpec(family, duration=2e-5, n_pulses=n,
                        amplitude=1.0).amplitude == 1.0


def test_quantization_only_for_continuous_families():
    with pytest.raises(ValidationError):
        SequenceSpec(family=Family.CPMG, n_pulses=2, tau_free=1e-6,
                     duration=4e-6, quant_steps=8)


def test_hahn_rejects_a_second_pulse():
    with pytest.raises(ValidationError, match="exactly one pulse"):
        SequenceSpec(Family.HAHN, duration=4e-5, n_pulses=2)
    assert SequenceSpec(Family.HAHN, duration=4e-5).n_pulses == 1


def test_roundtrip_through_dict():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=3e5,
                               envelope_sigma=4e-5, amplitude=0.8)
    clone = SequenceSpec.from_dict(spec.to_dict())
    assert clone == spec


@pytest.mark.parametrize("n_pulses", [math.inf, -math.inf, math.nan])
def test_from_dict_rejects_a_non_finite_pulse_count(n_pulses):
    payload = SequenceSpec.cpmg(2, duration=1e-4).to_dict()
    payload["n_pulses"] = n_pulses
    with pytest.raises(ValidationError):
        SequenceSpec.from_dict(payload)


def test_from_dict_rejects_unknown_keys():
    payload = SequenceSpec.hahn(tau_free=1e-6).to_dict()
    payload["phase"] = 0.5
    with pytest.raises(ValidationError):
        SequenceSpec.from_dict(payload)


# --------------------------------------------------------------------------
# Sampled traces


def test_hahn_trace_flips_once_at_tau():
    tau = 5e-6
    trace = build_trace(SequenceSpec.hahn(tau_free=tau), sample_rate=4e7)
    assert trace.sign_flips() == 1
    early = trace.values[trace.times < tau]
    late = trace.values[trace.times > tau]
    assert np.all(early == 1.0)
    assert np.all(late == -1.0)
    edges, segs = trace.step_edges
    assert np.allclose(edges, [0.0, tau, 2 * tau], rtol=1e-12)
    assert np.array_equal(segs, [1.0, -1.0])


def test_cpmg16_trace_structure():
    spec = SequenceSpec.cpmg(n_pulses=16, tau_free=5e-6)
    trace = build_trace(spec, sample_rate=4e7)
    assert trace.sign_flips() == 16
    assert set(np.unique(trace.values)) == {-1.0, 1.0}
    # Unit-amplitude pulsed traces have mean square exactly one.
    assert trace.mean_square() == 1.0
    edges, segs = trace.step_edges
    gaps = np.diff(edges)
    assert gaps[0] == pytest.approx(spec.tau_free, rel=1e-12)
    assert np.allclose(gaps[1:-1], 2 * spec.tau_free, rtol=1e-12)
    assert gaps[-1] == pytest.approx(spec.tau_free, rel=1e-12)
    assert np.array_equal(np.sign(segs), (-1.0) ** np.arange(17))


def test_dysco_trace_mean_square_is_half():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=2e7)
    assert abs(trace.mean_square() - 0.5) <= 1.0 / (2e5 * 2e-4)


def test_gdysco_trace_mean_square_matches_envelope_integral():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=2e7)
    sigma, dur = spec.envelope_sigma, spec.duration
    predicted = (sigma * math.sqrt(math.pi) / (2.0 * dur)
                 * math.erf(dur / (2.0 * sigma)))
    assert trace.mean_square() == pytest.approx(predicted, rel=0.02)


def test_gdysco_trace_peaks_near_center():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)
    trace = build_trace(spec, sample_rate=2e7)
    peak_idx = int(np.argmax(np.abs(trace.values)))
    assert np.max(np.abs(trace.values)) > 0.995
    assert abs(trace.times[peak_idx] - spec.duration / 2) < 1.0 / spec.mod_frequency


def test_trace_values_bounded_by_amplitude():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5, amplitude=0.8)
    trace = build_trace(spec, sample_rate=1e7)
    assert np.max(np.abs(trace.values)) <= 0.8 + 1e-12


def test_quantized_carrier_is_piecewise_constant():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=5e4, quant_steps=8)
    trace = build_trace(spec, sample_rate=2e7)
    edges, segs = trace.step_edges
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(spec.duration, rel=1e-12)
    assert segs.size == edges.size - 1
    # at most quant level count of distinct magnitudes
    assert np.unique(np.round(np.abs(trace.values), 12)).size <= 8


def test_trace_is_deterministic():
    spec = SequenceSpec.cpmg(n_pulses=4, tau_free=2e-6)
    a = build_trace(spec, sample_rate=1e8)
    b = build_trace(spec, sample_rate=1e8)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)


def test_too_coarse_sample_rate_rejected():
    spec = SequenceSpec.cpmg(n_pulses=8, tau_free=1e-6)
    with pytest.raises(ValidationError):
        build_trace(spec, sample_rate=1e6)


@pytest.mark.parametrize("spec", [SequenceSpec.hahn(1e-5),
                                  SequenceSpec.dysco(2e-4, 8e4)],
                         ids=["hahn", "dysco"])
@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_sample_rate_must_be_finite(spec, rate):
    with pytest.raises(ValidationError, match="sample_rate"):
        build_trace(spec, sample_rate=rate)


@pytest.mark.parametrize("spec, rate", [
    (SequenceSpec.hahn(1e-5), 5.0000001e11),    # 2 x 5000001 samples
    (SequenceSpec.hahn(1e-5), 1e14),
    (SequenceSpec.hahn(1e-5), 1e300),
    (SequenceSpec.hahn(1e300), 1e10),           # tau * rate is inf
    (SequenceSpec.dysco(2e-4, 8e4), 5.1e10),
    (SequenceSpec.dysco(1e300, 1.0), 1e10),
], ids=["hahn-past-cap", "hahn-1e14", "hahn-1e300", "hahn-inf-count",
        "dysco-past-cap", "dysco-inf-count"])
def test_trace_size_is_capped_before_allocation(spec, rate):
    with pytest.raises(ValidationError, match="cap of 1e\\+07"):
        build_trace(spec, sample_rate=rate)


# --------------------------------------------------------------------------
# Bandwidth planning


def test_pulsed_band_floor_set_by_coherence_time():
    report = bandwidth_report(SequenceSpec.cpmg(n_pulses=8, tau_free=10e-6),
                              f_rabi=20e6, t2_echo=488e-6)
    assert report.f_min == pytest.approx(1.0 / (2 * 488e-6), rel=1e-12)
    assert report.f_min == pytest.approx(1.02e3, rel=0.05)
    assert report.f_max == pytest.approx(2e6, rel=1e-12)
    assert report.fwhm == pytest.approx(0.89 / 160e-6, rel=1e-12)


def test_pulsed_band_requires_t2():
    with pytest.raises(ValidationError):
        bandwidth_report(SequenceSpec.cpmg(n_pulses=8, tau_free=10e-6),
                         f_rabi=20e6)


def test_continuous_band_floor_is_inverse_duration():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5)
    report = bandwidth_report(spec, f_rabi=20e6)
    assert report.f_min == pytest.approx(5e3, rel=1e-12)
    assert report.f_max == math.inf
    assert "unbounded-by-quantization" in report.note


def test_quantized_continuous_band_ceiling():
    spec = SequenceSpec.dysco(duration=2e-4, mod_frequency=2e5,
                              quant_steps=16)
    report = bandwidth_report(spec, f_rabi=20e6)
    assert report.f_max == pytest.approx(20e6 / (2 * 16 * 10), rel=1e-12)


def test_gdysco_resolution_uses_gaussian_width():
    spec = SequenceSpec.gdysco(duration=2e-4, mod_frequency=2e5)
    report = bandwidth_report(spec, f_rabi=20e6)
    expected = math.sqrt(math.log(2)) / (math.pi * spec.envelope_sigma)
    assert report.fwhm == pytest.approx(expected, rel=1e-12)


def test_empty_band_is_flagged():
    # Rabi ceiling below the echo-time floor leaves no usable band.
    report = bandwidth_report(SequenceSpec.cpmg(n_pulses=2, tau_free=1e-5),
                              f_rabi=4e3, t2_echo=1e-3)
    assert report.f_max <= report.f_min
    assert "empty band" in report.note
