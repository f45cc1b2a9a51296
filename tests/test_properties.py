"""Randomized invariants of the analytic building blocks."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from noisespec import (
    CoherenceCurve,
    CpmgFilterProvider,
    Provenance,
    SequenceSpec,
    add_measurement_noise,
    build_trace,
    cpmg_ff,
    lorentzian_dc,
    peak_stats,
)

_PROVIDER = CpmgFilterProvider()

pulse_counts = st.integers(min_value=1, max_value=24)
taus = st.floats(min_value=1e-7, max_value=1e-4,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(n=pulse_counts, tau=taus)
def test_ff_positive_with_nested_areas(n, tau):
    ff = cpmg_ff(n, 2.0 * n * tau)
    assert np.all(ff.values >= 0.0)
    stats = peak_stats(ff)
    # FWHM window sits inside the main lobe; the grid covers less than
    # the full unit area.
    assert 0.0 < stats.gain <= stats.main_lobe_area <= stats.total_area < 1.01


@settings(max_examples=25, deadline=None)
@given(n=pulse_counts, tau=taus)
def test_peak_sits_in_first_half_period_above_n(n, tau):
    t = 2.0 * n * tau
    z0 = _PROVIDER.omega0(n, t) * t
    assert 0.0 < z0 / math.pi - n < 0.5


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=32), tau=taus)
def test_pulsed_trace_flip_count_and_unit_power(n, tau):
    spec = SequenceSpec.cpmg(n, tau_free=tau)
    trace = build_trace(spec, sample_rate=16.0 / tau)
    assert trace.sign_flips() == n
    assert np.max(np.abs(trace.values)) <= 1.0
    assert trace.mean_square() == 1.0


@settings(max_examples=25, deadline=None)
@given(
    delta=st.floats(min_value=1e2, max_value=1e6),
    sigma=st.floats(min_value=1e3, max_value=1e6),
    factor=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaled_spectrum_is_pointwise_multiple(delta, sigma, factor):
    spectrum = lorentzian_dc(delta=delta, sigma=sigma)
    omegas = np.linspace(0.0, 4.0 * sigma, 33)
    base = spectrum.eval(omegas)
    assert np.all(base >= 0.0)
    assert np.array_equal(spectrum.scaled(factor).eval(omegas), factor * base)


def _flat_curve(n_points: int = 8) -> CoherenceCurve:
    xs = np.linspace(1e-5, 1e-3, n_points)
    return CoherenceCurve(
        xs=xs,
        coherences=np.full(n_points, 0.5),
        uncertainties=np.zeros(n_points),
        sequence=SequenceSpec.cpmg(2, duration=float(xs[-1])),
        provenance=Provenance("synthetic"),
    )


_CURVE = _flat_curve()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    epsilon=st.floats(min_value=1e-3, max_value=0.2),
)
def test_measurement_noise_is_a_pure_function_of_seed(seed, epsilon):
    a = add_measurement_noise(_CURVE, epsilon, seed=seed)
    b = add_measurement_noise(_CURVE, epsilon, seed=seed)
    c = add_measurement_noise(_CURVE, epsilon, seed=seed + 1)
    assert np.array_equal(a.coherences, b.coherences)
    assert not np.array_equal(a.coherences, c.coherences)
    assert np.all(a.uncertainties == epsilon)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sequence_dict_roundtrip(data):
    family = data.draw(st.sampled_from(["cpmg", "hahn", "dysco", "gdysco"]))
    if family == "cpmg":
        spec = SequenceSpec.cpmg(data.draw(st.integers(1, 64)),
                                 tau_free=data.draw(taus))
    elif family == "hahn":
        spec = SequenceSpec.hahn(data.draw(taus))
    else:
        duration = data.draw(st.floats(min_value=1e-5, max_value=1e-3))
        cycles = data.draw(st.integers(min_value=1, max_value=50))
        # cycles/duration*duration can round to just under one period
        assume(cycles / duration * duration >= 1.0)
        if family == "dysco":
            spec = SequenceSpec.dysco(
                duration, cycles / duration,
                quant_steps=data.draw(st.sampled_from([0, 8, 16])))
        else:
            spec = SequenceSpec.gdysco(duration, cycles / duration)
    assert SequenceSpec.from_dict(spec.to_dict()) == spec
