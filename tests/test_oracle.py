"""Monte Carlo dephasing oracle: conventions, convergence, determinism."""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0

from noisespec import (
    McConfig,
    SensitivityTrace,
    SequenceSpec,
    ValidationError,
    build_trace,
    chi,
    cpmg_ff,
    gaussian_peak,
    lorentzian_dc,
    mc_coherence,
    tabulated,
)
from noisespec import oracle
from noisespec.oracle import _constant_runs, _cos_turns, _mode_integrals

# Frozen reference run: composite bath, CPMG-4 over 20 us, 512 modes over
# the band the trace resolves, 400 realizations, seed 1.  Guards the
# sampling conventions (one-sided spectral density, midpoint mode
# placement, counter-seeded streams).
_REF_COHERENCE = 0.6773180970553131
_REF_CHI_EST = 0.39574385982530125
_REF_CHI_EXP = 0.3873009624797149

# The same run with the modes stopping at the spectrum extent, frozen from
# the dense kernel with one realization at a time.  The run-sum kernel
# reorders the float64 sums, so these hold to rounding, not bitwise.
_EXTENT_COHERENCE = 0.69968614304856547
_EXTENT_CHI_EST = 0.36228090148960762
_EXTENT_CHI_EXP = 0.38705137311503024


def _flat(level: float, top: float):
    return tabulated(np.array([0.0, top]), np.array([level, level]))


def _ref_run(bath, **overrides):
    spec = SequenceSpec.cpmg(4, duration=2e-5)
    trace = build_trace(spec, sample_rate=120.0 / 2e-5)
    params = dict(n_realizations=400, seed=1, spectral_components=512)
    params.update(overrides)
    return mc_coherence(bath, trace, McConfig(**params))


def test_flat_spectrum_chi_convention():
    # chi_expected must reproduce (t/2) * S for a flat one-sided density.
    t, level, top = 4e-5, 5e3, 2e7
    spec = SequenceSpec.cpmg(2, duration=t)
    trace = build_trace(spec, sample_rate=40.0 * top / (2.0 * math.pi))
    cfg = McConfig(n_realizations=600, seed=3, spectral_components=4096,
                   omega_max=top)
    result = mc_coherence(_flat(level, top), trace, cfg)
    assert result.chi_expected == pytest.approx(0.5 * t * level, rel=0.01)
    assert abs(result.chi_estimate - result.chi_expected) <= 3.0 * result.chi_stderr


def _dense_mode_integrals(trace, omegas):
    # reference: the midpoint sums over every sample, in blocks of modes
    ws = trace.dt * trace.values
    ic = np.empty(omegas.size)
    is_ = np.empty(omegas.size)
    for start in range(0, omegas.size, 128):
        arg = np.outer(omegas[start:start + 128], trace.times)
        ic[start:start + 128] = np.cos(arg) @ ws
        is_[start:start + 128] = np.sin(arg) @ ws
    return ic, is_


def _serial_mc(spectrum, trace, cfg):
    # reference: dense mode integrals, then one realization at a time with
    # a cosine and a sine per mode
    k, n = cfg.spectral_components, cfg.n_realizations
    d_omega = cfg.omega_max / k
    omegas = (np.arange(k) + 0.5) * d_omega
    amps = np.sqrt(2.0 * spectrum.eval(omegas) * d_omega / math.pi)
    ic, is_ = _dense_mode_integrals(trace, omegas)
    u, v = amps * ic, amps * is_
    phis = np.empty(n)
    for i in range(n):
        theta = np.random.default_rng([cfg.seed, i]).uniform(0.0, 2.0 * math.pi, k)
        phis[i] = u @ np.cos(theta) - v @ np.sin(theta)
    cos_phi, phi_sq = np.cos(phis), phis * phis
    return {
        "coherence": np.mean(cos_phi),
        "stderr": np.std(cos_phi, ddof=1) / math.sqrt(n),
        "chi_estimate": np.mean(phi_sq) / 2.0,
        "chi_stderr": np.std(phi_sq, ddof=1) / (2.0 * math.sqrt(n)),
        "chi_expected": 0.25 * amps @ (amps * (ic * ic + is_ * is_)),
    }


def _resolved_band(trace):
    return 2.0 * math.pi / (10.0 * trace.dt)


def _assert_run_sums_match_dense(trace, omegas):
    runs = _constant_runs(trace.values)
    scale = trace.dt * np.sum(np.abs(trace.values))
    # the relative bound underflows for subnormal products; allow one
    # subnormal step per sample on top of it
    bound = 1e-12 * scale + trace.values.size * np.finfo(float).smallest_subnormal
    for got, want in zip(_mode_integrals(trace, runs, omegas),
                         _dense_mode_integrals(trace, omegas)):
        assert np.max(np.abs(got - want)) <= bound


def test_reference_run_bitwise_frozen(bath):
    result = _ref_run(bath)
    assert result.coherence == _REF_COHERENCE
    assert result.chi_estimate == _REF_CHI_EST
    assert result.chi_expected == _REF_CHI_EXP
    assert result.n_realizations == 400
    assert result.n_modes == 512


def test_extent_band_run_matches_the_serial_kernels(bath):
    result = _ref_run(bath, omega_max=bath.extent())
    assert result.coherence == pytest.approx(_EXTENT_COHERENCE, rel=1e-13, abs=0)
    assert result.chi_estimate == pytest.approx(_EXTENT_CHI_EST, rel=1e-13, abs=0)
    assert result.chi_expected == pytest.approx(_EXTENT_CHI_EXP, rel=1e-13, abs=0)


def test_default_band_is_the_resolved_band(bath):
    spec = SequenceSpec.cpmg(4, duration=2e-5)
    trace = build_trace(spec, sample_rate=120.0 / 2e-5)
    result = _ref_run(bath)
    assert result.omega_max == _resolved_band(trace)
    assert result.omega_max > bath.extent()


@pytest.mark.parametrize("spec, rate", [
    (SequenceSpec.cpmg(4, duration=2e-5), 6e6),
    (SequenceSpec.cpmg(8, duration=2e-5), 9.6e6),
    (SequenceSpec.hahn(1e-4), 1.2e8),
    (SequenceSpec.dysco(2e-4, 8e4, quant_steps=8), 4e6),
    (SequenceSpec.gdysco(2e-4, 5e4), 2e6),
], ids=["cpmg4", "cpmg8", "hahn", "dysco-quantized", "gdysco"])
def test_run_sums_match_dense_midpoint_sums(spec, rate):
    trace = build_trace(spec, rate)
    _assert_run_sums_match_dense(
        trace, (np.arange(512) + 0.5) * _resolved_band(trace) / 512)


def _assert_step_trace_sums_match_dense(lengths, levels, dt, fractions):
    values = np.repeat(levels, lengths)
    if values.size < 2:
        values = np.repeat(values, 2)
    times = (np.arange(values.size) + 0.5) * dt
    trace = SensitivityTrace(times, values, values.size * dt)
    _assert_run_sums_match_dense(trace, np.array(fractions) * _resolved_band(trace))


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(min_value=1, max_value=500),
                        min_size=1, max_size=12),
       data=st.data(),
       dt=st.floats(min_value=1e-9, max_value=1e-5),
       fractions=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                          min_size=1, max_size=16))
def test_run_sums_match_dense_on_random_step_traces(lengths, data, dt, fractions):
    levels = data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                                min_size=len(lengths), max_size=len(lengths)))
    _assert_step_trace_sums_match_dense(lengths, levels, dt, fractions)


def test_run_sums_match_dense_on_a_subnormal_step_trace():
    # the two sums differ by one subnormal step (5e-324) here
    _assert_step_trace_sums_match_dense([1], [2.2250738585072014e-308], 1e-6,
                                        [0.5])


def test_batched_loop_matches_serial_loop_on_criterion_06_pair(bath):
    seq = SequenceSpec.cpmg(8, duration=2e-5)
    trace = build_trace(seq, 1.2 * max(20.0 / (2.0 * seq.tau_free),
                                       10.0 * bath.extent() / (2.0 * math.pi)))
    cfg = McConfig(n_realizations=10_000, seed=0, spectral_components=4096,
                   omega_max=_resolved_band(trace))
    result = mc_coherence(bath, trace, cfg).to_dict()
    for key, want in _serial_mc(bath, trace, cfg).items():
        assert result[key] == pytest.approx(want, rel=1e-13, abs=0), key


def _criterion_06_cpmg8(bath, dc_lorentzian):
    seq = SequenceSpec.cpmg(8, duration=2e-5)
    trace = build_trace(seq, 1.2 * max(20.0 / (2.0 * seq.tau_free),
                                       10.0 * bath.extent() / (2.0 * math.pi)))
    return bath, trace, McConfig(n_realizations=10_000, seed=0,
                                 spectral_components=4096,
                                 omega_max=_resolved_band(trace))


def _hahn_uneven(bath, dc_lorentzian):
    # 1001 realizations split unevenly over 2, 3 and 4 workers
    trace = build_trace(SequenceSpec.hahn(1e-4), 6.1e7)
    return dc_lorentzian, trace, McConfig(n_realizations=1001, seed=11,
                                          spectral_components=16384)


def _smallest(bath, dc_lorentzian):
    spec = SequenceSpec.cpmg(4, duration=2e-5)
    trace = build_trace(spec, sample_rate=120.0 / 2e-5)
    return bath, trace, McConfig(n_realizations=100, seed=2,
                                 spectral_components=512)


@pytest.mark.parametrize("make", [_criterion_06_cpmg8, _hahn_uneven, _smallest],
                         ids=["cpmg8-criterion-06", "hahn-1001", "cpmg4-100"])
def test_worker_count_never_changes_the_result(make, bath, dc_lorentzian,
                                               monkeypatch):
    spectrum, trace, cfg = make(bath, dc_lorentzian)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # hand the GIL over often between workers
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda w=workers: w)
            results.append(mc_coherence(spectrum, trace, cfg).to_dict())
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("seed, i", [(0, 0), (0, 9999), (1, 17), (2**31 - 2, 3)])
def test_in_place_fill_is_bitwise_uniform(seed, i):
    # the realization loop fills rows with random(), the phases in turns;
    # 2 pi times them are the phases the serial reference draws
    row = np.empty(4096)
    np.random.default_rng([seed, i]).random(out=row)
    want = np.random.default_rng([seed, i]).uniform(0.0, 2.0 * math.pi, 4096)
    assert np.array_equal(row * (2.0 * math.pi), want)


def test_cos_turns_matches_a_long_double_cosine():
    # dense phases over two turns plus the fold's edges, against cos(2 pi f)
    # of the exact fold f = x - rint(x) in long double
    rng = np.random.default_rng(20)
    edges = [0.5, -0.5, np.nextafter(1.5, 0.0), 0.0, 0.25, -0.25, 1.0,
             np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), -0.0]
    x = np.concatenate([rng.uniform(-0.5, 1.5, 2_000_000 - len(edges)), edges])
    xl = x.astype(np.longdouble)
    pi_l = 4.0 * np.arctan(np.longdouble(1.0))
    want = np.cos(2.0 * pi_l * (xl - np.rint(xl)))
    got = x.reshape(-1, 1000).copy()
    _cos_turns(got, np.empty((7, 1000)))     # scratch shorter than the rows
    assert np.max(np.abs(got.ravel() - want)) <= 2e-15


def _criterion_06_pairs(bath, provider):
    # the five pairs, traces and mode counts of criterion 06
    pairs = [
        (bath, SequenceSpec.cpmg(8, duration=2e-5), 4096),
        (gaussian_peak(6e4, 3e4, 2.0 * math.pi * 8e4),
         SequenceSpec.dysco(2e-4, 8e4), 4096),
        (lorentzian_dc(1e5, 5e4), SequenceSpec.hahn(1e-4), 16384),
        (gaussian_peak(3e5, 3e4, 5e5),
         SequenceSpec.cpmg(4, duration=provider.omega0(4, 1.0) / 5e5), 4096),
        (bath, SequenceSpec.gdysco(2e-4, 5e4), 4096),
    ]
    for spectrum, seq, modes in pairs:
        floor = 20.0 / (2.0 * seq.tau_free) if seq.family.pulsed \
            else 20.0 * seq.mod_frequency
        rate = 1.2 * max(floor, 10.0 * spectrum.extent() / (2.0 * math.pi))
        yield spectrum, build_trace(seq, rate), modes


def test_coherence_matches_the_exact_mean_on_criterion_06_pairs(bath, provider):
    # phi = sum_k r_k cos(theta_k + psi_k) with uniform theta_k has
    # E[cos phi] = prod_k J0(r_k) exactly, Gaussian or not
    for spectrum, trace, k in _criterion_06_pairs(bath, provider):
        omega_max = _resolved_band(trace)
        omegas = (np.arange(k) + 0.5) * omega_max / k
        amps = np.sqrt(2.0 * spectrum.eval(omegas) * (omega_max / k) / math.pi)
        ic, is_ = _dense_mode_integrals(trace, omegas)
        exact = np.prod(j0(np.hypot(amps * ic, amps * is_)))
        result = mc_coherence(spectrum, trace, McConfig(
            n_realizations=4000, seed=0, spectral_components=k))
        assert abs(result.coherence - exact) <= 4.0 * result.stderr


def test_block_height_never_changes_the_result(dc_lorentzian, monkeypatch):
    # blocks of 1, 2 and 3 rows against the default: einsum sums a row of
    # more than 8192 modes in an order that depends on the block's height
    trace = build_trace(SequenceSpec.hahn(1e-4), 6.1e7)
    cos_turns = oracle._cos_turns
    workers = min(oracle._usable_cpus(), 100)
    for k in (10_000, 16_384):
        cfg = McConfig(n_realizations=100, seed=4, spectral_components=k)
        want = mc_coherence(dc_lorentzian, trace, cfg).to_dict()
        spare = max(1, oracle._COS_CHUNK // k)
        heights = set()

        def spy(x, scratch):
            heights.add(len(x))
            cos_turns(x, scratch)

        monkeypatch.setattr(oracle, "_cos_turns", spy)
        for rows in (1, 2, 3):
            monkeypatch.setattr(oracle, "_BLOCK_BYTES",
                                8 * k * workers * (rows + spare))
            assert mc_coherence(dc_lorentzian, trace, cfg).to_dict() == want
        monkeypatch.undo()
        assert {1, 2, 3} <= heights


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert oracle._usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert oracle._usable_cpus() == (os.cpu_count() or 1)


def test_reference_run_matches_quadrature(bath):
    result = _ref_run(bath)
    quad = chi(bath, cpmg_ff(4, 2e-5), rel_tol=1e-6)
    assert result.chi_expected == pytest.approx(quad, rel=1e-3)
    assert result.coherence == pytest.approx(math.exp(-quad), abs=3.0 * result.stderr)


def test_repeat_run_is_bitwise_identical(bath):
    a = _ref_run(bath)
    b = _ref_run(bath)
    assert a.coherence == b.coherence
    assert a.stderr == b.stderr
    assert a.chi_estimate == b.chi_estimate


def test_mode_doubling_is_within_noise(bath):
    base = _ref_run(bath)
    fine = _ref_run(bath, spectral_components=1024)
    assert abs(fine.coherence - base.coherence) < base.stderr


def test_realization_convergence(bath):
    truth = math.exp(-_ref_run(bath).chi_expected)
    errs = {}
    for n in (250, 4000):
        result = _ref_run(bath, n_realizations=n, seed=7)
        errs[n] = abs(result.coherence - truth)
    assert errs[4000] < errs[250]


def test_stderr_scales_roughly_inverse_sqrt_n(bath):
    small = _ref_run(bath, n_realizations=250, seed=5)
    large = _ref_run(bath, n_realizations=4000, seed=5)
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(math.sqrt(4000 / 250), rel=0.25)


def test_result_serializes(bath):
    payload = _ref_run(bath).to_dict()
    assert payload["coherence"] == _REF_COHERENCE
    assert payload["seed"] == 1
    assert set(payload) >= {"coherence", "stderr", "chi_estimate",
                            "chi_stderr", "chi_expected", "n_realizations",
                            "n_modes", "omega_max", "work"}
    # CPMG-4 samples form 5 constant runs
    assert payload["work"] == 400 * 512 + 512 * 5


def test_config_validation():
    with pytest.raises(ValidationError):
        McConfig(n_realizations=50)
    with pytest.raises(ValidationError):
        McConfig(spectral_components=4)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.0), ("seed", True),
    ("n_realizations", 400.5), ("n_realizations", True),
    ("spectral_components", 512.0), ("spectral_components", False),
    ("omega_max", math.nan), ("omega_max", math.inf), ("omega_max", "x"),
])
def test_config_rejects_what_the_kernel_cannot_run(field, value):
    with pytest.raises(ValidationError, match=field):
        McConfig(**{field: value})


def test_config_takes_numpy_integers():
    cfg = McConfig(n_realizations=np.int64(400), seed=np.int64(7),
                   spectral_components=np.int32(512))
    assert cfg.seed == 7


def test_budget_guard(bath):
    spec = SequenceSpec.cpmg(4, duration=2e-5)
    trace = build_trace(spec, sample_rate=120.0 / 2e-5)
    cfg = McConfig(n_realizations=100_000_000, spectral_components=512)
    with pytest.raises(ValidationError):
        mc_coherence(bath, trace, cfg)
    # 120 samples but 2e6 x 2048 mode-realizations: the work is in the modes
    cfg = McConfig(n_realizations=2_000_000, spectral_components=2048)
    with pytest.raises(ValidationError, match="budget"):
        mc_coherence(bath, trace, cfg)


def test_coarse_trace_rejected(bath):
    # Trace sampling must resolve the highest simulated frequency.
    spec = SequenceSpec.cpmg(1, duration=2e-3)
    trace = build_trace(spec, sample_rate=30.0 / 2e-3)
    with pytest.raises(ValidationError):
        mc_coherence(bath, trace, McConfig(n_realizations=200))
