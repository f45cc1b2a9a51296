"""End-to-end acceptance gate.

Each test prints one CRITERION line so the suite output doubles as a
checklist.  Tolerances are pinned in the assertions; the detail string
carries the measured numbers.
"""

import math
import time

import numpy as np

from noisespec import (
    CoherenceCurve,
    CpmgFilterProvider,
    McConfig,
    Provenance,
    SequenceSpec,
    add_measurement_noise,
    build_trace,
    chi,
    cpmg_ff,
    cpmg_sd,
    default_experiment_spectrum,
    dynamic_range,
    dysco_ff,
    fit_noise_params,
    gaussian_peak,
    lorentzian_dc,
    mc_coherence,
    peak_stats,
    peak_study,
    sd_study,
    synth_cpmg_family,
)
from noisespec.cli import main as cli_main


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _wide_unit_time_ff(n: int):
    z = np.arange(1e-4, 400.0 * math.pi * n, math.pi / 16.0)
    return cpmg_ff(n, 1.0, omegas=z)


def test_criterion_01_filter_normalization(capsys):
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        ff = _wide_unit_time_ff(n)
        area = float(np.trapezoid(ff.values, ff.omegas))
        # 3/8 is the oscillation average of the lobe shape; times the
        # 1/z^2 envelope it integrates the area past the grid end.
        area += 0.375 * math.pi * n / float(ff.omegas[-1])
        worst = max(worst, abs(area - 1.0))
    _report(capsys, 1, worst <= 1e-3,
            f"unit areas for 8 pulse counts, worst deviation {worst:.2e}")


def test_criterion_02_peak_position_ratios(capsys):
    expected = {1: 1.48, 2: 2.30, 3: 3.21, 4: 4.17, 8: 8.09, 16: 16.04}
    provider = CpmgFilterProvider()
    worst = max(abs(provider.omega0(n, 1.0) / math.pi / ref - 1.0)
                for n, ref in expected.items())
    _report(capsys, 2, worst <= 5e-3,
            f"peak positions over pi match 6 reference ratios, "
            f"worst {worst:.2%}")


def test_criterion_03_fwhm_constants(capsys):
    t = 2e-4
    pulsed = peak_stats(cpmg_ff(16, t)).fwhm * t
    carrier = peak_stats(dysco_ff(SequenceSpec.dysco(t, 2e5))).fwhm * t
    windowed_stats = peak_stats(dysco_ff(SequenceSpec.gdysco(t, 2e5)))
    windowed = windowed_stats.fwhm * t
    analytic = math.sqrt(math.log(2.0)) / (math.pi * (t / 6.0))
    devs = {
        "0.89/t": abs(pulsed / 0.89 - 1.0),
        "0.884/t": abs(carrier / 0.884 - 1.0),
        "1.59/t": abs(windowed / 1.59 - 1.0),
        "analytic": abs(windowed_stats.fwhm / analytic - 1.0),
    }
    worst = max(devs.values())
    _report(capsys, 3, worst <= 1e-2,
            f"fwhm*t = {pulsed:.4f}/{carrier:.4f}/{windowed:.4f}, "
            f"worst deviation {worst:.2%}")


def test_criterion_04_gain_table(capsys):
    t = 2e-4
    rows = {
        "pulsed": (peak_stats(cpmg_ff(16, t)).gain, 0.6),
        "carrier": (peak_stats(dysco_ff(SequenceSpec.dysco(t, 2e5))).gain,
                    0.35),
        "windowed": (peak_stats(dysco_ff(SequenceSpec.gdysco(t, 2e5))).gain,
                     0.11),
    }
    worst = max(abs(got / ref - 1.0) for got, ref in rows.values())
    gains = ", ".join(f"{k}={got:.4f} (ref {ref})"
                      for k, (got, ref) in rows.items())
    _report(capsys, 4, worst <= 0.10, f"{gains}, worst {worst:.1%}")


def test_criterion_05_harmonic_content(capsys):
    ff = _wide_unit_time_ff(8)
    stats = peak_stats(ff)
    total = stats.total_area + 0.375 * math.pi * 8 / float(ff.omegas[-1])
    main_frac = stats.main_lobe_area / total
    w0 = 2.0 * math.pi * stats.f0
    mask = (ff.omegas >= 2.5 * w0) & (ff.omegas <= 3.5 * w0)
    second_frac = float(np.trapezoid(ff.values[mask], ff.omegas[mask])) / total
    ok = 0.70 <= main_frac <= 0.80 and 0.07 <= second_frac <= 0.13
    _report(capsys, 5, ok,
            f"main lobe {main_frac:.1%} of area (window 70-80%), "
            f"2nd harmonic {second_frac:.1%} (window 7-13%)")


def test_criterion_06_mc_oracle_agreement(capsys):
    bath = default_experiment_spectrum()
    provider = CpmgFilterProvider()
    pairs = [
        (bath, SequenceSpec.cpmg(8, duration=2e-5), 4096),
        # Line centered on the carrier lobe: the analytic carrier filter
        # models the main lobe, not the far side-lobe floor.
        (gaussian_peak(6e4, 3e4, 2.0 * math.pi * 8e4),
         SequenceSpec.dysco(2e-4, 8e4), 4096),
        (lorentzian_dc(1e5, 5e4), SequenceSpec.hahn(1e-4), 16384),
        (gaussian_peak(3e5, 3e4, 5e5),
         SequenceSpec.cpmg(4, duration=provider.omega0(4, 1.0) / 5e5), 4096),
        (bath, SequenceSpec.gdysco(2e-4, 5e4), 4096),
    ]
    start = time.monotonic()
    ok = True
    details = []
    for spectrum, seq, modes in pairs:
        if seq.family.pulsed:
            floor = 20.0 / (2.0 * seq.tau_free)
            ff = cpmg_ff(seq.n_pulses, seq.duration)
        else:
            floor = 20.0 * seq.mod_frequency
            ff = dysco_ff(seq)
        rate = 1.2 * max(floor,
                         10.0 * spectrum.extent() / (2.0 * math.pi))
        result = mc_coherence(
            spectrum, build_trace(seq, rate),
            McConfig(n_realizations=10_000, seed=0,
                     spectral_components=modes))
        chi_quad = chi(spectrum, ff, rel_tol=1e-6)
        err = abs(result.chi_estimate - chi_quad)
        tol = 0.02 * chi_quad + 3.0 * result.chi_stderr
        ok = ok and err <= tol
        details.append(f"{seq.family.value}-{seq.n_pulses or 0} "
                       f"err={err:.1e} tol={tol:.1e}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(capsys, 6, ok,
            f"5 pairs at 1e4 realizations in {elapsed:.0f}s: "
            + "; ".join(details))


def test_criterion_07_sd_roundtrip_monotone_spectrum(capsys):
    result = sd_study(lorentzian_dc(1e5, 5e4))
    med = result.median_rel_error_central
    lo, hi = result.central_band
    _report(capsys, 7, med <= 0.10,
            f"median relative error {med:.4f} over "
            f"[{lo:.2e}, {hi:.2e}] rad/s ({result.n_compared} points)")


def test_criterion_08_peak_roundtrip_three_methods(capsys):
    result = peak_study(default_experiment_spectrum())
    widths_ordered = (result.gdysco.width_hz < result.dysco.width_hz
                      <= result.cpmg_sd.width_hz)
    biased_high = result.cpmg_sd.center_hz > result.truth_center_hz
    center_err = abs(result.gdysco.center_hz / 62.4e3 - 1.0)
    ok = widths_ordered and biased_high and center_err <= 0.03
    _report(capsys, 8, ok,
            f"widths {result.gdysco.width_hz:.0f} < "
            f"{result.dysco.width_hz:.0f} <= {result.cpmg_sd.width_hz:.0f} Hz, "
            f"pulsed-train center bias "
            f"{result.cpmg_sd.center_hz - result.truth_center_hz:+.0f} Hz, "
            f"windowed-carrier center off by {center_err:.2%}")


def test_criterion_09_dynamic_range(capsys):
    dur, eps = 2e-4, 0.03
    pulsed = dynamic_range(SequenceSpec.cpmg(16, duration=dur), eps)
    carrier = dynamic_range(SequenceSpec.dysco(dur, 2e5), eps, a_max=0.8)
    windowed = dynamic_range(SequenceSpec.gdysco(dur, 2e5), eps)
    smax_ratio = windowed.s_max / pulsed.s_max
    ok = (90.0 <= pulsed.ratio <= 130.0
          and 9.0 <= carrier.ratio <= 15.0
          and 5.0 <= smax_ratio <= 7.0)
    _report(capsys, 9, ok,
            f"pulsed ratio {pulsed.ratio:.1f} in [90, 130], "
            f"carrier ratio {carrier.ratio:.1f} in [9, 15], "
            f"s_max ratio {smax_ratio:.2f} in [5, 7]")


def test_criterion_10_noise_model_fit_recovery(capsys):
    truth = {"gauss_delta": 500e3, "gauss_sigma": 25e3, "gauss_center": 392e3,
             "lorentz_delta": 40e3, "lorentz_sigma": 50e3}
    times = np.linspace(2.6e-5, 1.6e-3, 64)
    (curve,) = synth_cpmg_family(default_experiment_spectrum(), [8],
                                 time_grid_per_n={8: times})
    initial = {k: 2.0 * v for k, v in truth.items()}
    clean = fit_noise_params(curve, initial=initial)
    worst_clean = max(abs(clean.parameters[k] / v - 1.0)
                      for k, v in truth.items())
    ok = clean.converged and worst_clean <= 0.05
    worst_center = 0.0
    for seed in range(10):
        noisy = add_measurement_noise(curve, 0.01, seed=seed)
        fit = fit_noise_params(noisy, initial=initial)
        worst_center = max(worst_center,
                           abs(fit.parameters["gauss_center"]
                               / truth["gauss_center"] - 1.0))
    ok = ok and worst_center <= 0.02
    _report(capsys, 10, ok,
            f"noise-free worst parameter error {worst_clean:.2%} (<=5%), "
            f"line center over 10 noisy seeds worst {worst_center:.2%} (<=2%)")


def _manual_sd_curve(xs: np.ndarray, cs: np.ndarray) -> CoherenceCurve:
    return CoherenceCurve(
        xs=xs,
        coherences=cs,
        uncertainties=np.zeros_like(cs),
        sequence=SequenceSpec.cpmg(2, duration=float(xs[-1])),
        provenance=Provenance("synthetic"),
    )


def test_criterion_11_linearity(capsys):
    bath = default_experiment_spectrum()
    ff = cpmg_ff(8, 2e-4)
    base = chi(bath, ff)
    exact_pow2 = all(chi(bath.scaled(a), ff) == a * base for a in (0.5, 2.0))
    rel10 = abs(chi(bath.scaled(10.0), ff) / (10.0 * base) - 1.0)

    # Exactly doubled decay exponents in, exactly doubled estimates out:
    # the doubled curve is the square of the base curve, with a flat head
    # so the rescaling reference stays at 1.
    dc = lorentzian_dc(1e5, 5e4)
    times = np.geomspace(8e-5, 8e-4, 6)
    chis = np.array([chi(dc, cpmg_ff(2, float(t)), rel_tol=1e-6)
                     for t in times])
    xs = np.concatenate(([1e-7, 2e-7, 3e-7], times))
    cs = np.concatenate(([1.0, 1.0, 1.0], np.exp(-chis)))
    base_rec = cpmg_sd([_manual_sd_curve(xs, cs)], bin_count=None)
    doubled = cpmg_sd([_manual_sd_curve(xs, cs ** 2)], bin_count=None)
    usable = base_rec.valid & doubled.valid & (base_rec.values != 0.0)
    ratio_dev = float(np.max(np.abs(
        doubled.values[usable] / base_rec.values[usable] - 2.0)))

    ok = exact_pow2 and rel10 <= 1e-12 and ratio_dev <= 1e-12
    _report(capsys, 11, ok,
            f"chi scaling exact for 0.5x/2x, 10x within {rel10:.1e} "
            f"(final rounding), inversion doubling within {ratio_dev:.1e}")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    invocations = [
        ["synth", "--spectrum", "default", "--family", "cpmg",
         "--n-list", "4", "--times", "2e-5:1e-3:10",
         "--epsilon", "0.02", "--seed", "3"],
        ["oracle", "--family", "cpmg", "--n", "4", "--duration", "2e-5",
         "--n-realizations", "400", "--modes", "512"],
        ["roundtrip", "--mode", "sd", "--spectrum", "default",
         "--rel-tol", "1e-3", "--epsilon", "0.02", "--seed", "5",
         "--bins", "24"],
    ]
    ok = True
    summaries = []
    for argv in invocations:
        dirs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{argv[0]}_{tag}"
            d.mkdir()
            ok = ok and cli_main(argv + ["--outdir", str(d)]) == 0
            dirs.append(d)
        names_a = sorted(p.name for p in dirs[0].iterdir())
        names_b = sorted(p.name for p in dirs[1].iterdir())
        identical = (names_a == names_b and len(names_a) > 0 and all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in names_a))
        ok = ok and identical
        summaries.append(f"{argv[0]}: {len(names_a)} files byte-identical")
    _report(capsys, 12, ok, "; ".join(summaries))
