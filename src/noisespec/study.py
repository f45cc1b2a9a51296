"""End-to-end round trips: synthesize curves, add readout noise, reconstruct
the spectrum, and compare against the generating truth.

Two studies are provided.  The spectral-decomposition study probes a broad
band with a family of pulse trains and scores the median relative error.
The peak study mirrors a line-narrowing experiment: all three sequence
classes probe the same narrow band around a spectral line, the line is
fitted on each reconstruction, and the fitted centers and widths are
averaged over noise seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .fitting import fit_gaussian_peak
from .forward import CoherenceCurve, _curve_seed, add_measurement_noise, \
    synth_cpmg_family, synth_dysco_sweep
from .noise import ComponentKind, NoiseSpectrum
from .reconstruct import CpmgFilterProvider, ReconstructedSpectrum, \
    cpmg_sd, direct_extract
from .sequences import SequenceSpec

_TWO_PI = 2.0 * math.pi
# the one geometry both studies run: the pulse counts; the sd study's
# duration range [s] and points per count; the peak study's carrier sweep,
# which is also the fit window, and its pulse trains' band [rad/s]
PULSE_COUNTS = (1, 2, 4, 8)
SD_TIMES, SD_POINTS_PER_N = (3e-5, 3e-3), 12
PEAK_BAND, PEAK_SWEEP_POINTS = (1.8e5, 7.5e5), 56
PEAK_CPMG_BAND, PEAK_POINTS_PER_N = (2.0e4, 2.0e6), 28


def _noisy(curves: list[CoherenceCurve], epsilon: float,
           seed: int) -> list[CoherenceCurve]:
    return [add_measurement_noise(c, epsilon, _curve_seed(seed, i))
            for i, c in enumerate(curves)]


# ---------------------------------------------------------------------------
# broad-band spectral decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdStudyResult:
    reconstruction: ReconstructedSpectrum
    curves: list[CoherenceCurve]
    median_rel_error_central: float
    central_band: tuple[float, float]
    n_compared: int


def sd_time_grids(n_list, t_short: float, t_long: float,
                  points_per_n: int) -> dict[int, np.ndarray]:
    if t_short <= 0.0 or t_long <= t_short:
        raise ValidationError("need 0 < t_short < t_long")
    return {int(n): np.geomspace(t_short, t_long, points_per_n)
            for n in n_list}


def sd_study(spectrum: NoiseSpectrum, epsilon: float = 0.0, seed: int = 0,
             bin_count: int | None = 40,
             rel_tol: float = 1e-4) -> SdStudyResult:
    """Synthesize a pulse-train family, reconstruct, score against truth.

    The error metric is the median relative error over the central two
    decades of the probed band (the full band when it spans less than
    two decades), computed on unclipped points.
    """
    grids = sd_time_grids(PULSE_COUNTS, *SD_TIMES, SD_POINTS_PER_N)
    curves = synth_cpmg_family(spectrum, list(grids), time_grid_per_n=grids,
                               rel_tol=rel_tol)
    if epsilon != 0.0:
        curves = _noisy(curves, epsilon, seed)
    recon = cpmg_sd(curves, bin_count=bin_count)
    ok = recon.valid & np.isfinite(recon.values)
    w = recon.omegas[ok]
    v = recon.values[ok]
    if w.size < 4:
        raise ValidationError("too few valid reconstruction points to score")
    center = math.sqrt(w[0] * w[-1])
    lo, hi = center / 10.0, center * 10.0
    if w[-1] / w[0] < 100.0:
        lo, hi = w[0], w[-1]
    sel = (w >= lo) & (w <= hi)
    truth = spectrum.eval(w[sel])
    if np.any(truth <= 0.0):
        raise ValidationError("truth spectrum vanishes inside the scored band")
    rel = np.abs(v[sel] - truth) / truth
    return SdStudyResult(
        reconstruction=recon, curves=curves,
        median_rel_error_central=float(np.median(rel)),
        central_band=(lo, hi), n_compared=int(np.count_nonzero(sel)))


# ---------------------------------------------------------------------------
# narrow-band peak comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodPeak:
    method: str
    center_hz: float
    width_hz: float
    center_spread_hz: float
    width_spread_hz: float
    n_seeds: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PeakStudyResult:
    truth_center_hz: float
    cpmg_sd: MethodPeak
    dysco: MethodPeak
    gdysco: MethodPeak
    reconstructions: dict[str, ReconstructedSpectrum]
    metadata: dict = field(default_factory=dict, compare=False)

    def methods(self) -> tuple[MethodPeak, MethodPeak, MethodPeak]:
        return self.cpmg_sd, self.dysco, self.gdysco

    def to_dict(self) -> dict:
        out = {"truth_center_hz": self.truth_center_hz,
               "methods": {m.method: m.to_dict() for m in self.methods()}}
        for m in self.methods():
            out["methods"][m.method]["center_rel_error"] = \
                m.center_hz / self.truth_center_hz - 1.0
        out["metadata"] = {k: v for k, v in self.metadata.items()
                           if k != "per_seed"}
        out["per_seed"] = self.metadata.get("per_seed", [])
        return out


def _line_center(spectrum: NoiseSpectrum) -> float:
    lines = [c for c in spectrum.components
             if c.kind is ComponentKind.GAUSSIAN_PEAK]
    if not lines:
        raise ValidationError("peak study needs a spectrum with a Gaussian line")
    return max(lines, key=lambda c: c.delta).omega_center


def peak_study_curves(spectrum: NoiseSpectrum, duration: float = 200e-6,
                      rel_tol: float = 1e-4):
    """Noise-free probe curves shared by every seed of the peak study.

    The pulse trains sweep the broad ``PEAK_CPMG_BAND`` the way a full
    spectral decomposition would; the carrier sweeps cover only
    ``PEAK_BAND`` around the line, which is where all three methods are
    later compared.
    """
    grids: dict[int, np.ndarray] = {}
    for n in PULSE_COUNTS:
        # pulse-train probe frequency is inversely proportional to duration
        z0 = CpmgFilterProvider.omega0(n, 1.0)
        grids[n] = np.sort(z0 / np.geomspace(*PEAK_CPMG_BAND,
                                             PEAK_POINTS_PER_N))
    cpmg_curves = synth_cpmg_family(spectrum, list(grids), time_grid_per_n=grids,
                                    rel_tol=rel_tol)
    f_grid = np.linspace(*PEAK_BAND, PEAK_SWEEP_POINTS) / _TWO_PI
    dysco_tpl = SequenceSpec.dysco(duration=duration,
                                   mod_frequency=float(f_grid[0]))
    gdysco_tpl = SequenceSpec.gdysco(duration=duration,
                                     mod_frequency=float(f_grid[0]))
    dysco_curve = synth_dysco_sweep(spectrum, dysco_tpl, f_grid, rel_tol=rel_tol)
    gdysco_curve = synth_dysco_sweep(spectrum, gdysco_tpl, f_grid, rel_tol=rel_tol)
    return cpmg_curves, dysco_curve, gdysco_curve


def _fit_peak(recon: ReconstructedSpectrum,
              window_hz: tuple[float, float]) -> tuple[float, float]:
    result = fit_gaussian_peak(recon, window=window_hz)
    return result["center_hz"], abs(result["width_hz"])


def peak_study(spectrum: NoiseSpectrum, epsilon: float = 0.03,
               seeds=(0, 1, 2, 3, 4), duration: float = 200e-6,
               rel_tol: float = 1e-4) -> PeakStudyResult:
    """Compare the three probing strategies on one spectral line.

    All three fits share the window ``PEAK_BAND``; the pulse-train
    reconstruction covers the wider ``PEAK_CPMG_BAND``, so its
    low-frequency harmonic artifacts stay outside the fitted window.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValidationError("peak study needs at least one seed")
    truth_hz = _line_center(spectrum) / _TWO_PI
    cpmg_curves, dysco_curve, gdysco_curve = peak_study_curves(
        spectrum, duration=duration, rel_tol=rel_tol)
    window_hz = (PEAK_BAND[0] / _TWO_PI, PEAK_BAND[1] / _TWO_PI)
    per_seed = []
    samples: dict[str, list[tuple[float, float]]] = \
        {"cpmg_sd": [], "dysco": [], "gdysco": []}
    first_recons: dict[str, ReconstructedSpectrum] = {}
    for seed in seeds:
        noisy_cpmg = _noisy(cpmg_curves, epsilon, seed)
        noisy_dysco = add_measurement_noise(dysco_curve, epsilon,
                                            _curve_seed(seed, 101))
        noisy_gdysco = add_measurement_noise(gdysco_curve, epsilon,
                                             _curve_seed(seed, 102))
        recons = {
            "cpmg_sd": cpmg_sd(noisy_cpmg),
            "dysco": direct_extract(noisy_dysco),
            "gdysco": direct_extract(noisy_gdysco),
        }
        if not first_recons:
            first_recons = recons
        entry = {"seed": seed}
        for name, recon in recons.items():
            center, width = _fit_peak(recon, window_hz)
            samples[name].append((center, width))
            entry[name] = {"center_hz": center, "width_hz": width}
        per_seed.append(entry)

    def summarize(name: str) -> MethodPeak:
        arr = np.asarray(samples[name])
        return MethodPeak(
            method=name,
            center_hz=float(np.mean(arr[:, 0])),
            width_hz=float(np.mean(arr[:, 1])),
            center_spread_hz=float(np.std(arr[:, 0])),
            width_spread_hz=float(np.std(arr[:, 1])),
            n_seeds=len(seeds))

    return PeakStudyResult(
        truth_center_hz=truth_hz,
        cpmg_sd=summarize("cpmg_sd"),
        dysco=summarize("dysco"),
        gdysco=summarize("gdysco"),
        reconstructions=first_recons,
        metadata={"epsilon": epsilon, "duration": duration,
                  "band": PEAK_BAND, "seeds": seeds, "per_seed": per_seed},
    )
