"""Spectrum reconstruction from measured coherence curves.

Two routes share one inversion and one clip rule.  A point's coherence C
and uncertainty u are rescaled to unit contrast, c = C / a, and inverted as
S = 2 (-ln c) / (t g) with 1-sigma 2 (u / a) / c / (t g), where g is the
filter's weight; a point at or below zero, or above unity by more than three
sigma, is flagged CLIPPED, carries NaN and is left out of everything
downstream.

* :func:`cpmg_sd` inverts a family of pulsed-train curves.  Each curve is
  rescaled to its short-time reference, and the first-order estimate treats
  the filter's main lobe as a rectangle of its full area A between the
  enclosing minima (g = A); a second pass walks the points from the
  highest probe frequency downward and subtracts the filter weight that leaks
  onto already-reconstructed higher frequencies,
  S = S0 - (1/A) * integral_{lobe top}^{top} S_hat(w) FF(w) dw,
  interpolating S_hat linearly and taking it as zero above the highest probe.
  Probes at one frequency up to an ulp are one frequency, with one S_hat
  node.  Results are binned into log-spaced bins whose spread gives the
  uncertainty.

* :func:`direct_extract` inverts a continuous-carrier sweep point by point
  (g = the filter's gain), with the maximum contrast ``a`` estimated
  from the sweep's off-resonance plateau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError
from .filters import _cpmg_values, cpmg_ff, peak_stats
from .forward import AbscissaKind, CoherenceCurve, filter_for
from .sequences import Family, SequenceSpec

_TWO_PI = 2.0 * math.pi

FLAG_OK = 0
FLAG_CLIPPED = 1


class Method(str, Enum):
    CPMG_SD = "cpmg_sd"
    DYSCO_DIRECT = "dysco_direct"
    GDYSCO_DIRECT = "gdysco_direct"


@dataclass(frozen=True)
class BinSet:
    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class ReconstructedSpectrum:
    """Point estimates of S(omega): omegas in rad/s, values in rad/s."""

    omegas: np.ndarray
    values: np.ndarray
    uncertainties: np.ndarray
    flags: np.ndarray
    method: Method
    bins: BinSet | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        n = self.omegas.size
        if not (self.values.size == self.uncertainties.size == self.flags.size == n):
            raise ValidationError("reconstruction arrays must have equal length")
        if n == 0:
            raise ValidationError("reconstruction is empty")
        if np.any(self.omegas <= 0.0) or np.any(np.diff(self.omegas) < 0.0):
            raise ValidationError("omegas must be positive and sorted")

    @property
    def valid(self) -> np.ndarray:
        return self.flags == FLAG_OK

    def shifted(self, delta_omega: float) -> "ReconstructedSpectrum":
        """Translate the frequency axis; used for equivariance checks."""
        from dataclasses import replace
        return replace(self, omegas=self.omegas + delta_omega)


@functools.cache
def _main_lobe(n: int) -> tuple[float, float, float, float]:
    """(z0, gain, lobe area, z_top) of the n-pulse filter at unit duration,
    computed once per process."""
    ff = cpmg_ff(n, 1.0)
    stats = peak_stats(ff)
    v = ff.values
    i = int(np.argmax(v))
    while i + 1 < v.size and v[i + 1] < v[i]:
        i += 1
    return _TWO_PI * stats.f0, stats.gain, stats.main_lobe_area, float(ff.omegas[i])


class CpmgFilterProvider:
    """Main-lobe numbers of pulsed-train filters.

    The filter scales as FF(omega; n, t) = t * G_n(omega t), so the peak
    position and the lobe's upper edge scale as 1/t while the gain and the
    lobe area depend on the pulse count only.  Every number comes from one
    process-wide cache keyed by n, so the class holds no state.
    """

    @staticmethod
    def omega0(n: int, t: float) -> float:
        return _main_lobe(n)[0] / t

    @staticmethod
    def gain(n: int) -> float:
        return _main_lobe(n)[1]

    @staticmethod
    def lobe_area(n: int) -> float:
        return _main_lobe(n)[2]

    @staticmethod
    def lobe_top(n: int, t: float) -> float:
        """Frequency of the minimum that closes the main lobe from above."""
        return _main_lobe(n)[3] / t


# points averaged at each curve's shortest times for the unit-coherence reference
_RESCALE_POINTS = 3
# probe frequencies closer than this (relative) are one frequency
_COINCIDENT = 1e-9


def _invert(c_res: np.ndarray, u_res: np.ndarray, scale):
    """(values, sigmas, flags) of S = 2 (-ln c) / scale from coherences and
    uncertainties rescaled to unit contrast; CLIPPED points are NaN.  The
    per-point ``math.log`` keeps bits that ``np.log`` does not always match.
    """
    flags = np.where((c_res <= 0.0) | (c_res > 1.0 + 3.0 * u_res),
                     FLAG_CLIPPED, FLAG_OK)
    ok = flags == FLAG_OK
    chi = np.full(c_res.shape, math.nan)
    sigma_chi = np.full(c_res.shape, math.nan)
    chi[ok] = [-math.log(c) for c in c_res[ok].tolist()]
    sigma_chi[ok] = u_res[ok] / c_res[ok]
    return 2.0 * chi / scale, 2.0 * sigma_chi / scale, flags


def cpmg_sd(curves: list[CoherenceCurve],
            bin_count: int | None = 40) -> ReconstructedSpectrum:
    """Two-step spectral decomposition of a pulsed-train curve family.

    Probe frequencies within a relative 1e-9 of each other are one
    frequency (a family built to probe common frequencies meets them only
    up to an ulp, as z0 / (z0 / g) is g): each such group reports its
    lowest frequency, is ordered by pulse count, duration and estimate,
    and enters the correction of lower frequencies as one node, the mean
    of its members' estimates clipped at 0.  So neither ulp noise nor the
    order of ``curves`` moves the result.

    Parameters
    ----------
    curves : list of CoherenceCurve
        TIME-abscissa curves of CPMG/HAHN templates (mixed pulse counts are
        the intended input).
    bin_count : int or None
        Number of log-spaced output bins; ``None`` or 0 returns raw points.
    """
    if not curves:
        raise ValidationError("cpmg_sd needs at least one curve")
    columns = []        # (omega0, S0, sigma, flag, n, t) per curve
    for curve in curves:
        if curve.abscissa_kind is not AbscissaKind.TIME:
            raise ValidationError("cpmg_sd needs TIME-abscissa curves")
        if not curve.sequence.family.pulsed:
            raise ValidationError("cpmg_sd needs pulsed-family curves")
        n = curve.sequence.n_pulses
        z0, _, area, _ = _main_lobe(n)
        ref = float(np.mean(curve.coherences[:_RESCALE_POINTS]))
        if ref <= 0.0:
            raise ValidationError("short-time reference is non-positive; "
                                  "curve cannot be rescaled")
        t = curve.xs
        columns.append((z0 / t,
                        *_invert(curve.coherences / ref,
                                 curve.uncertainties / ref, t * area),
                        np.full(t.size, n), t))
    omegas, s0, sigmas, flags, ns, ts = (np.concatenate(col)
                                         for col in zip(*columns))
    by_omega = np.argsort(omegas, kind="stable")
    w = omegas[by_omega]
    first = np.r_[True, np.diff(w) >= _COINCIDENT * w[1:]]
    group = np.empty(w.size, dtype=np.int64)
    group[by_omega] = np.cumsum(first) - 1
    omegas = w[first][group]
    order = np.lexsort((sigmas, s0, ts, ns, group))
    omegas, s0, sigmas, flags, ns, ts, group = (
        x[order] for x in (omegas, s0, sigmas, flags, ns, ts, group))
    ok = flags == FLAG_OK
    values = np.full(omegas.size, math.nan)
    values[ok] = _harmonic_correction(omegas[ok], s0[ok], ns[ok], ts[ok],
                                      group[ok])
    return _assemble(omegas, values, sigmas, flags, bin_count)


def _harmonic_correction(omegas: np.ndarray, s0: np.ndarray, ns: np.ndarray,
                         ts: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Subtract each filter's harmonic pickup of the estimated spectrum.

    Takes the unclipped points sorted by probe frequency, with the ids of
    their coincident-frequency groups, and returns their corrected values.
    Sweeps once from the highest probe frequency downward so that every
    correction integral only needs already-corrected estimates: those of
    the frequencies strictly above the current one, one node each (the
    mean of a group's clipped estimates).  The spectrum is taken as zero
    beyond the highest measured frequency.  The pedestal below the main
    lobe is left in by construction, which is what biases pulsed-train
    estimates of a narrow line toward higher frequencies.
    """
    if omegas.size == 0:
        raise ValidationError("every point is clipped; nothing to reconstruct")
    values = np.empty(omegas.size)      # filled from the top down
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    stops = np.r_[starts[1:], omegas.size]
    node_w, node_s = omegas[starts], np.empty(starts.size)
    omega_top = omegas[-1]
    for g in range(starts.size - 1, -1, -1):
        kw, ks = node_w[g + 1:], node_s[g + 1:]
        for k in range(starts[g], stops[g]):
            n, t = int(ns[k]), float(ts[k])
            _, _, area, z_top = _main_lobe(n)
            lo = z_top / t
            corr = 0.0
            if kw.size and lo < omega_top:
                step = math.pi / (6.0 * t)          # resolves the filter comb
                count = int((omega_top - lo) / step) + 2
                grid = np.linspace(lo, omega_top, min(max(count, 64), 120_000))
                grid = np.unique(np.concatenate(
                    [grid, kw[(kw > lo) & (kw < omega_top)]]))
                s_hat = np.interp(grid, kw, ks, left=ks[0], right=0.0)
                corr = float(np.trapezoid(s_hat * _cpmg_values(grid, n, t),
                                          grid)) / area
            values[k] = s0[k] - corr
        node_s[g] = np.mean(np.maximum(values[starts[g]:stops[g]], 0.0))
    return values


def _assemble(omegas: np.ndarray, values: np.ndarray, sigmas: np.ndarray,
              flags: np.ndarray, bin_count: int | None) -> ReconstructedSpectrum:
    ok = flags == FLAG_OK
    w_ok, v_ok = omegas[ok], values[ok]
    meta = {"n_points": omegas.size,
            "n_clipped": int(np.count_nonzero(~ok))}
    if np.median(v_ok[w_ok >= 0.5 * w_ok[-1]]) > 0.2 * np.max(v_ok):
        meta["warning"] = ("highest probed frequencies still carry significant "
                           "power; reconstruction may be biased near the top")
    if not bin_count:
        return ReconstructedSpectrum(omegas, values, sigmas, flags,
                                     Method.CPMG_SD, metadata=meta)
    if w_ok.size < 2:
        raise ValidationError("need at least two unclipped points to bin")
    edges = np.geomspace(w_ok[0] * (1 - 1e-12), w_ok[-1] * (1 + 1e-12),
                         int(bin_count) + 1)
    idx = np.clip(np.searchsorted(edges, w_ok, side="right") - 1, 0, bin_count - 1)
    # the points are sorted, so each occupied bin is one contiguous run
    cuts = np.flatnonzero(np.diff(idx)) + 1
    runs = np.split(v_ok, cuts)
    bins = BinSet(edges=edges, counts=np.array([v.size for v in runs]))
    meta["binned"] = True
    return ReconstructedSpectrum(
        np.array([np.mean(w) for w in np.split(w_ok, cuts)]),
        np.array([np.mean(v) for v in runs]),
        np.array([np.std(v) for v in runs]),
        np.zeros(len(runs), dtype=int), Method.CPMG_SD, bins=bins, metadata=meta)


# ---------------------------------------------------------------------------
# direct continuous-carrier extraction
# ---------------------------------------------------------------------------

def plateau_contrast(curve: CoherenceCurve) -> float:
    """Maximum sweep contrast: median of the top decile of coherences."""
    cs = np.sort(curve.coherences)
    k = max(1, cs.size // 10)
    return float(np.median(cs[-k:]))


def direct_extract(curve: CoherenceCurve,
                   contrast: float | None = None) -> ReconstructedSpectrum:
    """Point-by-point inversion of a continuous-carrier frequency sweep."""
    if curve.abscissa_kind is not AbscissaKind.MOD_FREQUENCY:
        raise ValidationError("direct_extract needs a MOD_FREQUENCY sweep")
    template = curve.sequence
    if template.family.pulsed:
        raise ValidationError("direct_extract applies to continuous families")
    a = plateau_contrast(curve) if contrast is None else float(contrast)
    if a <= 0.0:
        raise ValidationError("sweep contrast must be positive")
    gain = peak_stats(filter_for(template)).gain
    values, sigmas, flags = _invert(curve.coherences / a, curve.uncertainties / a,
                                    template.duration * gain)
    method = Method.GDYSCO_DIRECT if template.family is Family.GDYSCO \
        else Method.DYSCO_DIRECT
    meta = {"contrast": a, "gain": gain,
            "n_clipped": int(np.count_nonzero(flags != FLAG_OK))}
    return ReconstructedSpectrum(_TWO_PI * curve.xs, values, sigmas, flags,
                                 method, metadata=meta)


# ---------------------------------------------------------------------------
# dynamic range
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicRange:
    s_min: float
    s_max: float

    @property
    def ratio(self) -> float:
        return self.s_max / self.s_min


def dynamic_range(template: SequenceSpec, epsilon: float, a_max: float = 1.0,
                  normalized_contrast: bool = False) -> DynamicRange:
    """Smallest and largest detectable spectral density for one sequence.

    ``epsilon`` is the coherence readout noise floor and ``a_max`` the
    maximum contrast of the family (1 for pulsed trains).  The default
    reading inverts the raw contrast bounds,

        s_min = -2 ln(a_max - epsilon) / (t * gain),
        s_max = -2 ln(epsilon) / (t * gain);

    ``normalized_contrast=True`` instead measures both bounds relative to
    ``a_max`` (dividing the logarithms' arguments by it), which suits data
    already rescaled to unit plateau.
    """
    if not 0.0 < epsilon < a_max <= 1.0:
        raise ValidationError("need 0 < epsilon < a_max <= 1")
    t = template.duration
    if template.family.pulsed:
        gain = _main_lobe(template.n_pulses)[1]
    else:
        gain = peak_stats(filter_for(template)).gain
    lo_arg = a_max - epsilon
    hi_arg = epsilon
    if normalized_contrast:
        lo_arg /= a_max
        hi_arg /= a_max
    if lo_arg >= 1.0:
        raise ValidationError("noise floor leaves no detectable attenuation")
    return DynamicRange(
        s_min=-2.0 * math.log(lo_arg) / (t * gain),
        s_max=-2.0 * math.log(hi_arg) / (t * gain),
    )
