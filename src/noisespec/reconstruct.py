"""Spectrum reconstruction from measured coherence curves.

Two routes:

* :func:`cpmg_sd` inverts a family of pulsed-train curves.  After rescaling
  each curve to its short-time reference, the first-order estimate treats the
  filter's main lobe as a rectangle of its full area A between the enclosing
  minima, S0 = 2 chi / (t * A); a second pass walks the points from the
  highest probe frequency downward and subtracts the filter weight that leaks
  onto already-reconstructed higher frequencies,
  S = S0 - (1/A) * integral_{lobe top}^{top} S_hat(w) FF(w) dw,
  interpolating S_hat linearly and taking it as zero above the highest probe.
  Results are binned into log-spaced bins whose spread gives the uncertainty.

* :func:`direct_extract` inverts a continuous-carrier sweep point by point,
  S(omega0) = -2 ln(C / a) / (t * gain), with the maximum contrast ``a``
  estimated from the sweep's off-resonance plateau.

Saturated points (coherence at or below zero, or above the plateau by more
than three sigma) are flagged CLIPPED and excluded from the inversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError
from .filters import cpmg_ff, peak_stats
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


@dataclass
class _SdPoint:
    omega0: float
    s0: float
    n: int
    t: float
    lobe_area: float
    lobe_top: float
    sigma_s: float
    flag: int
    value: float = math.nan


# points averaged at each curve's shortest times for the unit-coherence reference
_RESCALE_POINTS = 3


def cpmg_sd(curves: list[CoherenceCurve],
            bin_count: int | None = 40) -> ReconstructedSpectrum:
    """Two-step spectral decomposition of a pulsed-train curve family.

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
    points: list[_SdPoint] = []
    for curve in curves:
        if curve.abscissa_kind is not AbscissaKind.TIME:
            raise ValidationError("cpmg_sd needs TIME-abscissa curves")
        if not curve.sequence.family.pulsed:
            raise ValidationError("cpmg_sd needs pulsed-family curves")
        n = curve.sequence.n_pulses
        z0, _, area, z_top = _main_lobe(n)
        ref = float(np.mean(curve.coherences[:_RESCALE_POINTS]))
        if ref <= 0.0:
            raise ValidationError("short-time reference is non-positive; "
                                  "curve cannot be rescaled")
        for t, c, u in zip(curve.xs, curve.coherences, curve.uncertainties):
            c_res = c / ref
            u_res = u / ref
            flag = FLAG_OK
            if c_res <= 0.0 or c_res > 1.0 + 3.0 * u_res:
                flag = FLAG_CLIPPED
                chi_val, sigma_chi = math.nan, math.nan
            else:
                chi_val = -math.log(c_res)
                sigma_chi = u_res / c_res
            s0 = 2.0 * chi_val / (t * area)
            sigma_s = 2.0 * sigma_chi / (t * area)
            points.append(_SdPoint(
                omega0=z0 / t, s0=s0, n=n, t=float(t),
                lobe_area=area, lobe_top=z_top / t,
                sigma_s=sigma_s, flag=flag))
    points.sort(key=lambda p: p.omega0)
    _harmonic_correction(points)
    return _assemble(points, Method.CPMG_SD, bin_count)


def _harmonic_correction(points: list[_SdPoint]) -> None:
    """Subtract each filter's harmonic pickup of the estimated spectrum.

    Sweeps once from the highest probe frequency downward so that every
    correction integral only needs already-corrected estimates; the spectrum
    is taken as zero beyond the highest measured frequency.  The pedestal
    below the main lobe is left in by construction, which is what biases
    pulsed-train estimates of a narrow line toward higher frequencies.
    """
    valid_idx = [i for i, p in enumerate(points) if p.flag == FLAG_OK]
    if not valid_idx:
        raise ValidationError("every point is clipped; nothing to reconstruct")
    known_w: list[float] = []          # ascending, already corrected
    known_s: list[float] = []
    omega_top = points[valid_idx[-1]].omega0
    for i in reversed(valid_idx):
        p = points[i]
        lo = p.lobe_top
        corr = 0.0
        if known_w and lo < omega_top:
            kw = np.asarray(known_w)
            ks = np.asarray(known_s)
            step = math.pi / (6.0 * p.t)          # resolves the filter comb
            count = int((omega_top - lo) / step) + 2
            grid = np.linspace(lo, omega_top, min(max(count, 64), 120_000))
            grid = np.unique(np.concatenate([grid, kw[(kw > lo) & (kw < omega_top)]]))
            s_hat = np.interp(grid, kw, np.maximum(ks, 0.0),
                              left=max(ks[0], 0.0), right=0.0)
            ff_vals = cpmg_ff(p.n, p.t, grid).values
            corr = float(np.trapezoid(s_hat * ff_vals, grid)) / p.lobe_area
        p.value = p.s0 - corr
        known_w.insert(0, p.omega0)
        known_s.insert(0, p.value)


def _assemble(points: list[_SdPoint], method: Method,
              bin_count: int | None) -> ReconstructedSpectrum:
    omegas = np.array([p.omega0 for p in points])
    values = np.array([p.value for p in points])
    sigmas = np.array([p.sigma_s for p in points])
    flags = np.array([p.flag for p in points])
    meta = {"n_points": len(points),
            "n_clipped": int(np.count_nonzero(flags != FLAG_OK))}
    ok = flags == FLAG_OK
    if np.any(ok):
        top = omegas[ok] >= 0.5 * omegas[ok][-1]
        if np.median(values[ok][top]) > 0.2 * np.max(values[ok]):
            meta["warning"] = ("highest probed frequencies still carry significant "
                               "power; reconstruction may be biased near the top")
    if not bin_count:
        return ReconstructedSpectrum(omegas, values, sigmas, flags, method,
                                     metadata=meta)
    w_ok = omegas[ok]
    v_ok = values[ok]
    if w_ok.size < 2:
        raise ValidationError("need at least two unclipped points to bin")
    edges = np.geomspace(w_ok[0] * (1 - 1e-12), w_ok[-1] * (1 + 1e-12),
                         int(bin_count) + 1)
    idx = np.clip(np.searchsorted(edges, w_ok, side="right") - 1, 0, bin_count - 1)
    b_w, b_v, b_u, counts = [], [], [], []
    for b in range(int(bin_count)):
        mask = idx == b
        if not np.any(mask):
            continue
        b_w.append(float(np.mean(w_ok[mask])))
        b_v.append(float(np.mean(v_ok[mask])))
        count = int(np.count_nonzero(mask))
        b_u.append(float(np.std(v_ok[mask])) if count > 1 else 0.0)
        counts.append(count)
    bins = BinSet(edges=edges, counts=np.array(counts))
    meta["binned"] = True
    return ReconstructedSpectrum(
        np.array(b_w), np.array(b_v), np.array(b_u),
        np.zeros(len(b_w), dtype=int), method, bins=bins, metadata=meta)


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
    t = template.duration
    gain = peak_stats(filter_for(template)).gain
    omegas = _TWO_PI * curve.xs
    values = np.empty_like(omegas)
    sigmas = np.zeros_like(omegas)
    flags = np.zeros(omegas.size, dtype=int)
    for i, (c, u) in enumerate(zip(curve.coherences, curve.uncertainties)):
        c_res = c / a
        if c_res <= 0.0 or c_res > 1.0 + 3.0 * u / a:
            flags[i] = FLAG_CLIPPED
            values[i] = math.nan
            sigmas[i] = math.nan
            continue
        values[i] = -2.0 * math.log(c_res) / (t * gain)
        if u > 0.0:
            sigmas[i] = 2.0 * u / (a * c_res * t * gain)
    method = Method.GDYSCO_DIRECT if template.family is Family.GDYSCO \
        else Method.DYSCO_DIRECT
    meta = {"contrast": a, "gain": gain,
            "n_clipped": int(np.count_nonzero(flags != FLAG_OK))}
    return ReconstructedSpectrum(omegas, values, sigmas, flags, method,
                                 metadata=meta)


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
