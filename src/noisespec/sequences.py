"""Control-sequence specifications and sampled sensitivity traces.

A sequence is described by a frozen :class:`SequenceSpec`; :func:`build_trace`
renders it into the time-domain sensitivity `s(t)` seen by the qubit phase,
and :func:`bandwidth_report` summarizes the usable sensing band implied by the
hardware limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError

_MAX_SAMPLES = 10_000_000   # samples in one trace


class Family(str, Enum):
    """Supported modulation families.

    CPMG is the pulsed pi-train (HAHN is its single-pulse case); DYSCO is a
    continuous sinusoidal modulation, GDYSCO the same carrier under a Gaussian
    envelope.
    """

    CPMG = "cpmg"
    HAHN = "hahn"
    DYSCO = "dysco"
    GDYSCO = "gdysco"

    @property
    def pulsed(self) -> bool:
        return self in (Family.CPMG, Family.HAHN)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class SequenceSpec:
    """Parameters of one modulation sequence.

    Pulsed families use ``n_pulses``/``tau_free`` (either one may be derived
    from ``duration``); continuous families use ``mod_frequency`` (Hz) and,
    for GDYSCO, ``envelope_sigma`` (s, default duration/6).  ``quant_steps``
    renders a continuous carrier as a zero-order hold with that many levels
    per period (0 keeps it ideal).  ``amplitude`` is a carrier's peak
    sensitivity in units of the pulsed +/-1 modulation; hardware contrast loss
    of a sinusoidal drive (a factor of about 2/pi) can be modelled by lowering
    it.  A pulse train always has unit amplitude.
    """

    family: Family
    duration: float
    n_pulses: int | None = None
    tau_free: float | None = None
    mod_frequency: float | None = None
    envelope_sigma: float | None = None
    quant_steps: int = 0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if self.family.pulsed:
            self._init_pulsed()
        else:
            self._init_continuous()
        _require(self.duration > 0.0, "duration must be positive")
        _require(0.0 < self.amplitude <= 1.0, "amplitude must lie in (0, 1]")

    def _init_pulsed(self) -> None:
        n = self.n_pulses
        if self.family is Family.HAHN and n is None:
            n = 1
        _require(n is not None, "CPMG requires n_pulses")
        _require(int(n) == n and n >= 1, "n_pulses must be a positive integer")
        object.__setattr__(self, "n_pulses", int(n))
        if self.family is Family.HAHN:
            _require(n == 1, "HAHN means exactly one pulse")
        tau, dur = self.tau_free, self.duration
        if tau is None:
            _require(dur is not None and dur > 0, "pulsed spec needs tau_free or duration")
            tau = dur / (2 * self.n_pulses)
        _require(tau > 0.0, "tau_free must be positive")
        derived = 2 * self.n_pulses * tau
        if dur is None:
            dur = derived
        elif not math.isclose(dur, derived, rel_tol=1e-12):
            raise ValidationError(
                "duration must equal 2 * n_pulses * tau_free "
                f"(got {dur!r}, expected {derived!r})"
            )
        # a given duration is kept as given: 2n (t / 2n) can be 1 ulp off t
        object.__setattr__(self, "tau_free", float(tau))
        object.__setattr__(self, "duration", float(dur))
        _require(self.quant_steps == 0, "quant_steps applies to continuous families only")
        _require(self.mod_frequency is None, "mod_frequency applies to continuous families only")
        _require(self.amplitude == 1.0, "amplitude applies to continuous families only")
        _require(self.envelope_sigma is None, "envelope_sigma applies to GDYSCO only")

    def _init_continuous(self) -> None:
        _require(self.n_pulses is None and self.tau_free is None,
                 "pulse parameters apply to pulsed families only")
        f0, dur = self.mod_frequency, self.duration
        _require(f0 is not None and f0 > 0.0, "continuous spec needs mod_frequency > 0")
        _require(dur is not None and dur > 0.0, "continuous spec needs duration > 0")
        _require(f0 * dur >= 1.0, "duration must cover at least one modulation period")
        _require(self.quant_steps >= 0 and int(self.quant_steps) == self.quant_steps,
                 "quant_steps must be a non-negative integer")
        object.__setattr__(self, "quant_steps", int(self.quant_steps))
        if self.family is Family.GDYSCO:
            sigma = self.envelope_sigma
            if sigma is None:
                sigma = dur / 6.0
            _require(sigma > 0.0, "envelope_sigma must be positive")
            object.__setattr__(self, "envelope_sigma", float(sigma))
        else:
            _require(self.envelope_sigma is None, "envelope_sigma applies to GDYSCO only")

    # -- convenience constructors -------------------------------------------

    @classmethod
    def cpmg(cls, n_pulses: int, tau_free: float | None = None,
             duration: float | None = None) -> "SequenceSpec":
        if duration is None:
            _require(tau_free is not None, "give tau_free or duration")
            duration = 2 * n_pulses * tau_free
        return cls(Family.CPMG, duration=duration, n_pulses=n_pulses, tau_free=tau_free)

    @classmethod
    def hahn(cls, tau_free: float) -> "SequenceSpec":
        return cls(Family.HAHN, duration=2 * tau_free, n_pulses=1, tau_free=tau_free)

    @classmethod
    def dysco(cls, duration: float, mod_frequency: float, quant_steps: int = 0,
              amplitude: float = 1.0) -> "SequenceSpec":
        return cls(Family.DYSCO, duration=duration, mod_frequency=mod_frequency,
                   quant_steps=quant_steps, amplitude=amplitude)

    @classmethod
    def gdysco(cls, duration: float, mod_frequency: float,
               envelope_sigma: float | None = None, quant_steps: int = 0,
               amplitude: float = 1.0) -> "SequenceSpec":
        return cls(Family.GDYSCO, duration=duration, mod_frequency=mod_frequency,
                   envelope_sigma=envelope_sigma, quant_steps=quant_steps,
                   amplitude=amplitude)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"family": self.family.value, "duration": self.duration}
        for name in ("n_pulses", "tau_free", "mod_frequency", "envelope_sigma"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.quant_steps:
            out["quant_steps"] = self.quant_steps
        if self.amplitude != 1.0:
            out["amplitude"] = self.amplitude
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SequenceSpec":
        """Inverse of :meth:`to_dict`; a malformed dict is a ValidationError."""
        if not isinstance(data, dict):
            raise ValidationError("sequence must be a JSON object")
        known = {"family", "duration", "n_pulses", "tau_free", "mod_frequency",
                 "envelope_sigma", "quant_steps", "amplitude"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown sequence fields: {sorted(unknown)}")
        if "family" not in data or "duration" not in data:
            raise ValidationError("sequence dict needs at least family and duration")
        try:
            return cls(**data)
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed sequence ({exc})") from None


@dataclass(frozen=True)
class SensitivityTrace:
    """Uniformly sampled sensitivity s(t) on midpoint instants.

    ``step_edges`` is set when the trace is exactly piecewise constant
    (pulsed, or quantized carrier without envelope): a pair of arrays
    (boundaries incl. 0 and duration, per-segment values).  Exact transforms
    can then bypass the samples entirely.
    """

    times: np.ndarray
    values: np.ndarray
    duration: float
    step_edges: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(self.times.ndim == 1 and self.times.shape == self.values.shape,
                 "times and values must be 1-d arrays of equal length")
        _require(self.times.size >= 2, "trace needs at least two samples")
        _require(bool(np.all(np.abs(self.values) <= 1.0 + 1e-12)),
                 "sensitivity values must satisfy |s| <= 1")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def mean_square(self) -> float:
        return float(np.mean(self.values ** 2))

    def sign_flips(self) -> int:
        s = np.sign(self.values)
        return int(np.count_nonzero(s[1:] != s[:-1]))


def build_trace(spec: SequenceSpec, sample_rate: float) -> SensitivityTrace:
    """Sample the sensitivity function of ``spec`` at ``sample_rate`` (Hz).

    Samples sit at interval midpoints so that pulsed sign flips always land
    exactly between two samples; for pulsed specs the spacing is snapped so
    flips coincide with sample-interval boundaries.

    Parameters
    ----------
    spec : SequenceSpec
    sample_rate : float
        Must oversample the fastest feature (pulse spacing or modulation
        period, including quantization steps) by at least the documented
        margins, and give at most 10^7 samples; rejected otherwise, before
        anything is allocated.
    """
    _require(0.0 < sample_rate < math.inf,
             "sample_rate must be positive and finite")
    floor = _min_sample_rate(spec)
    _require(sample_rate >= floor,
             f"sample_rate must be >= {floor:.6g} Hz for this sequence "
             "(10 samples per free interval, 20 per carrier period, 4 per "
             "quantization step)")
    if spec.family.pulsed:
        return _build_pulsed(spec, sample_rate)
    return _build_continuous(spec, sample_rate)


def _min_sample_rate(spec: SequenceSpec) -> float:
    """The lowest sample rate (Hz) that :func:`build_trace` takes for
    ``spec``: 10 samples per free interval of a pulse train, 20 per carrier
    period, and 4 per quantization step."""
    if spec.family.pulsed:
        return 20.0 / (2.0 * spec.tau_free)
    floor = 20.0 * spec.mod_frequency
    if spec.quant_steps:
        floor = max(floor, 4.0 * spec.quant_steps * spec.mod_frequency)
    return floor


def _sample_count(count: int) -> int:
    """``count``, if a trace of that many samples is within the cap."""
    _require(count <= _MAX_SAMPLES,
             f"trace of {count:.3g} samples exceeds the cap of "
             f"{_MAX_SAMPLES:.0e}; lower sample_rate")
    return count


def _build_pulsed(spec: SequenceSpec, rate: float) -> SensitivityTrace:
    n, tau = spec.n_pulses, spec.tau_free
    # clamped, so that ceil never meets an infinite product
    per_half = max(math.ceil(min(tau * rate, _MAX_SAMPLES)), 10)
    dt = tau / per_half
    total = _sample_count(2 * n * per_half)
    times = (np.arange(total) + 0.5) * dt
    # flips at odd multiples of tau; value is (-1)**(#flips before t)
    flips_before = ((np.arange(total) // per_half) + 1) // 2
    values = np.where(flips_before % 2 == 0, 1.0, -1.0)
    edges = np.concatenate(([0.0], (2 * np.arange(n) + 1) * tau, [2 * n * tau]))
    seg_values = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    return SensitivityTrace(times, values, spec.duration, (edges, seg_values))


def _build_continuous(spec: SequenceSpec, rate: float) -> SensitivityTrace:
    f0, dur, q = spec.mod_frequency, spec.duration, spec.quant_steps
    count = _sample_count(max(round(min(dur * rate, _MAX_SAMPLES + 1)), 2))
    dt = dur / count
    times = (np.arange(count) + 0.5) * dt
    if q:
        # hold the carrier at the center value of each 1/(q f0) interval
        hold = (np.floor(times * f0 * q) + 0.5) / (q * f0)
        carrier = np.sin(2.0 * np.pi * f0 * hold)
    else:
        carrier = np.sin(2.0 * np.pi * f0 * times)
    values = spec.amplitude * carrier
    edges = None
    if q and spec.family is Family.DYSCO:
        step = 1.0 / (q * f0)
        n_steps = int(math.ceil(dur / step - 1e-9))
        bounds = np.minimum(np.arange(n_steps + 1) * step, dur)
        centers = (np.arange(n_steps) + 0.5) * step
        seg = spec.amplitude * np.sin(2.0 * np.pi * f0 * centers)
        edges = (bounds, seg)
    if spec.family is Family.GDYSCO:
        env = np.exp(-((times - dur / 2.0) ** 2) / (2.0 * spec.envelope_sigma ** 2))
        values = values * env
    return SensitivityTrace(times, values, dur, edges)


@dataclass(frozen=True)
class BandwidthReport:
    """Usable sensing band of a sequence family, all frequencies in Hz."""

    f_min: float
    f_max: float
    fwhm: float
    note: str


def bandwidth_report(spec: SequenceSpec, f_rabi: float,
                     t2_echo: float | None = None,
                     margin: float = 10.0) -> BandwidthReport:
    """Report sensing-band limits for ``spec`` given hardware constraints.

    ``margin`` operationalizes every "much less than" bound as a fixed safety
    factor.  Pulsed families need ``t2_echo`` (their low-frequency limit is
    set by the echo coherence time); continuous families are limited from
    below by the sweep duration and from above by the pulse-quantized drive.
    """
    _require(f_rabi > 0.0, "f_rabi must be positive")
    _require(margin >= 1.0, "margin must be >= 1")
    if spec.family.pulsed:
        _require(t2_echo is not None and t2_echo > 0.0,
                 "pulsed bandwidth needs t2_echo > 0")
        f_min = 1.0 / (2.0 * t2_echo)
        f_max = f_rabi / margin
        fwhm = 0.89 / spec.duration
        note = ("low edge 1/(2 T2_echo); high edge f_rabi/margin keeps pulses "
                "much shorter than the free evolution")
    else:
        f_min = 1.0 / spec.duration
        if spec.quant_steps:
            f_max = f_rabi / (2.0 * spec.quant_steps * margin)
            note = ("low edge one modulation period per sweep; high edge keeps the "
                    "total quantization-pulse time well under the duration")
        else:
            f_max = math.inf
            note = ("low edge one modulation period per sweep; ideal carrier has no "
                    "quantization bound (f_max unbounded-by-quantization)")
        if spec.family is Family.GDYSCO:
            fwhm = math.sqrt(math.log(2.0)) / (math.pi * spec.envelope_sigma)
        else:
            fwhm = 0.884 / spec.duration
    if f_max <= f_min:
        note += "; empty band: f_max <= f_min"
    return BandwidthReport(f_min=f_min, f_max=f_max, fwhm=fwhm, note=note)
