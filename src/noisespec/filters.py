"""Frequency-domain filter functions of sensitivity traces.

The normalized filter function used throughout is

    FF(omega) = |F_t[s]|^2 / (pi * t),   F_t[s] = integral_0^t s(t') e^{i omega t'} dt'

so that integral_0^inf FF(omega) d omega equals the mean square of s(t)
(Parseval); a full-contrast pulsed train therefore integrates to 1.  The
dephasing exponent is chi = (t/2) * integral S(omega) FF(omega) d omega.

Closed forms exist for the pulsed train (even/odd pulse counts differ only in
one trig factor, and the removable cos singularities are evaluated by a tiny
relative nudge of the abscissa) and for the continuous carriers (squared-sinc
and Gaussian line shapes).  :func:`numeric_ff` recomputes FF from a sampled
trace, which is the cross-check path the analytic forms are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .sequences import Family, SensitivityTrace, SequenceSpec

_POLE_NUDGE = 1e-9  # relative abscissa shift at removable singularities
_TWO_PI = 2.0 * math.pi
_EDGE_STRIDE = 32   # grid nodes per first quadrature panel
_CARRIER_NODES = 2000   # nodes of a carrier row's default grid


@dataclass(frozen=True)
class FilterFunction:
    """Tabulated FF(omega) and, for a closed form, the evaluator ``rows``
    that ``chi`` integrates.

    ``omegas`` are angular frequencies (rad/s, strictly increasing, > 0);
    ``values`` carry units of seconds.  The table serves display and
    :func:`peak_stats`; ``chi`` reads ``rows`` alone.  An analytic filter's
    ``rows`` is its closed form as a one-row :class:`FilterRows`.  A table
    built without ``rows`` (:func:`numeric_ff`) is evaluated by linear
    interpolation, zero outside its grid, and ``chi`` refuses it: it has
    no evaluator past its grid.
    """

    omegas: np.ndarray
    values: np.ndarray
    duration: float
    rows: "FilterRows | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.omegas.ndim != 1 or self.omegas.shape != self.values.shape:
            raise ValidationError("omegas and values must be 1-d arrays of equal length")
        if self.omegas.size < 8:
            raise ValidationError("filter-function grid needs at least 8 points")
        if self.omegas[0] <= 0.0 or np.any(np.diff(self.omegas) <= 0.0):
            raise ValidationError("omegas must be strictly increasing and positive")
        if np.any(self.values < 0.0) or not np.all(np.isfinite(self.values)):
            raise ValidationError("FF values must be finite and non-negative")

    def evaluate(self, omega: np.ndarray | float) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        if self.rows is None:
            return np.interp(w, self.omegas, self.values, left=0.0, right=0.0)
        return self.rows.values(w, 0)

    def total_area(self) -> float:
        return float(np.trapezoid(self.values, self.omegas))


def _inverse_square(coef, w: np.ndarray) -> np.ndarray:
    return coef / np.maximum(w, 1e-300) ** 2


def _finite_omegas(w: np.ndarray) -> np.ndarray:
    """``w``, if every frequency in it is finite."""
    if not np.all(np.isfinite(w)):
        raise ValidationError("filter frequencies overflow: a duration or "
                              "modulation frequency is out of range")
    return w


def _grid_edges(grids: np.ndarray) -> np.ndarray:
    """Every 32nd node of each grid (last axis) and its last."""
    return np.concatenate([grids[..., ::_EDGE_STRIDE], grids[..., -1:]], -1)


@dataclass(frozen=True)
class FilterRows:
    """Closed-form filter functions of a batch of sequences, one per row.

    The rows differ only in duration (a pulsed family at one pulse count)
    or only in modulation frequency (one carrier template): ``of`` takes
    them from a curve's abscissa, durations (s) for a pulse train or
    modulation frequencies (Hz) for a carrier, and every other parameter
    from the curve's template.  Each method takes angular
    frequencies ``w`` whose last axis runs over the rows ``rows`` (an index
    array that broadcasts against it), or a single row index.
    """

    family: Family
    durations: np.ndarray
    n_pulses: int = 0
    w0: np.ndarray | None = None
    envelope_sigma: float = 0.0
    amplitude: float = 1.0

    @classmethod
    def of(cls, template: SequenceSpec, xs) -> "FilterRows":
        # the closed forms are those of a smooth carrier; a quantized one is
        # a step trace, with other lobes, that no row here evaluates yet
        if template.quant_steps:
            raise ValidationError(
                "no filter function for a quantized carrier (quant_steps > 0)")
        xs = np.array(xs, dtype=float)
        if template.family.pulsed:
            return cls(template.family, xs, n_pulses=template.n_pulses)
        with np.errstate(over="ignore"):
            w0 = _finite_omegas(_TWO_PI * xs)
        return cls(template.family, np.full(xs.shape, float(template.duration)),
                   w0=w0, envelope_sigma=template.envelope_sigma or 0.0,
                   amplitude=template.amplitude)

    def grid(self, rows) -> np.ndarray:
        """Each row's default grid (nodes on the last axis)."""
        if self.family.pulsed:
            t = np.expand_dims(self.durations[rows], -1)
            return _unit_cpmg_omegas(self.n_pulses) / t
        return _carrier_grid(self.w0[rows], float(self.durations[0]))

    def edges(self, rows) -> np.ndarray:
        """Each row's first quadrature panel edges: ``_grid_edges`` of its
        grid, from 0 for a carrier, whose sinc^2 far lobes reach DC."""
        if self.family.pulsed:
            return _grid_edges(self.grid(rows))
        return _carrier_edges(self.w0[rows], float(self.durations[0]))

    def values(self, w: np.ndarray, rows) -> np.ndarray:
        """FF of each row."""
        if self.family.pulsed:
            return _cpmg_values(w, self.n_pulses, self.durations[rows])
        t = float(self.durations[0])
        if self.family is Family.GDYSCO:
            return _gdysco_values(w, self.w0[rows], t, self.envelope_sigma,
                                  self.amplitude)
        return _dysco_values(w, self.w0[rows], t, self.amplitude)

    def envelope(self, w: np.ndarray, rows) -> np.ndarray:
        """Upper estimate of each row's FF past its grid: the Gaussian line
        itself (GDYSCO), or a 1/omega^2 decay.  A pulsed row's comb lobes
        average ~0.4 omega0 / w^2 of area density, kept with a 2x cushion;
        a DYSCO row uses sinc^2(x) <= 1/x^2, evaluated a few lobes past the
        grid edge."""
        if self.family is Family.GDYSCO:
            return self.values(w, rows)
        if self.family.pulsed:
            coef = math.pi * self.n_pulses / self.durations[rows]
        else:
            a = self.amplitude
            coef = a * a / (math.pi * self.durations[0])
        return _inverse_square(coef, w)

    def comb_start(self, hi: np.ndarray, rows) -> np.ndarray:
        """Where the rows' combs may be replaced by their period mean, for
        a spectrum that is smooth on the scale of omega past ``hi``.

        A pulse train's |F|^2 is a cosine series in omega whose lags are
        multiples of t / (2n), so past the first multiple of 2 pi n / t at
        or beyond max(``hi``, 40 n / t) every lag's phase starts at a zero
        of its sine, and integral S * (FF - mean) beyond that point is the
        second-order remainder of ``comb_remainder``.  Carriers have no
        comb (inf).
        """
        if not self.family.pulsed:
            return np.full(np.shape(hi), np.inf)
        t = self.durations[rows]
        half_period = _TWO_PI * self.n_pulses / t
        lo = np.maximum(hi, 40.0 * self.n_pulses / t)
        return np.ceil(lo / half_period) * half_period

    def comb_remainder(self, start: np.ndarray, rows) -> np.ndarray:
        """q per row such that integral_start^inf S (FF - comb mean) d omega
        is -q G'(start), up to a fourth-order term, for G = S / omega^2
        smooth past a ``comb_start`` point ``start``.

        omega^2 FF pi t = sum_ij c_i c_j cos(omega (t_i - t_j)) over the
        trace's jumps c_i at times t_i; integrating each cosine of the
        pairs i != j by parts twice leaves -G' cos / lag^2 at ``start``,
        where every sine vanishes.  The jumps sit on the lattice
        t m / 2n, so the n^2 pairs group by lag into
        sum_m acf[m] cos(z m / 2n) / (m / 2n)^2, m = 1..2n, with z =
        ``start`` t and acf the jumps' autocorrelation (``_jump_acf``):
        O(n) per row."""
        n = self.n_pulses
        lag = np.arange(1, 2 * n + 1) / (2.0 * n)
        t = self.durations[rows]
        # C order: each row is summed alone, in one order in any batch
        weight = _jump_acf(n) / lag ** 2
        terms = np.cos(np.multiply.outer(start * t, lag)) * weight
        return 2.0 * terms.sum(-1) / (math.pi * t ** 3)

    def comb_mean(self, w: np.ndarray, rows) -> np.ndarray:
        """Each pulsed row's FF averaged over its comb period: the pulse
        train's transform has n interior coefficients of modulus 2 and two
        end coefficients of modulus 1, so the mean of |F|^2 omega^2 is
        4n + 2 (Parseval)."""
        return _inverse_square(
            (4.0 * self.n_pulses + 2.0) / (math.pi * self.durations[rows]), w)


# ---------------------------------------------------------------------------
# pulsed (CPMG / Hahn) closed form
# ---------------------------------------------------------------------------

@functools.cache
def _jump_acf(n: int) -> np.ndarray:
    """Autocorrelation at lags 1..2n of an n-pulse train's jumps on the
    lattice m / 2n of its unit duration, read-only: -1 at 0, 2 (-1)^k at
    the pulses 2k + 1 (k < n) and (-1)^n at 2n.  The sums are integers, so
    exact."""
    jumps = np.zeros(2 * n + 1)
    jumps[0], jumps[-1] = -1.0, (-1.0) ** n
    jumps[1:-1:2] = 2.0 * (-1.0) ** np.arange(n)
    acf = np.correlate(jumps, jumps, "full")[2 * n + 1:]
    acf.flags.writeable = False
    return acf


def _cpmg_values(omega: np.ndarray, n: int, t: float) -> np.ndarray:
    """FF of an n-pulse train of length t at ``omega`` (the closed form of
    Cywinski et al., PRB 77, 174509 (2008)), with z = omega t:

        FF = 16 sin^4(z/4n) trig^2(z/2) / cos^2(z/2n) / (pi t omega^2),

    trig = sin for even n and cos for odd n.  No ``**`` but squaring:
    numpy sends any power other than 2 to libm ``pow``, which took about
    half of this kernel's time, where two squarings cost under a
    nanosecond.  z / 2n and z / 2 are the quarter angle z / 4n and z
    scaled by powers of two, which keeps their bits.
    """
    w = np.asarray(omega, dtype=float)
    z = w * t
    quarter = z / (4.0 * n)
    den = np.cos(2.0 * quarter)
    bad = np.abs(den) < 1e-7
    if np.any(bad):
        z = np.where(bad, z * (1.0 + _POLE_NUDGE) + _POLE_NUDGE, z)
        quarter = z / (4.0 * n)
        den = np.cos(2.0 * quarter)
    num = np.sin(0.5 * z) if n % 2 == 0 else np.cos(0.5 * z)
    sin4 = np.sin(quarter)
    sin4 *= sin4
    sin4 *= sin4
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (16.0 / (math.pi * t)) * sin4 * (num / den) ** 2 \
            / np.maximum(w, 1e-300) ** 2
    return np.where(w > 0.0, out, 0.0)


def default_cpmg_omegas(n_pulses: int, duration: float,
                        z_max: float | None = None) -> np.ndarray:
    """Default angular-frequency grid for an n-pulse filter of length t.

    Linear spacing pi/8 in z = omega*t resolves every comb lobe out to
    ``z_max`` (default 40*n); an 8x denser window around the principal lobe
    keeps >= 50 samples inside its FWHM for peak statistics.  Past the
    grid, ``forward.chi`` integrates the comb on its own panels and as its
    period mean.
    """
    if z_max is None:
        z_max = 40.0 * n_pulses
    base = np.arange(0.05, z_max, math.pi / 8.0)
    lo = max(0.05, (n_pulses - 3.5) * math.pi)
    hi = min(z_max, (n_pulses + 3.5) * math.pi)
    fine = np.arange(lo, hi, math.pi / 64.0)
    head = np.geomspace(0.01, 0.05, 8, endpoint=False)
    z = np.unique(np.concatenate([head, base, fine]))
    return z / duration


@functools.cache
def _unit_cpmg_omegas(n_pulses: int) -> np.ndarray:
    """The default grid at t = 1 s, read-only: at t it is this / t."""
    grid = default_cpmg_omegas(n_pulses, 1.0)
    grid.flags.writeable = False
    return grid


def cpmg_ff(n_pulses: int, duration: float,
            omegas: np.ndarray | None = None) -> FilterFunction:
    """Closed-form filter function of an n-pulse train of total length t.

    Parameters
    ----------
    n_pulses : int
        Number of pi pulses (1 reproduces the single-echo filter).
    duration : float
        Total evolution time t = 2 * n_pulses * tau_free, seconds.
    omegas : array, optional
        Evaluation grid (rad/s); a comb-resolving default is built otherwise.
    """
    if n_pulses < 1 or int(n_pulses) != n_pulses:
        raise ValidationError("n_pulses must be a positive integer")
    if duration <= 0.0:
        raise ValidationError("duration must be positive")
    rows = FilterRows(Family.CPMG, np.array([float(duration)]),
                      n_pulses=int(n_pulses))
    return _analytic_ff(rows, omegas)


def _analytic_ff(rows: FilterRows, omegas) -> FilterFunction:
    # an out-of-range duration is reported as one error, not warned about
    with np.errstate(all="ignore"):
        omegas = _finite_omegas(rows.grid(0)) if omegas is None \
            else np.asarray(omegas, float)
        values = rows.values(omegas, 0)
    return FilterFunction(omegas, values, float(rows.durations[0]), rows=rows)


# ---------------------------------------------------------------------------
# continuous carriers
# ---------------------------------------------------------------------------

def _sinc_sq(x: np.ndarray) -> np.ndarray:
    return np.sinc(x / math.pi) ** 2


def _dysco_values(omega: np.ndarray, w0: float, t: float, amp: float) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    return (amp * amp * t / (4.0 * math.pi)) * _sinc_sq((w - w0) * t / 2.0)


def _gdysco_values(omega: np.ndarray, w0: float, t: float, sigma: float,
                   amp: float) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    scale = amp * amp * sigma * sigma * math.erf(t / (2.0 * sigma)) / (2.0 * t)
    return scale * np.exp(-(sigma * (w - w0)) ** 2)


def _carrier_bounds(w0, duration, span=20.0):
    """Ends of each line's grid, w0 +/- 2 pi span/duration, kept above 0."""
    half = _TWO_PI * span / duration
    return np.maximum(w0 - half, 1e-6 * w0), w0 + half


def _carrier_grid(w0, duration, span=20.0,
                  points=_CARRIER_NODES) -> np.ndarray:
    """Linear grid across each line w0 +/- 2 pi span/duration (last axis)."""
    return np.linspace(*_carrier_bounds(w0, duration, span), points, axis=-1)


def _carrier_edges(w0, duration) -> np.ndarray:
    """0, then ``_grid_edges`` of each line's default grid, without the grid:
    with d = ``_CARRIER_NODES`` - 1, node j is j ((hi - lo) / d) + lo in
    ``np.linspace``'s arithmetic, which takes (j / d) (hi - lo) + lo instead
    once any row's step underflows to 0, and the last node is hi."""
    lo, hi = (np.expand_dims(b, -1) for b in _carrier_bounds(w0, duration))
    j = np.arange(0, _CARRIER_NODES, _EDGE_STRIDE)
    d = _CARRIER_NODES - 1
    step = (hi - lo) / d
    nodes = j * step if np.all(step != 0) else j / d * (hi - lo)
    return np.concatenate([np.zeros_like(lo), nodes + lo, hi], -1)


def default_continuous_omegas(spec: SequenceSpec, span: float = 20.0,
                              points: int = 2000) -> np.ndarray:
    """Linear grid of ``points`` samples across f0 +/- span/duration."""
    return _carrier_grid(_TWO_PI * spec.mod_frequency, spec.duration, span, points)


def dysco_ff(spec: SequenceSpec, omegas: np.ndarray | None = None) -> FilterFunction:
    """Analytic filter function of a continuous carrier sweep point.

    DYSCO gives a squared sinc centered on the modulation frequency with
    nulls spaced 1/duration; GDYSCO gives a Gaussian line whose width is set
    by the envelope.  Both are scaled so the total area equals the trace mean
    square (0.5 resp. ~0.147 at unit amplitude).
    """
    if spec.family.pulsed:
        raise ValidationError("dysco_ff needs a continuous-family spec")
    return _analytic_ff(FilterRows.of(spec, [spec.mod_frequency]), omegas)


# ---------------------------------------------------------------------------
# numeric transform of a sampled trace
# ---------------------------------------------------------------------------

def _segment_transform(edges: np.ndarray, seg_values: np.ndarray,
                       omegas: np.ndarray) -> np.ndarray:
    # F(w) = sum_j v_j (e^{i w e_{j+1}} - e^{i w e_j}) / (i w), exact for steps
    coeff = np.empty(edges.size, dtype=float)
    coeff[0] = -seg_values[0]
    coeff[-1] = seg_values[-1]
    coeff[1:-1] = seg_values[:-1] - seg_values[1:]
    phase = np.exp(1j * np.outer(omegas, edges))
    return (phase @ coeff) / (1j * omegas)


def numeric_ff(trace: SensitivityTrace, omegas: np.ndarray) -> FilterFunction:
    """Filter function computed directly from a sampled trace.

    Piecewise-constant traces (pulsed trains, quantized carriers) are
    transformed exactly from their step boundaries; smooth traces use the
    midpoint-rule transform of the samples.  The grid must stay below the
    sampling Nyquist limit.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 8:
        raise ValidationError("numeric_ff needs a 1-d grid of >= 8 frequencies")
    if np.any(omegas <= 0.0) or np.any(np.diff(omegas) <= 0.0):
        raise ValidationError("omegas must be strictly increasing and positive")
    nyquist = math.pi / trace.dt
    if omegas[-1] > nyquist:
        raise ValidationError(
            f"grid extends past the sampling Nyquist limit {nyquist:.6g} rad/s")
    t = trace.duration
    if trace.step_edges is not None:
        edges, seg = trace.step_edges
        ft = _segment_transform(edges, seg, omegas)
    else:
        ft = np.empty(omegas.size, dtype=complex)
        dt = trace.dt
        for start in range(0, omegas.size, 256):
            block = omegas[start:start + 256]
            kernel = np.exp(1j * np.outer(block, trace.times))
            ft[start:start + 256] = dt * (kernel @ trace.values)
    return FilterFunction(omegas, np.abs(ft) ** 2 / (math.pi * t), t)


# ---------------------------------------------------------------------------
# peak statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakStats:
    """Shape summary of a filter function's principal peak.

    ``f0`` and ``fwhm`` are in Hz; ``gain`` is the FF area inside the FWHM
    window around the peak, ``main_lobe_area`` the area between the flanking
    minima, ``total_area`` the area over the whole grid (all dimensionless).
    ``harmonic_frequencies`` lists local maxima outside the main lobe rising
    above 5% of the peak, ascending, in Hz.
    """

    f0: float
    fwhm: float
    gain: float
    main_lobe_area: float
    total_area: float
    harmonic_frequencies: tuple[float, ...]


def _integrate_between(x: np.ndarray, y: np.ndarray, a: float, b: float) -> float:
    a = max(a, float(x[0]))
    b = min(b, float(x[-1]))
    if b <= a:
        return 0.0
    inner = x[(x > a) & (x < b)]
    xs = np.concatenate(([a], inner, [b]))
    ys = np.interp(xs, x, y)
    return float(np.trapezoid(ys, xs))


def _parabolic_peak(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    node = float(x1), float(y1)
    # near the top of the float range the products overflow; the grid node
    # then stands in for a vertex that cannot be computed
    with np.errstate(all="ignore"):
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        if denom == 0.0 or not math.isfinite(denom):
            return node
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
        b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
        if not (math.isfinite(a) and math.isfinite(b)) or a >= 0.0:
            return node
        xv = -b / (2.0 * a)
        if not (x0 < xv < x2):
            return node
        c = y1 - a * x1 * x1 - b * x1
        yv = a * xv * xv + b * xv + c
    if not math.isfinite(yv):
        return node
    return float(xv), float(yv)


def _halfmax_crossing(x: np.ndarray, y: np.ndarray, i_peak: int, half: float,
                      direction: int) -> float:
    i = i_peak
    while 0 < i < x.size - 1:
        j = i + direction
        if y[j] < half <= y[i]:
            frac = (y[i] - half) / (y[i] - y[j])
            return float(x[i] + frac * (x[j] - x[i]))
        i = j
    raise ValidationError("half-maximum crossing not bracketed by the grid")


def _flanking_minimum(y: np.ndarray, i_peak: int, direction: int,
                      floor: float) -> int:
    i = i_peak + direction
    last = y.size - 2 if direction > 0 else 1
    while (i - last) * direction <= 0:
        if y[i] <= y[i - 1] and y[i] <= y[i + 1] and y[i] < floor:
            return i
        i += direction
    return y.size - 1 if direction > 0 else 0


def peak_stats(ff: FilterFunction) -> PeakStats:
    """Locate the principal peak of ``ff`` and summarize its shape.

    The peak position is the grid argmax refined by a local parabola; the
    FWHM comes from linear interpolation of the half-maximum crossings; areas
    are trapezoidal on the tabulated grid.  Requires the peak to be interior
    to the grid.
    """
    w, v = ff.omegas, ff.values
    i_peak = int(np.argmax(v))
    if i_peak in (0, v.size - 1):
        raise ValidationError("principal peak sits at the grid edge; widen the grid")
    w0, v0 = _parabolic_peak(w, v, i_peak)
    half = v0 / 2.0
    left = _halfmax_crossing(w, v, i_peak, half, -1)
    right = _halfmax_crossing(w, v, i_peak, half, +1)
    fwhm_w = right - left
    gain = _integrate_between(w, v, w0 - fwhm_w / 2.0, w0 + fwhm_w / 2.0)
    floor = 0.05 * v0
    i_lo = _flanking_minimum(v, i_peak, -1, floor)
    i_hi = _flanking_minimum(v, i_peak, +1, floor)
    main = _integrate_between(w, v, float(w[i_lo]), float(w[i_hi]))
    total = ff.total_area()
    harmonics = []
    interior = np.arange(1, v.size - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] >= v[interior + 1])
    for i in interior[is_max]:
        if i_lo < i < i_hi:
            continue
        if v[i] >= floor:
            wc, _ = _parabolic_peak(w, v, int(i))
            harmonics.append(wc / _TWO_PI)
    return PeakStats(
        f0=w0 / _TWO_PI,
        fwhm=fwhm_w / _TWO_PI,
        gain=gain,
        main_lobe_area=main,
        total_area=total,
        harmonic_frequencies=tuple(sorted(harmonics)),
    )
