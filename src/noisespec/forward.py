"""Forward model: dephasing exponents and synthetic coherence curves.

chi(t) = (t/2) * integral_0^inf S(omega) FF(omega) d omega, C = exp(-chi).
The quadrature is a composite trapezoid that starts from the union of the
filter grid and the spectrum's refinement abscissas, then bisects intervals
locally until the relative error estimate is below tolerance; an envelope
tail check extends the upper cutoff (or rejects tabulated filters that would
truncate significant weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import CoverageError, NumericError, ValidationError
from .filters import FFSource, FilterFunction, cpmg_ff, default_cpmg_omegas, \
    dysco_ff
from .noise import ComponentKind, NoiseSpectrum
from .sequences import SequenceSpec

_TWO_PI = 2.0 * math.pi


class AbscissaKind(str, Enum):
    TIME = "time"
    MOD_FREQUENCY = "mod_frequency"


class Sampling(str, Enum):
    DENSE = "dense"
    REVIVALS_ONLY = "revivals_only"


@dataclass(frozen=True)
class Provenance:
    kind: str                      # "synthetic" or "ingested"
    seed: int | None = None
    path: str | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.path is not None:
            out["path"] = self.path
        return out


@dataclass(frozen=True)
class CoherenceCurve:
    """Coherence versus a swept abscissa for one sequence template.

    ``xs`` is total evolution time (s) for pulsed families or modulation
    frequency (Hz) for continuous sweeps; ``sequence`` is the template whose
    ``swept`` field varies along the curve.
    """

    abscissa_kind: AbscissaKind
    xs: np.ndarray
    coherences: np.ndarray
    uncertainties: np.ndarray
    sequence: SequenceSpec
    swept: str
    provenance: Provenance
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        cs = np.asarray(self.coherences, dtype=float)
        us = np.asarray(self.uncertainties, dtype=float)
        if not (xs.shape == cs.shape == us.shape) or xs.ndim != 1 or xs.size == 0:
            raise ValidationError("curve arrays must be equal-length 1-d and non-empty")
        if np.any(np.diff(xs) <= 0.0) or xs[0] <= 0.0:
            raise ValidationError("curve abscissa must be positive and strictly increasing")
        if np.any(us < 0.0):
            raise ValidationError("uncertainties must be non-negative")
        for name, arr in (("xs", xs), ("coherences", cs), ("uncertainties", us)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"curve {name} must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "coherences", cs)
        object.__setattr__(self, "uncertainties", us)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _refine_trapezoid(fun, x0: np.ndarray, rel_tol: float,
                      max_rounds: int = 14, max_points: int = 400_000):
    x = np.unique(np.asarray(x0, dtype=float))
    if x.size < 2:
        raise NumericError("quadrature grid needs at least two points")
    y = fun(x)
    total = float(np.trapezoid(y, x))
    for _ in range(max_rounds):
        h = np.diff(x)
        xm = x[:-1] + 0.5 * h
        ym = fun(xm)
        fine = 0.25 * h * (y[:-1] + 2.0 * ym + y[1:])
        err = np.abs(fine - 0.5 * h * (y[:-1] + y[1:]))
        total = float(np.sum(fine))
        scale = max(abs(total), 1e-300)
        err_sum = float(np.sum(err))
        if err_sum <= rel_tol * scale:
            return total, err_sum / scale, x.size + xm.size
        if x.size >= max_points:
            break
        keep = err > (rel_tol * scale) / max(err.size, 1)
        if not np.any(keep):
            return total, err_sum / scale, x.size + xm.size
        x = np.concatenate([x, xm[keep]])
        y = np.concatenate([y, ym[keep]])
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
    if err_sum <= 50.0 * rel_tol * scale:
        return total, err_sum / scale, x.size + xm.size
    raise NumericError(
        f"quadrature stalled at relative error {err_sum / scale:.2e} "
        f"(tolerance {rel_tol:.0e})")


def _tail_estimate(spectrum: NoiseSpectrum, ff: FilterFunction, hi: float) -> float:
    grid = np.geomspace(hi, 50.0 * hi, 96)
    g = spectrum.eval(grid) * ff.tail_envelope(grid)
    return float(np.trapezoid(g, grid))


def chi_detailed(spectrum: NoiseSpectrum, ff: FilterFunction,
                 rel_tol: float = 1e-4) -> tuple[float, dict]:
    """Dephasing exponent and quadrature diagnostics.

    The info dict holds the upper cutoff ``omega_max``, the achieved relative
    error estimate ``rel_err``, the envelope ``tail_estimate`` past the
    cutoff and ``nodes``, the abscissa count of the final composite rule.
    """
    lo = float(ff.omegas[0])
    hi = float(ff.omegas[-1])
    extent = spectrum.extent()
    target_hi = max(hi, extent)
    if ff.source is FFSource.NUMERIC and target_hi > 1.0001 * hi:
        tail = _tail_estimate(spectrum, ff, hi)
        probe = max(abs(float(np.trapezoid(
            spectrum.eval(ff.omegas) * ff.values, ff.omegas))), 1e-300)
        if tail > 1e-3 * probe:
            raise CoverageError(
                "tabulated filter grid ends before the spectrum does "
                f"(tail estimate {tail:.3e} vs integral {probe:.3e})")
        target_hi = hi
    parts = [ff.omegas]
    refine = spectrum.refinement_points()
    refine = refine[(refine > 0.0) & (refine <= target_hi)]
    parts.append(refine)
    if target_hi > hi:
        parts.append(np.geomspace(hi, target_hi, 257))
    grid = np.concatenate(parts)
    grid = grid[(grid >= lo * 0.999) & (grid <= target_hi)]
    grid = np.concatenate([[lo], grid, [target_hi]]) if target_hi > hi else grid

    def integrand(w):
        return spectrum.eval(w) * ff.evaluate(w)

    hi_used = target_hi
    for _ in range(5):
        value, achieved, nodes = _refine_trapezoid(integrand, grid, rel_tol)
        tail = _tail_estimate(spectrum, ff, hi_used)
        if tail <= 1e-3 * max(abs(value), 1e-300):
            break
        if ff.source is FFSource.NUMERIC:
            raise CoverageError(
                "tabulated filter grid truncates significant spectral weight")
        new_hi = 6.0 * hi_used
        grid = np.concatenate([grid, np.geomspace(hi_used, new_hi, 193)])
        hi_used = new_hi
    else:
        raise NumericError("spectral tail did not become negligible while "
                           "extending the quadrature cutoff")
    chi_value = 0.5 * ff.duration * value
    return chi_value, {"omega_max": hi_used, "rel_err": achieved,
                       "tail_estimate": tail, "nodes": nodes}


def chi(spectrum: NoiseSpectrum, ff: FilterFunction, rel_tol: float = 1e-4) -> float:
    """chi = (duration/2) * integral S(omega) FF(omega) d omega (dimensionless)."""
    return chi_detailed(spectrum, ff, rel_tol)[0]


# ---------------------------------------------------------------------------
# filter selection
# ---------------------------------------------------------------------------

# Node budget of a comb-resolving grid (~2e5 nodes).  The weight rule alone
# would pass it on flat spectra, where the envelope tail falls only as
# pi n / z (z ~ 3e4 n at rel_tol 1e-4).
_COMB_Z_CAP = 8e4


def filter_for(spec: SequenceSpec, spectrum: NoiseSpectrum | None = None,
               rel_tol: float = 1e-4) -> FilterFunction:
    """The filter function FF that ``chi`` integrates for one sequence.

    A continuous carrier gets ``dysco_ff(spec)`` and a pulsed train without
    ``spectrum`` gets ``cpmg_ff(n, t)`` on its default grid.  Given the
    spectrum, a pulsed train's comb grid ends at the smallest z = omega*t
    >= 40n past which the weight that can still reach chi, integral
    S * ff.tail_envelope, falls below ``rel_tol`` times the integral the
    40n grid already covers; it never passes the power-extent rule
    min(extent*t*1.05, _COMB_Z_CAP).  The 1/omega^2 envelope makes this far
    shorter than the power extent of a heavy-tailed spectrum;
    ``chi_detailed``'s geometric extension and refine loop integrate what
    lies beyond.
    """
    if not spec.family.pulsed:
        return dysco_ff(spec)
    n, t = spec.n_pulses, spec.duration
    if spectrum is None:
        return cpmg_ff(n, t)
    z_floor = 40.0 * n
    z_cap = min(max(z_floor, spectrum.extent() * t * 1.05), _COMB_Z_CAP)
    ff = cpmg_ff(n, t, default_cpmg_omegas(n, t, z_max=min(z_floor, z_cap)))
    if z_cap <= z_floor:
        return ff
    covered = float(np.trapezoid(spectrum.eval(ff.omegas) * ff.values, ff.omegas))
    # geometric probe, 48 nodes per decade out to 50x the cap (as _tail_estimate)
    w = np.geomspace(z_floor / t, 50.0 * z_cap / t,
                     int(48 * math.log10(50.0 * z_cap / z_floor)) + 2)
    g = spectrum.eval(w) * ff.tail_envelope(w)
    pieces = 0.5 * np.diff(w) * (g[1:] + g[:-1])
    beyond = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)   # weight past w[k]
    z = min(float(w[np.argmax(beyond <= rel_tol * covered)]) * t, z_cap)
    if z <= z_floor:
        return ff
    # the 40n grid is a leading prefix of every longer one (same arange start
    # and step, and the fine window ends below 40n), so only the new tail
    # nodes need the closed form
    omegas = default_cpmg_omegas(n, t, z_max=z)
    tail = ff.evaluate(omegas[ff.omegas.size:])
    return replace(ff, omegas=omegas, values=np.concatenate([ff.values, tail]))


# ---------------------------------------------------------------------------
# synthetic curves
# ---------------------------------------------------------------------------

def _coherences(spectrum: NoiseSpectrum, ffs, rel_tol: float):
    """exp(-chi) at each filter of ``ffs``, plus the curve's quadrature
    diagnostics: the worst achieved ``rel_err``, the largest filter grid,
    the total node count and the last point's ``omega_max``."""
    cs, info = [], {}
    rel_err_max, ff_grid_max, quad_nodes = 0.0, 0, 0
    for ff in ffs:
        value, info = chi_detailed(spectrum, ff, rel_tol)
        cs.append(math.exp(-value))
        rel_err_max = max(rel_err_max, info["rel_err"])
        ff_grid_max = max(ff_grid_max, int(ff.omegas.size))
        quad_nodes += info["nodes"]
    return np.array(cs), {"rel_tol": rel_tol, "omega_max": info.get("omega_max"),
                          "rel_err_max": rel_err_max, "ff_grid_max": ff_grid_max,
                          "quad_nodes": quad_nodes}


def synth_cpmg_family(spectrum: NoiseSpectrum, n_list, time_grid_per_n=None,
                      sampling: Sampling = Sampling.DENSE,
                      revival_orders=None, rel_tol: float = 1e-4,
                      ) -> list[CoherenceCurve]:
    """Noise-free coherence curves C(t) for a family of pulse trains.

    Parameters
    ----------
    spectrum : NoiseSpectrum
    n_list : sequence of int
        Pulse counts, one output curve per entry.
    time_grid_per_n : mapping or sequence, optional
        Total evolution times per pulse count (dict keyed by n or a list
        parallel to ``n_list``).  Required for DENSE sampling.
    sampling : Sampling
        REVIVALS_ONLY places points only where the free interval is an
        integer number of periods of the spectrum's Gaussian line, which
        needs ``revival_orders`` (default 1..10) instead of a time grid.
    """
    sampling = Sampling(sampling)
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise ValidationError("pulse counts must be positive integers")
    if sampling is Sampling.REVIVALS_ONLY:
        centers = [c.omega_center for c in spectrum.components
                   if c.kind is ComponentKind.GAUSSIAN_PEAK]
        if not centers:
            raise ValidationError(
                "revival sampling needs a spectrum with a Gaussian line")
        period = _TWO_PI / max(centers)
        orders = np.asarray(revival_orders if revival_orders is not None
                            else np.arange(1, 11), dtype=float)
        if np.any(orders < 1):
            raise ValidationError("revival orders must be >= 1")
        grids = {n: 2.0 * n * orders * period for n in n_list}
    else:
        if time_grid_per_n is None:
            raise ValidationError("dense sampling needs time_grid_per_n")
        if isinstance(time_grid_per_n, dict):
            grids = {n: np.asarray(time_grid_per_n[n], dtype=float) for n in n_list}
        else:
            grids = {n: np.asarray(g, dtype=float)
                     for n, g in zip(n_list, time_grid_per_n)}
    curves = []
    for n in n_list:
        times = np.sort(grids[n])
        if times.size == 0 or times[0] <= 0.0:
            raise ValidationError("time grids must be positive and non-empty")
        specs = (SequenceSpec.cpmg(n, duration=float(t)) for t in times)
        cs, quad = _coherences(spectrum, (filter_for(spec, spectrum, rel_tol)
                                          for spec in specs), rel_tol)
        template = SequenceSpec.cpmg(n, duration=float(times[-1]))
        curves.append(CoherenceCurve(
            abscissa_kind=AbscissaKind.TIME,
            xs=times, coherences=cs, uncertainties=np.zeros_like(times),
            sequence=template, swept="duration",
            provenance=Provenance("synthetic"),
            metadata={"sampling": sampling.value, **quad},
        ))
    return curves


def synth_dysco_sweep(spectrum: NoiseSpectrum, template: SequenceSpec,
                      f_grid, rel_tol: float = 1e-4) -> CoherenceCurve:
    """Noise-free coherence versus modulation frequency at fixed duration."""
    if template.family.pulsed:
        raise ValidationError("synth_dysco_sweep needs a continuous-family template")
    fs = np.sort(np.asarray(f_grid, dtype=float))
    if fs.size == 0 or fs[0] <= 0.0:
        raise ValidationError("frequency grid must be positive and non-empty")
    cs, quad = _coherences(spectrum, (
        filter_for(replace(template, mod_frequency=float(f0))) for f0 in fs), rel_tol)
    return CoherenceCurve(
        abscissa_kind=AbscissaKind.MOD_FREQUENCY,
        xs=fs, coherences=cs, uncertainties=np.zeros_like(fs),
        sequence=template, swept="mod_frequency",
        provenance=Provenance("synthetic"),
        metadata=quad,
    )


def _point_rng(seed: int, index: int) -> np.random.Generator:
    # counter-style seeding: one independent stream per (seed, point)
    return np.random.default_rng([int(seed), int(index)])


def add_measurement_noise(curve: CoherenceCurve, epsilon: float,
                          seed: int) -> CoherenceCurve:
    """Add i.i.d. Gaussian readout noise of standard deviation ``epsilon``.

    Deviates are drawn from per-point counters derived from (seed, index), so
    any partition of the work reproduces the same curve bit for bit.  The
    noise level is recorded as the per-point uncertainty.
    """
    if epsilon < 0.0:
        raise ValidationError("epsilon must be non-negative")
    noisy = np.array([
        c + _point_rng(seed, i).normal(0.0, epsilon) if epsilon > 0.0 else c
        for i, c in enumerate(curve.coherences)
    ])
    return replace(
        curve,
        coherences=noisy,
        uncertainties=np.full_like(noisy, float(epsilon)),
        provenance=Provenance("synthetic", seed=int(seed)),
        metadata={**curve.metadata, "epsilon": float(epsilon)},
    )
