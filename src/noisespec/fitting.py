"""Least-squares estimation: noise-model parameters from a coherence curve,
stretched-exponential envelopes, revival combs, and Gaussian peak fits on
reconstructed spectra.

Every fit is one bounded trust-region least-squares solve
(``scipy.optimize.least_squares``), and every fit takes its parameter
variances from that solve's Jacobian.  The noise-model fit evaluates the
forward dephasing model as chi = K @ S(grid): one frequency grid shared by
every curve point, linear and fine across the window where the spectral line
can sit, and a fixed matrix K of filter values times trapezoid weights, so a
model evaluation is one spectrum call and one matrix-vector product.  The
other fits use closed-form shapes.  All fits are deterministic given
identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .filters import FilterRows
from .forward import AbscissaKind, CoherenceCurve
from .noise import NoiseSpectrum, composite
from .reconstruct import ReconstructedSpectrum

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    units: dict[str, str]
    residual_norm: float
    covariance_diag: dict[str, float] | None
    converged: bool
    iterations: int
    metadata: dict = field(default_factory=dict, compare=False)

    def __getitem__(self, name: str) -> float:
        return self.parameters[name]


def _covariance(jac: np.ndarray, residuals: np.ndarray,
                names: tuple[str, ...]) -> dict[str, float] | None:
    """Parameter variances s^2 diag((J^T J)^-1), s^2 = |r|^2 / (m - p), from
    an (m, p) Jacobian at the optimum; None without residual degrees of
    freedom or with a singular J^T J."""
    n_obs, n_par = jac.shape
    if n_obs <= n_par:
        return None
    try:
        jtj_inv = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None
    s2 = float(residuals @ residuals) / (n_obs - n_par)
    return {k: float(max(v, 0.0))
            for k, v in zip(names, np.diag(jtj_inv) * s2)}


# ---------------------------------------------------------------------------
# noise-model parameters from a coherence curve
# ---------------------------------------------------------------------------

_NOISE_PARAM_ORDER = ("gauss_delta", "gauss_sigma", "gauss_center",
                      "lorentz_delta", "lorentz_sigma")

# default box around the initial guess, per parameter (lo factor, hi factor);
# the line center stays near its guess because the coherence objective is
# quasi-periodic in it and distant centers alias onto other comb teeth
_DEFAULT_BOUND_FACTORS = {
    "gauss_delta": (0.05, 20.0),
    "gauss_sigma": (0.1, 5.0),
    "gauss_center": (1.0 / 3.0, 1.3),
    "lorentz_delta": (0.05, 20.0),
    "lorentz_sigma": (0.05, 20.0),
}

# entries of the noise fit's (points x grid nodes) arrays: its filter grids
# and its kernel K; past this a fit is refused before they are allocated
_MAX_KERNEL_ENTRIES = 10 ** 7

# a parameter ending this close to an edge of its box, relative to the edge,
# is on the bound; TRF's active set alone misses a stop just inside one
_AT_BOUND_RTOL = 1e-5


def _spectrum_from(params: np.ndarray) -> NoiseSpectrum:
    gd, gs, gc, ld, ls = params
    return composite(gauss_delta=gd, gauss_sigma=gs, gauss_center=gc,
                     lorentz_delta=ld, lorentz_sigma=ls)


def _check_kernel_size(points: int, nodes: int, what: str) -> None:
    if points * nodes > _MAX_KERNEL_ENTRIES:
        raise ValidationError(
            f"noise fit of {points} points needs {points * nodes:.3g} {what} "
            f"entries, above the cap of {_MAX_KERNEL_ENTRIES:.0e}: fit fewer "
            "points")


def _chi_operator(curve: CoherenceCurve,
                  window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """One frequency grid for every curve point, and the (points x nodes)
    matrix K with chi = K @ S(grid).

    Inside ``window``, where the spectral line can sit, the grid is linear
    with 16 samples per filter period of the longest duration, at least as
    fine as every point's own oscillation; outside it the grid takes every
    point's filter nodes, and a short geometric tail closes it.  Row i of K
    is (t_i / 2) FF_i(grid) times the trapezoid weights.  Past
    ``_MAX_KERNEL_ENTRIES`` entries in the filter grids or in K, the fit
    raises ``ValidationError`` before they are built.
    """
    lo, hi = window
    filters = FilterRows.of(curve.sequence, curve.xs)
    points = np.arange(curve.xs.size)
    _check_kernel_size(points.size, filters.grid(0).size, "filter-grid")
    nodes = filters.grid(points)        # every point's default filter grid
    # 16 samples per filter oscillation: trapezoid error then largely
    # cancels across periods under the slow spectral envelope
    step = math.pi / (8.0 * float(curve.xs[-1]))
    count = int((hi - lo) / step) + 2
    parts = [np.linspace(lo, hi, min(max(count, 32), 60_000)),
             np.geomspace(hi, 6.0 * hi, 33), nodes[(nodes < lo) | (nodes > hi)]]
    grid = np.unique(np.concatenate(parts))
    grid = grid[grid > 0.0]
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    _check_kernel_size(points.size, grid.size, "kernel")
    kernel = 0.5 * curve.xs[:, None] * filters.values(grid, points[:, None])
    return grid, kernel * w


def _noise_window(initial: np.ndarray,
                  bounds: dict[str, tuple[float, float]]) -> tuple[float, float]:
    c_lo, c_hi = bounds["gauss_center"]
    s_hi = bounds["gauss_sigma"][1]
    return max(0.25 * c_lo - 2.0 * s_hi, 1e-6 * initial[2]), c_hi + 8.0 * s_hi


def fit_noise_params(curve: CoherenceCurve, initial: dict[str, float],
                     max_iterations: int = 2000) -> FitResult:
    """Fit the two-component noise model to one pulse-train curve.

    Minimizes the sum of squared coherence mismatches over gauss_delta,
    gauss_sigma, gauss_center, lorentz_delta, lorentz_sigma (rad/s) with a
    bounded trust-region least-squares solve, in coordinates scaled by the
    initial guess.  Because the objective is quasi-periodic in the line
    center, the center is first located by a one-dimensional scan over its
    bounded range before the joint solve.

    Each parameter is bounded to a box of fixed factors of its initial
    guess (``_DEFAULT_BOUND_FACTORS``).  ``max_iterations`` caps the
    solver's residual evaluations, not counting those of its
    finite-difference Jacobian.  ``metadata["at_bound"]`` names the
    parameters the solver left on a bound of the box or within 1e-5 of it,
    relative to the bound, and ``metadata["grid_nodes"]`` is the size of
    the shared frequency grid.
    """
    # scipy.optimize and scipy.signal (which loads scipy.stats) take about a
    # second to import; each fit imports what it calls, so that importing the
    # package and running the commands that fit nothing never load them.
    from scipy.optimize import least_squares

    if curve.abscissa_kind is not AbscissaKind.TIME:
        raise ValidationError("noise-model fit expects a TIME curve")
    missing = [k for k in _NOISE_PARAM_ORDER if k not in initial]
    if missing:
        raise ValidationError(f"initial guess missing {missing}")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    x0 = np.array([float(initial[k]) for k in _NOISE_PARAM_ORDER])
    if np.any(x0 <= 0.0):
        raise ValidationError("initial noise parameters must be positive")
    box = {k: tuple(f * x for f in _DEFAULT_BOUND_FACTORS[k])
           for k, x in zip(_NOISE_PARAM_ORDER, x0)}

    grid, kernel = _chi_operator(curve, _noise_window(x0, box))
    data = curve.coherences
    evals = 0

    # comb-alignment scan over the line center.  The dephasing exponent is
    # linear in the squared couplings, so for each candidate center one
    # global power rescale alpha is optimized on the cached exponents; this
    # keeps an amplitude-biased guess from masking the alignment signal.
    c_lo, c_hi = box["gauss_center"]
    centers = np.linspace(c_lo, c_hi, 49)
    centers = np.sort(np.append(centers, x0[2]))
    log_alphas = np.linspace(math.log(1e-2), math.log(1e2), 81)
    alphas = np.exp(log_alphas)
    best_center, best_alpha, best_scan = x0[2], 1.0, math.inf
    params = x0.copy()
    for c in centers:
        params[2] = c
        chis = kernel @ _spectrum_from(params)(grid)
        evals += 1
        r = np.exp(-alphas[:, None] * chis[None, :]) - data[None, :]
        costs = np.einsum("ij,ij->i", r, r)
        j = int(np.argmin(costs))
        if costs[j] < best_scan:
            best_scan, best_center, best_alpha = float(costs[j]), c, alphas[j]

    def residuals(scaled: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        return np.exp(-(kernel @ _spectrum_from(scaled * x0)(grid))) - data

    lo = np.array([box[k][0] for k in _NOISE_PARAM_ORDER]) / x0
    hi = np.array([box[k][1] for k in _NOISE_PARAM_ORDER]) / x0
    root = math.sqrt(best_alpha)
    start = np.clip([root, 1.0, best_center / x0[2], root, 1.0], lo, hi)
    res = least_squares(residuals, start, bounds=(lo, hi),
                        max_nfev=max_iterations)
    on_bound = ((res.active_mask != 0)
                | np.isclose(res.x, lo, rtol=_AT_BOUND_RTOL, atol=0.0)
                | np.isclose(res.x, hi, rtol=_AT_BOUND_RTOL, atol=0.0))
    # variances come out in the scaled coordinates; map them back to rad/s
    cov = _covariance(res.jac, res.fun, _NOISE_PARAM_ORDER)
    if cov is not None:
        cov = {k: v * float(s) ** 2 for (k, v), s in zip(cov.items(), x0)}
    return FitResult(
        parameters=dict(zip(_NOISE_PARAM_ORDER, (res.x * x0).tolist())),
        units={k: "rad/s" for k in _NOISE_PARAM_ORDER},
        residual_norm=float(np.linalg.norm(res.fun)),
        covariance_diag=cov, converged=bool(res.status > 0),
        iterations=int(res.nfev),
        metadata={"n_points": data.size, "n_evaluations": evals,
                  "grid_nodes": grid.size,
                  "scanned_center": best_center,
                  "scanned_power_scale": best_alpha,
                  "at_bound": [k for k, m in zip(_NOISE_PARAM_ORDER, on_bound)
                               if m]})


# ---------------------------------------------------------------------------
# stretched-exponential envelope
# ---------------------------------------------------------------------------

def fit_envelope(times: np.ndarray, coherences: np.ndarray,
                 uncertainties: np.ndarray | None = None) -> FitResult:
    """Fit C(t) = exp(-(t/T2)^p) over T2 and p, with p in [1e-3, 4].

    Each coherence must lie in (-3u, 1 + 3u], u being its
    ``uncertainties`` entry (0 by default): readout noise may carry a point
    up to 3 sigma past 0 or 1, as in the CLIPPED rule of the spectral
    inversions.
    """
    from scipy.optimize import least_squares

    times = np.asarray(times, dtype=float)
    cs = np.asarray(coherences, dtype=float)
    us = np.zeros_like(cs) if uncertainties is None \
        else np.asarray(uncertainties, dtype=float)
    if times.size != cs.size or us.shape != cs.shape or times.size < 4:
        raise ValidationError("envelope fit needs >= 4 matched points")
    if np.any(times <= 0.0):
        raise ValidationError("envelope fit needs positive times")
    if not np.all(us >= 0.0):
        raise ValidationError("uncertainties must be non-negative")
    if np.any(cs <= -3.0 * us) or np.any(cs > 1.0 + 3.0 * us + 1e-12):
        raise ValidationError(
            "envelope fit expects coherences in (-3u, 1 + 3u]")
    degenerate = bool(np.ptp(cs) < 1e-6)
    # start T2 at the first e^-1 crossing, the last time if there is none
    below = times[cs < math.exp(-1.0)]
    initial_t2 = float(below[0]) if below.size else float(times[-1])

    def model(x):
        return np.exp(-np.power(times / x[0], x[1]))

    res = least_squares(lambda x: model(x) - cs, x0=[initial_t2, 1.5],
                        bounds=([1e-12, 1e-3], [np.inf, 4.0]))
    t2, p = float(res.x[0]), float(res.x[1])
    cov = None if degenerate else _covariance(res.jac, res.fun, ("t2", "power"))
    return FitResult(parameters={"t2": t2, "power": p},
                     units={"t2": "s", "power": "1"},
                     residual_norm=float(np.linalg.norm(res.fun)),
                     covariance_diag=cov, converged=bool(res.success),
                     iterations=int(res.nfev),
                     metadata={"degenerate": degenerate})


# ---------------------------------------------------------------------------
# revival comb
# ---------------------------------------------------------------------------

def fit_revival_comb(times: np.ndarray, coherences: np.ndarray) -> FitResult:
    """Fit an envelope-damped comb of seven Gaussian revivals.

    C(t) = exp(-(t * r)^p) * sum_{i=0}^{6} exp(-(t - i * t_rev)^2 / 2 w^2)

    The envelope is parameterized by the rate r = 1/T2 so that r = 0 (no
    decay) is an ordinary boundary point rather than an infinite parameter.
    """
    from scipy.optimize import least_squares
    from scipy.signal import find_peaks

    times = np.asarray(times, dtype=float)
    cs = np.asarray(coherences, dtype=float)
    if times.size != cs.size or times.size < 8:
        raise ValidationError("comb fit needs >= 8 matched points")
    peaks, _ = find_peaks(cs, height=0.02 * float(np.max(cs)))
    # t = 0 is a comb tooth but never a local max of the sampled curve
    if times[0] < 0.1 * (times[1] - times[0]) or cs[0] >= np.max(cs) * 0.5:
        peaks = np.unique(np.concatenate([[0], peaks]))
    if peaks.size < 3:
        raise ValidationError("need at least three visible revivals to fit "
                              "the comb spacing")
    t_peaks = times[peaks]
    spacing0 = float(np.median(np.diff(t_peaks)))
    width0 = 0.2 * spacing0
    rate0 = 1.0 / float(times[-1])

    idx = np.arange(7)

    def model(x):
        rate, p, t_rev, w = x
        centers = idx * t_rev
        comb = np.exp(-(times[:, None] - centers[None, :]) ** 2
                      / (2.0 * w ** 2)).sum(axis=1)
        return np.exp(-np.power(times * rate, p)) * comb

    res = least_squares(
        lambda x: model(x) - cs,
        x0=[rate0, 1.5, spacing0, width0],
        bounds=([0.0, 0.1, 0.25 * spacing0, 1e-12],
                [np.inf, 6.0, 4.0 * spacing0, spacing0]))
    if not res.success:
        raise NumericError("revival-comb fit did not converge")
    rate, p, t_rev, w = res.x
    t2 = 1.0 / rate if rate > 0.0 else math.inf
    names = ("rate", "power", "revival_time", "revival_width")
    cov = _covariance(res.jac, res.fun, names)
    return FitResult(
        parameters={"t2": float(t2), "power": float(p),
                    "revival_time": float(t_rev), "revival_width": float(w)},
        units={"t2": "s", "power": "1", "revival_time": "s",
               "revival_width": "s"},
        residual_norm=float(np.linalg.norm(res.fun)),
        covariance_diag=cov,
        converged=True, iterations=int(res.nfev),
        metadata={"n_peaks_found": int(peaks.size)})


# ---------------------------------------------------------------------------
# Gaussian peak on a reconstructed spectrum
# ---------------------------------------------------------------------------

# ftol, xtol and gtol of the peak fit, and its evaluation budget: on the
# spectroscopy benchmark's peak ops 98.5% of the fits meet these
# tolerances within 94 evaluations; the rest fit a line narrower than the
# spacing of their points and crawl along a flat valley (a few converge
# after 130-390 evaluations), so they stop at the budget and report
# converged = False
_PEAK_TOL = 1e-12
_PEAK_MAX_NFEV = 100


def _peak_model(p, x: np.ndarray) -> np.ndarray:
    """amp exp(-(x - center)^2 / 2 width^2) + offset, p = (amp, center,
    width, offset)."""
    amp, center, width, off = p
    return amp * np.exp(-((x - center) ** 2) / (2.0 * width ** 2)) + off


def _peak_jacobian(p, x: np.ndarray) -> np.ndarray:
    """d ``_peak_model`` / dp, one row per abscissa."""
    amp, center, width, _ = p
    u = (x - center) / width
    g = np.exp(-0.5 * u * u)
    return np.column_stack([g, amp * g * u / width, amp * g * u * u / width,
                            np.ones_like(x)])


def fit_gaussian_peak(spectrum: ReconstructedSpectrum,
                      window: tuple[float, float] | None = None) -> FitResult:
    """Fit amp * exp(-(w - center)^2 / 2 width^2) + offset inside ``window``.

    ``window`` is (lo, hi) in Hz; the whole band by default.  Results are in
    Hz with the width reported as the Gaussian 1 sigma.  The fit runs in
    coordinates centered on the observed maximum, so translating the input
    frequency axis translates the fitted center by exactly the same amount.
    The solver takes the model's analytic Jacobian (``_peak_jacobian``),
    scales the parameters by its column norms (amplitude and centre differ
    by orders of magnitude; unscaled, the analytic-Jacobian solve stalled
    at three times the least residual on a sparse 9-point band) and stops
    at ftol = xtol = gtol = 1e-12, which fixes the centre to about 1e-7 of
    its fully converged value; scipy's defaults (1e-8, with a 2-point
    difference Jacobian) left it up to 1e-5 away.  A fit that has not met
    them after 100 evaluations stops there with ``converged`` False.
    """
    from scipy.optimize import least_squares

    keep = spectrum.valid & np.isfinite(spectrum.values)
    w_all = spectrum.omegas[keep]
    v_all = spectrum.values[keep]
    u_all = spectrum.uncertainties[keep]
    if window is not None:
        lo, hi = window
        sel = (w_all >= lo * _TWO_PI) & (w_all <= hi * _TWO_PI)
        w_all, v_all, u_all = w_all[sel], v_all[sel], u_all[sel]
    if w_all.size < 5:
        raise ValidationError("peak fit needs >= 5 valid points in the window")
    i0 = int(np.argmax(v_all))
    if i0 == 0 or i0 == w_all.size - 1:
        raise ValidationError("no interior peak in the fit window")
    pivot = w_all[i0]
    x = w_all - pivot
    amp0 = float(v_all[i0] - np.min(v_all))
    off0 = float(np.min(v_all))
    span = float(w_all[-1] - w_all[0])
    width0 = 0.1 * span

    finite_u = u_all[np.isfinite(u_all) & (u_all > 0.0)]
    weights = None
    if finite_u.size == u_all.size and finite_u.size:
        floor = max(float(np.max(u_all)) * 1e-3, 1e-30)
        weights = 1.0 / np.maximum(u_all, floor)

    def resid(p):
        r = _peak_model(p, x) - v_all
        return r if weights is None else r * weights

    def jac(p):
        j = _peak_jacobian(p, x)
        return j if weights is None else j * weights[:, None]

    res = least_squares(resid, x0=[amp0, 0.0, width0, off0], jac=jac,
                        bounds=([0.0, -span, 1e-30, -np.inf],
                                [np.inf, span, span, np.inf]),
                        ftol=_PEAK_TOL, xtol=_PEAK_TOL, gtol=_PEAK_TOL,
                        x_scale="jac", max_nfev=_PEAK_MAX_NFEV)
    amp, center, width, off = res.x
    names = ("amplitude", "center_hz", "width_hz", "offset")
    cov = _covariance(res.jac, res.fun, names)
    if cov is not None:
        for key in ("center_hz", "width_hz"):
            cov[key] = cov[key] / _TWO_PI ** 2
    return FitResult(
        parameters={"amplitude": float(amp),
                    "center_hz": float((pivot + center) / _TWO_PI),
                    "width_hz": float(abs(width) / _TWO_PI),
                    "offset": float(off)},
        units={"amplitude": "rad/s", "center_hz": "Hz", "width_hz": "Hz",
               "offset": "rad/s"},
        residual_norm=float(np.linalg.norm(res.fun)),
        covariance_diag=cov, converged=bool(res.success),
        iterations=int(res.nfev), metadata={"pivot_hz": pivot / _TWO_PI})
