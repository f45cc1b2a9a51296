"""Forward model: dephasing exponents and synthetic coherence curves.

chi(t) = (t/2) * integral_0^inf S(omega) FF(omega) d omega, C = exp(-chi).
The quadrature is adaptive Gauss-Kronrod G7/K15 and reads a filter only
through its closed-form evaluator (``filters.FilterRows``).  Its first
panels end at every 32nd node of the filter's default grid (from 0 for a
carrier), at the spectrum's refinement points and on a geometric run past
the grid, and are bisected until the summed |K15 - G7| is below
tolerance.  Past the grid and the spectrum's lines a pulse comb's narrow
lobes enter as the comb's exact period mean (4n + 2) / (pi t w^2), and an
envelope tail check extends the cutoff until the tail is within
``rel_tol`` of chi (``_chi_rows``).  ``chi`` refuses a filter built from
arrays alone, which has no evaluator past its grid.  Every sequence has
one filter (``filter_for``).
One core integrates many rows at once: ``chi_detailed`` is a batch of one
(``FilterFunction.rows``), and ``synth_curve``, the synthesis path of every
family, integrates a whole curve in one pass, each point bit for bit as it
would be alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import NumericError, ValidationError
from .filters import _EDGE_STRIDE, FilterFunction, FilterRows, \
    _finite_omegas, cpmg_ff, dysco_ff
from .noise import NoiseSpectrum
from .oracle import _stream_words, _streams
from .sequences import SequenceSpec


class AbscissaKind(str, Enum):
    TIME = "time"
    MOD_FREQUENCY = "mod_frequency"

    @classmethod
    def of(cls, sequence: SequenceSpec) -> AbscissaKind:
        """What a curve of ``sequence`` runs over: time for a pulse train,
        modulation frequency for a carrier."""
        return cls.TIME if sequence.family.pulsed else cls.MOD_FREQUENCY


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
    """Coherence along the abscissa of one sequence template.

    ``sequence`` is the template that ``FilterRows.of(sequence, xs)`` sweeps
    along the curve, and it alone fixes what ``xs`` holds: total evolution
    time (s) for a pulsed family, modulation frequency (Hz) for a continuous
    one, as :attr:`abscissa_kind` reports.
    """

    xs: np.ndarray
    coherences: np.ndarray
    uncertainties: np.ndarray
    sequence: SequenceSpec
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

    @property
    def abscissa_kind(self) -> AbscissaKind:
        return AbscissaKind.of(self.sequence)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK qk15), nodes ascending; the
# seven Gauss nodes are the odd-indexed Kronrod nodes.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_X = np.array([-x for x in _XK] + [0.0] + list(_XK[::-1]))
_GK_WK = np.array(_WK + _WK[-2::-1])
_GK_WG = np.array(_WG + _WG[-2::-1])
_GK_BLOCK = 512           # panels per evaluation block
_GK_MAX_ROUNDS = 14       # bisection rounds of a row
_GK_MAX_NODES = 400_000   # evaluations past which a row stops bisecting
_LOBE_PANEL_Z = 4.0 * math.pi   # widest panel (in omega * t) across a comb
_MAX_LOBE_PANELS = 10 ** 7      # lobe panels of a batch, past its grids


def _gk_panels(spectrum: NoiseSpectrum, filters, comb: np.ndarray,
               rows: np.ndarray, a: np.ndarray, b: np.ndarray):
    """K15 and G7 estimates of integral S * FF over each panel [a, b], FF
    being the filter of the panel's row, or its comb's period mean on a
    panel at or past the row's ``comb`` start.  Every value depends on its
    own panel only, so a row's panels give the same bits in any batch."""
    k, g = np.empty(a.size), np.empty(a.size)
    for s in range(0, a.size, _GK_BLOCK):
        sl = slice(s, s + _GK_BLOCK)
        half = 0.5 * (b[sl] - a[sl])
        w = (a[sl] + half) + half * _GK_X[:, None]
        mean = a[sl] >= comb[rows[sl]]
        if np.any(mean):
            exact = ~mean
            ff = np.empty_like(w)
            ff[:, exact] = filters.values(w[:, exact], rows[sl][exact])
            ff[:, mean] = filters.comb_mean(w[:, mean], rows[sl][mean])
        else:
            ff = filters.values(w, rows[sl])
        f = spectrum.eval(w) * ff
        ks, gs = f[0] * _GK_WK[0], f[1] * _GK_WG[0]
        for j in range(1, 15):
            ks = ks + f[j] * _GK_WK[j]
        for j in range(1, 7):
            gs = gs + f[2 * j + 1] * _GK_WG[j]
        k[sl], g[sl] = half * ks, half * gs
    return k, g


def _gk_rows(spectrum: NoiseSpectrum, filters, comb: np.ndarray,
             ids: np.ndarray, edges: list, rel_tol: float):
    """Adaptive G7/K15 integral of S * FF for the filter rows ``ids`` over
    their panel edges ``edges``.

    All rows refine in lock step, each by its own rule: a row stops once
    sum |K15 - G7| <= rel_tol * |sum K15|, and otherwise bisects every panel
    whose |K15 - G7| exceeds rel_tol * |sum K15| / panels.  Panels stay
    grouped by row and ascending within it, and rows are summed with
    ``np.add.reduceat``, so a row's result does not depend on the batch.
    Returns the per-row integral, achieved relative error and evaluations.
    """
    counts = np.array([e.size - 1 for e in edges])
    rows = np.repeat(np.arange(len(edges)), counts)
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    k, g = _gk_panels(spectrum, filters, comb, ids[rows], a, b)
    nodes = 15 * counts
    value, rel_err = np.empty(len(edges)), np.empty(len(edges))
    for rnd in range(_GK_MAX_ROUNDS + 1):
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        local, panels = rows[starts], np.diff(np.r_[starts, rows.size])
        diff = np.abs(k - g)
        total = np.add.reduceat(k, starts)
        err = np.add.reduceat(diff, starts)
        scale = np.maximum(np.abs(total), 1e-300)
        value[local], rel_err[local] = total, err / scale
        split = diff > np.repeat(rel_tol * scale / panels, panels)
        open_ = (err > rel_tol * scale) & np.logical_or.reduceat(split, starts)
        stalled = open_ & ((rnd == _GK_MAX_ROUNDS) | (15 * panels >= _GK_MAX_NODES))
        bad = stalled & (err > 50.0 * rel_tol * scale)
        if np.any(bad):
            worst = float(np.max(rel_err[local[bad]]))
            raise NumericError(f"quadrature stalled at relative error "
                               f"{worst:.2e} (tolerance {rel_tol:.0e})")
        keep = np.repeat(open_ & ~stalled, panels)
        if not np.any(keep):
            break
        rows, a, b, k, g, split = (x[keep] for x in (rows, a, b, k, g, split))
        # bisect in place: a split panel becomes (a, m), (m, b) where it was
        width = 1 + split
        left = (np.cumsum(width) - width)[split]
        right = left + 1
        m = 0.5 * (a[split] + b[split])
        idx = np.repeat(np.arange(rows.size), width)
        rows, a, b, k, g = (x[idx] for x in (rows, a, b, k, g))
        b[left], a[right] = m, m
        new = np.concatenate([left, right])
        k[new], g[new] = _gk_panels(spectrum, filters, comb, ids[rows[new]],
                                    a[new], b[new])
        nodes += 15 * np.bincount(rows[new], minlength=nodes.size)
    return value, rel_err, nodes


def _tail_estimate(spectrum: NoiseSpectrum, envelope, hi: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """Envelope weight integral S * envelope over [hi, 50 hi] per row.
    The nodes are laid out row by row (C order), so each row's trapezoid
    is summed alone, in one order in any batch."""
    w = np.ascontiguousarray(np.geomspace(hi, 50.0 * hi, 96, axis=-1))
    g = spectrum.eval(w) * envelope(w.T, rows).T
    return np.trapezoid(g, w, axis=-1)


def _comb_error(spectrum: NoiseSpectrum, filters, start: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """|integral S * (FF - comb mean)| past each row's comb ``start``, to
    leading order (see ``FilterRows.comb_remainder``)."""
    h = 1e-3 * start

    def g(w):
        return spectrum.eval(w) / w ** 2

    slope = (g(start + h) - g(start - h)) / (2.0 * h)
    return np.abs(slope * filters.comb_remainder(start, rows))


def _linspaces(a: np.ndarray, b: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``np.linspace(a[i], b[i], k[i] + 1)`` for every i, concatenated, in
    numpy's own arithmetic: node j is j ((b - a) / k) + a, the last is b."""
    counts = k + 1
    ends = np.cumsum(counts)
    j = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    nodes = j * np.repeat((b - a) / k, counts) + np.repeat(a, counts)
    nodes[ends - 1] = b
    return nodes


def _lobe_panels(a: np.ndarray, b: np.ndarray,
                 duration: np.ndarray) -> np.ndarray:
    """The lobe panel counts ceil((b - a) t / 4 pi) across each row's comb
    from ``a`` to ``b``, if their sum is at most ``_MAX_LOBE_PANELS``: a
    cap on each row alone would let a long curve ask for 10^4 times it."""
    k = np.ceil((b - a) * duration / _LOBE_PANEL_Z)
    total = float(np.sum(k))
    if not total <= _MAX_LOBE_PANELS:
        raise ValidationError(
            f"pulse combs need {total:.3g} lobe panels past their filter "
            f"grids, above the cap of {_MAX_LOBE_PANELS:.0e}: a duration is "
            "out of range")
    return k.astype(np.int64)


def _first_edges(spectrum: NoiseSpectrum, filters):
    """Each row's first panel edges (a list of ascending arrays), its comb
    start and its first cutoff, as ``_chi_rows`` describes them.

    A row's edges are the union of its filter's ``edges``, the spectrum's
    refinement points between 0.999 of its first edge and its cutoff, a
    linear run of panels at most 4 pi / t wide from its last edge to its
    comb start, and 33 geometric edges from there to the cutoff.  All rows
    are built in one pass: the runs in numpy's linspace and geomspace
    arithmetic, the union by one sort on (row, value) with duplicates
    dropped, so every row's edges are those of ``np.unique`` over its own
    parts, bit for bit.
    """
    duration = filters.durations
    ids = np.arange(duration.size)
    grid = filters.edges(ids)
    lo, hi = grid[:, 0], grid[:, -1]
    target = np.maximum(hi, spectrum.extent())
    comb = filters.comb_start(np.maximum(hi, spectrum.features_end()), ids)
    top = np.where(np.isfinite(comb), np.maximum(target, comb), target)
    refine = spectrum.refinement_points()
    if spectrum.table is None:
        refine = refine[::_EDGE_STRIDE]
    refine = refine[refine > 0.0]
    near_row, near = np.nonzero((refine >= 0.999 * lo[:, None])
                                & (refine <= top[:, None]))
    values = [grid.ravel(), refine[near]]
    owner = [np.repeat(ids, grid.shape[1]), near_row]
    lobes = (hi < comb) & (comb < np.inf)
    if np.any(lobes):
        r = ids[lobes]
        k = _lobe_panels(hi[r], comb[r], duration[r])
        values.append(_linspaces(hi[r], comb[r], k))
        owner.append(np.repeat(r, k + 1))
    start = np.where(lobes, comb, hi)
    geometric = top > start
    if np.any(geometric):
        r = ids[geometric]
        values.append(np.geomspace(start[r], top[r], 33, axis=-1).ravel())
        owner.append(np.repeat(r, 33))
    values, owner = np.concatenate(values), np.concatenate(owner)
    order = np.argsort(values)      # by value, then stably by row
    order = order[np.argsort(owner[order], kind="stable")]
    values, owner = values[order], owner[order]
    new = np.r_[True, (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])]
    values, owner = values[new], owner[new]
    return np.split(values, np.searchsorted(owner, ids[1:])), comb, top


def _chi_rows(spectrum: NoiseSpectrum, filters, rel_tol: float):
    """chi of a batch of rows (curve points) and its quadrature diagnostics.

    ``filters`` is a ``filters.FilterRows``, or the one-row evaluator
    ``FilterFunction.rows`` of a single filter, and supplies each row's
    ``durations`` and first panel ``edges``.  A row integrates from its
    first edge to max(last edge, spectrum extent).  Its first panels end
    at its edges and at the spectrum's refinement points: every 32nd of an
    analytic spectrum's dense samples, and every node of a tabulated
    spectrum, whose linear pieces kink there.  Past the grid, a pulse comb is integrated on panels
    at most 4 pi / t wide up to ``comb_start`` past the spectrum's lines,
    and as its period mean beyond; 33 geometric edges run to the cutoff.
    A row is integrated again while the leading remainder of its comb mean
    exceeds rel_tol / 4 of its value (the comb mean then starts 2x or more
    further out), or while the envelope tail past its cutoff exceeds
    rel_tol of its value (the cutoff grows 6x).  ``rel_err`` adds the comb
    remainder to the Kronrod-Gauss estimate.  A batch whose rows need more
    than ``_MAX_LOBE_PANELS`` lobe panels in all raises ``ValidationError``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValidationError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    duration = filters.durations
    with np.errstate(over="ignore", invalid="ignore"):
        # reported below rather than warned about
        edges, comb, top = _first_edges(spectrum, filters)
    _finite_omegas(top)
    hi_used = top.copy()
    value, rel_err, tail = (np.empty(duration.size) for _ in range(3))
    nodes = np.zeros(duration.size, dtype=np.int64)
    todo = np.arange(duration.size)
    for _ in range(5):
        v, e, n = _gk_rows(spectrum, filters, comb, todo,
                           [edges[r] for r in todo], rel_tol)
        scale = np.maximum(np.abs(v), 1e-300)
        mean = comb[todo] < hi_used[todo]
        comb_err = np.zeros(todo.size)
        if np.any(mean):
            comb_err[mean] = _comb_error(spectrum, filters, comb[todo[mean]],
                                         todo[mean])
        value[todo], rel_err[todo] = v, e + comb_err / scale
        nodes[todo] += n
        tail[todo] = _tail_estimate(spectrum, filters.envelope, hi_used[todo],
                                    todo)
        short = tail[todo] > rel_tol * scale
        early = comb_err > 0.25 * rel_tol * scale
        if not np.any(short | early):
            break
        # a comb mean that starts too early starts again further out, with
        # narrow panels up to it: the remainder falls at least as fast as
        # the (start)^-4 that this step assumes
        pushed = todo[early]
        over = comb_err[early] / (0.25 * rel_tol * scale[early])
        step = np.maximum(2.0, over ** 0.25)
        starts = filters.comb_start(step * comb[pushed], pushed)
        panels = _lobe_panels(comb[pushed], starts, duration[pushed])
        for r, start, k in zip(pushed, starts, panels):
            edges[r] = np.unique(np.concatenate(
                [edges[r], np.linspace(comb[r], start, k + 1)]))
            comb[r], hi_used[r] = start, max(hi_used[r], start)
        for r in todo[short]:
            edges[r] = np.unique(np.concatenate(
                [edges[r], np.geomspace(hi_used[r], 6.0 * hi_used[r], 33)]))
            hi_used[r] *= 6.0
        todo = todo[short | early]
    else:
        raise NumericError("spectral tail or comb remainder did not become "
                           "negligible while extending the quadrature cutoff")
    return 0.5 * duration * value, {"omega_max": hi_used, "rel_err": rel_err,
                                    "tail_estimate": tail, "nodes": nodes}


def chi_detailed(spectrum: NoiseSpectrum, ff: FilterFunction,
                 rel_tol: float = 1e-4) -> tuple[float, dict]:
    """Dephasing exponent and quadrature diagnostics.

    The info dict holds the upper cutoff ``omega_max``, the achieved
    relative error estimate ``rel_err`` (sum |K15 - G7| / |sum K15| over the
    final panels, plus the leading remainder of a pulse comb's period mean),
    the envelope ``tail_estimate`` past the cutoff and ``nodes``, the number
    of integrand evaluations.  Only ``ff.rows`` is read: an analytic
    filter's panels start on its sequence's default grid, whatever grid its
    values were drawn on, and its cutoff grows until that tail is at most
    ``rel_tol`` of chi.  A filter built from arrays alone (no ``rows``) has
    no evaluator past its grid and raises ``ValidationError``.
    """
    if ff.rows is None:
        raise ValidationError("chi needs a closed-form filter: a table has "
                              "no evaluator past its grid")
    chis, info = _chi_rows(spectrum, ff.rows, rel_tol)
    return float(chis[0]), {key: info[key][0].item() for key in info}


def chi(spectrum: NoiseSpectrum, ff: FilterFunction, rel_tol: float = 1e-4) -> float:
    """chi = (duration/2) * integral S(omega) FF(omega) d omega (dimensionless)."""
    return chi_detailed(spectrum, ff, rel_tol)[0]


# ---------------------------------------------------------------------------
# filter selection
# ---------------------------------------------------------------------------

def filter_for(spec: SequenceSpec) -> FilterFunction:
    """The filter function FF that ``chi`` integrates for one sequence:
    ``dysco_ff(spec)`` for a continuous carrier and ``cpmg_ff(n, t)`` on its
    default grid for a pulse train.  ``chi_detailed``'s geometric panels,
    comb mean and extension loop integrate what lies past the grid.
    """
    if spec.family.pulsed:
        return cpmg_ff(spec.n_pulses, spec.duration)
    return dysco_ff(spec)


# ---------------------------------------------------------------------------
# synthetic curves
# ---------------------------------------------------------------------------

def synth_curve(spectrum: NoiseSpectrum, template: SequenceSpec, xs,
                rel_tol: float = 1e-4) -> CoherenceCurve:
    """Noise-free coherence exp(-chi) along one template: point x is the
    template at duration x (s) for a pulse train, or at carrier frequency x
    (Hz) for a continuous family.  ``xs`` is sorted, and the template is
    checked at its ends, as the sequence checks are monotone (NaN sorts
    last).  The curve is integrated in one batch of
    ``FilterRows.of(template, xs)``, no filter table built, and each point
    equals ``chi_detailed(spectrum, filter_for(spec), rel_tol)`` bit for
    bit, for ``spec`` the template at that point.  The metadata holds the
    quadrature diagnostics: ``rel_tol``, the worst ``rel_err_max``, the
    size ``ff_grid_max`` of the default filter grid whose nodes start the
    panels (the same at every point), the total ``quad_nodes`` and the
    last point's ``omega_max``.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise ValidationError("a curve needs at least one point")
    for x in (float(xs[0]), float(xs[-1])):
        if template.family.pulsed:
            replace(template, duration=x, tau_free=None)
        else:
            replace(template, mod_frequency=x)
    filters = FilterRows.of(template, xs)
    chis, info = _chi_rows(spectrum, filters, rel_tol)
    return CoherenceCurve(
        xs=xs, coherences=np.array([math.exp(-c) for c in chis]),
        uncertainties=np.zeros_like(xs), sequence=template,
        provenance=Provenance("synthetic"),
        metadata={"rel_tol": rel_tol,
                  "omega_max": float(info["omega_max"][-1]),
                  "rel_err_max": float(np.max(info["rel_err"])),
                  "ff_grid_max": filters.grid(0).size,
                  "quad_nodes": int(np.sum(info["nodes"]))})


def synth_cpmg_family(spectrum: NoiseSpectrum, n_list, time_grid_per_n,
                      rel_tol: float = 1e-4) -> list[CoherenceCurve]:
    """``synth_curve`` of one CPMG train per distinct pulse count, at its
    longest time, over its total times in ``time_grid_per_n`` (a dict keyed
    by n or a list parallel to ``n_list``)."""
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) != len(n_list):
        raise ValidationError(f"pulse counts must be distinct, got {n_list}")
    if not isinstance(time_grid_per_n, dict):
        time_grid_per_n = dict(zip(n_list, time_grid_per_n))
    missing = [n for n in n_list if n not in time_grid_per_n]
    if missing:
        raise ValidationError(f"no time grid for pulse counts {missing}")
    curves = []
    for n in n_list:
        times = np.sort(np.asarray(time_grid_per_n[n], dtype=float))
        if times.size == 0:
            raise ValidationError("time grids must be non-empty")
        # NaN sorts last, and the template rejects it
        template = SequenceSpec.cpmg(n, duration=float(times[-1]))
        curves.append(synth_curve(spectrum, template, times, rel_tol))
    return curves


def synth_dysco_sweep(spectrum: NoiseSpectrum, template: SequenceSpec,
                      f_grid, rel_tol: float = 1e-4) -> CoherenceCurve:
    """``synth_curve`` of a continuous carrier over ``f_grid`` (Hz), at the
    template's duration."""
    if template.family.pulsed:
        raise ValidationError("synth_dysco_sweep needs a continuous-family template")
    return synth_curve(spectrum, template, f_grid, rel_tol)


def _curve_seed(seed: int, index: int) -> int:
    # curve ``index``'s own noise seed under a run seed: hashed, so that
    # curve i of seed s does not draw the noise of curve i - 1 of seed s + 1
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def add_measurement_noise(curve: CoherenceCurve, epsilon: float,
                          seed: int) -> CoherenceCurve:
    """Add i.i.d. Gaussian readout noise of standard deviation ``epsilon``.

    Point i's deviate comes from its own stream, seeded by (seed, i) as
    ``np.random.default_rng([seed, i])`` would seed it, so any partition of
    the work reproduces the same curve bit for bit.  The noise level is
    recorded as the per-point uncertainty.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and non-negative, "
                              f"got {epsilon!r}")
    words = _stream_words(int(seed), np.arange(curve.coherences.size))
    noisy = curve.coherences.copy()
    if epsilon > 0.0:
        noisy += [gen.normal(0.0, epsilon) for gen in _streams(words)]
    return replace(
        curve,
        coherences=noisy,
        uncertainties=np.full_like(noisy, float(epsilon)),
        provenance=Provenance("synthetic", seed=int(seed)),
        metadata={**curve.metadata, "epsilon": float(epsilon)},
    )
