"""Forward model: decay exponents, synthetic curves, measurement noise."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from noisespec import (
    AbscissaKind,
    CoherenceCurve,
    CoverageError,
    FFSource,
    Family,
    FilterFunction,
    Provenance,
    Sampling,
    SequenceSpec,
    ValidationError,
    add_measurement_noise,
    build_trace,
    chi,
    chi_detailed,
    composite,
    cpmg_ff,
    default_cpmg_omegas,
    default_experiment_spectrum,
    dysco_ff,
    filter_for,
    gaussian_peak,
    lorentzian_dc,
    numeric_ff,
    peak_stats,
    synth_cpmg_family,
    synth_dysco_sweep,
    tabulated,
    write_curve,
)
from noisespec.filters import _EDGE_STRIDE, FilterRows, _TableRow
from noisespec.forward import _GK_X, _LOBE_PANEL_Z, _chi_rows, _first_edges


def _flat_spectrum(level: float, top: float = 1e9):
    return tabulated(np.array([0.0, top]), np.array([level, level]))


# --------------------------------------------------------------------------
# Decay exponent quadrature


def test_flat_spectrum_gives_half_t_s():
    # With unit filter area, chi = (t/2) * S for a spectrally flat bath.
    t, level = 5e-5, 2e3
    value = chi(_flat_spectrum(level), cpmg_ff(2, t), rel_tol=1e-6)
    assert value == pytest.approx(0.5 * t * level, rel=1.5e-3)


def test_narrow_line_reduces_to_filter_sample():
    # A line much narrower than the filter lobe probes FF at one point.
    t = 1.0
    ff = cpmg_ff(8, t)
    stats = peak_stats(ff)
    w0 = 2.0 * math.pi * stats.f0
    delta = 0.5
    spec = gaussian_peak(delta=delta, sigma=1e-3 * w0, omega_center=w0)
    predicted = 0.5 * t * float(ff.evaluate(np.array([w0]))[0]) * delta ** 2
    value = chi(spec, ff, rel_tol=1e-6)
    assert value == pytest.approx(predicted, rel=0.01)


def test_chi_is_linear_in_spectrum(bath):
    ff = cpmg_ff(4, 2e-5)
    base = chi(bath, ff)
    for a in (0.5, 2.0):
        assert chi(bath.scaled(a), ff) == a * base
    assert chi(bath.scaled(10.0), ff) == pytest.approx(10.0 * base, rel=1e-13)


def test_chi_grows_with_added_components(bath):
    ff = cpmg_ff(1, 2e-4)
    lorentz_only = lorentzian_dc(delta=40e3, sigma=50e3)
    assert chi(bath, ff) > chi(lorentz_only, ff)


def test_chi_detailed_reports_coverage():
    value, info = chi_detailed(_flat_spectrum(2e3, top=1e7), cpmg_ff(2, 5e-5))
    assert value > 0.0
    assert info["omega_max"] >= 1e7 or info["tail_estimate"] <= 1e-3 * value
    assert info["rel_err"] <= 1e-3


def test_chi_detailed_counts_quadrature_nodes(bath):
    ff = cpmg_ff(4, 2e-5)
    sizes = []

    class Counted:
        def __getattr__(self, name):
            return getattr(ff.rows, name)

        def values(self, w, rows):
            sizes.append(np.size(w))
            return ff.rows.values(w, rows)

    value, info = chi_detailed(bath, replace(ff, rows=Counted()))
    # every K15 panel costs 15 evaluations, and every one is counted
    assert info["nodes"] > 0 and info["nodes"] % 15 == 0
    assert info["nodes"] == sum(sizes)
    assert value == chi(bath, ff)


def test_rows_that_extend_keep_their_bits_in_a_batch():
    # DYSCO rows of 1 ms on a DC line narrower than a lobe: at 1 and 2 kHz
    # the squared sinc has a null at DC, so chi is small and the envelope
    # tail past the default grid exceeds rel_tol of it; the cutoff grows
    # 6x until it does not, once at 1 kHz, twice at 2 kHz and never at
    # 1.5 kHz.  Each row equals its own chi_detailed bit for bit
    bath = lorentzian_dc(1e3, 0.5)
    specs = [SequenceSpec.dysco(1e-3, f) for f in (1.5e3, 1e3, 2e3)]
    rows = FilterRows.of(specs)
    chis, info = _chi_rows(bath, rows, 1e-8)
    alone = [chi_detailed(bath, filter_for(spec), 1e-8) for spec in specs]
    cutoffs = np.maximum(rows.edges(np.arange(3))[:, -1], bath.extent())
    assert np.allclose(info["omega_max"] / cutoffs, [1.0, 6.0, 36.0],
                       rtol=1e-15, atol=0.0)
    assert np.array_equal(chis, [value for value, _ in alone])
    for key in ("omega_max", "rel_err", "nodes", "tail_estimate"):
        assert list(info[key]) == [i[key] for _, i in alone], key
    assert np.all(info["tail_estimate"] <= 1e-8 * 2.0 * chis / rows.durations)


def _per_row_edges(spectrum, filters):
    # each row's first edges as np.unique over its own parts, one call per
    # row, against which the one-pass _first_edges is checked bit for bit
    duration, table = filters.durations, isinstance(filters, _TableRow)
    ids = np.arange(duration.size)
    grid = filters.edges(ids)
    lo, hi = grid[:, 0], grid[:, -1]
    target = hi if table else np.maximum(hi, spectrum.extent())
    comb = filters.comb_start(np.maximum(hi, spectrum.features_end()), ids)
    top = np.where(np.isfinite(comb), np.maximum(target, comb), target)
    refine = spectrum.refinement_points()
    if spectrum.table is None:
        refine = refine[::_EDGE_STRIDE]
    refine = refine[refine > 0.0]
    edges = []
    for r in ids:
        near = (refine >= 0.999 * lo[r]) & (refine <= top[r])
        parts = [grid[r], refine[near]]
        start = hi[r]
        if hi[r] < comb[r] < np.inf:
            k = math.ceil((comb[r] - hi[r]) * duration[r] / _LOBE_PANEL_Z)
            parts.append(np.linspace(hi[r], comb[r], k + 1))
            start = comb[r]
        if top[r] > start:
            parts.append(np.geomspace(start, top[r], 33))
        edges.append(np.unique(np.concatenate(parts)))
    return edges, comb, top


_EDGE_BATHS = st.one_of(
    st.builds(lorentzian_dc, st.floats(1e2, 1e7), st.floats(1e2, 1e7)),
    st.builds(composite, st.floats(1e3, 1e6), st.floats(1e3, 1e5),
              st.floats(1e4, 1e7), st.floats(1e3, 1e6), st.floats(1e3, 1e6)),
    st.builds(lambda top, k, level: tabulated(
        np.r_[0.0, np.geomspace(10.0 ** (top - 4.0), 10.0 ** top, k)],
        np.full(k + 1, level)),
        st.floats(4.0, 9.0), st.integers(2, 300), st.floats(1e-3, 1e6)))


@settings(max_examples=80, deadline=None)
@given(bath=_EDGE_BATHS,
       kind=st.sampled_from(["cpmg", "dysco", "gdysco", "table"]),
       n=st.integers(min_value=1, max_value=64),
       log_t=st.lists(st.floats(math.log10(3e-6), math.log10(3e-3)),
                      min_size=1, max_size=12, unique=True),
       log_f=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=12,
                      unique=True))
def test_first_edges_are_each_rows_own_union(bath, kind, n, log_t, log_f):
    t = np.sort(10.0 ** np.array(log_t))
    if kind == "cpmg":
        filters = FilterRows.of([SequenceSpec.cpmg(n, duration=tk) for tk in t])
    elif kind == "table":
        ff = cpmg_ff(n, float(t[0]))
        filters = FilterFunction(ff.omegas, ff.values, ff.duration,
                                 FFSource.NUMERIC).rows
    else:
        make = SequenceSpec.dysco if kind == "dysco" else SequenceSpec.gdysco
        f = np.sort(10.0 ** np.array(log_f)) / t[0]   # >= one period each
        filters = FilterRows.of([make(float(t[0]), fk) for fk in f])
    edges, comb, top = _first_edges(bath, filters)
    ref_edges, ref_comb, ref_top = _per_row_edges(bath, filters)
    assert np.array_equal(comb, ref_comb) and np.array_equal(top, ref_top)
    assert len(edges) == len(ref_edges)
    for a, b in zip(edges, ref_edges):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("f0", [3e4, 1.2e5])
@pytest.mark.parametrize("t", [2e-4, 1e-3])
@pytest.mark.parametrize("make", [SequenceSpec.dysco, SequenceSpec.gdysco],
                         ids=["dysco", "gdysco"])
def test_carrier_chi_matches_an_independent_quadrature(bath, make, t, f0):
    # a carrier grid spans f0 +- 20 lobes, but the sinc^2 far lobes reach
    # down to DC: at 1.2e5 Hz and 1e-3 s the 392 krad/s line lies wholly
    # below the grid, under them
    spec = make(t, f0)
    ff = filter_for(spec)
    lobe = 2.0 * math.pi / t
    edges = np.arange(0.0, 1.5e7 + lobe, lobe)

    def f(w):
        return float(bath.eval(w) * ff.evaluate(w))

    ref = 0.5 * t * sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                        for a, b in zip(edges[:-1], edges[1:]))
    top, w0 = edges[-1], 2.0 * math.pi * f0
    if spec.family is Family.DYSCO:
        # past top, S < 2 S(top) (top / w)^2 and FF < 1 / (pi t (w - w0)^2)
        tail = 2.0 * float(bath.eval(top)) \
            / (6.0 * math.pi * top * (1.0 - w0 / top) ** 2)
        assert tail <= 1e-8 * ref
    else:
        assert ff.evaluate(top) == 0.0     # the Gaussian line has underflowed
    value = chi(bath, ff, rel_tol=1e-6)
    assert abs(value / ref - 1.0) <= 1e-6


def test_comb_past_the_grid_is_integrated_on_lobe_panels_then_as_its_mean():
    # Hahn rows, whose default grids end at z = 39.7: past the grid the
    # comb is integrated on panels at most 4 pi / t wide out to z = 14 pi
    # (the first multiple of 2 pi n past 40 n), and as its period mean
    # beyond.  Each row equals its own chi_detailed and the exact OU chi
    t = np.array([1e-4, 2e-4])
    bath = lorentzian_dc(1e3, 1e4)
    rows = FilterRows(Family.CPMG, t, n_pulses=1)
    panels = {"values": [], "comb_mean": []}

    class Recorded:
        def __getattr__(self, name):
            return getattr(rows, name)

        def values(self, w, r):
            panels["values"].append((w, r))
            return rows.values(w, r)

        def comb_mean(self, w, r):
            panels["comb_mean"].append((w, r))
            return rows.comb_mean(w, r)

    chis, info = _chi_rows(bath, Recorded(), 1e-4)
    end = rows.edges(np.arange(2))[:, -1] * t
    start = 14.0 * math.pi
    assert np.all(end < 40.0)
    for kind, calls in panels.items():
        w = np.concatenate([w for w, _ in calls], axis=1)
        r = np.concatenate([r for _, r in calls])
        half = (w[-1] - w[0]) / (2.0 * _GK_X[-1])
        a, b = (w[7] - half) * t[r], (w[7] + half) * t[r]     # in z = w t
        if kind == "values":
            past = a >= end[r] * (1.0 - 1e-12)
            assert set(r[past]) == {0, 1}
            assert np.all(b[past] - a[past] <= 4.0 * math.pi * (1.0 + 1e-12))
            assert np.all(b <= start * (1.0 + 1e-12))
        else:
            assert set(r) == {0, 1}
            assert np.all(a >= start * (1.0 - 1e-12))
    alone = [chi_detailed(bath, cpmg_ff(1, float(tk))) for tk in t]
    assert np.array_equal(chis, [value for value, _ in alone])
    assert list(info["nodes"]) == [i["nodes"] for _, i in alone]
    exact = np.array([_ou_cpmg_chi(1, tk, 1e3, 1e4) for tk in t])
    assert np.all(np.abs(chis / exact - 1.0) <= 1e-4)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=64),
       log_t=st.floats(min_value=math.log10(3e-6), max_value=math.log10(3e-3)),
       log_sigma=st.floats(min_value=3.0, max_value=6.5),
       line=st.booleans(),
       rel_tol=st.sampled_from([1e-3, 1e-4, 1e-6]))
def test_chi_is_within_rel_tol_of_a_tight_reference(n, log_t, log_sigma, line,
                                                    rel_tol):
    t, sigma = 10.0 ** log_t, 10.0 ** log_sigma
    bath = composite(5.0 * sigma, 0.1 * sigma, 8.0 * sigma, sigma, sigma) \
        if line else lorentzian_dc(2.0 * sigma, sigma)
    spec = SequenceSpec.cpmg(n, duration=t)
    value = chi(bath, filter_for(spec), rel_tol)
    tight = chi(bath, filter_for(spec), rel_tol=1e-8)
    assert abs(value / tight - 1.0) <= rel_tol


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
def test_comb_past_the_z_cap_matches_the_exact_ou_chi(rel_tol):
    # the power extent (~3e9 rad/s) lies far past the comb grid (z = 40 n)
    # and past z = 8e4 (2.7e7 rad/s), and the comb's narrow lobes (64
    # pulses) are integrated as their period mean there
    n, t, sigma = 64, 3e-3, 10.0 ** 6.5
    bath = lorentzian_dc(2.0 * sigma, sigma)
    ff = filter_for(SequenceSpec.cpmg(n, duration=t))
    assert ff.omegas[-1] * t < 40.0 * n and bath.extent() * t > 1e6
    value, info = chi_detailed(bath, ff, rel_tol)
    exact = _ou_cpmg_chi(n, t, 2.0 * sigma, sigma)
    assert abs(value / exact - 1.0) <= rel_tol
    assert info["rel_err"] <= rel_tol


@pytest.mark.parametrize("n, t, sigma", [(1, 1e-3, 1e5), (2, 2e-4, 5e4)])
@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
def test_comb_mean_starts_where_its_remainder_is_within_tolerance(
        n, t, sigma, rel_tol):
    # the Lorentzian still falls steeply at z = 44 n, where the comb mean
    # would first start: its leading remainder there is 2.5e-4 (n = 1) and
    # 3.3e-6 (n = 2) of chi, so the start moves out until it is negligible
    bath = lorentzian_dc(sigma, sigma)
    value = chi(bath, cpmg_ff(n, t), rel_tol)
    assert abs(value / _ou_cpmg_chi(n, t, sigma, sigma) - 1.0) <= rel_tol


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
def test_a_one_ulp_move_of_the_duration_barely_moves_chi(bath, n):
    # a panel edge can flip the bisection choice, but K15 leaves little to
    # flip: chi at t and at the next float agree far below rel_tol
    for t in np.geomspace(1e-5, 2e-3, 25):
        a = chi(bath, filter_for(SequenceSpec.cpmg(n, duration=t)))
        b = chi(bath, filter_for(SequenceSpec.cpmg(
            n, duration=np.nextafter(t, 1.0))))
        assert abs(b / a - 1.0) <= 1e-12, t


def test_every_node_of_a_tabulated_spectrum_bounds_a_panel():
    # a 200 rad/s wide line between table nodes, on the Hahn filter's
    # flank: panels spanning it would see S = 0 at all 15 of their nodes
    omegas = np.array([0.0, 9.99e4, 1e5, 1.001e5, 2e5])
    bath = tabulated(omegas, [0.0, 0.0, 1e6, 0.0, 0.0])
    ff = cpmg_ff(1, 1e-4)
    w = np.linspace(9.99e4, 1.001e5, 200_001)
    exact = 0.5 * 1e-4 * np.trapezoid(bath.eval(w) * ff.evaluate(w), w)
    assert chi(bath, ff) == pytest.approx(exact, rel=1e-6)


def _trace_filter(spec, z_max):
    """numeric_ff of the sampled trace on the comb grid out to z_max."""
    grid = default_cpmg_omegas(spec.n_pulses, spec.duration, z_max=z_max)
    return numeric_ff(build_trace(spec, 4e6), grid)


@pytest.mark.parametrize("bath", [
    gaussian_peak(2e4, 1e5, 3e6), composite(2e4, 1e5, 3e6, 2e4, 1e4),
], ids=["line", "line+lorentzian"])
def test_numeric_filter_must_cover_the_spectrum(bath):
    spec = SequenceSpec.cpmg(2, duration=1e-4)
    covering, short = _trace_filter(spec, 1e3), _trace_filter(spec, 80.0)
    assert covering.omegas[-1] > bath.extent() > short.omegas[-1]
    value, info = chi_detailed(bath, covering)
    assert value == pytest.approx(chi(bath, cpmg_ff(2, 1e-4)), rel=1e-3)
    assert info["omega_max"] == covering.omegas[-1]
    with pytest.raises(CoverageError, match="ends before the spectrum"):
        chi_detailed(bath, short)


@pytest.mark.parametrize("source", list(FFSource), ids=lambda s: s.value)
def test_a_bare_table_is_coverage_checked(source):
    # a FilterFunction built from arrays alone is integrated as a table,
    # whatever its label, with the same tail envelope as numeric_ff's, so
    # a short grid cannot truncate chi silently
    bath = gaussian_peak(2e4, 1e5, 3e6)
    short = _trace_filter(SequenceSpec.cpmg(2, duration=1e-4), 80.0)
    table = FilterFunction(short.omegas, short.values, short.duration, source)
    with pytest.raises(CoverageError, match="ends before the spectrum"):
        chi_detailed(bath, table)


def test_numeric_filter_tail_past_the_extent_is_rejected():
    # the grid reaches the power extent, but the filter's envelope past it
    # (a harmonic lobe at the grid end) still outweighs 1e-3 of chi
    bath = lorentzian_dc(1e3, 500.0)
    spec = SequenceSpec.cpmg(64, duration=1e-3)
    ff = _trace_filter(spec, 1.001 * bath.extent() * 1e-3)
    assert ff.omegas[-1] * 1.0001 >= bath.extent()
    with pytest.raises(CoverageError, match="truncates"):
        chi_detailed(bath, ff)


# --------------------------------------------------------------------------
# Exact time-domain reference: CPMG under Lorentzian (Ornstein-Uhlenbeck)
# noise, whose correlation function is (delta^2 / 2 pi) e^{-sigma |tau|}


def _ou_cpmg_chi(n, t, delta, sigma):
    """chi = 1/2 sum_ab v_a v_b int_a int_b (delta^2/2pi) e^{-sigma|t1-t2|}.

    The sensitivity flips sign at the pulses t (k - 1/2) / n; each pair of
    constant segments is integrated in closed form.
    """
    edges = np.concatenate([[0.0], (np.arange(1, n + 1) - 0.5) * t / n, [t]])
    signs = (-1.0) ** np.arange(n + 1)
    x = sigma * np.diff(edges)
    # a segment with itself: 2 (x - 1 + e^-x) / sigma^2
    same = 2.0 * (x + np.expm1(-x)) / sigma ** 2
    # segment a before segment b: e^{-sigma gap} (1 - e^-x_a)(1 - e^-x_b) / sigma^2
    gap = edges[None, :-1] - edges[1:, None]
    rise = -np.expm1(-x)
    cross = np.triu(np.exp(-sigma * np.maximum(gap, 0.0))
                    * np.outer(rise, rise), 1) / sigma ** 2
    total = np.sum(same) + 2.0 * signs @ cross @ signs
    return delta ** 2 / (4.0 * math.pi) * total


def test_ou_reference_matches_direct_double_integral():
    n, t, delta, sigma = 2, 1e-4, 1e4, 3e4
    m = 1600
    tm = (np.arange(m) + 0.5) * t / m
    s = np.where(np.floor(tm * n / t + 0.5) % 2 == 0, 1.0, -1.0)
    kernel = np.exp(-sigma * np.abs(tm[:, None] - tm[None, :]))
    direct = 0.5 * delta ** 2 / (2.0 * math.pi) * (t / m) ** 2 * (s @ kernel @ s)
    assert _ou_cpmg_chi(n, t, delta, sigma) == pytest.approx(direct, rel=1e-4)


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
@pytest.mark.parametrize("sigma", [2e4, 2e5, 2e6])
@pytest.mark.parametrize("t", [3e-5, 3e-4, 3e-3])
@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_chi_is_within_rel_tol_of_the_exact_ou_chi(n, t, sigma, rel_tol):
    # the default comb grid ends at z = 40 n, below the power extent of the
    # wider Lorentzians, and short of the spectrum on the narrower ones the
    # envelope tail decides how far the cutoff extends
    bath = lorentzian_dc(2.0 * sigma, sigma)
    value = chi(bath, filter_for(SequenceSpec.cpmg(n, duration=t)), rel_tol)
    assert abs(value / _ou_cpmg_chi(n, t, 2.0 * sigma, sigma) - 1.0) <= rel_tol


@pytest.mark.parametrize("sigma", [2e4, 6.3e4, 2e5])
def test_cpmg_synthesis_matches_exact_ou_chi(sigma):
    delta = 0.1 * sigma          # chi <= ~1, so exp(-chi) keeps its digits
    bath = lorentzian_dc(delta, sigma)
    n_list = [1, 2, 4, 8, 16, 64]
    times = np.geomspace(3e-5, 3e-3, 7)
    if sigma > 5e4:
        # the power extent reaches past z = 8e4 on the longest traces
        assert bath.extent() * times[-1] > 8e4
    curves = synth_cpmg_family(bath, n_list, time_grid_per_n=[times] * 6)
    for n, curve in zip(n_list, curves):
        exact = np.array([_ou_cpmg_chi(n, t, delta, sigma) for t in times])
        rel = np.abs(-np.log(curve.coherences) / exact - 1.0)
        assert np.max(rel) <= 1e-4, (n, times[np.argmax(rel)], np.max(rel))


@pytest.mark.parametrize("spec, bath, grid", [
    (SequenceSpec.dysco(1e-3, 1e3), lorentzian_dc(1e3, 0.5),
     np.linspace(1e2, 3e3, 64)),
    (SequenceSpec.dysco(1e-3, 1e3), lorentzian_dc(1e3, 0.5),
     np.linspace(1e2, 5e2, 64)),
    (SequenceSpec.hahn(1e-4), lorentzian_dc(1e3, 50.0),
     np.linspace(1e2, 5e4, 64)),
    (SequenceSpec.hahn(1e-4), lorentzian_dc(1e3, 50.0),
     np.linspace(1e2, 3e4, 64)),
    (SequenceSpec.cpmg(8, duration=2e-4), default_experiment_spectrum(),
     1.01 * default_cpmg_omegas(8, 2e-4)),
    (SequenceSpec.gdysco(2e-4, 1e5), default_experiment_spectrum(),
     np.geomspace(1e5, 1e7, 500)),
], ids=["dysco-3e3", "dysco-5e2", "hahn-5e4", "hahn-3e4", "cpmg8-shifted",
        "gdysco-geometric"])
def test_an_analytic_filters_chi_does_not_depend_on_its_tables_grid(
        spec, bath, grid):
    # chi integrates the closed form from the sequence's own default grid,
    # so the grid its table is drawn on moves no bit of chi or its info
    ff = cpmg_ff(spec.n_pulses, spec.duration, omegas=grid) \
        if spec.family.pulsed else dysco_ff(spec, omegas=grid)
    assert chi_detailed(bath, ff) == chi_detailed(bath, filter_for(spec))


@pytest.mark.parametrize("spec", [
    SequenceSpec.cpmg(8, duration=2e-4), SequenceSpec.hahn(5e-5),
    SequenceSpec.dysco(2e-4, 1e5), SequenceSpec.gdysco(2e-4, 1e5),
], ids=["cpmg", "hahn", "dysco", "gdysco"])
def test_filter_for_without_spectrum_is_the_closed_form(spec):
    ff = filter_for(spec)
    ref = cpmg_ff(spec.n_pulses, spec.duration) if spec.family.pulsed \
        else dysco_ff(spec)
    assert ff.source is ref.source and ff.duration == ref.duration
    assert np.array_equal(ff.omegas, ref.omegas)
    assert np.array_equal(ff.values, ref.values)


# --------------------------------------------------------------------------
# Synthetic curve generation


def test_short_time_coherence_is_near_unity(bath):
    curves = synth_cpmg_family(bath, [2], time_grid_per_n=[[1e-9, 2e-9]])
    assert np.all(curves[0].coherences > 1.0 - 1e-5)


def test_more_pulses_slow_the_decay():
    spectrum = lorentzian_dc(delta=1e5, sigma=5e4)
    grid = {1: np.array([1e-3]), 32: np.array([1e-3])}
    c1, c32 = synth_cpmg_family(spectrum, [1, 32], time_grid_per_n=grid)
    assert c1.coherences[0] < 1e-10
    assert c32.coherences[0] > 1e-3
    assert c32.coherences[0] > c1.coherences[0]


def test_revival_sampling_lands_on_line_periods(bath):
    orders = np.arange(1, 6)
    (curve,) = synth_cpmg_family(bath, [2], sampling=Sampling.REVIVALS_ONLY,
                                 revival_orders=orders)
    period = 2.0 * math.pi / 392e3
    assert np.allclose(curve.xs, 4.0 * orders * period, rtol=1e-12)
    assert curve.metadata["sampling"] == "revivals_only"


def test_coherence_revives_at_full_line_periods(bath):
    period = 2.0 * math.pi / 392e3
    t_rev, t_half = 4.0 * period, 2.0 * period
    (curve,) = synth_cpmg_family(bath, [2],
                                 time_grid_per_n=[[t_half, t_rev]])
    c_half, c_rev = curve.coherences
    # Decay is non-monotone: the later full-period point recovers coherence.
    assert t_rev > t_half
    assert c_rev > c_half + 0.2


def test_curves_carry_quadrature_diagnostics(tmp_path, bath):
    times = np.geomspace(1e-5, 2e-4, 4)
    (curve,) = synth_cpmg_family(bath, [4], time_grid_per_n=[times])
    ffs = [filter_for(SequenceSpec.cpmg(4, duration=t)) for t in times]
    infos = [chi_detailed(bath, ff)[1] for ff in ffs]
    grids = [ff.omegas.size for ff in ffs]
    meta = curve.metadata
    assert meta["rel_err_max"] == max(i["rel_err"] for i in infos) <= 1e-4
    assert meta["ff_grid_max"] == max(grids)
    assert meta["quad_nodes"] == sum(i["nodes"] for i in infos)
    assert meta["omega_max"] == infos[-1]["omega_max"]
    sweep = synth_dysco_sweep(bath, SequenceSpec.dysco(2e-4, 1e5), [3e4, 6e4])
    assert sweep.metadata["ff_grid_max"] == 2000
    assert sweep.metadata["quad_nodes"] > 0
    assert sweep.metadata["quad_nodes"] % 15 == 0
    write_curve(curve, tmp_path / "c.csv")
    sidecar = json.loads((tmp_path / "c.meta.json").read_text())["metadata"]
    assert {"rel_err_max", "ff_grid_max", "quad_nodes"} <= set(sidecar)


@pytest.mark.parametrize("family", ["cpmg", "dysco", "gdysco"])
def test_curve_points_equal_their_filters_alone(bath, family):
    if family == "cpmg":
        xs = np.geomspace(1e-5, 3e-3, 9)
        (curve,) = synth_cpmg_family(bath, [8], time_grid_per_n=[xs])
        ffs = [filter_for(SequenceSpec.cpmg(8, duration=t)) for t in xs]
    else:
        template = getattr(SequenceSpec, family)(2e-4, 1e5)
        xs = np.linspace(3e4, 1.2e5, 9)
        curve = synth_dysco_sweep(bath, template, xs)
        ffs = [filter_for(replace(template, mod_frequency=f)) for f in xs]
    alone = [chi_detailed(bath, ff) for ff in ffs]
    assert np.array_equal(curve.coherences,
                          [math.exp(-value) for value, _ in alone])
    assert curve.metadata["quad_nodes"] == sum(i["nodes"] for _, i in alone)


def test_revival_sampling_needs_a_line():
    with pytest.raises(ValidationError):
        synth_cpmg_family(lorentzian_dc(1e5, 5e4), [2],
                          sampling=Sampling.REVIVALS_ONLY)


def test_dense_sampling_needs_time_grids(bath):
    with pytest.raises(ValidationError):
        synth_cpmg_family(bath, [2])


def test_dysco_sweep_decays_on_the_line(bath):
    template = SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5)
    curve = synth_dysco_sweep(bath, template, [3e4, 62.4e3, 1.2e5])
    assert curve.abscissa_kind is AbscissaKind.MOD_FREQUENCY
    # deepest decay where the passband sits on the line
    assert np.argmin(curve.coherences) == 1


def test_dysco_sweep_rejects_pulsed_template(bath):
    with pytest.raises(ValidationError):
        synth_dysco_sweep(bath, SequenceSpec.cpmg(n_pulses=2, tau_free=1e-5),
                          [1e4, 2e4])


# --------------------------------------------------------------------------
# Measurement noise


def _clean_curve(n_points: int = 32) -> CoherenceCurve:
    xs = np.linspace(1e-5, 1e-3, n_points)
    return CoherenceCurve(
        abscissa_kind=AbscissaKind.TIME,
        xs=xs,
        coherences=np.full(n_points, 0.5),
        uncertainties=np.zeros(n_points),
        sequence=SequenceSpec.cpmg(2, duration=float(xs[-1])),
        swept="duration",
        provenance=Provenance("synthetic"),
    )


def test_zero_epsilon_is_identity():
    curve = _clean_curve()
    noisy = add_measurement_noise(curve, 0.0, seed=3)
    assert np.array_equal(noisy.coherences, curve.coherences)


def test_noise_is_deterministic_per_seed():
    curve = _clean_curve()
    a = add_measurement_noise(curve, 0.03, seed=7)
    b = add_measurement_noise(curve, 0.03, seed=7)
    c = add_measurement_noise(curve, 0.03, seed=8)
    assert np.array_equal(a.coherences, b.coherences)
    assert not np.array_equal(a.coherences, c.coherences)
    assert np.all(a.uncertainties == 0.03)


def test_noise_amplitude_matches_epsilon():
    curve = _clean_curve(n_points=10_000)
    noisy = add_measurement_noise(curve, 0.03, seed=0)
    residual = noisy.coherences - curve.coherences
    assert float(np.std(residual)) == pytest.approx(0.03, abs=0.0015)
    assert abs(float(np.mean(residual))) < 0.001


# --------------------------------------------------------------------------
# Curve validation


def test_curve_requires_increasing_abscissa():
    xs = np.array([1e-5, 1e-5, 2e-5])
    with pytest.raises(ValidationError):
        CoherenceCurve(
            abscissa_kind=AbscissaKind.TIME, xs=xs,
            coherences=np.full(3, 0.5), uncertainties=np.zeros(3),
            sequence=SequenceSpec.cpmg(2, duration=2e-5), swept="duration",
            provenance=Provenance("synthetic"))


def test_curve_rejects_non_finite_values():
    xs = np.array([1e-5, 2e-5, 3e-5])
    cs = np.array([0.9, math.nan, 0.7])
    with pytest.raises(ValidationError):
        CoherenceCurve(
            abscissa_kind=AbscissaKind.TIME, xs=xs,
            coherences=cs, uncertainties=np.zeros(3),
            sequence=SequenceSpec.cpmg(2, duration=3e-5), swept="duration",
            provenance=Provenance("synthetic"))


def test_curve_rejects_negative_uncertainty():
    xs = np.array([1e-5, 2e-5, 3e-5])
    with pytest.raises(ValidationError):
        CoherenceCurve(
            abscissa_kind=AbscissaKind.TIME, xs=xs,
            coherences=np.full(3, 0.5), uncertainties=np.array([0.0, -0.1, 0.0]),
            sequence=SequenceSpec.cpmg(2, duration=3e-5), swept="duration",
            provenance=Provenance("synthetic"))
