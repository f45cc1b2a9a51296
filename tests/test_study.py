"""End-to-end study drivers: decomposition scoring and peak comparison."""

import numpy as np
import pytest

from noisespec import (
    ReconstructedSpectrum,
    ValidationError,
    lorentzian_dc,
    peak_study,
    sd_study,
    sd_time_grids,
)


def test_sd_time_grids_shape_and_validation():
    grids = sd_time_grids((1, 4), 1e-5, 1e-3, 7)
    assert set(grids) == {1, 4}
    for g in grids.values():
        assert g.size == 7
        assert g[0] == pytest.approx(1e-5)
        assert g[-1] == pytest.approx(1e-3)
    with pytest.raises(ValidationError):
        sd_time_grids((1,), 1e-3, 1e-5, 7)
    with pytest.raises(ValidationError):
        sd_time_grids((1,), 0.0, 1e-3, 7)


def test_sd_study_scores_noise_free_recovery(dc_lorentzian):
    result = sd_study(dc_lorentzian, bin_count=None, rel_tol=1e-3)
    assert isinstance(result.reconstruction, ReconstructedSpectrum)
    assert len(result.curves) == 4
    assert result.n_compared >= 4
    assert 0.0 <= result.median_rel_error_central < 1.0
    lo, hi = result.central_band
    assert 0.0 < lo < hi


def test_sd_study_is_deterministic_per_seed(dc_lorentzian):
    kwargs = dict(bin_count=None, rel_tol=1e-3, epsilon=0.05)
    a = sd_study(dc_lorentzian, seed=3, **kwargs)
    b = sd_study(dc_lorentzian, seed=3, **kwargs)
    c = sd_study(dc_lorentzian, seed=4, **kwargs)
    assert a.median_rel_error_central == b.median_rel_error_central
    assert np.array_equal(a.reconstruction.values, b.reconstruction.values,
                          equal_nan=True)
    assert not np.array_equal(a.reconstruction.values,
                              c.reconstruction.values, equal_nan=True)


def test_peak_study_requires_a_line(dc_lorentzian):
    with pytest.raises(ValidationError):
        peak_study(dc_lorentzian, seeds=(0,))


def test_peak_study_single_seed_structure(bath):
    result = peak_study(bath, seeds=(0,))
    assert result.truth_center_hz == pytest.approx(62388.74, rel=1e-4)
    names = [m.method for m in result.methods()]
    assert names == ["cpmg_sd", "dysco", "gdysco"]
    for m in result.methods():
        assert m.n_seeds == 1
        assert m.center_hz > 0.0
        assert m.width_hz > 0.0
        assert m.center_spread_hz == 0.0
    assert set(result.reconstructions) == {"cpmg_sd", "dysco", "gdysco"}
    payload = result.to_dict()
    assert payload["methods"]["gdysco"]["center_rel_error"] == pytest.approx(
        result.gdysco.center_hz / result.truth_center_hz - 1.0, rel=1e-12)
    assert len(payload["per_seed"]) == 1


def test_peak_study_repeats_bit_for_bit(bath):
    a = peak_study(bath, seeds=(1,))
    b = peak_study(bath, seeds=(1,))
    assert a.to_dict() == b.to_dict()
