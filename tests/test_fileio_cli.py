"""File formats, sidecars, manifests, and the command line."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import noisespec.fitting
from noisespec import (
    FLAG_CLIPPED,
    Method,
    NumericError,
    ReconstructedSpectrum,
    SequenceSpec,
    ValidationError,
    config_digest,
    ingest_curve,
    read_curve,
    read_spectrum_csv,
    spectrum_model_from_dict,
    spectrum_model_to_dict,
    synth_cpmg_family,
    tabulated,
    write_curve,
    write_manifest,
    write_reconstruction,
)
from noisespec.cli import main as cli_main
from noisespec.fileio import write_json


@pytest.fixture()
def small_curve(bath):
    grids = {2: np.geomspace(1e-5, 2e-4, 5)}
    (curve,) = synth_cpmg_family(bath, [2], time_grid_per_n=grids,
                                 rel_tol=1e-3)
    return curve


# --------------------------------------------------------------------------
# Curve round trips


def test_curve_roundtrip_preserves_arrays(tmp_path, small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")
    loaded = read_curve(path)
    assert np.array_equal(loaded.xs, small_curve.xs)
    assert np.array_equal(loaded.coherences, small_curve.coherences)
    assert np.array_equal(loaded.uncertainties, small_curve.uncertainties)
    assert loaded.sequence == small_curve.sequence
    assert loaded.abscissa_kind == small_curve.abscissa_kind


def test_curve_write_is_reproducible(tmp_path, small_curve):
    a = write_curve(small_curve, tmp_path / "a.csv")
    b = write_curve(small_curve, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    meta_a = (tmp_path / "a.meta.json").read_text()
    meta_b = (tmp_path / "b.meta.json").read_text()
    assert meta_a == meta_b


def test_sidecar_with_the_old_abscissa_label_still_reads(tmp_path,
                                                         small_curve):
    # sidecars written before the label was dropped carry "swept"
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    assert "swept" not in meta
    meta_file.write_text(json.dumps({**meta, "swept": "duration"}))
    for loaded in (read_curve(path), ingest_curve(path)):
        assert np.array_equal(loaded.xs, small_curve.xs)
        assert np.array_equal(loaded.coherences, small_curve.coherences)
        assert loaded.sequence == small_curve.sequence


def test_read_curve_requires_sidecar(tmp_path, small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")
    (tmp_path / "c.meta.json").unlink()
    with pytest.raises(ValidationError):
        read_curve(path)


# --------------------------------------------------------------------------
# Raw table ingestion


def _raw_csv(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_plain_table(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n"
                    "1e-5,0.95,0.01\n2e-5,0.80,0.01\n3e-5,0.60,0.01\n")
    seq = SequenceSpec.cpmg(2, duration=3e-5)
    curve = ingest_curve(path, seq)
    assert curve.xs.size == 3
    assert curve.coherences[1] == 0.80
    assert curve.provenance.kind == "ingested"
    assert curve.sequence == seq


def test_ingest_flags_suspect_rows(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n"
                    "1e-5,0.95,0.05\n2e-5,1.20,0.05\n3e-5,0.60,0.05\n")
    curve = ingest_curve(path, SequenceSpec.cpmg(2, duration=3e-5))
    assert curve.xs.size == 3
    # indices into the ingested arrays, not file line numbers
    assert curve.metadata["suspect_rows"] == [1]


def test_ingest_drops_non_finite_rows_with_warning(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n"
                    "1e-5,0.95,0.01\n2e-5,nan,0.01\n3e-5,0.60,0.01\n")
    with pytest.warns(UserWarning, match=r"lines \[3\]"):
        curve = ingest_curve(path, SequenceSpec.cpmg(2, duration=3e-5))
    assert curve.xs.size == 2
    assert np.array_equal(curve.coherences, [0.95, 0.60])


def test_ingest_rejects_malformed_tables(tmp_path):
    missing = _raw_csv(tmp_path, "time_s,value\n1e-5,0.9\n", "m.csv")
    with pytest.raises(ValidationError):
        ingest_curve(missing, SequenceSpec.cpmg(2, duration=3e-5))
    empty = _raw_csv(tmp_path, "time_s,coherence,uncertainty\n", "e.csv")
    with pytest.raises(ValidationError):
        ingest_curve(empty, SequenceSpec.cpmg(2, duration=3e-5))
    backwards = _raw_csv(tmp_path,
                         "time_s,coherence,uncertainty\n"
                         "3e-5,0.6,0.01\n1e-5,0.9,0.01\n", "b.csv")
    with pytest.raises(ValidationError):
        ingest_curve(backwards, SequenceSpec.cpmg(2, duration=3e-5))


def test_ingest_prefers_sidecar_sequence(tmp_path, small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")
    curve = ingest_curve(path)
    assert curve.sequence == small_curve.sequence


def test_ingest_needs_sequence_without_sidecar(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n1e-5,0.9,0.01\n")
    with pytest.raises(ValidationError):
        ingest_curve(path)


@pytest.mark.parametrize("header, column, sequence", [
    ("frequency_hz", "time_s", SequenceSpec.cpmg(2, duration=3e-5)),
    ("time_s", "frequency_hz", SequenceSpec.dysco(2e-4, 1e5)),
], ids=["freq-cpmg", "time-dysco"])
def test_ingest_columns_follow_the_sequence(tmp_path, header, column,
                                            sequence):
    # a pulse train runs over time, a carrier over modulation frequency
    path = _raw_csv(tmp_path, f"{header},coherence,uncertainty\n"
                              "1e4,0.9,0.01\n2e4,0.8,0.01\n")
    with pytest.raises(ValidationError,
                       match=rf"missing columns \['{column}'\]"):
        ingest_curve(path, sequence)


def test_ingest_refusal_warns_nothing_about_dropped_rows(tmp_path):
    # the table is refused after its non-finite row is dropped
    path = _raw_csv(tmp_path, "time_s,coherence,uncertainty\n"
                              "0.0,0.9,0.01\n2e-5,nan,0.01\n3e-5,0.8,0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="positive"):
            ingest_curve(path, SequenceSpec.cpmg(2, duration=1e-4))


def test_read_curve_rejects_a_kind_its_sequence_contradicts(tmp_path,
                                                            small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")
    (tmp_path / "c.csv").write_text(
        (tmp_path / "c.csv").read_text().replace("time_s", "frequency_hz"))
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["abscissa_kind"] = "mod_frequency"
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="cpmg sequence"):
        read_curve(path)


# --------------------------------------------------------------------------
# Reconstruction and model round trips


def test_reconstruction_roundtrip(tmp_path):
    recon = ReconstructedSpectrum(
        omegas=np.array([1e4, 2e4, 3e4]),
        values=np.array([5.0, math.nan, 7.0]),
        uncertainties=np.array([0.1, 0.0, 0.2]),
        flags=np.array([0, FLAG_CLIPPED, 0]),
        method=Method.CPMG_SD, metadata={"n_clipped": 1})
    path = write_reconstruction(recon, tmp_path / "r.csv")
    w, v, u, flags = read_spectrum_csv(path)
    assert np.array_equal(w, recon.omegas)
    assert np.array_equal(v, recon.values, equal_nan=True)
    assert np.array_equal(u, recon.uncertainties)
    assert np.array_equal(flags, recon.flags)


def test_spectrum_model_roundtrip(bath):
    clone = spectrum_model_from_dict(spectrum_model_to_dict(bath))
    w = np.geomspace(1e2, 2e6, 50)
    assert np.array_equal(clone.eval(w), bath.eval(w))


def test_tabulated_model_roundtrip():
    spec = tabulated(np.array([0.0, 1e5, 2e5]), np.array([1.0, 4.0, 2.0]))
    clone = spectrum_model_from_dict(spectrum_model_to_dict(spec.scaled(3.0)))
    w = np.linspace(0.0, 2e5, 21)
    assert np.array_equal(clone.eval(w), 3.0 * spec.eval(w))


def test_read_spectrum_csv_rejects_bad_cells(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("omega_rad_s,s_rad_s,uncertainty_rad_s,flag\n"
                    "1.0,2.0,0.1,0\n2.0,oops,0.1,0\n")
    with pytest.raises(ValidationError, match=r"s\.csv:3"):
        read_spectrum_csv(path)
    path.write_text("omega_rad_s,s_rad_s,flag\n1.0,2.0\n")
    with pytest.raises(ValidationError, match=r"s\.csv:2"):
        read_spectrum_csv(path)


def test_json_output_is_strict_with_null_for_non_finite(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"np_nan": np.float64(math.nan), "py_inf": math.inf,
                      "np_ninf": np.float32(-math.inf),
                      "arr": np.array([1.5, math.nan, math.inf]),
                      "nested": [np.array([math.nan]), (math.nan, 2)],
                      "finite": np.float64(0.1), "count": np.int64(3)})
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    data = json.loads(text, parse_constant=reject)
    assert data == {"np_nan": None, "py_inf": None, "np_ninf": None,
                    "arr": [1.5, None, None], "nested": [[None], [None, 2]],
                    "finite": 0.1, "count": 3}


def test_config_digest_is_order_independent():
    a = config_digest({"x": 1, "y": [1, 2], "z": "s"})
    b = config_digest({"z": "s", "y": [1, 2], "x": 1})
    c = config_digest({"x": 2, "y": [1, 2], "z": "s"})
    assert a == b
    assert a != c


def test_manifest_is_deterministic_and_relocatable(tmp_path):
    kwargs = dict(config={"mode": "sd", "bins": 8}, seed=5,
                  inputs=["a.csv"], outputs=["out.csv", "out.meta.json"])
    p1 = write_manifest(tmp_path / "m1.json", **kwargs)
    p2 = write_manifest(tmp_path / "m2.json", **kwargs)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["seed"] == 5
    assert payload["outputs"] == ["out.csv", "out.meta.json"]
    assert "versions" in payload
    assert not any("time" in k or "date" in k for k in payload)


# --------------------------------------------------------------------------
# Command line


def test_cli_ff_reports_filter_stats(tmp_path):
    out = tmp_path / "ff"
    rc = cli_main(["ff", "--family", "cpmg", "--n", "16",
                   "--duration", "1.6e-4", "--outdir", str(out),
                   "--out", "ffx"])
    assert rc == 0
    stats = json.loads((out / "ffx_stats.json").read_text())
    assert stats["f0"] == pytest.approx(50135.1, rel=1e-3)
    assert stats["gain"] == pytest.approx(0.5851, rel=5e-3)
    assert (out / "ffx.csv").exists()
    assert (out / "ffx_manifest.json").exists()


def test_cli_bandwidth(tmp_path):
    rc = cli_main(["bandwidth", "--family", "cpmg", "--n", "16",
                   "--duration", "1.6e-4", "--f-rabi", "20e6",
                   "--t2-echo", "488e-6", "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "bandwidth_cpmg.json").read_text())
    assert payload["fwhm"] == pytest.approx(0.89 / 1.6e-4, rel=1e-6)
    assert payload["f_min"] == pytest.approx(1.0 / (2 * 488e-6), rel=1e-6)


def test_cli_synth_zero_spectrum_keeps_unit_coherence(tmp_path):
    rc = cli_main(["synth", "--spectrum", "zero", "--family", "cpmg",
                   "--n-list", "2", "--times", "1e-5:1e-4:5",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    curve = read_curve(tmp_path / "synth_cpmg_n2.csv")
    assert np.all(curve.coherences == 1.0)


def test_cli_synth_writes_one_manifest_per_family(tmp_path):
    # the README runs a CPMG and a gDYSCO synth into one directory; neither
    # manifest may overwrite the other
    common = ["--epsilon", "0.02", "--seed", "3", "--outdir", str(tmp_path)]
    assert cli_main(["synth", "--family", "cpmg", "--n-list", "1,2",
                     "--times", "3e-5:3e-3:4", *common]) == 0
    assert cli_main(["synth", "--family", "gdysco", "--duration", "2e-4",
                     "--f-grid", "3e4:1.2e5:8", *common]) == 0
    cpmg = json.loads((tmp_path / "synth_cpmg_manifest.json").read_text())
    gdysco = json.loads((tmp_path / "synth_gdysco_manifest.json").read_text())
    assert cpmg["outputs"] == ["synth_cpmg_n1.csv", "synth_cpmg_n2.csv"]
    assert gdysco["outputs"] == ["synth_gdysco.csv"]


def test_cli_synth_seed_changes_noise(tmp_path):
    argv = ["synth", "--spectrum", "default", "--family", "cpmg",
            "--n-list", "2", "--times", "2e-5:2e-4:4", "--epsilon", "0.02",
            "--rel-tol", "1e-3"]
    rc1 = cli_main(argv + ["--seed", "1", "--outdir", str(tmp_path / "s1")])
    rc2 = cli_main(argv + ["--seed", "2", "--outdir", str(tmp_path / "s2")])
    assert rc1 == 0 and rc2 == 0
    a = (tmp_path / "s1" / "synth_cpmg_n2.csv").read_bytes()
    b = (tmp_path / "s2" / "synth_cpmg_n2.csv").read_bytes()
    assert a != b


def test_cli_fit_comb_on_written_curve(tmp_path):
    times = np.linspace(1e-7, 1.05e-4, 400)
    centers = np.arange(7) * 1.6e-5
    comb = np.exp(-(times[:, None] - centers[None, :]) ** 2
                  / (2.0 * 2.4e-6 ** 2)).sum(axis=1)
    cs = np.exp(-np.power(times / 8e-5, 1.3)) * comb
    from noisespec import CoherenceCurve, Provenance
    curve = CoherenceCurve(
        xs=times, coherences=cs,
        uncertainties=np.zeros_like(times),
        sequence=SequenceSpec.hahn(tau_free=float(times[-1] / 2)),
        provenance=Provenance("synthetic"))
    path = write_curve(curve, tmp_path / "comb.csv")
    rc = cli_main(["fit", "--mode", "comb", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_comb.json").read_text())
    assert payload["parameters"]["revival_time"] == pytest.approx(1.6e-5,
                                                                  rel=1e-4)


def test_cli_fit_envelope_on_its_own_noisy_synthesis(tmp_path):
    # readout noise at epsilon 0.02 carries points past 1 and below 0
    rc = cli_main(["synth", "--family", "cpmg", "--n-list", "1,2,4,8",
                   "--times", "1e-5:2e-3:40", "--epsilon", "0.02",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "synth_cpmg_n8.csv"
    cs = read_curve(path).coherences
    assert np.any(cs > 1.0) and np.any(cs <= 0.0)
    rc = cli_main(["fit", "--mode", "envelope", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_envelope.json").read_text())
    assert 0.0 < payload["parameters"]["t2"] < 2e-3


def test_cli_missing_curve_file_exits_3(tmp_path):
    rc = cli_main(["reconstruct", "--mode", "sd", "--curves",
                   str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("token", [
    "1e-5:1e-3:4:foo", "x:1e-3:4", "1e-5:y:4", "1e-5:1e-3:z",
    "1e-5:1e-3:2.5", "nan:1e-3:4", "1e-5:inf:4", "1e-5:1e-3",
])
def test_cli_malformed_grid_exits_3(tmp_path, capsys, token):
    rc = cli_main(["synth", "--spectrum", "zero", "--family", "cpmg",
                   "--n-list", "2", "--times", token,
                   "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_bad_usage_exits_2():
    for argv in (["ff", "--family", "not-a-family"],
                 # --verbose is not an option
                 ["ff", "--family", "cpmg", "--n", "16", "--duration",
                  "1.6e-4", "--verbose"]):
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2


_SEEDED = {
    "synth": ["synth", "--spectrum", "zero", "--family", "cpmg", "--n-list",
              "2", "--times", "1e-5:1e-4:3", "--epsilon", "0.01"],
    "oracle": ["oracle", "--spectrum", "zero", "--family", "cpmg", "--n", "2",
               "--duration", "2e-5", "--n-realizations", "100",
               "--modes", "8"],
    "roundtrip": ["roundtrip", "--mode", "sd", "--rel-tol", "1e-3",
                  "--bins", "24"],
}


@pytest.mark.parametrize("command", sorted(_SEEDED))
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_cli_seed_must_be_a_non_negative_integer(tmp_path, capsys, command,
                                                 seed):
    with pytest.raises(SystemExit) as err:
        cli_main([*_SEEDED[command], "--seed", seed, "--outdir", str(tmp_path)])
    assert err.value.code == 2
    assert "argument --seed: must be a non-negative integer" in \
        capsys.readouterr().err


def test_cli_negative_seed_prints_no_traceback(tmp_path):
    src = str(Path(noisespec.fitting.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "noisespec", *_SEEDED["synth"],
         "--seed", "-1", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "--seed" in run.stderr


@pytest.mark.parametrize("argv", [
    ["ff", "--family", "dysco", "--duration", "2e-4", "--f0", "8e4"],
    ["synth", "--family", "dysco", "--duration", "2e-4",
     "--f-grid", "3e4:1.2e5:4"],
    ["oracle", "--family", "dysco", "--duration", "2e-4", "--f0", "8e4",
     "--n-realizations", "100", "--modes", "8"],
], ids=["ff", "synth", "oracle"])
def test_cli_quantized_carrier_exits_3(tmp_path, capsys, argv):
    # no filter evaluates a quantized carrier's step trace yet, and the
    # smooth carrier's filter is not its filter
    rc = cli_main([*argv, "--quant-steps", "8", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "quant_steps" in _one_line_error(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, cap", [
    (["--n-list", "1", "--times", "1e-5:1e-3:99999999999"], "10000 points"),
    (["--n-list", "100000000", "--times", "1e-5:1e-3:3"], "cap of 1000"),
], ids=["grid-count", "pulse-count"])
def test_cli_oversized_request_exits_3_without_a_traceback(tmp_path, args,
                                                           cap):
    src = str(Path(noisespec.fitting.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "noisespec", "synth", "--family", "cpmg",
         *args, "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert cap in run.stderr


@pytest.mark.parametrize("argv", [
    ["--family", "cpmg", "--n", "2", "--duration", "1e-320"],
    ["--family", "hahn", "--duration", "1e-320"],
    ["--family", "gdysco", "--duration", "1e-3", "--f0", "1e308"],
], ids=["cpmg", "hahn", "gdysco"])
def test_cli_ff_overflowing_frequencies_exit_3_in_one_line(tmp_path, argv):
    # a subnormal duration or a huge carrier puts the filter's frequencies
    # at inf: one error line, with no numpy warning before it
    src = str(Path(noisespec.fitting.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "noisespec", "ff", *argv,
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 3
    assert run.stderr.count("\n") == 1
    assert run.stderr.startswith("error: filter frequencies overflow")


def test_cli_help_states_the_size_caps(capsys):
    with pytest.raises(SystemExit):
        cli_main(["synth", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "each at most 1000" in text
    assert text.count("count at most 10000") == 2


def test_cli_numeric_failure_exits_4(tmp_path, monkeypatch, small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")

    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(noisespec.fitting, "fit_revival_comb", boom)
    rc = cli_main(["fit", "--mode", "comb", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 4


def test_cli_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("NOISESPEC_OUTDIR", str(tmp_path / "env_out"))
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2",
                   "--duration", "1e-4"])
    assert rc == 0
    assert (tmp_path / "env_out" / "ff_cpmg.csv").exists()


@pytest.mark.parametrize("outdir", ["afile", "afile/sub"],
                         ids=["file", "under-a-file"])
def test_cli_outdir_that_cannot_be_created_exits_3(tmp_path, capsys, outdir):
    (tmp_path / "afile").write_text("")
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
                   "--outdir", str(tmp_path / outdir)])
    assert rc == 3
    assert "cannot create --outdir" in _one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_cli_reconstruct_direct_from_raw_table(tmp_path, bath):
    from noisespec import synth_dysco_sweep
    template = SequenceSpec.dysco(duration=2e-4, mod_frequency=1e5)
    sweep = synth_dysco_sweep(bath, template, np.linspace(2e4, 6e5, 20),
                              rel_tol=1e-3)
    raw = tmp_path / "sweep.csv"
    lines = ["frequency_hz,coherence,uncertainty"]
    lines += [f"{f:.17g},{c:.17g},0.0"
              for f, c in zip(sweep.xs, sweep.coherences)]
    raw.write_text("\n".join(lines) + "\n")
    rc = cli_main(["reconstruct", "--mode", "direct", "--curves", str(raw),
                   "--family", "dysco",
                   "--duration", "2e-4", "--f0", "1e5",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    w, v, u, flags = read_spectrum_csv(tmp_path / "reconstruct_direct.csv")
    assert w.size == 20
    assert np.any(np.isfinite(v))


@pytest.mark.parametrize("synth, mode, flags", [
    (["--family", "gdysco", "--duration", "2e-4", "--f-grid", "3e4:1.2e5:56"],
     "direct", ["--family", "gdysco", "--duration", "2e-4", "--f0", "3e4"]),
    (["--family", "cpmg", "--n-list", "4", "--times", "3e-5:3e-3:12"],
     "sd", ["--family", "cpmg", "--n", "4"]),
], ids=["direct-gdysco", "sd-cpmg"])
def test_cli_raw_table_reconstructs_as_its_sidecar_curve(tmp_path, synth,
                                                         mode, flags):
    # one written curve, read through its sidecar and, copied without it,
    # through the sequence flags
    assert cli_main(["synth", *synth, "--epsilon", "0.02", "--seed", "3",
                     "--rel-tol", "1e-3",
                     "--outdir", str(tmp_path / "synth")]) == 0
    (curve,) = (tmp_path / "synth").glob("*.csv")
    raw = tmp_path / "tables" / curve.name
    raw.parent.mkdir()
    raw.write_bytes(curve.read_bytes())
    for route, curves in (("sidecar", [str(curve)]),
                          ("raw", [str(raw), *flags])):
        assert cli_main(["reconstruct", "--mode", mode, "--curves", *curves,
                         "--outdir", str(tmp_path / route)]) == 0
    for name in (f"reconstruct_{mode}.csv", f"reconstruct_{mode}.meta.json"):
        assert (tmp_path / "raw" / name).read_bytes() == \
            (tmp_path / "sidecar" / name).read_bytes()


def test_cli_synth_curves_reconstruct_as_the_sd_roundtrip(tmp_path):
    # synth seeds each curve's noise as the sd study does, by a hash of
    # (seed, curve index), so the same geometry gives the same spectrum
    assert cli_main(["synth", "--family", "cpmg", "--n-list", "1,2,4,8",
                     "--times", "3e-5:3e-3:12", "--epsilon", "0.02",
                     "--seed", "5", "--outdir", str(tmp_path / "synth")]) == 0
    curves = sorted(str(p) for p in (tmp_path / "synth").glob("*_n*.csv"))
    assert cli_main(["reconstruct", "--mode", "sd", "--bins", "0", "--curves",
                     *curves, "--outdir", str(tmp_path / "synth")]) == 0
    assert cli_main(["roundtrip", "--mode", "sd", "--epsilon", "0.02",
                     "--seed", "5", "--outdir", str(tmp_path / "rt")]) == 0
    for suffix in (".csv", ".meta.json"):
        assert (tmp_path / "synth" / f"reconstruct_sd{suffix}").read_bytes() \
            == (tmp_path / "rt" / f"roundtrip_sd{suffix}").read_bytes()


@pytest.mark.parametrize("command, mode, option", [
    ("reconstruct", "sd", ["--schema", "time_csv"]),
    ("fit", "noise", ["--schema", "time_csv"]),
    ("reconstruct", "sd", ["--config", "x.json"]),
], ids=["schema-reconstruct", "schema-fit", "config"])
def test_cli_removed_option_is_a_usage_error(tmp_path, capsys, command, mode,
                                             option):
    # the sequence flags alone select raw-table ingestion, and the command
    # line alone sets the options
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--mode", mode, "--curves", "c.csv", *option,
                  "--outdir", str(out)])
    assert err.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not out.exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("kind,message", [("truncated", "malformed JSON"),
                                          ("directory", "cannot read")])
def test_cli_malformed_spectrum_json_exits_3(tmp_path, capsys, kind, message):
    bad = tmp_path / "bath.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_text('{"components": [')
    rc = cli_main(["synth", "--spectrum", str(bad), "--family", "cpmg",
                   "--n-list", "2", "--times", "1e-5:1e-4:3",
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert message in _one_line_error(capsys)


def test_cli_spectrum_json_of_wrong_shape_exits_3(tmp_path, capsys):
    bad = tmp_path / "bath.json"
    bad.write_text('{"components": [{"kind": "lorentzian_dc", "delta": 1.0}]}')
    rc = cli_main(["synth", "--spectrum", str(bad), "--family", "cpmg",
                   "--n-list", "2", "--times", "1e-5:1e-4:3",
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "malformed spectrum model" in _one_line_error(capsys)


def test_cli_peak_fit_on_bad_spectrum_cell_exits_3(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("omega_rad_s,s_rad_s\n1.0,2.0\n2.0,x\n")
    rc = cli_main(["fit", "--mode", "peak", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "s.csv:3" in _one_line_error(capsys)


@pytest.mark.parametrize("initial", ["gauss_delta=abc", "list.json"])
def test_cli_malformed_initial_guess_exits_3(tmp_path, capsys, small_curve,
                                             initial):
    path = write_curve(small_curve, tmp_path / "c.csv")
    (tmp_path / "list.json").write_text("[1, 2]")
    token = str(tmp_path / initial) if initial.endswith(".json") else initial
    rc = cli_main(["fit", "--mode", "noise", "--curves", str(path),
                   "--initial", token, "--outdir", str(tmp_path)])
    assert rc == 3
    assert "--initial" in _one_line_error(capsys)


_SIDECAR_EDITS = {
    "family": lambda m: {**m, "sequence": {**m["sequence"], "family": "bogus"}},
    "duration": lambda m: {**m, "sequence": {**m["sequence"], "duration": "abc"}},
    "n_pulses": lambda m: {**m, "sequence": {**m["sequence"], "n_pulses": "x"}},
    "abscissa_kind": lambda m: {**m, "abscissa_kind": "hour"},
    "no_sequence": lambda m: {k: v for k, v in m.items() if k != "sequence"},
    "list": lambda m: [m],
}


@pytest.mark.parametrize("case", sorted(_SIDECAR_EDITS))
def test_cli_malformed_curve_sidecar_exits_3(tmp_path, capsys, small_curve,
                                             case):
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = _SIDECAR_EDITS[case](json.loads(meta_file.read_text()))
    meta_file.write_text(json.dumps(meta))
    rc = cli_main(["reconstruct", "--mode", "sd", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "c.meta.json" in _one_line_error(capsys)


def test_cli_infinite_pulse_count_in_a_sidecar_exits_3(tmp_path, capsys,
                                                       small_curve):
    # JSON reads 1e400 as inf, and int(inf) raises OverflowError
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["sequence"]["n_pulses"] = "BIG"
    meta_file.write_text(json.dumps(meta).replace('"BIG"', "1e400"))
    rc = cli_main(["reconstruct", "--mode", "sd", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "c.meta.json" in _one_line_error(capsys)


def test_cli_pulse_count_in_a_sidecar_meets_the_cap(tmp_path, capsys,
                                                    small_curve):
    # the sidecar is read before any filter is built, so an oversized
    # count allocates nothing
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["sequence"] = {"family": "cpmg", "n_pulses": 10**6,
                        "duration": meta["sequence"]["duration"]}
    meta_file.write_text(json.dumps(meta))
    rc = cli_main(["reconstruct", "--mode", "sd", "--curves", str(path),
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "cap of 1000" in _one_line_error(capsys)


def test_cli_pulse_train_amplitude_in_a_sidecar_exits_3(tmp_path, capsys,
                                                         small_curve):
    # a pulse train's filter has unit amplitude, so another one is refused
    # rather than read into the trace alone
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["sequence"]["amplitude"] = 0.5
    meta_file.write_text(json.dumps(meta))
    rc = cli_main(["reconstruct", "--mode", "sd", "--curves", str(path),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 3
    assert "amplitude" in _one_line_error(capsys)


_ZERO_SYNTH = ["synth", "--spectrum", "zero", "--times", "1e-5:1e-4:3"]
_REJECTED = {
    "reconstruct-bins": (["reconstruct", "--mode", "sd", "--bins", "-3",
                          "--curves", "CURVE"], "bin_count"),
    "roundtrip-bins": (["roundtrip", "--mode", "sd", "--rel-tol", "1e-3",
                        "--bins", "-3"], "bin_count"),
    "reconstruct-bins-cap": (["reconstruct", "--mode", "sd", "--bins",
                              "10001", "--curves", "CURVE"], "bin_count"),
    "roundtrip-bins-cap": (["roundtrip", "--mode", "sd", "--rel-tol", "1e-3",
                            "--bins", "10001"], "bin_count"),
    "oracle-rate": (["oracle", "--family", "hahn", "--tau", "1e-5",
                     "--n-realizations", "100", "--modes", "8",
                     "--sample-rate", "inf"], "sample_rate"),
    "oracle-rate-cap": (["oracle", "--family", "hahn", "--tau", "1e-5",
                         "--n-realizations", "100", "--modes", "8",
                         "--sample-rate", "1e14"], "cap of 1e+07"),
    "peak-fit-omega": (["fit", "--mode", "peak", "--curves", "NAN_OMEGA"],
                       "finite"),
    **{f"epsilon={e}": ([*_ZERO_SYNTH, "--family", "cpmg", "--n-list", "2",
                         "--epsilon", e], "epsilon") for e in ("-1", "nan")},
    **{f"rel-tol={r}": ([*_ZERO_SYNTH, "--family", "cpmg", "--n-list", "2",
                         "--rel-tol", r], "rel_tol")
       for r in ("nan", "2", "0", "-1")},
    "oracle-rel-tol": (["oracle", "--spectrum", "zero", "--family", "cpmg",
                        "--n", "2", "--duration", "2e-5", "--rel-tol", "nan",
                        "--n-realizations", "100", "--modes", "8"],
                       "rel_tol"),
    "hahn-n-list": ([*_ZERO_SYNTH, "--family", "hahn", "--n-list", "1,2"],
                    "one pulse"),
    "hahn-n": ([*_ZERO_SYNTH, "--family", "hahn", "--n", "3"], "one pulse"),
    "revivals-without-a-line": (["synth", "--spectrum", "zero", "--family",
                                 "cpmg", "--revivals"], "Gaussian line"),
    "revival-order-0": (["synth", "--family", "cpmg", "--revivals",
                         "--orders", "1,0"], "orders must be >= 1"),
    # a lobe panel count past int64, a curve of 100 rows under 5e6 lobe
    # panels each (3.5e8 in all), a revival order past the float range,
    # and one that would ask for about 3e9 lobe panels (23.5 GiB)
    "synth-duration-cap": (["synth", "--family", "cpmg", "--n-list", "2",
                            "--times", "1e-5:1e300:2"], "lobe panels"),
    "synth-curve-cap": (["synth", "--family", "cpmg", "--n-list", "2",
                         "--times", "50:100:100"], "lobe panels"),
    "revival-order-overflow": (["synth", "--family", "cpmg", "--n-list", "2",
                                "--revivals", "--orders", "9" * 400],
                               "overflow"),
    "revival-order-cap": (["synth", "--family", "cpmg", "--n-list", "2",
                           "--revivals", "--orders", "1000000000"],
                          "lobe panels"),
    # flags that the mode or the curve source would drop
    "sequence-flag-without-family": (["reconstruct", "--mode", "sd",
                                      "--curves", "CURVE", "--duration",
                                      "1e-3"], "--duration needs --family"),
    "peak-fit-family": (["fit", "--mode", "peak", "--curves", "NAN_OMEGA",
                         "--family", "cpmg"], "fit --family does not apply"),
    "reconstruct-direct-bins": (["reconstruct", "--mode", "direct", "--bins",
                                 "7", "--curves", "CURVE"],
                                "reconstruct --bins does not apply"),
    "roundtrip-sd-duration": (["roundtrip", "--mode", "sd", "--duration",
                               "5e-4"], "roundtrip --duration does not apply"),
    "roundtrip-peak-bins": (["roundtrip", "--mode", "peak", "--bins", "10"],
                            "roundtrip --bins does not apply"),
    "roundtrip-peak-without-a-line": (["roundtrip", "--mode", "peak",
                                       "--spectrum", "zero"], "Gaussian line"),
    # a pulse-train table's times set its durations
    "raw-table-duration": (["reconstruct", "--mode", "sd", "--family", "cpmg",
                            "--n", "2", "--duration", "2e-4", "--curves",
                            "CURVE"], "reconstruct --duration does not apply"),
    "raw-table-tau": (["fit", "--mode", "noise", "--family", "hahn", "--tau",
                       "1e-5", "--curves", "CURVE"],
                      "fit --tau does not apply"),
    # an --out with a directory part would write outside --outdir
    "out-subdir": (["roundtrip", "--mode", "sd", "--out", "sub/x"],
                   "--out must be a file-name prefix"),
    "out-parent": (["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
                    "--out", "../x"], "--out must be a file-name prefix"),
    **{f"fit-{mode}-{flag}": (["fit", "--mode", mode, "--curves",
                               "NAN_OMEGA" if mode == "peak" else "CURVE",
                               f"--{flag}", value],
                              f"fit --{flag} does not apply to {mode} mode")
       for mode in ("envelope", "comb", "peak")
       for flag, value in (("initial", "default"), ("max-iterations", "3"))},
}


# a sequence flag that the family does not take; the spec names it
_FOREIGN_FLAGS = {
    "cpmg-amplitude": ("cpmg", ["--amplitude", "0.5"], "amplitude"),
    "cpmg-f0": ("cpmg", ["--f0", "5e4"], "mod_frequency"),
    "cpmg-quant-steps": ("cpmg", ["--quant-steps", "4"], "quant_steps"),
    "cpmg-sigma": ("cpmg", ["--sigma", "1e-5"], "envelope_sigma"),
    "dysco-sigma": ("dysco", ["--sigma", "1e-5"], "envelope_sigma"),
    "dysco-n": ("dysco", ["--n", "3"], "pulse parameters"),
    "hahn-n": ("hahn", ["--n", "4"], "one pulse"),
    "hahn-tau-and-duration": ("hahn", ["--tau", "1e-5"], "2 * n_pulses"),
}
_FF_SEQUENCES = {"cpmg": ["--n", "2", "--duration", "1e-4"],
                 "hahn": ["--duration", "1e-4"],
                 "dysco": ["--duration", "2e-4", "--f0", "6e4"]}


@pytest.mark.parametrize("case", sorted(_FOREIGN_FLAGS))
def test_cli_ff_rejects_a_flag_its_family_does_not_take(tmp_path, capsys,
                                                        case):
    family, flags, message = _FOREIGN_FLAGS[case]
    out = tmp_path / "out"
    assert cli_main(["ff", "--family", family, *_FF_SEQUENCES[family],
                     *flags, "--outdir", str(out)]) == 3
    assert message in _one_line_error(capsys)
    assert not out.exists()


_SYNTH_CURVES = {"cpmg": ["--n-list", "2", "--times", "3e-5:3e-4:3"],
                 "dysco": ["--duration", "2e-4", "--f-grid", "3e4:1.2e5:3"]}
# flags that synth once dropped: a pulse train's foreign sequence flags, the
# fields its time grid sets, and the grid flags of the other family kind
_SYNTH_DROPPED = {
    **{case: _FOREIGN_FLAGS[case] for case in _FOREIGN_FLAGS
       if _FOREIGN_FLAGS[case][0] == "cpmg"},
    "cpmg-duration": ("cpmg", ["--duration", "5"], "--duration does not"),
    "cpmg-tau": ("cpmg", ["--tau", "7"], "--tau does not"),
    "cpmg-f-grid": ("cpmg", ["--f-grid", "3e4:1.2e5:3"], "--f-grid does not"),
    "cpmg-times-and-revivals": ("cpmg", ["--revivals"], "--times conflicts"),
    "cpmg-orders-alone": ("cpmg", ["--orders", "1,2"], "--orders needs"),
    "cpmg-n-and-n-list": ("cpmg", ["--n", "2"], "--n conflicts"),
    **{f"dysco-{flag}": ("dysco", [f"--{flag}", *value],
                         f"--{flag} applies to pulse trains only")
       for flag, value in (("times", ["3e-5:3e-4:3"]), ("n-list", ["2"]),
                           ("revivals", []), ("orders", ["1,2"]))},
}


@pytest.mark.parametrize("case", sorted(_SYNTH_DROPPED))
def test_cli_synth_refuses_a_flag_it_would_drop(tmp_path, capsys, case):
    family, flags, message = _SYNTH_DROPPED[case]
    out = tmp_path / "out"
    assert cli_main(["synth", "--family", family, *_SYNTH_CURVES[family],
                     *flags, "--outdir", str(out)]) == 3
    assert message in _one_line_error(capsys)
    assert not out.exists()


def test_cli_synth_hahn_curve_keeps_its_family(tmp_path):
    assert cli_main(["synth", "--spectrum", "zero", "--family", "hahn",
                     "--times", "1e-5:1e-4:3", "--outdir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "synth_hahn_n1.meta.json").read_text())
    assert meta["sequence"] == {"family": "hahn", "duration": 1e-4,
                                "n_pulses": 1, "tau_free": 5e-5}


def test_cli_synth_revivals_land_on_line_periods(tmp_path):
    # orders in any order; the default bath's line sits at 392e3 rad/s
    assert cli_main(["synth", "--family", "cpmg", "--n-list", "2",
                     "--revivals", "--orders", "3,1,2", "--rel-tol", "1e-3",
                     "--outdir", str(tmp_path)]) == 0
    curve = read_curve(tmp_path / "synth_cpmg_n2.csv")
    period = 2.0 * math.pi / 392e3
    assert np.allclose(curve.xs, 4.0 * np.arange(1, 4) * period, rtol=1e-12)
    assert curve.sequence == SequenceSpec.cpmg(2, duration=curve.xs[-1])


def test_cli_synth_rejects_a_repeated_pulse_count(tmp_path, capsys):
    # both curves would be written to synth_cpmg_n2.csv
    rc = cli_main([*_ZERO_SYNTH, "--family", "cpmg", "--n-list", "2,2",
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "distinct" in _one_line_error(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_cli_invalid_value_exits_3_and_writes_nothing(tmp_path, capsys,
                                                      small_curve, case):
    inputs = tmp_path / "in"
    inputs.mkdir()
    curve = write_curve(small_curve, inputs / "c.csv")
    spectrum = inputs / "s.csv"
    w = np.linspace(3e5, 5e5, 21)
    spectrum.write_text("omega_rad_s,s_rad_s\n" + "".join(
        f"{'nan' if i == 10 else repr(x)},{math.exp(-((x - 4e5) / 3e4) ** 2)!r}\n"
        for i, x in enumerate(w.tolist())))
    argv, message = _REJECTED[case]
    argv = [{"CURVE": str(curve), "NAN_OMEGA": str(spectrum)}.get(a, a)
            for a in argv]
    out = tmp_path / "out"
    rc = cli_main([*argv, "--outdir", str(out)])
    assert rc == 3
    assert message in _one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


@pytest.mark.parametrize("flag, value", [("--seed", "1"),
                                         ("--rel-tol", "1e-3")])
@pytest.mark.parametrize("argv", [
    ["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4"],
    ["bandwidth", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
     "--f-rabi", "2e6"],
    ["reconstruct", "--mode", "sd", "--curves", "c.csv"],
    ["fit", "--mode", "comb", "--curves", "c.csv"],
], ids=["ff", "bandwidth", "reconstruct", "fit"])
def test_cli_seed_and_tolerance_only_where_read(tmp_path, capsys, argv, flag,
                                                value):
    with pytest.raises(SystemExit) as err:
        cli_main([*argv, flag, value, "--outdir", str(tmp_path)])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_flag_at_its_declared_default_counts_as_not_given(tmp_path,
                                                              small_curve):
    # a mode refuses a flag that it drops only at another value
    path = write_curve(small_curve, tmp_path / "c.csv")
    assert cli_main(["fit", "--mode", "envelope", "--curves", str(path),
                     "--max-iterations", "2000",
                     "--outdir", str(tmp_path / "out")]) == 0


def test_cli_manifest_records_only_the_options_of_the_command_run(tmp_path):
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "ff_cpmg_manifest.json").read_text())
    assert manifest["seed"] is None
    assert not {"seed", "rel_tol", "epsilon"} & set(manifest["config"])


@pytest.mark.parametrize("flags", [
    ["--n-list", "2,x", "--times", "1e-5:1e-4:3"],
    ["--revivals", "--orders", "1,y"],
], ids=["n-list", "orders"])
def test_cli_malformed_integer_list_exits_3(tmp_path, monkeypatch, capsys,
                                            flags):
    monkeypatch.chdir(tmp_path)
    rc = cli_main(["synth", "--spectrum", "zero", "--family", "cpmg", *flags])
    assert rc == 3
    assert "comma-separated integers" in _one_line_error(capsys)


_LIGHT_IMPORT_SCRIPT = """
import sys
import noisespec
import noisespec.cli as cli
outdir = sys.argv[1]
assert cli.main(["ff", "--family", "cpmg", "--n", "16", "--duration", "1.6e-4",
                 "--outdir", outdir + "/ff"]) == 0
assert cli.main(["roundtrip", "--mode", "sd", "--rel-tol", "1e-3",
                 "--epsilon", "0.02", "--bins", "24",
                 "--outdir", outdir + "/rt"]) == 0
heavy = ("scipy.optimize", "scipy.signal", "scipy.stats")
print(",".join(m for m in heavy if m in sys.modules))
"""


def test_commands_that_fit_nothing_never_load_the_scipy_solvers(tmp_path):
    # scipy.optimize and scipy.signal cost about a second of start-up; only
    # the fits load them
    src = str(Path(noisespec.fitting.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _LIGHT_IMPORT_SCRIPT,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == ""


# --------------------------------------------------------------------------
# Fuzzed command lines: any input ends in one documented exit code, and a
# refused one in one error line, never a traceback.  Drawn durations and
# pulse counts stay small, and no revival orders are drawn, since a valid
# but large request is slow rather than wrong.


def _fuzz_cli(argv: list[str], workdir: Path) -> int:
    """Run the CLI in ``workdir``; check the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli_main(argv)
            except SystemExit as exc:     # argparse: usage, then one line
                rc = exc.code
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert rc in (0, 2, 3, 4), (argv, rc, text)
    assert "Traceback" not in text
    # a warning reaches stderr as more lines, and from numpy it means that
    # some arithmetic overflowed or divided by zero
    assert not [w for w in caught if w.category is RuntimeWarning], \
        [str(w.message) for w in caught]
    if rc == 2:
        lines = text.splitlines()
        assert ": error: " in lines[-1]
        assert not any(": error: " in line for line in lines[:-1])
    elif rc in (3, 4):
        assert text.startswith(("error: ", "numeric error: ")), text
        assert text.count("\n") == 1, text
    return rc


# tmp_path is shared by the examples of a test; each example works in a
# fresh directory under it
_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_SPECIAL = ["nan", "inf", "-inf", "-1", "0", "1e400", "-0", "1e-320", "x", ""]


def _number(lo: float, hi: float):
    """A decimal token: a float in [lo, hi] or one of the special values."""
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(_SPECIAL))


_GRID_TOKEN = st.one_of(
    st.text(alphabet="0123456789.:-+eEnaifgeomlx ", max_size=24),
    st.tuples(_number(-1e-3, 1e-3), _number(-1e-3, 1e-3),
              st.sampled_from(["-1", "0", "1", "3", "10001", "1.5", "z"]),
              st.sampled_from([None, "lin", "geom", "log"])).map(
        lambda p: ":".join(x for x in p if x is not None)))


@_FUZZ
@given(token=_GRID_TOKEN)
def test_fuzz_times_grid(tmp_path, token):
    # synth parses the grid, then rel_tol 2 is rejected before any
    # quadrature: a large grid that parses costs nothing
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    _fuzz_cli(["synth", "--spectrum", "zero", "--family", "cpmg",
               "--n-list", "2", "--times", token, "--rel-tol", "2"],
              tmp_path)


@_FUZZ
@given(lo=_number(1e-6, 1e-3), hi=_number(1e-6, 1e-3),
       count=st.integers(-2, 4))
def test_fuzz_small_times_grid_runs(tmp_path, lo, hi, count):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    _fuzz_cli(["synth", "--spectrum", "zero", "--family", "cpmg",
               "--n-list", "2", "--times", f"{lo}:{hi}:{count}"], tmp_path)


@_FUZZ
@given(lo=_number(-1e5, 1e6), hi=_number(-1e5, 1e6), count=st.integers(-2, 4))
def test_fuzz_carrier_grid(tmp_path, lo, hi, count):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    _fuzz_cli(["synth", "--spectrum", "zero", "--family", "dysco",
               "--duration", "2e-4", "--f-grid", f"{lo}:{hi}:{count}"],
              tmp_path)


_CELL = st.one_of(st.sampled_from(_SPECIAL + ["1e-5", "2e-5", "0.5", "1.5"]),
                  st.floats(-1.0, 2.0).map(repr),
                  st.text(alphabet="0123456789.e-,\"", max_size=6))
_HEADER = st.sampled_from([
    "time_s,coherence,uncertainty", "time_s,coherence", "frequency_hz,coherence",
    "frequency_hz,coherence,uncertainty", "omega_rad_s,s_rad_s",
    "omega_rad_s,s_rad_s,uncertainty_rad_s,flag", "a,b", ""])
_TABLE = st.one_of(
    st.tuples(_HEADER, st.lists(st.lists(_CELL, max_size=5), max_size=8)).map(
        lambda t: "\n".join([t[0], *(",".join(r) for r in t[1])]).encode()),
    st.binary(max_size=64))


@_FUZZ
@given(table=_TABLE, pulsed=st.booleans())
def test_fuzz_ingest_curve(tmp_path, table, pulsed):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    (tmp_path / "raw.csv").write_bytes(table)
    if pulsed:
        argv = ["reconstruct", "--mode", "sd", "--family", "cpmg", "--n", "2"]
    else:
        argv = ["reconstruct", "--mode", "direct", "--family", "dysco",
                "--duration", "2e-4", "--f0", "8e4"]
    _fuzz_cli([*argv, "--curves", "raw.csv", "--outdir", "out"], tmp_path)


@_FUZZ
@given(table=_TABLE)
def test_fuzz_read_spectrum_csv(tmp_path, table):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    (tmp_path / "s.csv").write_bytes(table)
    _fuzz_cli(["fit", "--mode", "peak", "--curves", "s.csv",
               "--outdir", "out"], tmp_path)


_SEQUENCE = st.fixed_dictionaries({}, optional={
    "family": st.sampled_from(["cpmg", "hahn", "dysco", "gdysco", "x", 3]),
    "duration": st.one_of(st.floats(), st.sampled_from([1e-4, 2e-4, "1e-4"])),
    "n_pulses": st.one_of(st.integers(-2, 16), st.floats(),
                          st.sampled_from(["2", None, "BIG"])),
    "tau_free": st.one_of(st.none(), st.floats(), st.just(2.5e-5)),
    "mod_frequency": st.one_of(st.none(), st.floats(), st.just(8e4)),
    "envelope_sigma": st.one_of(st.none(), st.floats()),
    "quant_steps": st.one_of(st.integers(-1, 4), st.floats()),
    "amplitude": st.one_of(st.floats(), st.just(0.5)),
    "phase": st.just(0.0),
})


@_FUZZ
@given(sequence=_SEQUENCE)
def test_fuzz_sequence_from_sidecar(tmp_path, small_curve, sequence):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    path = write_curve(small_curve, tmp_path / "c.csv")
    meta_file = tmp_path / "c.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["sequence"] = sequence
    # JSON reads 1e400 as inf; json.dumps writes inf as the non-standard
    # Infinity, which Python's reader also accepts
    meta_file.write_text(json.dumps(meta).replace('"BIG"', "1e400"))
    _fuzz_cli(["reconstruct", "--mode", "sd", "--curves", "c.csv",
               "--outdir", "out"], tmp_path)


@_FUZZ
@given(epsilon=_number(-1.0, 1.0), rel_tol=_number(-1.0, 2.0),
       seed=st.one_of(st.integers(-3, 2**70).map(str), _number(-1.0, 1e3)))
def test_fuzz_synth_numbers(tmp_path, epsilon, rel_tol, seed):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    _fuzz_cli(["synth", "--spectrum", "zero", "--family", "cpmg",
               "--n-list", "2", "--times", "1e-5:1e-4:3",
               "--epsilon", epsilon, "--rel-tol", rel_tol, "--seed", seed,
               "--outdir", "out"], tmp_path)


@_FUZZ
@given(bins=st.one_of(st.integers(-5, 10**12).map(str), _number(-1.0, 50.0)))
def test_fuzz_reconstruct_bins(tmp_path, small_curve, bins):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    write_curve(small_curve, tmp_path / "c.csv")
    _fuzz_cli(["reconstruct", "--mode", "sd", "--curves", "c.csv",
               "--bins", bins, "--outdir", "out"], tmp_path)


@_FUZZ
@given(rate=st.sampled_from(["inf", "-inf", "nan", "-1", "0", "1e3", "x",
                             "1e14", "1e300"]),
       realizations=st.integers(-5, 200), modes=st.integers(-5, 16),
       rel_tol=_number(-1.0, 2.0))
def test_fuzz_oracle_numbers(tmp_path, rate, realizations, modes, rel_tol):
    tmp_path = Path(tempfile.mkdtemp(dir=tmp_path))
    _fuzz_cli(["oracle", "--spectrum", "zero", "--family", "hahn",
               "--tau", "1e-5", "--sample-rate", rate,
               "--n-realizations", str(realizations), "--modes", str(modes),
               "--rel-tol", rel_tol, "--outdir", "out"], tmp_path)
