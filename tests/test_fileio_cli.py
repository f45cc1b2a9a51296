"""File formats, sidecars, manifests, and the command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    assert loaded.swept == small_curve.swept
    assert loaded.abscissa_kind == small_curve.abscissa_kind


def test_curve_write_is_reproducible(tmp_path, small_curve):
    a = write_curve(small_curve, tmp_path / "a.csv")
    b = write_curve(small_curve, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    meta_a = (tmp_path / "a.meta.json").read_text()
    meta_b = (tmp_path / "b.meta.json").read_text()
    assert meta_a == meta_b


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
    curve = ingest_curve(path, "time_csv", sequence=seq)
    assert curve.xs.size == 3
    assert curve.coherences[1] == 0.80
    assert curve.provenance.kind == "ingested"
    assert curve.sequence == seq


def test_ingest_flags_suspect_rows(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n"
                    "1e-5,0.95,0.05\n2e-5,1.20,0.05\n3e-5,0.60,0.05\n")
    curve = ingest_curve(path, "time_csv",
                         sequence=SequenceSpec.cpmg(2, duration=3e-5))
    assert curve.xs.size == 3
    # indices into the ingested arrays, not file line numbers
    assert curve.metadata["suspect_rows"] == [1]


def test_ingest_drops_non_finite_rows_with_warning(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n"
                    "1e-5,0.95,0.01\n2e-5,nan,0.01\n3e-5,0.60,0.01\n")
    with pytest.warns(UserWarning, match=r"lines \[3\]"):
        curve = ingest_curve(path, "time_csv",
                             sequence=SequenceSpec.cpmg(2, duration=3e-5))
    assert curve.xs.size == 2
    assert np.array_equal(curve.coherences, [0.95, 0.60])


def test_ingest_rejects_malformed_tables(tmp_path):
    missing = _raw_csv(tmp_path, "time_s,value\n1e-5,0.9\n", "m.csv")
    with pytest.raises(ValidationError):
        ingest_curve(missing, "time_csv",
                     sequence=SequenceSpec.cpmg(2, duration=3e-5))
    empty = _raw_csv(tmp_path, "time_s,coherence,uncertainty\n", "e.csv")
    with pytest.raises(ValidationError):
        ingest_curve(empty, "time_csv",
                     sequence=SequenceSpec.cpmg(2, duration=3e-5))
    backwards = _raw_csv(tmp_path,
                         "time_s,coherence,uncertainty\n"
                         "3e-5,0.6,0.01\n1e-5,0.9,0.01\n", "b.csv")
    with pytest.raises(ValidationError):
        ingest_curve(backwards, "time_csv",
                     sequence=SequenceSpec.cpmg(2, duration=3e-5))


def test_ingest_prefers_sidecar_sequence(tmp_path, small_curve):
    path = write_curve(small_curve, tmp_path / "c.csv")
    curve = ingest_curve(path, "time_csv")
    assert curve.sequence == small_curve.sequence


def test_ingest_needs_sequence_without_sidecar(tmp_path):
    path = _raw_csv(tmp_path,
                    "time_s,coherence,uncertainty\n1e-5,0.9,0.01\n")
    with pytest.raises(ValidationError):
        ingest_curve(path, "time_csv")


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
    from noisespec import AbscissaKind, CoherenceCurve, Provenance
    curve = CoherenceCurve(
        abscissa_kind=AbscissaKind.TIME, xs=times, coherences=cs,
        uncertainties=np.zeros_like(times),
        sequence=SequenceSpec.hahn(tau_free=float(times[-1] / 2)),
        swept="duration", provenance=Provenance("synthetic"))
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


@pytest.mark.parametrize("command", sorted(_SEEDED))
@pytest.mark.parametrize("seed", [-1, 2.5, "-3"])
def test_cli_config_seed_must_be_a_non_negative_integer(tmp_path, capsys,
                                                        command, seed):
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": seed}))
    rc = cli_main([*_SEEDED[command], "--config", str(tmp_path / "cfg.json"),
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert "config key 'seed'" in _one_line_error(capsys)


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


def test_cli_config_file_sets_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outdir": str(tmp_path / "from_cfg")}))
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2",
                   "--duration", "1e-4", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_cfg" / "ff_cpmg.csv").exists()


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
                   "--schema", "freq_csv", "--family", "dysco",
                   "--duration", "2e-4", "--f0", "1e5",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    w, v, u, flags = read_spectrum_csv(tmp_path / "reconstruct_direct.csv")
    assert w.size == 20
    assert np.any(np.isfinite(v))


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


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_cli_malformed_config_json_exits_3(tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{outdir: nope}")
    flag = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
                   *flag])
    assert rc == 3
    assert "malformed JSON" in _one_line_error(capsys)


def test_cli_config_with_equals_sign_sets_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outdir": str(tmp_path / "from_cfg")}))
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2",
                   "--duration", "1e-4", f"--config={cfg}"])
    assert rc == 0
    assert (tmp_path / "from_cfg" / "ff_cpmg.csv").exists()


@pytest.mark.parametrize("command, config", [
    ("synth", {"epsilon": [1]}),
    ("synth", {"epsilon": "abc"}),
    ("synth", {"seed": {}}),
    ("reconstruct", {"bins": True}),
    ("reconstruct", {"family": "bogus"}),
    ("synth", {"revivals": "no"}),
    ("synth", {"times": 5}),
    ("synth", {"f_grid": [1e5, 2e5, 3]}),
    ("synth", {"outdir": 5}),
    ("synth", {"out": 5}),
    ("synth", {"spectrum": 5}),
    ("synth", {"orders": [1, 2]}),
    ("synth", {"n_list": [2]}),
    ("reconstruct", {"schema": 5}),
    ("fit", {"initial": {"gauss_delta": 5e5}}),
], ids=["list-for-float", "abc-for-epsilon", "object-for-seed", "true-for-bins",
        "outside-choices", "string-for-flag", "number-for-times",
        "list-for-f-grid", "number-for-outdir", "number-for-out",
        "number-for-spectrum", "list-for-orders", "list-for-n-list",
        "number-for-schema", "object-for-initial"])
def test_cli_wrong_typed_config_default_exits_3(tmp_path, monkeypatch, capsys,
                                                command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    flags = {"synth": ["--spectrum", "zero", "--family", "cpmg", "--n-list",
                       "2", "--times", "1e-5:1e-4:3"],
             "reconstruct": ["--mode", "sd", "--curves", "c.csv"],
             "fit": ["--mode", "noise", "--curves", "c.csv"]}[command]
    rc = cli_main([command, *flags, "--config", "cfg.json"])
    assert rc == 3
    (key,) = config
    assert f"config key {key!r}" in _one_line_error(capsys)


@pytest.mark.parametrize("epsilon", [0.02, "0.02"], ids=["number", "string"])
def test_cli_config_default_is_converted_by_the_option_type(tmp_path, epsilon):
    (tmp_path / "cfg.json").write_text(json.dumps({"epsilon": epsilon}))
    rc = cli_main(["synth", "--spectrum", "zero", "--family", "cpmg",
                   "--n-list", "2", "--times", "1e-5:1e-4:3",
                   "--config", str(tmp_path / "cfg.json"),
                   "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "synth_cpmg_manifest.json").read_text())
    assert manifest["config"]["epsilon"] == 0.02


def test_cli_config_mode_reaches_only_the_command_run(tmp_path):
    # --mode has different choices in fit, reconstruct and roundtrip; a
    # config value must be checked against the command being run only
    (tmp_path / "cfg.json").write_text(json.dumps({"mode": "sd"}))
    cfg = ["--config", str(tmp_path / "cfg.json")]
    rc = cli_main(["roundtrip", "--spectrum", "default", "--rel-tol", "1e-3",
                   "--epsilon", "0.02", "--seed", "5", "--bins", "24",
                   "--outdir", str(tmp_path / "rt"), *cfg])
    assert rc == 0
    assert (tmp_path / "rt" / "roundtrip_sd.csv").exists()
    manifest = json.loads((tmp_path / "rt" / "roundtrip_manifest.json")
                          .read_text())
    assert manifest["config"]["mode"] == "sd"
    rc = cli_main(["ff", "--family", "cpmg", "--n", "2", "--duration", "1e-4",
                   "--outdir", str(tmp_path / "ff"), *cfg])
    assert rc == 0
    assert (tmp_path / "ff" / "ff_cpmg.csv").exists()


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


@pytest.mark.parametrize("flags", [
    ["--n-list", "2,x", "--times", "1e-5:1e-4:3"],
    ["--revivals", "--orders", "1,y"],
    ["--config", "n_list.json", "--times", "1e-5:1e-4:3"],
], ids=["n-list", "orders", "config"])
def test_cli_malformed_integer_list_exits_3(tmp_path, monkeypatch, capsys,
                                            flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n_list.json").write_text(json.dumps({"n_list": 5}))
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
