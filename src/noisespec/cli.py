"""Command-line entry points.

Every subcommand writes plot-ready CSV/JSON artifacts plus a manifest that
pins the config digest, seed, and library versions, so reruns with the same
arguments are byte-identical.  Frequencies are accepted in Hz on the command
line and converted to rad/s internally.

Exit codes: 0 all artifacts written, 2 bad usage, 3 input validation
failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NumericError, ValidationError
from .filters import peak_stats
from .forward import AbscissaKind, Sampling, add_measurement_noise, chi_detailed, \
    filter_for, synth_cpmg_family, synth_dysco_sweep
from .noise import NoiseSpectrum, default_experiment_spectrum, tabulated
from .oracle import McConfig, mc_coherence
from .reconstruct import Method, ReconstructedSpectrum, cpmg_sd, direct_extract
from .sequences import Family, SequenceSpec, bandwidth_report, build_trace
from .study import peak_study, sd_study
from . import fitting

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------

def _seed(token: str) -> int:
    try:
        seed = int(token)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {token!r}")
    return seed


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None,
                        help="output directory (default: $NOISESPEC_OUTDIR or .)")
    common.add_argument("--seed", type=_seed, default=0,
                        help="non-negative integer")
    common.add_argument("--rel-tol", type=float, default=1e-4,
                        help="quadrature relative tolerance")
    common.add_argument("--config", default=None,
                        help="JSON file with default values for any option")
    common.add_argument("--out", default=None)
    return common


def _add_sequence_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", required=required,
                   choices=[f.value for f in Family])
    p.add_argument("--n", type=int, default=None, help="pulse count")
    p.add_argument("--duration", type=float, default=None,
                   help="total evolution time [s]")
    p.add_argument("--tau", type=float, default=None,
                   help="free interval between pulses [s]")
    p.add_argument("--f0", type=float, default=None,
                   help="modulation frequency [Hz]")
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian envelope width [s]")
    p.add_argument("--quant-steps", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1.0)


def _sequence_from_args(args) -> SequenceSpec:
    family = Family(args.family)
    if family is Family.CPMG:
        if args.n is None:
            raise ValidationError("cpmg needs --n")
        return SequenceSpec.cpmg(args.n, tau_free=args.tau,
                                 duration=args.duration)
    if family is Family.HAHN:
        if args.tau is not None:
            return SequenceSpec.hahn(args.tau)
        if args.duration is not None:
            return SequenceSpec.hahn(args.duration / 2.0)
        raise ValidationError("hahn needs --tau or --duration")
    if args.duration is None or args.f0 is None:
        raise ValidationError(f"{family.value} needs --duration and --f0")
    if family is Family.DYSCO:
        return SequenceSpec.dysco(args.duration, args.f0,
                                  quant_steps=args.quant_steps,
                                  amplitude=args.amplitude)
    return SequenceSpec.gdysco(args.duration, args.f0,
                               envelope_sigma=args.sigma,
                               quant_steps=args.quant_steps,
                               amplitude=args.amplitude)


def _load_spectrum(token: str) -> NoiseSpectrum:
    if token == "default":
        return default_experiment_spectrum()
    if token == "zero":
        return tabulated(np.array([0.0, 1e6]), np.array([0.0, 0.0]))
    path = Path(token)
    if not path.exists():
        raise ValidationError(f"spectrum file does not exist: {path}")
    return fileio.spectrum_model_from_dict(fileio.read_json(path))


def _parse_grid(token: str, geometric: bool) -> np.ndarray:
    usage = f"grid must be lo:hi:count[:lin|:geom], got {token!r}"
    parts = token.split(":")
    if len(parts) == 4:
        kind, parts = parts[3], parts[:3]
        if kind not in ("geom", "lin"):
            raise ValidationError(usage)
        geometric = kind == "geom"
    if len(parts) != 3:
        raise ValidationError(usage)
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(usage) from None
    if count < 1 or not 0.0 < lo < hi < math.inf:
        raise ValidationError("grid needs 0 < lo < hi < inf and count >= 1")
    return np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count)


def _parse_ints(token: str, flag: str) -> list[int]:
    usage = f"{flag} must be comma-separated integers, got {token!r}"
    try:
        return [int(tok) for tok in token.split(",")]
    except ValueError:
        raise ValidationError(usage) from None


def _outdir(args) -> Path:
    root = args.outdir or os.environ.get("NOISESPEC_OUTDIR") or "."
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(path: Path) -> Path:
    print(path)
    return path


def _config_of(args) -> dict:
    skip = {"func", "config", "outdir"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _finish(args, outputs: list[Path], inputs: list[str] | None = None,
            prefix: str = "run") -> int:
    out = _outdir(args)
    manifest = fileio.write_manifest(
        out / f"{prefix}_manifest.json", _config_of(args),
        seed=getattr(args, "seed", None),
        inputs=inputs or [],
        outputs=[p.name for p in outputs])   # keep runs relocatable
    _emit(manifest)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ff(args) -> int:
    spec = _sequence_from_args(args)
    ff = filter_for(spec)
    stats = peak_stats(ff)
    out = _outdir(args)
    prefix = args.out or f"ff_{spec.family.value}"
    csv_path = _emit(fileio.write_ff_csv(ff, out / f"{prefix}.csv"))
    payload = asdict(stats)
    payload["units"] = {"f0": "Hz", "fwhm": "Hz", "harmonic_frequencies": "Hz"}
    json_path = out / f"{prefix}_stats.json"
    fileio.write_json(json_path, payload)
    _emit(json_path)
    return _finish(args, [csv_path, json_path], prefix=prefix)


def _cmd_bandwidth(args) -> int:
    spec = _sequence_from_args(args)
    report = bandwidth_report(spec, f_rabi=args.f_rabi, t2_echo=args.t2_echo,
                              margin=args.margin)
    out = _outdir(args)
    prefix = args.out or f"bandwidth_{spec.family.value}"
    path = out / f"{prefix}.json"
    payload = asdict(report)
    payload["units"] = {"f_min": "Hz", "f_max": "Hz", "fwhm": "Hz"}
    fileio.write_json(path, payload)
    _emit(path)
    return _finish(args, [path], prefix=prefix)


def _cmd_synth(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    out = _outdir(args)
    prefix = args.out or "synth"
    family = Family(args.family)
    outputs: list[Path] = []
    if family in (Family.CPMG, Family.HAHN):
        n_list = _parse_ints(args.n_list, "--n-list") \
            if args.n_list else [args.n or 1]
        if args.revivals:
            orders = _parse_ints(args.orders, "--orders") if args.orders else None
            curves = synth_cpmg_family(spectrum, n_list,
                                       sampling=Sampling.REVIVALS_ONLY,
                                       revival_orders=orders,
                                       rel_tol=args.rel_tol)
        else:
            if not args.times:
                raise ValidationError("synth needs --times or --revivals")
            grid = _parse_grid(args.times, geometric=True)
            curves = synth_cpmg_family(spectrum, n_list,
                                       time_grid_per_n={n: grid for n in n_list},
                                       rel_tol=args.rel_tol)
        names = [f"{prefix}_{family.value}_n{n}.csv" for n in n_list]
    else:
        if not args.f_grid:
            raise ValidationError("continuous synth needs --f-grid (Hz)")
        f_grid = _parse_grid(args.f_grid, geometric=False)
        if args.f0 is None:
            args.f0 = float(f_grid[0])   # template carrier; swept anyway
        spec = _sequence_from_args(args)
        curves = [synth_dysco_sweep(spectrum, spec, f_grid,
                                    rel_tol=args.rel_tol)]
        names = [f"{prefix}_{family.value}.csv"]
    for i, (curve, name) in enumerate(zip(curves, names)):
        if args.epsilon > 0.0:
            curve = add_measurement_noise(curve, args.epsilon,
                                          args.seed + i)
        outputs.append(_emit(fileio.write_curve(curve, out / name)))
    return _finish(args, outputs, prefix=f"{prefix}_{family.value}")


def _oracle_sample_rate(spec: SequenceSpec, extent: float) -> float:
    if spec.family.pulsed:
        floor = 20.0 / (2.0 * spec.tau_free)
    else:
        floor = 20.0 * spec.mod_frequency
        if spec.quant_steps:
            floor = max(floor, 4.0 * spec.quant_steps * spec.mod_frequency)
    # McConfig's default band, 2 pi rate / 10, then covers the extent
    mc_floor = 10.0 * extent / _TWO_PI
    return 1.05 * max(floor, mc_floor)


def _cmd_oracle(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    spec = _sequence_from_args(args)
    rate = args.sample_rate or _oracle_sample_rate(spec, spectrum.extent())
    trace = build_trace(spec, rate)
    cfg = McConfig(n_realizations=args.n_realizations, seed=args.seed,
                   spectral_components=args.modes)
    result = mc_coherence(spectrum, trace, cfg)
    ff = filter_for(spec)
    chi_quad, info = chi_detailed(spectrum, ff, rel_tol=args.rel_tol)
    scale = max(abs(chi_quad), 1e-300)
    rel_diff = abs(result.chi_estimate - chi_quad) / scale
    agrees = abs(result.chi_estimate - chi_quad) <= \
        0.02 * scale + 3.0 * result.chi_stderr
    out = _outdir(args)
    prefix = args.out or "oracle"
    path = out / f"{prefix}.json"
    fileio.write_json(path, {
        "mc": result.to_dict(),
        "quadrature": {"chi": chi_quad, "coherence": math.exp(-chi_quad),
                       **info},
        "rel_difference": rel_diff,
        "agrees_2pct_3se": bool(agrees),
        "sample_rate": rate,
    })
    _emit(path)
    return _finish(args, [path], prefix=prefix)


def _read_cli_curves(args, paths: list[str]):
    for p in paths:
        if not Path(p).exists():
            raise ValidationError(f"curve file does not exist: {p}")
    if args.schema:
        seq = _sequence_from_args(args) if args.family else None
        return [fileio.ingest_curve(p, args.schema, sequence=seq)
                for p in paths]
    return [fileio.read_curve(p) for p in paths]


def _cmd_reconstruct(args) -> int:
    curves = _read_cli_curves(args, args.curves)
    if args.mode == "sd":
        recon = cpmg_sd(curves, bin_count=args.bins)
    else:
        if len(curves) != 1:
            raise ValidationError("direct mode takes exactly one sweep curve")
        recon = direct_extract(curves[0])
    out = _outdir(args)
    prefix = args.out or f"reconstruct_{args.mode}"
    path = _emit(fileio.write_reconstruction(recon, out / f"{prefix}.csv"))
    return _finish(args, [path], inputs=args.curves, prefix=prefix)


def _parse_initial(token: str) -> dict[str, float]:
    if token == "default":
        return {"gauss_delta": 500e3, "gauss_sigma": 25e3,
                "gauss_center": 392e3, "lorentz_delta": 40e3,
                "lorentz_sigma": 50e3}
    path = Path(token)
    if path.exists():
        data = fileio.read_json(path)
        if not isinstance(data, dict):
            raise ValidationError("--initial JSON must be an object")
        pairs = list(data.items())
    else:
        pairs = []
        for pair in token.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValidationError(f"bad --initial entry {pair!r}")
            pairs.append((key.strip(), value))
    try:
        return {k: float(v) for k, v in pairs}
    except (TypeError, ValueError):
        raise ValidationError("--initial values must be numbers") from None


def _cmd_fit(args) -> int:
    out = _outdir(args)
    prefix = args.out or f"fit_{args.mode}"
    if args.mode == "noise":
        curves = _read_cli_curves(args, args.curves)
        if len(curves) != 1:
            raise ValidationError("noise fit takes exactly one curve")
        initial = _parse_initial(args.initial or "default")
        result = fitting.fit_noise_params(curves[0], initial=initial,
                                          max_iterations=args.max_iterations)
    elif args.mode in ("envelope", "comb"):
        curves = _read_cli_curves(args, args.curves)
        if len(curves) != 1:
            raise ValidationError(f"{args.mode} fit takes exactly one curve")
        curve = curves[0]
        if curve.abscissa_kind is not AbscissaKind.TIME:
            raise ValidationError(f"{args.mode} fit needs a TIME curve")
        if args.mode == "envelope":
            result = fitting.fit_envelope(curve.xs, curve.coherences,
                                          uncertainties=curve.uncertainties)
        else:
            result = fitting.fit_revival_comb(curve.xs, curve.coherences)
    else:
        if len(args.curves) != 1:
            raise ValidationError("peak fit takes exactly one spectrum CSV")
        if not Path(args.curves[0]).exists():
            raise ValidationError(f"no such file: {args.curves[0]}")
        w, v, u, flags = fileio.read_spectrum_csv(args.curves[0])
        spectrum = ReconstructedSpectrum(
            omegas=w, values=v, uncertainties=u, flags=flags,
            method=Method.CPMG_SD)
        result = fitting.fit_gaussian_peak(spectrum)
    path = out / f"{prefix}.json"
    fileio.write_json(path, {
        "parameters": result.parameters,
        "units": result.units,
        "residual_norm": result.residual_norm,
        "covariance_diag": result.covariance_diag,
        "converged": result.converged,
        "iterations": result.iterations,
        "metadata": result.metadata,
    })
    _emit(path)
    return _finish(args, [path], inputs=list(args.curves), prefix=prefix)


def _cmd_roundtrip(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    out = _outdir(args)
    prefix = args.out or "roundtrip"
    outputs: list[Path] = []
    if args.mode == "peak":
        result = peak_study(spectrum, epsilon=args.epsilon,
                            seeds=[args.seed], duration=args.duration,
                            rel_tol=args.rel_tol)
        for name, recon in sorted(result.reconstructions.items()):
            outputs.append(_emit(fileio.write_reconstruction(
                recon, out / f"{prefix}_{name}.csv")))
        payload = result.to_dict()
        widths = {m.method: m.width_hz for m in result.methods()}
        payload["width_ordering"] = sorted(widths, key=widths.get)
        metrics = out / f"{prefix}_metrics.json"
        fileio.write_json(metrics, payload)
        outputs.append(_emit(metrics))
    else:
        result = sd_study(spectrum, epsilon=args.epsilon, seed=args.seed,
                          bin_count=args.bins, rel_tol=args.rel_tol)
        outputs.append(_emit(fileio.write_reconstruction(
            result.reconstruction, out / f"{prefix}_sd.csv")))
        metrics = out / f"{prefix}_metrics.json"
        fileio.write_json(metrics, {
            "median_rel_error_central": result.median_rel_error_central,
            "central_band_rad_s": list(result.central_band),
            "n_compared": result.n_compared,
        })
        outputs.append(_emit(metrics))
    return _finish(args, outputs, prefix=prefix)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser(defaults: dict | None = None,
                 command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (from ``--config``) preload ``command``,
    the one being run, and no other: an option such as ``--mode`` has
    different choices in different commands, so a config value that is
    valid for one can be invalid for another."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="noisespec",
        description="Filter-function noise spectroscopy workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ff = sub.add_parser("ff", parents=[common],
                          help="filter function table and peak statistics")
    _add_sequence_args(p_ff)
    p_ff.set_defaults(func=_cmd_ff)

    p_bw = sub.add_parser("bandwidth", parents=[common],
                          help="usable sensing band for a sequence")
    _add_sequence_args(p_bw)
    p_bw.add_argument("--f-rabi", type=float, required=True,
                      help="drive Rabi frequency [Hz]")
    p_bw.add_argument("--t2-echo", type=float, default=None)
    p_bw.add_argument("--margin", type=float, default=10.0)
    p_bw.set_defaults(func=_cmd_bandwidth)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="synthesize coherence curves")
    _add_sequence_args(p_synth)
    p_synth.add_argument("--spectrum", default="default",
                         help="default | zero | model JSON path")
    p_synth.add_argument("--n-list", default=None,
                         help="pulse counts, as comma-separated integers")
    p_synth.add_argument("--times", default=None,
                         help="evolution time grid lo:hi:count[:lin|:geom] [s]")
    p_synth.add_argument("--f-grid", default=None,
                         help="modulation frequency grid lo:hi:count [Hz]")
    p_synth.add_argument("--revivals", action="store_true",
                         help="sample only at bath-period revivals")
    p_synth.add_argument("--orders", default=None,
                         help="revival orders, as comma-separated integers")
    p_synth.add_argument("--epsilon", type=float, default=0.0,
                         help="readout noise level")
    p_synth.set_defaults(func=_cmd_synth)

    p_or = sub.add_parser("oracle", parents=[common],
                          help="Monte Carlo coherence vs quadrature")
    _add_sequence_args(p_or)
    p_or.add_argument("--spectrum", default="default")
    p_or.add_argument("--n-realizations", type=int, default=10_000)
    p_or.add_argument("--modes", type=int, default=1024)
    p_or.add_argument("--sample-rate", type=float, default=None)
    p_or.set_defaults(func=_cmd_oracle)

    p_rec = sub.add_parser("reconstruct", parents=[common],
                           help="invert coherence curves to a spectrum")
    p_rec.add_argument("--mode", choices=["sd", "direct"], required=True)
    p_rec.add_argument("--curves", nargs="+", required=True)
    p_rec.add_argument("--bins", type=int, default=40)
    p_rec.add_argument("--schema", default=None,
                       choices=["time_csv", "freq_csv"],
                       help="ingest raw CSVs instead of sidecar curves")
    _add_sequence_args(p_rec, required=False)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit noise model, envelope, comb, or peak")
    p_fit.add_argument("--mode", choices=["noise", "envelope", "comb", "peak"],
                       required=True)
    p_fit.add_argument("--curves", nargs="+", required=True)
    p_fit.add_argument("--initial", default=None,
                       help="default | JSON path | k=v,k=v")
    p_fit.add_argument("--max-iterations", type=int, default=2000)
    p_fit.add_argument("--schema", default=None,
                       choices=["time_csv", "freq_csv"])
    _add_sequence_args(p_fit, required=False)
    p_fit.set_defaults(func=_cmd_fit)

    p_rt = sub.add_parser("roundtrip", parents=[common],
                          help="synthesize, reconstruct, and score")
    p_rt.add_argument("--mode", choices=["peak", "sd"], default="peak")
    p_rt.add_argument("--spectrum", default="default")
    p_rt.add_argument("--epsilon", type=float, default=0.03)
    p_rt.add_argument("--duration", type=float, default=200e-6)
    p_rt.add_argument("--bins", type=int, default=None)
    p_rt.set_defaults(func=_cmd_roundtrip)

    if defaults and command in sub.choices:
        chosen = sub.choices[command]
        chosen.set_defaults(**_typed_defaults(chosen, defaults))
    return parser


def _typed_defaults(parser: argparse.ArgumentParser, defaults: dict) -> dict:
    """``defaults`` converted by each option's own type and checked against
    its choices, as a value given on the command line would be (argparse
    converts only string defaults, and checks none).  A single-value option
    without a type (a path, a grid, a list of integers) takes only a
    string."""
    typed = dict(defaults)
    for action in parser._actions:
        key = action.dest
        value = defaults.get(key)
        if value is None:
            continue
        bad = f"config key {key!r}: invalid value {value!r}"
        if action.nargs == 0:           # a flag: only true or false
            if not isinstance(value, bool):
                raise ValidationError(bad)
            continue
        if action.type is not None:
            # a number is read as its decimal form, as if typed; a bool,
            # list or object is not a command-line token at all
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValidationError(bad)
            try:
                value = action.type(str(value))
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                raise ValidationError(bad) from None
        elif action.nargs is None and not isinstance(value, str):
            raise ValidationError(f"{bad}; expected a string"
                                  + (f": {action.help}" if action.help else ""))
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise ValidationError(f"{bad}; choose from {choices}")
        typed[key] = value
    return typed


def _preload_config(argv: list[str]) -> dict:
    # both "--config path" and "--config=path"; the last one wins, as in argparse
    token = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            token = argv[i + 1]
        elif arg.startswith("--config="):
            token = arg.partition("=")[2]
    if token is None:
        return {}
    path = Path(token)
    if not path.exists():
        raise ValidationError(f"config file does not exist: {path}")
    data = fileio.read_json(path)
    if not isinstance(data, dict):
        raise ValidationError("config JSON must be an object")
    return {k.replace("-", "_"): v for k, v in data.items()}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # the top-level parser takes no option but --help, so the first
        # token that is not an option names the command
        command = next((arg for arg in argv if not arg.startswith("-")), None)
        parser = build_parser(_preload_config(argv), command)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
