"""Command-line entry points.

Every subcommand checks and computes everything first and returns its
outputs; one run step then creates the output directory and writes them,
plot-ready CSV/JSON artifacts, plus a manifest that pins the config digest,
seed, and library versions, so a refused run creates nothing and reruns with
the same arguments are byte-identical.  Frequencies are accepted in Hz on
the command line and converted to rad/s internally.

Exit codes: 0 all artifacts written, 2 bad usage, 3 input validation
failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NumericError, ValidationError
from .filters import peak_stats
from .forward import AbscissaKind, _curve_seed, add_measurement_noise, \
    chi_detailed, filter_for, synth_curve
from .noise import ComponentKind, NoiseSpectrum, default_experiment_spectrum, \
    tabulated
from .oracle import _OVERSAMPLE, McConfig, mc_coherence
from .reconstruct import Method, ReconstructedSpectrum, cpmg_sd, direct_extract
from .sequences import Family, SequenceSpec, _min_sample_rate, \
    bandwidth_report, build_trace
from .study import peak_study, sd_study
from . import fitting

_TWO_PI = 2.0 * math.pi
# size caps, so that an oversized request exits 3 instead of exhausting
# memory: points of a --times / --f-grid grid, and a pulse count, whose
# default filter grid holds about 100 nodes per pulse
_MAX_GRID_POINTS = 10_000
_MAX_PULSES = 1_000
_BINS_HELP = "log-spaced spectrum bins, at most 10000 (0: raw points)"


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
    common.add_argument("--out", default=None)
    return common


_SEQUENCE_FLAGS = "--n --duration --tau --f0 --sigma --quant-steps --amplitude"


def _add_sequence_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", required=required,
                   choices=[f.value for f in Family])
    p.add_argument("--n", type=int, default=None,
                   help=f"pulse count, at most {_MAX_PULSES}")
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


def _sequence_from_args(args, **fields) -> SequenceSpec:
    # the spec derives what a family leaves out and rejects a flag it does
    # not take; ``fields`` override the flags
    fields = {"duration": args.duration, "n_pulses": args.n,
              "tau_free": args.tau, "mod_frequency": args.f0,
              "envelope_sigma": args.sigma, "quant_steps": args.quant_steps,
              "amplitude": args.amplitude, **fields}
    if fields["n_pulses"] is not None:
        _check_pulses([fields["n_pulses"]])
    return SequenceSpec(Family(args.family), **fields)


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
    if count > _MAX_GRID_POINTS:
        raise ValidationError(
            f"grid count {count} exceeds the cap of {_MAX_GRID_POINTS} points")
    return np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count)


def _revival_grid(spectrum: NoiseSpectrum, n: int, orders) -> np.ndarray:
    """Total times 2 n k (2 pi / omega_line), at which each free interval of
    an n-pulse train holds k periods of the spectrum's (highest) Gaussian
    line, for k in ``orders`` (default 1..10)."""
    centers = [c.omega_center for c in spectrum.components
               if c.kind is ComponentKind.GAUSSIAN_PEAK]
    if not centers:
        raise ValidationError(
            "revival sampling needs a spectrum with a Gaussian line")
    period = _TWO_PI / max(centers)
    try:
        ks = np.asarray(orders or np.arange(1, 11), dtype=float)
    except OverflowError:
        raise ValidationError("revival orders overflow a float") from None
    if np.any(ks < 1):
        raise ValidationError("revival orders must be >= 1")
    return 2.0 * n * ks * period


def _parse_ints(token: str, flag: str) -> list[int]:
    usage = f"{flag} must be comma-separated integers, got {token!r}"
    try:
        return [int(tok) for tok in token.split(",")]
    except ValueError:
        raise ValidationError(usage) from None


def _check_pulses(n_list: list[int]) -> None:
    for n in n_list:
        if n > _MAX_PULSES:
            raise ValidationError(
                f"pulse count {n} exceeds the cap of {_MAX_PULSES} (the "
                "default filter grid holds about 100 nodes per pulse)")


def _run(args) -> int:
    """Run the command, which returns once all its work is done; only then
    create the output directory, write and print each output, and write
    ``<prefix>_manifest.json`` last."""
    if args.out is not None and Path(args.out).name != args.out:
        raise ValidationError(
            "--out must be a file-name prefix without a directory, "
            f"got {args.out!r}")
    prefix, outputs = args.func(args)
    out = Path(args.outdir or os.environ.get("NOISESPEC_OUTDIR") or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create --outdir {out}: {exc.strerror}") from None
    for name, output in outputs:
        if callable(output):
            output(out / name)
        else:
            fileio.write_json(out / name, output)
        print(out / name)
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "outdir")}
    manifest = out / f"{prefix}_manifest.json"
    # output names, not paths, keep runs relocatable
    fileio.write_manifest(manifest, config, seed=getattr(args, "seed", None),
                          inputs=getattr(args, "curves", None),
                          outputs=[name for name, _ in outputs])
    print(manifest)
    return 0


# ---------------------------------------------------------------------------
# subcommands: each returns (manifest prefix, [(file name, payload or writer)])
# ---------------------------------------------------------------------------

def _cmd_ff(args):
    spec = _sequence_from_args(args)
    ff = filter_for(spec)
    stats = asdict(peak_stats(ff))
    stats["units"] = {"f0": "Hz", "fwhm": "Hz", "harmonic_frequencies": "Hz"}
    prefix = args.out or f"ff_{spec.family.value}"
    return prefix, [(f"{prefix}.csv", functools.partial(fileio.write_ff_csv, ff)),
                    (f"{prefix}_stats.json", stats)]


def _cmd_bandwidth(args):
    spec = _sequence_from_args(args)
    report = asdict(bandwidth_report(spec, f_rabi=args.f_rabi,
                                     t2_echo=args.t2_echo, margin=args.margin))
    report["units"] = {"f_min": "Hz", "f_max": "Hz", "fwhm": "Hz"}
    prefix = args.out or f"bandwidth_{spec.family.value}"
    return prefix, [(f"{prefix}.json", report)]


@functools.cache
def _declared_defaults(command: str) -> dict:
    """``command``'s option defaults as declared."""
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.default for a in sub.choices[command]._actions}


def _refuse(args, flags: str, why: str) -> None:
    """Refuse the first of the space-separated ``flags`` that is set: whose
    value is not the declared default."""
    declared = _declared_defaults(args.command)
    for flag in flags.split():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != declared[dest]:
            raise ValidationError(f"{args.command} {flag} {why}")


def _cmd_synth(args):
    spectrum = _load_spectrum(args.spectrum)
    family = Family(args.family)
    prefix = f"{args.out or 'synth'}_{family.value}"
    # (file name, template, abscissa) per curve; the flags set each template
    # but the field that its grid sets
    if family.pulsed:
        _refuse(args, "--f-grid --duration --tau",
                "does not apply to a pulse train, whose curve sweeps its duration")
        if args.n_list:
            _refuse(args, "--n", "conflicts with --n-list")
        n_list = _parse_ints(args.n_list, "--n-list") \
            if args.n_list else [1 if args.n is None else args.n]
        _check_pulses(n_list)
        if len(set(n_list)) != len(n_list):
            raise ValidationError(f"pulse counts must be distinct, got {n_list}")
        if args.revivals:
            _refuse(args, "--times", "conflicts with --revivals")
            orders = _parse_ints(args.orders, "--orders") if args.orders else None
            grids = [_revival_grid(spectrum, n, orders) for n in n_list]
        else:
            _refuse(args, "--orders", "needs --revivals")
            if not args.times:
                raise ValidationError("synth needs --times or --revivals")
            grids = [_parse_grid(args.times, geometric=True)] * len(n_list)
        curves = [(f"{prefix}_n{n}.csv",
                   _sequence_from_args(args, n_pulses=n,
                                       duration=float(xs.max())), xs)
                  for n, xs in zip(n_list, grids)]
    else:
        _refuse(args, "--times --n-list --revivals --orders",
                "applies to pulse trains only")
        if not args.f_grid:
            raise ValidationError("continuous synth needs --f-grid (Hz)")
        xs = _parse_grid(args.f_grid, geometric=False)
        if args.f0 is None:
            # the template's, and so the manifest's; the grid sweeps it
            args.f0 = float(xs[0])
        curves = [(f"{prefix}.csv", _sequence_from_args(args), xs)]
    outputs = []
    for i, (name, template, xs) in enumerate(curves):
        curve = synth_curve(spectrum, template, xs, rel_tol=args.rel_tol)
        if args.epsilon != 0.0:
            curve = add_measurement_noise(curve, args.epsilon,
                                          _curve_seed(args.seed, i))
        outputs.append((name, functools.partial(fileio.write_curve, curve)))
    return prefix, outputs


def _oracle_sample_rate(spec: SequenceSpec, extent: float) -> float:
    # McConfig's default band, 2 pi rate / _OVERSAMPLE, then covers the extent
    mc_floor = _OVERSAMPLE * extent / _TWO_PI
    return 1.05 * max(_min_sample_rate(spec), mc_floor)


def _cmd_oracle(args):
    spectrum = _load_spectrum(args.spectrum)
    spec = _sequence_from_args(args)
    rate = args.sample_rate or _oracle_sample_rate(spec, spectrum.extent())
    trace = build_trace(spec, rate)
    cfg = McConfig(n_realizations=args.n_realizations, seed=args.seed,
                   spectral_components=args.modes)
    # before the run, so that a spec or tolerance it rejects fails fast
    chi_quad, info = chi_detailed(spectrum, filter_for(spec),
                                  rel_tol=args.rel_tol)
    result = mc_coherence(spectrum, trace, cfg)
    scale = max(abs(chi_quad), 1e-300)
    rel_diff = abs(result.chi_estimate - chi_quad) / scale
    agrees = abs(result.chi_estimate - chi_quad) <= \
        0.02 * scale + 3.0 * result.chi_stderr
    prefix = args.out or "oracle"
    return prefix, [(f"{prefix}.json", {
        "mc": result.to_dict(),
        "quadrature": {"chi": chi_quad, "coherence": math.exp(-chi_quad),
                       **info},
        "rel_difference": rel_diff,
        "agrees_2pct_3se": bool(agrees),
        "sample_rate": rate,
    })]


def _read_cli_curves(args, paths: list[str]):
    """The curves of ``paths``: raw tables of the sequence that the flags
    give, with ``--family``, and sidecar curves without it.  As in
    ``synth``, a pulse-train table's longest time is its template's
    duration."""
    pulsed = bool(args.family) and Family(args.family).pulsed
    if not args.family:
        _refuse(args, _SEQUENCE_FLAGS, "needs --family, which reads raw tables")
    elif pulsed:
        _refuse(args, "--duration --tau", "does not apply to a pulse-train "
                "table, whose times set each point's duration")
    # the flags are checked before any file is read; a pulse train's 1 s
    # only picks the columns, until its table's longest time replaces it
    seq = args.family and _sequence_from_args(
        args, duration=1.0 if pulsed else args.duration)
    for p in paths:
        if not Path(p).exists():
            raise ValidationError(f"curve file does not exist: {p}")
    curves = [fileio.ingest_curve(p, seq) if args.family
              else fileio.read_curve(p) for p in paths]
    if pulsed:
        curves = [replace(c, sequence=_sequence_from_args(
            args, duration=float(c.xs[-1]))) for c in curves]
    # a sidecar's pulse count meets the same cap as --n
    _check_pulses([c.sequence.n_pulses for c in curves
                   if c.sequence.family.pulsed])
    return curves


def _cmd_reconstruct(args):
    if args.mode == "direct":
        _refuse(args, "--bins", "does not apply to direct mode")
    curves = _read_cli_curves(args, args.curves)
    if args.mode == "sd":
        recon = cpmg_sd(curves, bin_count=args.bins)
    else:
        if len(curves) != 1:
            raise ValidationError("direct mode takes exactly one sweep curve")
        recon = direct_extract(curves[0])
    prefix = args.out or f"reconstruct_{args.mode}"
    return prefix, [(f"{prefix}.csv",
                     functools.partial(fileio.write_reconstruction, recon))]


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


def _cmd_fit(args):
    if args.mode != "noise":
        _refuse(args, "--initial --max-iterations",
                f"does not apply to {args.mode} mode")
    if args.mode == "peak":
        _refuse(args, f"--family {_SEQUENCE_FLAGS}",
                "does not apply to peak mode, which reads a spectrum CSV")
        if len(args.curves) != 1:
            raise ValidationError("peak fit takes exactly one spectrum CSV")
        if not Path(args.curves[0]).exists():
            raise ValidationError(f"no such file: {args.curves[0]}")
        w, v, u, flags = fileio.read_spectrum_csv(args.curves[0])
        spectrum = ReconstructedSpectrum(
            omegas=w, values=v, uncertainties=u, flags=flags,
            method=Method.CPMG_SD)
        result = fitting.fit_gaussian_peak(spectrum)
    else:
        curves = _read_cli_curves(args, args.curves)
        if len(curves) != 1:
            raise ValidationError(f"{args.mode} fit takes exactly one curve")
        (curve,) = curves
        if args.mode == "noise":
            initial = _parse_initial(args.initial or "default")
            result = fitting.fit_noise_params(
                curve, initial=initial, max_iterations=args.max_iterations)
        elif curve.abscissa_kind is not AbscissaKind.TIME:
            raise ValidationError(f"{args.mode} fit needs a TIME curve")
        elif args.mode == "envelope":
            result = fitting.fit_envelope(curve.xs, curve.coherences,
                                          uncertainties=curve.uncertainties)
        else:
            result = fitting.fit_revival_comb(curve.xs, curve.coherences)
    prefix = args.out or f"fit_{args.mode}"
    return prefix, [(f"{prefix}.json", {
        "parameters": result.parameters,
        "units": result.units,
        "residual_norm": result.residual_norm,
        "covariance_diag": result.covariance_diag,
        "converged": result.converged,
        "iterations": result.iterations,
        "metadata": result.metadata,
    })]


def _cmd_roundtrip(args):
    _refuse(args, "--bins" if args.mode == "peak" else "--duration",
            f"does not apply to {args.mode} mode")
    spectrum = _load_spectrum(args.spectrum)
    prefix = args.out or "roundtrip"
    if args.mode == "peak":
        result = peak_study(spectrum, epsilon=args.epsilon,
                            seeds=[args.seed], duration=args.duration,
                            rel_tol=args.rel_tol)
        recons = sorted(result.reconstructions.items())
        metrics = result.to_dict()
        widths = {m.method: m.width_hz for m in result.methods()}
        metrics["width_ordering"] = sorted(widths, key=widths.get)
    else:
        result = sd_study(spectrum, epsilon=args.epsilon, seed=args.seed,
                          bin_count=args.bins, rel_tol=args.rel_tol)
        recons = [("sd", result.reconstruction)]
        metrics = {
            "median_rel_error_central": result.median_rel_error_central,
            "central_band_rad_s": list(result.central_band),
            "n_compared": result.n_compared,
        }
    return prefix, [*((f"{prefix}_{name}.csv",
                       functools.partial(fileio.write_reconstruction, recon))
                      for name, recon in recons),
                    (f"{prefix}_metrics.json", metrics)]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    # only the commands that draw noise or integrate chi read these
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed, default=0,
                        help="non-negative integer")
    seeded.add_argument("--rel-tol", type=float, default=1e-4,
                        help="quadrature relative tolerance, in (0, 1)")
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

    p_synth = sub.add_parser("synth", parents=[seeded],
                             help="synthesize coherence curves")
    _add_sequence_args(p_synth)
    p_synth.add_argument("--spectrum", default="default",
                         help="default | zero | model JSON path")
    p_synth.add_argument("--n-list", default=None,
                         help="pulse counts, as comma-separated integers, "
                              f"each at most {_MAX_PULSES}")
    p_synth.add_argument("--times", default=None,
                         help="evolution time grid lo:hi:count[:lin|:geom] "
                              f"[s], count at most {_MAX_GRID_POINTS}")
    p_synth.add_argument("--f-grid", default=None,
                         help="modulation frequency grid lo:hi:count [Hz], "
                              f"count at most {_MAX_GRID_POINTS}")
    p_synth.add_argument("--revivals", action="store_true",
                         help="sample only at bath-period revivals")
    p_synth.add_argument("--orders", default=None,
                         help="revival orders, as comma-separated integers")
    p_synth.add_argument("--epsilon", type=float, default=0.0,
                         help="readout noise level")
    p_synth.set_defaults(func=_cmd_synth)

    p_or = sub.add_parser("oracle", parents=[seeded],
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
    p_rec.add_argument("--bins", type=int, default=40, help=_BINS_HELP)
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
    _add_sequence_args(p_fit, required=False)
    p_fit.set_defaults(func=_cmd_fit)

    p_rt = sub.add_parser("roundtrip", parents=[seeded],
                          help="synthesize, reconstruct, and score")
    p_rt.add_argument("--mode", choices=["peak", "sd"], default="peak")
    p_rt.add_argument("--spectrum", default="default")
    p_rt.add_argument("--epsilon", type=float, default=0.03)
    p_rt.add_argument("--duration", type=float, default=200e-6)
    p_rt.add_argument("--bins", type=int, default=None, help=_BINS_HELP)
    p_rt.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
