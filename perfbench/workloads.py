"""Seeded op lists, op execution and per-op correctness gates.

Each workload turns the benchmark seed into a pool of *blocks*; a block is
the workload's op mix (spectroscopy: two sd ops, each followed by two peak
ops; oracle: the five criterion-06 pair kinds; noise-fit: one fit at each
point count).  The
runner always finishes a block before it looks at the clock, so every run
sees the same mix.  Parameters are drawn over the full ranges by a
randomized Halton sequence indexed by block, so any prefix of the pool
covers each range evenly and the cost of a run does not hinge on which
extreme inputs a seed happened to draw.

An op's ``run`` is the timed, user-facing call; ``check`` runs afterwards,
untimed and untraced, and raises :class:`GateFailure` when an output misses
the acceptance criterion the op reproduces.

Ops call the package through module attributes (``forward.chi_detailed``),
never through names bound here, so the tracer's patches reach them.  Import
this module after the checkout's ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from noisespec import cli, fileio, filters, fitting, forward, noise, oracle, \
    sequences
from noisespec.reconstruct import CpmgFilterProvider

_PRIMES = (2, 3, 5, 7, 11)
_TWO_PI = 2.0 * math.pi

# default two-component bath (criteria 08 and 10)
_BATH = {"gauss_delta": 500e3, "gauss_sigma": 25e3, "gauss_center": 392e3,
         "lorentz_delta": 40e3, "lorentz_sigma": 50e3}
_BATH_KEYS = tuple(_BATH)


class GateFailure(Exception):
    """An op finished but its output misses the op's acceptance gate."""

    def __init__(self, message: str, readouts: dict | None = None) -> None:
        super().__init__(message)
        self.readouts = readouts or {}


@dataclass
class Op:
    kind: str
    params: dict
    inputs: dict = field(default_factory=dict, repr=False)


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """``count`` points of a Halton sequence in [0, 1)^dims, randomly shifted
    (Cranley-Patterson) so that each seed gives another point set."""
    shift = rng.random(dims)
    pts = np.array([[_radical_inverse(i + 1, _PRIMES[d]) for d in range(dims)]
                    for i in range(count)])
    return (pts + shift) % 1.0


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _parse_outputs(out: Path) -> None:
    for p in sorted(out.iterdir()):
        if p.suffix == ".json":
            json.loads(p.read_text())
        elif p.suffix == ".csv":
            with p.open(newline="") as fh:
                rows = list(csv.reader(fh))
            if len(rows) < 2:
                raise GateFailure(f"{p.name}: no data rows")
            for row in rows[1:]:
                [float(cell) for cell in row]


class Workload:
    """Common shape: ``setup(seed)`` builds the block pool, ``run(op)`` is
    the timed op, ``digest(output)`` fingerprints its outputs,
    ``check(op, output)`` gates it and returns readouts, ``mix(records)``
    summarizes the op mix of a run."""

    name = ""
    nominal_block_s = 1.0        # sizes the fixed block count of traced runs

    def __init__(self, out: Path) -> None:
        self.work = out / self.name


class Spectroscopy(Workload):
    """README-style CLI use: sd round trips and peak round trips."""

    name = "spectroscopy"
    pool_blocks = 32
    nominal_block_s = 6.4
    t_max = 3e-3                       # criterion-07 time grid 3e-5..3e-3

    def __init__(self, out: Path) -> None:
        super().__init__(out)
        self.out = self.work / "out"

    def setup(self, seed: int) -> list[list[Op]]:
        rng = np.random.default_rng([int(seed), 1])
        sd_u = halton(rng, self.pool_blocks, 2)
        peak_u = halton(rng, 4 * self.pool_blocks, 5)
        peak_seeds = rng.integers(0, 2**31 - 1, 4 * self.pool_blocks)
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        blocks = []
        for b in range(self.pool_blocks):
            block = []
            # the block's two sd ops are mirrored draws (u, 1 - u): their
            # mean log-sigma and delta/sigma sit at the centres of the
            # ranges whatever the seed, so the seed moves a run's cost far
            # less, while each op is still uniform over the full ranges
            for i, u in enumerate((sd_u[b], 1.0 - sd_u[b])):
                sigma = 2e4 * 10.0 ** u[0]
                delta = sigma * (1.5 + 1.5 * u[1])
                bath = noise.lorentzian_dc(delta, sigma)
                path = inputs / f"sd{2 * b + i}.json"
                path.write_text(json.dumps(fileio.spectrum_model_to_dict(bath)))
                block.append(Op("sd", {"sigma": sigma, "delta": delta,
                                       "extent_x_tmax": bath.extent() * self.t_max},
                                {"spectrum": str(path)}))
                for j in (4 * b + 2 * i, 4 * b + 2 * i + 1):
                    params = {k: _BATH[k] * (0.8 + 0.4 * peak_u[j, m])
                              for m, k in enumerate(_BATH_KEYS)}
                    path = inputs / f"peak{j}.json"
                    path.write_text(json.dumps(fileio.spectrum_model_to_dict(
                        noise.composite(**params))))
                    block.append(Op("peak", {**params, "seed": int(peak_seeds[j])},
                                    {"spectrum": str(path)}))
            blocks.append(block)
        return blocks

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:   # argparse rejects usage this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, err.getvalue()

    def run(self, op: Op):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        out = str(self.out)
        spectrum = op.inputs["spectrum"]
        if op.kind == "sd":
            calls = [self._cli(["synth", "--spectrum", spectrum,
                                "--family", "cpmg", "--n-list", "1,2,4,8",
                                "--times", f"3e-5:{self.t_max}:12",
                                "--outdir", out])]
            curves = sorted(str(p) for p in self.out.glob("synth_cpmg_n*.csv"))
            calls.append(self._cli(["reconstruct", "--mode", "sd", "--curves",
                                    *curves, "--outdir", out]))
        else:
            calls = [self._cli(["roundtrip", "--mode", "peak",
                                "--spectrum", spectrum, "--epsilon", "0.03",
                                "--seed", str(op.params["seed"]),
                                "--outdir", out])]
        return calls

    def digest(self, calls) -> str:
        h = hashlib.sha256(repr([rc for rc, _ in calls]).encode())
        for p in sorted(self.out.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    def check(self, op: Op, calls) -> dict:
        for rc, err in calls:
            if rc != 0:
                raise GateFailure(f"CLI exit {rc}: {err.strip()}")
        _parse_outputs(self.out)
        files = list(self.out.iterdir())
        readouts = {"files": len(files),
                    "bytes": sum(p.stat().st_size for p in files)}
        if op.kind == "sd":
            readouts["sd_rel_err"] = err = self._sd_error(op)
            if not err <= 0.10:       # criterion 07
                raise GateFailure(f"sd median relative error {err:.4f} > 0.10",
                                  readouts)
        else:
            metrics = json.loads((self.out / "roundtrip_metrics.json").read_text())
            truth_hz = op.params["gauss_center"] / _TWO_PI
            got = metrics["methods"]["gdysco"]["center_hz"]
            readouts["peak_center_err"] = err = abs(got / truth_hz - 1.0)
            if not err <= 0.03:       # criterion 08, centre part
                raise GateFailure(f"gdysco centre off by {err:.2%} > 3%",
                                  readouts)
        return readouts

    def _sd_error(self, op: Op) -> float:
        # scored as sd_study scores criterion 07, against the closed-form
        # Lorentzian rather than the package's own spectrum evaluation
        with (self.out / "reconstruct_sd.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        w = np.array([float(r["omega_rad_s"]) for r in rows])
        v = np.array([float(r["s_rad_s"]) for r in rows])
        ok = (np.array([int(r["flag"]) for r in rows]) == 0) & np.isfinite(v)
        w, v = w[ok], v[ok]
        if w.size < 4:
            raise GateFailure("fewer than 4 valid reconstruction points")
        center = math.sqrt(w[0] * w[-1])
        lo, hi = (w[0], w[-1]) if w[-1] / w[0] < 100.0 \
            else (center / 10.0, center * 10.0)
        sel = (w >= lo) & (w <= hi)
        d, s = op.params["delta"], op.params["sigma"]
        truth = d * d / (math.pi * s * (1.0 + (w[sel] / s) ** 2))
        return float(np.median(np.abs(v[sel] - truth) / truth))

    @staticmethod
    def mix(records: list[dict]) -> dict:
        sd = [r for r in records if r["kind"] == "sd"]
        capped = sum(r["params"]["extent_x_tmax"] > 8e4 for r in sd)
        return {"sd_ops": len(sd), "peak_ops": len(records) - len(sd),
                "sd_share_over_z_cap": capped / len(sd) if sd else 0.0}


class Oracle(Workload):
    """Criterion-06 Monte Carlo vs quadrature pairs, jittered."""

    name = "oracle"
    pool_blocks = 16
    nominal_block_s = 23.0
    kinds = ("cpmg8", "dysco", "hahn", "cpmg4", "gdysco")

    @staticmethod
    def _pair(kind: str, d: float, c: float, z0_cpmg4: float):
        Spec = sequences.SequenceSpec
        if kind == "cpmg8":
            bath = noise.composite(**{**_BATH, "gauss_center": 392e3 * c})
            return bath, Spec.cpmg(8, duration=2e-5 * d), 4096
        if kind == "dysco":
            # line centred on the carrier lobe, as in criterion 06
            f0 = 8e4 * c
            return (noise.gaussian_peak(6e4, 3e4, _TWO_PI * f0),
                    Spec.dysco(2e-4 * d, f0), 4096)
        if kind == "hahn":
            return noise.lorentzian_dc(1e5, 5e4), Spec.hahn(1e-4 * d), 16384
        if kind == "cpmg4":
            # the principal lobe sits on the line, so duration follows centre
            center = 5e5 * c
            return (noise.gaussian_peak(3e5, 3e4, center),
                    Spec.cpmg(4, duration=z0_cpmg4 / center), 4096)
        bath = noise.composite(**{**_BATH, "gauss_center": 392e3 * c})
        return bath, Spec.gdysco(2e-4 * d, 5e4), 4096

    def make_op(self, kind: str, d: float, c: float, mc_seed: int) -> Op:
        """The ``kind`` pair with duration and centre scaled by ``d``, ``c``."""
        spectrum, seq, modes = self._pair(kind, d, c, self.z0_cpmg4)
        floor = 20.0 / (2.0 * seq.tau_free) if seq.family.pulsed \
            else 20.0 * seq.mod_frequency
        rate = 1.2 * max(floor, 10.0 * spectrum.extent() / _TWO_PI)
        # the modes span every frequency the sampling floor resolves, not
        # only the spectrum extent (McConfig's default): with the default,
        # the MC misses the Lorentzian tail under the CPMG-8 lobe and falls
        # up to 16% below quadrature when duration and centre are low
        omega_max = max(spectrum.extent(), _TWO_PI * floor / 10.0)
        return Op(kind, {"duration_factor": d, "center_factor": c,
                         "modes": modes, "sample_rate": rate,
                         "omega_max": omega_max, "mc_seed": mc_seed},
                  {"spectrum": spectrum, "sequence": seq})

    def setup(self, seed: int) -> list[list[Op]]:
        self.z0_cpmg4 = CpmgFilterProvider().omega0(4, 1.0)
        rng = np.random.default_rng([int(seed), 2])
        jitter = {k: halton(rng, self.pool_blocks, 2) for k in self.kinds}
        blocks = []
        for b in range(self.pool_blocks):
            block = []
            for k in rng.permutation(len(self.kinds)):
                kind = self.kinds[k]
                d, c = 0.9 + 0.2 * jitter[kind][b]
                block.append(self.make_op(kind, d, c,
                                          int(rng.integers(0, 2**31 - 1))))
            blocks.append(block)
        return blocks

    def run(self, op: Op):
        spectrum, seq = op.inputs["spectrum"], op.inputs["sequence"]
        trace = sequences.build_trace(seq, op.params["sample_rate"])
        cfg = oracle.McConfig(n_realizations=10_000,
                              seed=op.params["mc_seed"],
                              spectral_components=op.params["modes"],
                              omega_max=op.params["omega_max"])
        mc = oracle.mc_coherence(spectrum, trace, cfg)
        ff = filters.cpmg_ff(seq.n_pulses, seq.duration) \
            if seq.family.pulsed else filters.dysco_ff(seq)
        chi_quad, _info = forward.chi_detailed(spectrum, ff, rel_tol=1e-6)
        err = abs(mc.chi_estimate - chi_quad)
        tol = 0.02 * chi_quad + 3.0 * mc.chi_stderr      # criterion 06
        return mc, chi_quad, err, tol

    @staticmethod
    def digest(output) -> str:
        mc, chi_quad, _err, _tol = output
        return _sha256([mc.to_dict(), chi_quad])

    def check(self, op: Op, output) -> dict:
        _mc, _chi_quad, err, tol = output
        readouts = {"disagreement": err / tol}
        if not err <= tol:
            raise GateFailure(f"|dchi| {err:.3e} > tol {tol:.3e}", readouts)
        return readouts

    @staticmethod
    def mix(records: list[dict]) -> dict:
        hahn = [r for r in records if r["kind"] == "hahn"]
        total = sum(r["time_s"] for r in records)
        return {"rng_loop_ops": len(records) - len(hahn),
                "mode_integral_ops": len(hahn),
                "mode_integral_time_share": sum(r["time_s"] for r in hahn) / total}


class NoiseFit(Workload):
    """Library-level two-component noise fits (criterion 10 geometry)."""

    name = "noise-fit"
    pool_blocks = 4
    nominal_block_s = 45.0
    point_counts = (24, 32, 48)

    def setup(self, seed: int) -> list[list[Op]]:
        rng = np.random.default_rng([int(seed), 3])
        count = self.pool_blocks * len(self.point_counts)
        truth_u = halton(rng, count, 5)
        guess_u = rng.random((count, 5))
        noise_seeds = rng.integers(0, 2**31 - 1, count)
        blocks = []
        for b in range(self.pool_blocks):
            block = []
            for j, points in enumerate(self.point_counts):
                i = b * len(self.point_counts) + j
                truth = {k: _BATH[k] * (0.9 + 0.2 * truth_u[i, m])
                         for m, k in enumerate(_BATH_KEYS)}
                guess = {k: truth[k] * (1.3 + 0.7 * guess_u[i, m])
                         for m, k in enumerate(_BATH_KEYS)}
                times = np.linspace(2.6e-5, 1.6e-3, points)
                (curve,) = forward.synth_cpmg_family(
                    noise.composite(**truth), [8],
                    time_grid_per_n={8: times})
                curve = forward.add_measurement_noise(
                    curve, 0.01, int(noise_seeds[i]))
                block.append(Op("fit", {"points": points, "truth": truth,
                                        "initial": guess,
                                        "noise_seed": int(noise_seeds[i])},
                                {"curve": curve}))
            blocks.append(block)
        return blocks

    def run(self, op: Op):
        return fitting.fit_noise_params(op.inputs["curve"],
                                        initial=op.params["initial"])

    @staticmethod
    def digest(fit) -> str:
        return _sha256([fit.parameters, fit.residual_norm, fit.iterations])

    def check(self, op: Op, fit) -> dict:
        truth = op.params["truth"]["gauss_center"]
        err = abs(fit.parameters["gauss_center"] / truth - 1.0)
        readouts = {"center_err": err,
                    "model_evals": fit.metadata["n_evaluations"],
                    "nm_iterations": fit.iterations}
        if not fit.converged:                              # criterion 10
            raise GateFailure("noise fit did not converge", readouts)
        if not err <= 0.02:
            raise GateFailure(f"line centre off by {err:.2%} > 2%", readouts)
        return readouts

    @staticmethod
    def mix(records: list[dict]) -> dict:
        return {f"fits_{n}pt": sum(r["params"]["points"] == n for r in records)
                for n in NoiseFit.point_counts}


WORKLOADS = {cls.name: cls for cls in (Spectroscopy, Oracle, NoiseFit)}
