"""Benchmark for the noisespec workbench.

    python3 perfbench/run.py --workload spectroscopy --seed 1 --seconds 40 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy.  One process, one client, a
closed loop: the next op starts when the previous one has returned.  The
op list is generated from ``--seed`` (see ``workloads.py``).  Ops run in
whole blocks until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
several set-ups (imports and inputs, each in a fresh interpreter) spread
over the run, so that the probes meet the same host load as the ops.

``--trace 1`` runs a fixed number of blocks twice, first untraced and then
with span wrappers installed around every layer's public functions, checks
that each op's outputs are bit-identical in both passes and that the work
counts equal those of the last traced run of the same source, seed and
size, and prints the per-layer metrics of the traced pass with the tracing
overhead.

Earlier stdout lines (prefixed ``#``) carry the environment stamp, the op
mix and any failing op with its inputs; the last line is one JSON object.
The full record, with every op's time, goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json`` and the spans of
a traced run to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYERS = ("cli", "fileio", "study", "forward", "filters", "noise",
           "sequences", "reconstruct", "fitting", "oracle")
# inclusive times of named functions (see tracing.BUSY); the noise-fit times
# go to the results file only, as no listed workload runs the noise fit
_BUSY = ("forward.chi_s", "forward.synth_s", "forward.noise_s",
         "filters.ff_s", "filters.eval_s", "noise.eval_s",
         "sequences.trace_s", "reconstruct.cpmg_sd_s",
         "reconstruct.direct_s", "fitting.peak_fit_s", "oracle.s",
         "fileio.write_s", "fileio.read_s")
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_pct": "%",
    "trace.spans": "count",
    "trace.counts_mismatch": "count",
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    **{key: "s" for key in _BUSY},
    "filters.grid_nodes": "count",
    "filters.eval_points": "count",
    "noise.eval_points": "count",
    "forward.chi_calls": "count",
    "forward.synth_points": "count",
    "sequences.trace_steps": "count",
    "oracle.mode_realizations": "count",
    "oracle.mode_steps": "count",
    "reconstruct.points": "count",
    "reconstruct.clipped": "count",
    "cli.calls": "count",
    "fileio.files_written": "count",
    "fileio.bytes_written": "B",
    "reconstruct.sd_rel_err_max": "ratio",
    "study.peak_center_err_max": "ratio",
    "oracle.disagreement_max": "ratio",
}

# counts that are deterministic given (workload, seed, blocks)
_COUNT_KEYS = tuple(k for k, u in PER_LAYER.items()
                    if u in ("count", "B") and k != "trace.counts_mismatch")


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses a
    # checkout without its own .git
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the package and benchmark sources, so that state kept
    between runs is only compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "noisespec").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _stamp(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # the config layout differs between numpy versions
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v, "unset") for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _fresh_setup_s(workload: str, seed: int) -> float:
    """One set-up (imports and inputs) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(OUT / "setup-probe")],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_blocks(wl, blocks, *, seconds=None, n_blocks=None, tracer=None,
               between=None):
    """Run whole blocks until ``seconds`` elapse or ``n_blocks`` are done.

    Returns one record per op.  Only ``wl.run`` is timed and traced; the
    output digest and the gate check follow outside the op span.
    ``between(elapsed)`` is called before each op; the time it takes does
    not count towards ``seconds``.
    """
    from workloads import GateFailure
    records = []
    start = time.perf_counter()
    paused = 0.0
    b = 0
    while True:
        for op in blocks[b % len(blocks)]:
            if between is not None:
                t0 = time.perf_counter()
                between(t0 - start - paused)
                paused += time.perf_counter() - t0
            rec = {"kind": op.kind, "params": op.params, "ok": False}
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    out = wl.run(op)
                else:
                    with tracer.op(len(records), op.kind):
                        out = wl.run(op)
                rec["time_s"] = time.perf_counter() - t0
                rec["cpu_s"] = time.process_time() - c0
                rec["completed"] = True
                rec["digest"] = wl.digest(out)
                rec["readouts"] = wl.check(op, out)
                rec["ok"] = True
            except GateFailure as exc:
                rec["error"] = str(exc)
                rec["readouts"] = exc.readouts
            except Exception as exc:  # an op that raises is a failed op
                rec["error"] = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
            rec.setdefault("time_s", time.perf_counter() - t0)
            rec.setdefault("cpu_s", time.process_time() - c0)
            records.append(rec)
        b += 1
        if n_blocks is not None and b >= n_blocks:
            break
        if seconds is not None and \
                time.perf_counter() - start - paused >= seconds:
            break
    return records


def _readout_max(records, key: str) -> float:
    return max((r["readouts"][key] for r in records
                if key in r.get("readouts", {})), default=0.0)


def end_to_end(records, setup_s: float) -> dict:
    # an op that returned counts as completed even when its gate failed;
    # gate failures are reported separately as ``failed``
    times = [r["time_s"] for r in records]
    completed = sum(r.get("completed", False) for r in records)
    return {
        "ops_per_s": completed / sum(times),
        "op_p50_s": statistics.median(times),
        "cpu_s_per_op": sum(r["cpu_s"] for r in records) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tracer, args, stamp, n_blocks) -> tuple[dict, dict]:
    from tracing import summarize
    summary = summarize(tracer.spans)
    wall = summary["wall_s"]
    counts = dict(tracer.counts)
    counts["fileio.files_written"] = sum(
        r.get("readouts", {}).get("files", 0) for r in traced)
    counts["fileio.bytes_written"] = sum(
        r.get("readouts", {}).get("bytes", 0) for r in traced)
    counts["trace.spans"] = len(tracer.spans)
    counts = {k: int(counts.get(k, 0)) for k in _COUNT_KEYS}

    # compared with the last traced run of the same source, seed and size;
    # the first such run has nothing to compare with
    state = OUT / "counts" / (f"{args.workload}-seed{args.seed}-blocks{n_blocks}"
                              f"-{stamp['source_sha256'][:16]}.json")
    mismatched = []
    if state.is_file():
        before = json.loads(state.read_text())
        mismatched = sorted(k for k, v in counts.items() if before.get(k) != v)
    state.parent.mkdir(parents=True, exist_ok=True)
    state.write_text(json.dumps(counts, sort_keys=True))

    busy = summary["busy_s"]
    both = plain + traced
    metrics = {
        "trace.wall_s": wall,
        "trace.overhead_ratio": statistics.median(
            t["time_s"] / p["time_s"] for p, t in zip(plain, traced)),
        "trace.accounted_pct": 100.0 * (wall - summary["self_s"]["bench"]) / wall,
        "trace.counts_mismatch": len(mismatched),
        **{f"{layer}.self_s": summary["self_s"][layer] for layer in _LAYERS},
        **{key: busy[key] for key in _BUSY},
        **counts,
        "reconstruct.sd_rel_err_max": _readout_max(both, "sd_rel_err"),
        "study.peak_center_err_max": _readout_max(both, "peak_center_err"),
        "oracle.disagreement_max": _readout_max(both, "disagreement"),
    }
    # the noise-fit readouts and the harness's own share of the traced wall
    # time; kept in the results file, not in the metric set
    extra = {k: v for k, v in busy.items() if k not in metrics}
    extra["bench.self_s"] = summary["self_s"]["bench"]
    extra["counts_mismatched"] = mismatched
    for key in ("fitting.model_evals", "fitting.nm_iterations"):
        extra[key] = int(tracer.counts.get(key, 0))
    if extra["fitting.model_evals"]:
        extra["fitting.s_per_model_eval"] = \
            busy["fitting.noise_fit_s"] / extra["fitting.model_evals"]
    extra["fitting.center_err_max"] = _readout_max(both, "center_err")
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["spectroscopy", "oracle", "noise-fit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noisespec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'noisespec'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import noisespec
    if Path(noisespec.__file__).resolve().parent != (SRC / "noisespec").resolve():
        print(f"error: imported noisespec from {noisespec.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](OUT)
    blocks = wl.setup(args.seed)

    stamp = _stamp(args)
    record = {"stamp": stamp, "in_process_setup_s": time.perf_counter() - t0}
    if args.trace == 0:
        probes = record["setup_probes_s"] = []

        def probe(elapsed: float) -> None:
            if len(probes) < SETUP_PROBES and \
                    elapsed >= len(probes) * args.seconds / SETUP_PROBES:
                probes.append(_fresh_setup_s(args.workload, args.seed))

        records = run_blocks(wl, blocks, seconds=args.seconds, between=probe)
        while len(probes) < SETUP_PROBES:
            probes.append(_fresh_setup_s(args.workload, args.seed))
        metrics = end_to_end(records, statistics.median(probes))
        correct = all(r["ok"] for r in records)
        units = END_TO_END
    else:
        from tracing import Tracer
        n_blocks = max(1, math.floor(args.seconds / 2 / wl.nominal_block_s))
        plain = run_blocks(wl, blocks, n_blocks=n_blocks)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_blocks(wl, blocks, n_blocks=n_blocks, tracer=tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        differ = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if a.get("digest") != b.get("digest")]
        metrics, extra = per_layer(plain, traced, tracer, args, stamp,
                                   n_blocks)
        record["layer_extra"] = extra
        record["traced_blocks"] = n_blocks
        record["ops_differing_when_traced"] = differ
        correct = all(r["ok"] for r in records) and not differ \
            and not extra["counts_mismatched"]
        units = PER_LAYER
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(
            {"fields": ["layer", "name", "parent", "start", "end", "op"],
             "spans": tracer.spans}))

    failed = [r for r in records if not r["ok"]]
    mix = wl.mix(records if args.trace == 0 else traced)
    record.update({"mix": mix, "metrics": metrics, "ops": records})
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print("# mix " + json.dumps(mix, sort_keys=True))
    counted = f"# ops_attempted {len(records)}, ops_failed {len(failed)}; "
    if args.trace == 0:
        print(counted + f"op_p50_s is the median of {len(records)} op times")
    else:
        print(counted + f"per-layer metrics from the traced pass of "
              f"{len(traced)} ops")
    lines = [f"# FAILED {r['kind']} {json.dumps(r['params'], sort_keys=True)}: "
             f"{r['error']}" for r in failed]
    if args.trace == 1:
        lines += [f"# FAILED op {i} ({plain[i]['kind']}): output differs when "
                  "traced" for i in differ]
        if extra["counts_mismatched"]:
            lines.append("# FAILED work counts differ from the last traced run "
                         "of the same source: "
                         + ", ".join(extra["counts_mismatched"]))
    for line in lines:
        print(line)
        print(line, file=sys.stderr)
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, sort_keys=True, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
