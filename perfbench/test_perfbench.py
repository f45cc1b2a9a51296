"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

They run real ops (a few minutes in total, most of it the oracle block and
one noise fit), so they are kept out of the package's test suite.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, GateFailure  # noqa: E402


def _tiny_ops(name: str, seed: int = 5):
    wl = WORKLOADS[name](run.OUT)
    block = wl.setup(seed)[0]
    # one fit is enough to exercise the noise-fit path
    return wl, [block[:1] if name == "noise-fit" else block]


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_op_lists_follow_the_seed():
    for name in ("spectroscopy", "oracle"):
        wl = WORKLOADS[name](run.OUT)
        a, b, c = wl.setup(3), wl.setup(3), wl.setup(4)
        params = [[op.params for op in block] for block in a]
        assert params == [[op.params for op in block] for block in b]
        assert params != [[op.params for op in block] for block in c]


@pytest.mark.parametrize("name", ["spectroscopy", "oracle", "noise-fit"])
def test_tiny_op_list_runs(name):
    wl, blocks = _tiny_ops(name)
    records = run.run_blocks(wl, blocks, n_blocks=1)
    assert len(records) == len(blocks[0])
    for rec in records:
        assert rec["time_s"] > 0.0
        if name == "noise-fit":
            # some seeded fits miss the criterion-10 gate; the harness must
            # report them, so only the report is asserted
            assert rec["ok"] or rec["error"]
        else:
            assert rec["ok"], rec.get("error")


def test_oracle_gate_holds_at_low_jitter_corner():
    # duration and centre both at 0.9x put the CPMG-8 lobe furthest above
    # the spectrum extent; with modes only up to the extent the MC reads
    # ~16% below quadrature here and misses criterion 06
    wl = WORKLOADS["oracle"](run.OUT)
    wl.setup(1)
    op = wl.make_op("cpmg8", 0.9, 0.9, 1713379743)
    assert wl.check(op, wl.run(op))["disagreement"] <= 1.0


@pytest.mark.parametrize("name", ["spectroscopy", "oracle"])
def test_outputs_bit_identical_with_tracing(name):
    wl, blocks = _tiny_ops(name)
    plain = run.run_blocks(wl, blocks, n_blocks=1)
    counts = []
    for _ in range(1 if name == "oracle" else 2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_blocks(wl, blocks, n_blocks=1, tracer=tracer)
        finally:
            tracer.uninstall()
        assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
        counts.append(dict(tracer.counts))
        assert tracer.spans and all(s[4] >= s[3] for s in tracer.spans)
    # work counts are deterministic
    assert all(c == counts[0] for c in counts)


def test_work_counts_compared_only_within_one_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tracer = Tracer()
    tracer.spans = [["bench", "sd", -1, 0.0, 1.0, 0]]
    records = [{"time_s": 1.0, "readouts": {}}]
    args = argparse.Namespace(workload="spectroscopy", seed=1)

    def mismatched(source):
        metrics, extra = run.per_layer(records, records, tracer, args,
                                       {"source_sha256": source}, 1)
        assert metrics["trace.counts_mismatch"] == len(extra["counts_mismatched"])
        return extra["counts_mismatched"]

    assert mismatched("a" * 64) == []
    tracer.counts["filters.grid_nodes"] = 5
    assert mismatched("a" * 64) == ["filters.grid_nodes"]
    assert mismatched("b" * 64) == []


def test_tracer_uninstall_restores_bindings():
    import noisespec
    from noisespec import cli, forward, noise
    before = (noisespec.cpmg_ff, forward.cpmg_ff, cli.main,
              noise.NoiseSpectrum.__dict__["__call__"])
    tracer = Tracer()
    tracer.install()
    assert forward.cpmg_ff is not before[1]
    assert noise.NoiseSpectrum.__call__ is noise.NoiseSpectrum.eval
    tracer.uninstall()
    assert (noisespec.cpmg_ff, forward.cpmg_ff, cli.main,
            noise.NoiseSpectrum.__dict__["__call__"]) == before


def test_result_line_and_stamp(capsys):
    assert run.main(["--workload", "spectroscopy", "--seed", "2",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END)
    stamp = json.loads(lines[0].removeprefix("# stamp "))
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads",
                "commit", "source_sha256", "seed"):
        assert key in stamp


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectroscopy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_failure_is_reported():
    wl, blocks = _tiny_ops("spectroscopy")
    op = blocks[0][1]
    with pytest.raises(GateFailure):
        wl.check(op, [(3, "error: bad input")])
