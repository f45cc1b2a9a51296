"""Span tracing installed from outside the package.

The package binds names with ``from .x import y``, so a function can be
reached through several module namespaces (``forward.cpmg_ff``,
``fitting.cpmg_ff``, ``noisespec.cpmg_ff``...).  :class:`Tracer` replaces
every binding of each target with one wrapper that records a span
``[layer, name, parent, start, end, op]`` and, for some targets, adds work
counts read from the call's arguments and result.  Methods are patched on
their class; ``NoiseSpectrum.__call__`` is bound to ``eval`` at class
creation, so both names get the same wrapper.

Spans are kept in memory and only recorded while an op span is open, so
correctness checks run between ops are never attributed to a layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "fileio", "study", "forward", "filters", "noise",
          "sequences", "reconstruct", "fitting", "oracle")


# -- work counts, read from public arguments and results ---------------------

def _omega_size(counter_name):
    def hook(counts, args, kwargs, result):
        omega = args[1] if len(args) > 1 else kwargs["omega"]
        counts[counter_name] += int(np.size(omega))
    return hook


def _grid_nodes(counts, args, kwargs, result):
    counts["filters.grid_nodes"] += int(result.omegas.size)


def _chi_call(counts, args, kwargs, result):
    counts["forward.chi_calls"] += 1


def _synth_points(counts, args, kwargs, result):
    curves = result if isinstance(result, list) else [result]
    counts["forward.synth_points"] += sum(int(c.xs.size) for c in curves)


def _trace_steps(counts, args, kwargs, result):
    counts["sequences.trace_steps"] += int(result.times.size)


def _mc_work(counts, args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    counts["oracle.mode_realizations"] += result.n_realizations * result.n_modes
    counts["oracle.mode_steps"] += result.n_modes * int(trace.times.size)


def _recon_points(counts, args, kwargs, result):
    counts["reconstruct.points"] += int(result.omegas.size)
    counts["reconstruct.clipped"] += int(np.count_nonzero(result.flags != 0))


def _cli_call(counts, args, kwargs, result):
    counts["cli.calls"] += 1


def _noise_fit(counts, args, kwargs, result):
    counts["fitting.model_evals"] += int(result.metadata["n_evaluations"])
    counts["fitting.nm_iterations"] += int(result.iterations)


# (layer, module, function name, count hook)
_FUNCTIONS = (
    ("cli", "cli", "main", _cli_call),
    *(("fileio", "fileio", name, None) for name in (
        "write_curve", "read_curve", "ingest_curve", "write_reconstruction",
        "read_spectrum_csv", "write_ff_csv", "write_trace_csv",
        "write_manifest", "write_json", "spectrum_model_from_dict",
        "spectrum_model_to_dict", "config_digest")),
    *(("study", "study", name, None) for name in (
        "sd_study", "peak_study", "peak_study_curves", "sd_time_grids")),
    ("forward", "forward", "chi", None),
    ("forward", "forward", "chi_detailed", _chi_call),
    ("forward", "forward", "synth_cpmg_family", _synth_points),
    ("forward", "forward", "synth_dysco_sweep", _synth_points),
    ("forward", "forward", "add_measurement_noise", None),
    ("filters", "filters", "cpmg_ff", _grid_nodes),
    ("filters", "filters", "dysco_ff", _grid_nodes),
    ("filters", "filters", "numeric_ff", _grid_nodes),
    ("filters", "filters", "peak_stats", None),
    ("filters", "filters", "default_cpmg_omegas", None),
    ("filters", "filters", "default_continuous_omegas", None),
    *(("noise", "noise", name, None) for name in (
        "lorentzian_dc", "gaussian_peak", "tabulated", "composite",
        "default_experiment_spectrum")),
    ("sequences", "sequences", "build_trace", _trace_steps),
    ("sequences", "sequences", "bandwidth_report", None),
    ("reconstruct", "reconstruct", "cpmg_sd", _recon_points),
    ("reconstruct", "reconstruct", "direct_extract", _recon_points),
    ("reconstruct", "reconstruct", "dynamic_range", None),
    ("reconstruct", "reconstruct", "plateau_contrast", None),
    ("fitting", "fitting", "fit_noise_params", _noise_fit),
    ("fitting", "fitting", "fit_gaussian_peak", None),
    ("fitting", "fitting", "fit_envelope", None),
    ("fitting", "fitting", "fit_revival_comb", None),
    ("oracle", "oracle", "mc_coherence", _mc_work),
)

# (layer, module, class, method names sharing one wrapper, count hook)
_METHODS = (
    ("noise", "noise", "NoiseSpectrum", ("eval", "__call__"),
     _omega_size("noise.eval_points")),
    ("filters", "filters", "FilterFunction", ("evaluate",),
     _omega_size("filters.eval_points")),
)

_CLASSMETHODS = (
    ("sequences", "sequences", "SequenceSpec",
     ("cpmg", "hahn", "dysco", "gdysco", "from_dict")),
)

# span names whose inclusive time is reported as a per-layer busy time
BUSY = {
    "forward.chi_s": {"chi_detailed"},
    "forward.synth_s": {"synth_cpmg_family", "synth_dysco_sweep"},
    "forward.noise_s": {"add_measurement_noise"},
    "filters.ff_s": {"cpmg_ff", "dysco_ff", "numeric_ff"},
    "filters.eval_s": {"FilterFunction.evaluate"},
    "noise.eval_s": {"NoiseSpectrum.eval"},
    "sequences.trace_s": {"build_trace"},
    "reconstruct.cpmg_sd_s": {"cpmg_sd"},
    "reconstruct.direct_s": {"direct_extract"},
    "fitting.peak_fit_s": {"fit_gaussian_peak"},
    "fitting.noise_fit_s": {"fit_noise_params"},
    "oracle.s": {"mc_coherence"},
    "fileio.write_s": {"write_curve", "write_reconstruction", "write_ff_csv",
                       "write_trace_csv", "write_manifest", "write_json"},
    "fileio.read_s": {"read_curve", "ingest_curve", "read_spectrum_csv",
                      "spectrum_model_from_dict"},
}


class Tracer:
    """Records spans and counts for calls made inside an :meth:`op` block."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([layer, name, stack[-1], clock(), 0.0, self._op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = "noisespec"
        modules = [m for n, m in list(sys.modules.items())
                   if n == pkg or n.startswith(pkg + ".")]
        for layer, mod, name, hook in _FUNCTIONS:
            orig = getattr(sys.modules[f"{pkg}.{mod}"], name)
            wrapper = self._wrap(layer, name, orig, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, attr, wrapper)
        for layer, mod, cls_name, attrs, hook in _METHODS:
            cls = getattr(sys.modules[f"{pkg}.{mod}"], cls_name)
            wrapper = self._wrap(layer, f"{cls_name}.{attrs[0]}",
                                 cls.__dict__[attrs[0]], hook)
            for attr in attrs:
                self._set(cls, attr, wrapper)
        for layer, mod, cls_name, attrs in _CLASSMETHODS:
            cls = getattr(sys.modules[f"{pkg}.{mod}"], cls_name)
            for attr in attrs:
                func = cls.__dict__[attr].__func__
                self._set(cls, attr, classmethod(
                    self._wrap(layer, f"{cls_name}.{attr}", func, None)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def op(self, index: int, kind: str):
        """Root span of one benchmark op; layer spans nest under it."""
        self._op = index
        idx = len(self.spans)
        self.spans.append(["bench", kind, -1, time.perf_counter(), 0.0, index])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = time.perf_counter()


def summarize(spans: list[list]) -> dict:
    """Self time per layer, busy times, and the traced wall time.

    A span's self time is its duration minus the durations of its direct
    children; the self times of all spans therefore add up to the summed
    duration of the root (op) spans.
    """
    child = [0.0] * len(spans)
    for layer, name, parent, start, end, op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(("bench",) + LAYERS, 0.0)
    busy = dict.fromkeys(BUSY, 0.0)
    keys_of: dict[str, list[str]] = {}
    for key, members in BUSY.items():
        for member in members:
            keys_of.setdefault(member, []).append(key)
    wall = 0.0
    for i, (layer, name, parent, start, end, op) in enumerate(spans):
        dur = end - start
        self_s[layer] += dur - child[i]
        if parent < 0:
            wall += dur
        # a busy span counts only when no ancestor already counts for the key
        for key in keys_of.get(name, ()):
            if not _has_ancestor(spans, parent, keys_of, key):
                busy[key] += dur
    return {"wall_s": wall, "self_s": self_s, "busy_s": busy}


def _has_ancestor(spans, parent: int, keys_of: dict, key: str) -> bool:
    while parent >= 0:
        if key in keys_of.get(spans[parent][1], ()):
            return True
        parent = spans[parent][2]
    return False
