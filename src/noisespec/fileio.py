"""File formats: coherence-curve CSV with a JSON sidecar, spectrum and
filter-function tables, sensitivity traces, and run manifests.

Numbers are written with ``repr`` so a write/read/write cycle is
byte-identical; sidecar JSON is key-sorted and newline-terminated for the
same reason.  Manifests carry a config digest, seed, and library versions,
and deliberately no timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .filters import FilterFunction
from .forward import AbscissaKind, CoherenceCurve, Provenance
from .noise import ComponentKind, NoiseSpectrum, SpectralComponent, tabulated
from .reconstruct import ReconstructedSpectrum
from .sequences import SensitivityTrace, SequenceSpec

_CURVE_HEADERS = {
    AbscissaKind.TIME: ["time_s", "coherence", "uncertainty"],
    AbscissaKind.MOD_FREQUENCY: ["frequency_hz", "coherence", "uncertainty"],
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _jsonable(obj):
    # strict JSON: every non-finite float, Python or numpy, becomes null
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                               allow_nan=False) + "\n")


def read_json(path: str | Path):
    """Parse a JSON file; an unreadable file or malformed content is a
    ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from None


# ---------------------------------------------------------------------------
# coherence curves
# ---------------------------------------------------------------------------

def write_curve(curve: CoherenceCurve, path: str | Path) -> Path:
    """Write a curve as CSV plus a ``<stem>.meta.json`` sidecar."""
    path = Path(path)
    path.write_text(_csv_text(_CURVE_HEADERS[curve.abscissa_kind], (
        [_fmt(x), _fmt(c), _fmt(u)]
        for x, c, u in zip(curve.xs, curve.coherences, curve.uncertainties))))
    write_json(_meta_path(path), {
        "abscissa_kind": curve.abscissa_kind.value,
        "sequence": curve.sequence.to_dict(),
        "provenance": curve.provenance.to_dict(),
        "metadata": curve.metadata,
    })
    return path


def read_curve(path: str | Path) -> CoherenceCurve:
    """Read back a curve written by :func:`write_curve` (sidecar required);
    sidecar keys it does not read, as in older files, are ignored, and an
    ``abscissa_kind`` that contradicts the sequence is an error."""
    path = Path(path)
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ValidationError(f"missing sidecar: {meta_file}")
    sidecar = read_json(meta_file)
    try:
        kind = AbscissaKind(sidecar["abscissa_kind"])
        sequence = SequenceSpec.from_dict(sidecar["sequence"])
        prov = sidecar.get("provenance", {})
        provenance = Provenance(kind=prov.get("kind", "ingested"),
                                seed=prov.get("seed"), path=prov.get("path"))
        metadata = sidecar.get("metadata", {})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{meta_file}: malformed sidecar ({exc!r})") from None
    if kind is not AbscissaKind.of(sequence):
        raise ValidationError(
            f"{meta_file}: abscissa_kind {kind.value!r} contradicts the "
            f"{sequence.family.value} sequence, whose abscissa is "
            f"{AbscissaKind.of(sequence).value}")
    xs, cs, us, _ = _read_rows(path, sequence, drop_bad=False)
    return CoherenceCurve(xs=xs, coherences=cs, uncertainties=us,
                          sequence=sequence, provenance=provenance, metadata=metadata)


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """(lower-cased header cells, data rows) of a CSV file; an unreadable,
    undecodable or empty file is a ValidationError."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: malformed CSV ({exc})") from None
    if not rows:
        raise ValidationError(f"{path}: empty file")
    return [c.strip().lower() for c in rows[0]], rows[1:]


def _read_rows(path: Path, sequence: SequenceSpec, drop_bad: bool):
    header = _CURVE_HEADERS[AbscissaKind.of(sequence)]
    dropped: list[int] = []
    xs, cs, us = [], [], []
    cols, rows = _csv_rows(path)
    missing = [c for c in header[:2] if c not in cols]
    if missing:
        raise ValidationError(f"{path}: missing columns {missing}")
    ix = cols.index(header[0])
    ic = cols.index(header[1])
    iu = cols.index(header[2]) if header[2] in cols else None
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            x = float(row[ix])
            c = float(row[ic])
            u = float(row[iu]) if iu is not None else 0.0
        except (ValueError, IndexError):
            x = c = u = math.nan
        if not (math.isfinite(x) and math.isfinite(c) and math.isfinite(u)):
            if drop_bad:
                dropped.append(lineno)
                continue
            raise ValidationError(f"{path}:{lineno}: non-finite row")
        xs.append(x)
        cs.append(c)
        us.append(u)
    if not xs:
        raise ValidationError(f"{path}: no usable data rows")
    xs = np.asarray(xs)
    if np.any(np.diff(xs) <= 0.0):
        raise ValidationError(f"{path}: abscissa must be strictly increasing")
    return xs, np.asarray(cs), np.asarray(us), dropped


def ingest_curve(path: str | Path, sequence: SequenceSpec) -> CoherenceCurve:
    """Load an externally produced coherence table of ``sequence``.

    The sequence sets the columns: ``time_s`` for a pulse train or
    ``frequency_hz`` for a carrier, then ``coherence`` and an optional
    ``uncertainty`` (defaults to zero).  Non-finite rows are dropped with a
    warning naming their line numbers; a missing column, a non-monotone
    abscissa, and an empty table are errors.  Points whose coherence
    exceeds 1 by more than three uncertainties are kept but listed in
    ``metadata['suspect_rows']``.
    """
    path = Path(path)
    xs, cs, us, dropped = _read_rows(path, sequence, drop_bad=True)
    suspect = np.flatnonzero(cs > 1.0 + 3.0 * us)
    meta: dict = {"dropped_lines": dropped}
    if suspect.size:
        meta["suspect_rows"] = suspect.tolist()
    curve = CoherenceCurve(xs=xs, coherences=cs, uncertainties=us, sequence=sequence,
                           provenance=Provenance("ingested", path=str(path)),
                           metadata=meta)
    # only a table that is taken, so that a refusal stays one line
    if dropped:
        warnings.warn(f"{path}: dropped non-finite rows at lines {dropped}",
                      stacklevel=2)
    return curve


# ---------------------------------------------------------------------------
# traces, spectra, filter tables
# ---------------------------------------------------------------------------

def write_trace_csv(trace: SensitivityTrace, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_csv_text(["time_s", "sensitivity"], (
        [_fmt(t), _fmt(v)] for t, v in zip(trace.times, trace.values))))
    return path


def write_reconstruction(recon: ReconstructedSpectrum, path: str | Path) -> Path:
    """Spectrum CSV plus a metadata sidecar (method, bins, warnings)."""
    path = Path(path)
    path.write_text(_csv_text(
        ["omega_rad_s", "s_rad_s", "uncertainty_rad_s", "flag"],
        ([_fmt(w), _fmt(v), _fmt(u), int(f)]
         for w, v, u, f in zip(recon.omegas, recon.values,
                               recon.uncertainties, recon.flags))))
    meta: dict = {"method": recon.method.value, "metadata": recon.metadata}
    if recon.bins is not None:
        meta["bins"] = {"edges": recon.bins.edges, "counts": recon.bins.counts}
    write_json(_meta_path(path), meta)
    return path


def read_spectrum_csv(path: str | Path):
    """Return (omegas, values, uncertainties, flags) from a spectrum CSV."""
    path = Path(path)
    cols, rows = _csv_rows(path)
    needed = ["omega_rad_s", "s_rad_s"]
    if any(c not in cols for c in needed):
        raise ValidationError(f"{path}: missing spectrum columns")
    iw, iv = cols.index(needed[0]), cols.index(needed[1])
    iu = cols.index("uncertainty_rad_s") if "uncertainty_rad_s" in cols else None
    ifl = cols.index("flag") if "flag" in cols else None
    ws, vs, us, fs = [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            ws.append(float(row[iw]))
            vs.append(float(row[iv]))
            us.append(float(row[iu]) if iu is not None else 0.0)
            fs.append(int(row[ifl]) if ifl is not None else 0)
        except (ValueError, IndexError):
            raise ValidationError(f"{path}:{lineno}: bad or missing cell") from None
    if not ws:
        raise ValidationError(f"{path}: no data rows")
    return (np.asarray(ws), np.asarray(vs), np.asarray(us),
            np.asarray(fs, dtype=int))


def write_ff_csv(ff: FilterFunction, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_csv_text(["omega_rad_s", "ff_s"], (
        [_fmt(w), _fmt(v)] for w, v in zip(ff.omegas, ff.values))))
    return path


# ---------------------------------------------------------------------------
# parametric spectrum model (de)serialization
# ---------------------------------------------------------------------------

def spectrum_model_to_dict(spectrum: NoiseSpectrum) -> dict:
    out: dict = {"power_factor": spectrum.power_factor}
    if spectrum.table is not None:
        out["table"] = {"omegas": spectrum.table[0].tolist(),
                        "values": spectrum.table[1].tolist()}
    else:
        out["components"] = [
            {"kind": c.kind.value, "delta": c.delta, "sigma": c.sigma,
             **({"omega_center": c.omega_center}
                if c.omega_center is not None else {})}
            for c in spectrum.components]
    return out


def spectrum_model_from_dict(data: dict) -> NoiseSpectrum:
    if not isinstance(data, dict):
        raise ValidationError("spectrum model must be a JSON object")
    try:
        factor = float(data.get("power_factor", 1.0))
        if "table" in data:
            t = data["table"]
            base = tabulated(np.asarray(t["omegas"], dtype=float),
                             np.asarray(t["values"], dtype=float))
        elif "components" in data:
            comps = tuple(
                SpectralComponent(kind=ComponentKind(c["kind"]),
                                  delta=float(c["delta"]),
                                  sigma=float(c["sigma"]),
                                  omega_center=(float(c["omega_center"])
                                                if "omega_center" in c else None))
                for c in data["components"])
            base = NoiseSpectrum(components=comps)
        else:
            raise ValidationError("spectrum dict needs 'components' or 'table'")
        return base.scaled(factor) if factor != 1.0 else base
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed spectrum model ({exc!r})") from None


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def config_digest(config: dict) -> str:
    canon = json.dumps(_jsonable(config), sort_keys=True,
                       separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path: str | Path, config: dict, seed: int | None,
                   inputs: list[str] | None = None,
                   outputs: list[str] | None = None) -> Path:
    """Record what produced a set of outputs.  No timestamps: reruns of the
    same config and seed must yield an identical manifest."""
    import scipy
    path = Path(path)
    write_json(path, {
        "config_sha256": config_digest(config),
        "config": config,
        "seed": seed,
        "inputs": sorted(str(p) for p in (inputs or [])),
        "outputs": sorted(str(p) for p in (outputs or [])),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    })
    return path
