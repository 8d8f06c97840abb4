"""File formats: detections (JSON Lines), cases, fusion parameters, labels, batches.

Numbers are written with Python's shortest round-trip float repr, so
``load(save(x)) == x`` bit exactly for every numeric field, and identical
inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path
from typing import Any

import numpy as np

from .domain import (
    DETECTION_COLUMNS,
    PLANES,
    SUM_TOL_INGEST,
    SUM_TOL_INTERNAL,
    DetectionSet,
    FusionParams,
    McSampleSet,
    SpineCase,
    SpineVertebra,
    UncertaintyReport,
    VertebraCenter,
)
from .errors import ParseError, ValidationError
from .labels import CANONICAL_NAMES, VertebraLabel


def save_json(obj: Any, path: str | Path) -> None:
    """Write ``obj`` as 2-space indented JSON plus a newline, the layout of every JSON file spineid writes."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=str(path)) from None


def _read_json(path: str | Path) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", path=str(path)) from None


def _get(record: dict, key: str, path: str | Path, line: int | None = None) -> Any:
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ParseError(f"missing field {key!r}", path=str(path), line=line) from None


def _convert(convert, value: Any, key: str, path: str | Path, line: int | None = None) -> Any:
    """``convert(value)`` for a decoded field; a value of the wrong type is rejected input."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        where = f"{path}" + (f":{line}" if line is not None else "")
        raise ValidationError(f"field {key!r} has an invalid value {reprlib.repr(value)} [{where}]") from None


def _float_array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _int(value: Any) -> int:
    """A JSON integer as it is; a float, a string or a bool is rejected, never truncated or parsed."""
    if type(value) is not int:
        raise TypeError("expected an integer")
    return value


def _int_list(value: Any) -> list[int]:
    """A JSON list of integers as it is; a list holding a float, a string, a bool or anything else is rejected."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise TypeError("expected a list of integers")
    return value


def _str(value: Any) -> str:
    """A JSON string as it is; a number, null, a bool, a list or an object is rejected, never stringified."""
    if type(value) is not str:
        raise TypeError("expected a string")
    return value


def _float(value: Any) -> float:
    """A JSON number as a float; a string or a bool is rejected, never parsed."""
    if type(value) not in (int, float):
        raise TypeError("expected a number")
    return float(value)


def _float_list(value: Any) -> list:
    """A JSON list of numbers as it is; a list holding a string, a bool or anything else is rejected."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise TypeError("expected a list of numbers")
    return value


# ---------------------------------------------------------------------------
# detections: JSON Lines, one header then one box per line


def _int_array(value: Any) -> np.ndarray:
    return np.array(_int_list(value), dtype=np.int64)


_PLANE_CODES = {name: code for code, name in enumerate(PLANES)}
_PLANE_JSON = [json.dumps(name) for name in PLANES]
# one box line, the bytes json.dumps gives its dict: repr is json.dumps' text for ints and finite floats
_BOX_LINE = "{" + ", ".join(f'"{name}": %{"s" if name == "plane" else "r"}' for name in DETECTION_COLUMNS) + "}"
_DECODER = json.JSONDecoder()


def _plane_codes(names: list) -> np.ndarray:
    try:
        return np.array([_PLANE_CODES[name] for name in names], dtype=np.int64)
    except KeyError:
        raise ValueError("unknown plane") from None


def save_detections(ds: DetectionSet, path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "case_id": ds.case_id,
                "volume_shape": [int(v) for v in ds.volume_shape],
                "k": int(ds.slice_count_per_plane),
            }
        )
    ]
    planes = [_PLANE_JSON[code] for code in ds.plane.tolist()]
    rows = zip(planes, *(getattr(ds, name).tolist() for name in DETECTION_COLUMNS[1:]))
    lines.extend(_BOX_LINE % row for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _records(text: str, path: str | Path) -> list[tuple[int, Any]]:
    """``(line number, value)`` of every non-blank line, parsed on its own with ``json.loads``'s value or error.

    ``raw_decode`` settles a line that is exactly one JSON value; ``json.loads`` any other line.
    """
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            value, end = _DECODER.raw_decode(raw)
        except (json.JSONDecodeError, RecursionError):
            end = -1
        if end != len(raw):
            if not raw.strip():
                continue
            try:
                value = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON record: {exc.msg}", path=str(path), line=lineno) from None
            except RecursionError:
                raise ParseError("invalid JSON record: nested too deeply", path=str(path), line=lineno) from None
        records.append((lineno, value))
    return records


def load_detections(path: str | Path) -> DetectionSet:
    """One DetectionSet from a JSON Lines file; a missing field is named with the first line that lacks it."""
    records = _records(_read_text(path), path)
    if not records:
        raise ParseError("detections file is empty", path=str(path), line=1)
    (header_line, header), boxes = records[0], records[1:]
    values = [rec for _, rec in boxes]
    try:
        columns = {key: [rec[key] for rec in values] for key in DETECTION_COLUMNS}
    except (KeyError, TypeError):
        for key in DETECTION_COLUMNS:  # names the first missing column at the first line without it
            for lineno, rec in boxes:
                _get(rec, key, path, lineno)
        raise
    return DetectionSet(
        case_id=_convert(_str, _get(header, "case_id", path, header_line), "case_id", path, header_line),
        volume_shape=tuple(_convert(_int_list, _get(header, "volume_shape", path, header_line),
                                    "volume_shape", path, header_line)),
        slice_count_per_plane=_convert(_int, _get(header, "k", path, header_line), "k", path, header_line),
        plane=_convert(_plane_codes, columns["plane"], "plane", path),
        slice_index=_convert(_int_array, columns["slice_index"], "slice_index", path),
        **{key: _convert(_float_list, columns[key], key, path) for key in DETECTION_COLUMNS[2:]},
    )


# ---------------------------------------------------------------------------
# vertebra centers: JSON array (output of the clustering stage)


def center_to_dict(c: VertebraCenter) -> dict:
    return {
        "position": [float(v) for v in c.position],
        "mean_dims": [float(v) for v in c.mean_dims],
        "member_count": int(c.member_count),
        "z_rank": int(c.z_rank),
    }


def center_from_dict(rec: dict, path: str | Path = "<memory>") -> VertebraCenter:
    return VertebraCenter(
        position=_convert(_float_list, _get(rec, "position", path), "position", path),
        mean_dims=_convert(_float_list, _get(rec, "mean_dims", path), "mean_dims", path),
        member_count=_convert(_int, _get(rec, "member_count", path), "member_count", path),
        z_rank=_convert(_int, _get(rec, "z_rank", path), "z_rank", path),
    )


def save_centers(centers: list[VertebraCenter], path: str | Path) -> None:
    save_json([center_to_dict(c) for c in centers], path)


def load_centers(path: str | Path) -> list[VertebraCenter]:
    data = _read_json(path)
    if not isinstance(data, list):
        raise ParseError("centers file must hold a JSON array", path=str(path))
    return [center_from_dict(rec, path) for rec in data]


# ---------------------------------------------------------------------------
# cases: one JSON document


def report_to_dict(r: UncertaintyReport) -> dict:
    return {
        "mean_probs": r.mean_probs.tolist(),
        "entropy": float(r.entropy),
        "variance": float(r.variance),
        "certainty_weight": float(r.certainty_weight),
    }


def report_from_dict(rec: dict, path: str | Path = "<memory>") -> UncertaintyReport:
    """An uncertainty report whose ``mean_probs`` may come from another tool.

    A vector that sums to 1 within 1e-6 is accepted. It is divided by its sum
    when that is off by more than 1e-9, else kept as written, so round trips
    are bit exact.
    """
    probs = _convert(_float_array, _get(rec, "mean_probs", path), "mean_probs", path)
    with np.errstate(over="ignore", invalid="ignore"):  # UncertaintyReport rejects what overflows
        total = float(probs.sum())
    if SUM_TOL_INTERNAL < abs(total - 1.0) <= SUM_TOL_INGEST:
        probs = probs / total
    return UncertaintyReport(
        mean_probs=probs,
        entropy=_convert(_float, _get(rec, "entropy", path), "entropy", path),
        variance=_convert(_float, _get(rec, "variance", path), "variance", path),
        certainty_weight=_convert(_float, _get(rec, "certainty_weight", path), "certainty_weight", path),
    )


def case_to_dict(case: SpineCase) -> dict:
    verts = []
    for v in case.vertebrae:
        verts.append(
            {
                "center": center_to_dict(v.center),
                "mc": {"samples": [[float(x) for x in row] for row in v.mc.samples]},
                "truth": None if v.truth is None else int(v.truth.index),
                "uncertainty": None if v.uncertainty is None else report_to_dict(v.uncertainty),
                "fusion_weight": None if v.fusion_weight is None else float(v.fusion_weight),
            }
        )
    return {"case_id": case.case_id, "vertebrae": verts}


def case_from_dict(data: dict, path: str | Path = "<memory>") -> SpineCase:
    raw_verts = _get(data, "vertebrae", path)
    if not isinstance(raw_verts, list):
        raise ParseError("vertebrae must be a list", path=str(path))
    verts = []
    for rec in raw_verts:
        mc_rec = _get(rec, "mc", path)
        truth = rec.get("truth")
        report = rec.get("uncertainty")
        weight = rec.get("fusion_weight")
        verts.append(
            SpineVertebra(
                center=center_from_dict(_get(rec, "center", path), path),
                mc=McSampleSet(_convert(_float_array, _get(mc_rec, "samples", path), "samples", path)),
                truth=None if truth is None else VertebraLabel(_convert(_int, truth, "truth", path)),
                uncertainty=None if report is None else report_from_dict(report, path),
                fusion_weight=None if weight is None else _convert(_float, weight, "fusion_weight", path),
            )
        )
    return SpineCase(case_id=_convert(_str, _get(data, "case_id", path), "case_id", path), vertebrae=tuple(verts))


def save_case(case: SpineCase, path: str | Path) -> None:
    save_json(case_to_dict(case), path)


def load_case(path: str | Path) -> SpineCase:
    return case_from_dict(_read_json(path), path)


# ---------------------------------------------------------------------------
# fusion parameters: one JSON document, phi matrices row-major under signed keys


def params_to_dict(p: FusionParams) -> dict:
    return {
        "theta": float(p.theta),
        "hops": int(p.hops),
        "window": int(p.window),
        "distance_mode": p.distance_mode,
        "phi": {f"{offset:+d}": [float(v) for v in p.phi[offset].ravel()] for offset in sorted(p.phi)},
    }


def params_from_dict(data: dict, path: str | Path = "<memory>") -> FusionParams:
    raw_phi = _get(data, "phi", path)
    if not isinstance(raw_phi, dict):
        raise ValidationError(f"field 'phi' must map signed offsets to matrices, got {reprlib.repr(raw_phi)} "
                              f"[{path}]")
    phi = {}
    for key, flat in raw_phi.items():
        try:
            offset = int(key)
        except ValueError:
            raise ParseError(f"phi key {key!r} is not a signed offset", path=str(path)) from None
        flat = _convert(_float_array, flat, f"phi[{key}]", path)
        if flat.size != 24 * 24:
            raise ValidationError(f"phi[{key}] must hold 576 values, got {flat.size}")
        phi[offset] = flat.reshape(24, 24)
    return FusionParams(
        theta=_convert(_float, _get(data, "theta", path), "theta", path),
        hops=_convert(_int, _get(data, "hops", path), "hops", path),
        window=_convert(_int, _get(data, "window", path), "window", path),
        distance_mode=_get(data, "distance_mode", path),
        phi=phi,
    )


def save_fusion_params(p: FusionParams, path: str | Path) -> None:
    save_json(params_to_dict(p), path)


def load_fusion_params(path: str | Path) -> FusionParams:
    return params_from_dict(_read_json(path), path)


# ---------------------------------------------------------------------------
# predicted labels: {"case_id", "labels", "names"}, one file per case


def save_labels(case_id: str, labels: list[int], path: str | Path) -> None:
    save_json({"case_id": case_id, "labels": labels, "names": [CANONICAL_NAMES[i] for i in labels]}, path)


def load_labels(path: str | Path) -> list[int]:
    """The label indices of a labels file, a JSON list of integers; ``case_id`` and ``names`` are not read."""
    return _convert(_int_list, _get(_read_json(path), "labels", path), "labels", path)


# ---------------------------------------------------------------------------
# embedding batches (input to the contrastive loss commands)


def _labels(values: Any) -> tuple[VertebraLabel, ...]:
    """Labels given as a JSON list of canonical names or integer indices."""
    if not isinstance(values, list) or not all(type(v) in (str, int) for v in values):
        raise TypeError("expected a list of vertebra names or integers")
    return tuple(VertebraLabel.from_name(v) if isinstance(v, str) else VertebraLabel(v) for v in values)


def load_embedding_batch(path: str | Path, tau_override: float | None = None):
    """Read vectors, labels and optional tau; import deferred to avoid a cycle."""
    from .losses import EmbeddingBatch

    data = _read_json(path)
    vectors = _convert(_float_array, _get(data, "vectors", path), "vectors", path)
    labels = _convert(_labels, _get(data, "labels", path), "labels", path)
    tau = tau_override if tau_override is not None else _convert(_float, data.get("tau", 0.1), "tau", path)
    return EmbeddingBatch(vectors=vectors, labels=labels, tau=tau)
