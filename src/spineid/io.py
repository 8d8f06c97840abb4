"""File formats: detections (JSON Lines), cases, fusion parameters, batches.

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
    ConfidenceState,
    DetectionSet,
    FusionParams,
    McSampleSet,
    SliceDetection,
    SpineCase,
    SpineVertebra,
    UncertaintyReport,
    VertebraCenter,
)
from .errors import ParseError, ValidationError
from .labels import VertebraLabel


def _dump(obj: Any, path: str | Path) -> None:
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


def _get(record: dict, key: str, path: str | Path, line: int | None = None) -> Any:
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ParseError(f"missing field {key!r}", path=str(path), line=line) from None


def _convert(convert, value: Any, key: str, path: str | Path, line: int | None = None) -> Any:
    """``convert(value)`` for a decoded field; a value of the wrong type is rejected input."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        where = f"{path}" + (f":{line}" if line is not None else "")
        raise ValidationError(f"field {key!r} has an invalid value {reprlib.repr(value)} [{where}]") from None


def _float_array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


# ---------------------------------------------------------------------------
# detections: JSON Lines, one header then one box per line


def detection_to_dict(d: SliceDetection) -> dict:
    return {
        "plane": d.plane,
        "slice_index": int(d.slice_index),
        "cx": float(d.cx),
        "cy": float(d.cy),
        "w": float(d.w),
        "h": float(d.h),
        "confidence": float(d.confidence),
    }


def detection_from_dict(rec: dict, path: str | Path = "<memory>", line: int | None = None) -> SliceDetection:
    return SliceDetection(
        plane=_get(rec, "plane", path, line),
        slice_index=_convert(int, _get(rec, "slice_index", path, line), "slice_index", path, line),
        cx=_get(rec, "cx", path, line),
        cy=_get(rec, "cy", path, line),
        w=_get(rec, "w", path, line),
        h=_get(rec, "h", path, line),
        confidence=_get(rec, "confidence", path, line),
    )


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
    lines.extend(json.dumps(detection_to_dict(d)) for d in ds.detections)
    Path(path).write_text("\n".join(lines) + "\n")


def load_detections(path: str | Path) -> DetectionSet:
    raw_lines = _read_text(path).splitlines()
    records = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON record: {exc.msg}", path=str(path), line=lineno) from None
    if not records:
        raise ParseError("detections file is empty", path=str(path), line=1)
    header_line, header = records[0]
    detections = [detection_from_dict(rec, path, lineno) for lineno, rec in records[1:]]
    return DetectionSet(
        case_id=str(_get(header, "case_id", path, header_line)),
        volume_shape=_convert(tuple, _get(header, "volume_shape", path, header_line),
                              "volume_shape", path, header_line),
        detections=tuple(detections),
        slice_count_per_plane=_convert(int, _get(header, "k", path, header_line), "k", path, header_line),
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
        position=_convert(tuple, _get(rec, "position", path), "position", path),
        mean_dims=_convert(tuple, _get(rec, "mean_dims", path), "mean_dims", path),
        member_count=_convert(int, _get(rec, "member_count", path), "member_count", path),
        z_rank=_convert(int, _get(rec, "z_rank", path), "z_rank", path),
    )


def save_centers(centers: list[VertebraCenter], path: str | Path) -> None:
    _dump([center_to_dict(c) for c in centers], path)


def load_centers(path: str | Path) -> list[VertebraCenter]:
    data = _read_json(path)
    if not isinstance(data, list):
        raise ParseError("centers file must hold a JSON array", path=str(path))
    return [center_from_dict(rec, path) for rec in data]


# ---------------------------------------------------------------------------
# cases: one JSON document


def report_to_dict(r: UncertaintyReport) -> dict:
    return {
        "mean_probs": [float(v) for v in r.mean_probs.probs],
        "entropy": float(r.entropy),
        "variance": float(r.variance),
        "certainty_weight": float(r.certainty_weight),
    }


def report_from_dict(rec: dict, path: str | Path = "<memory>") -> UncertaintyReport:
    return UncertaintyReport(
        mean_probs=ConfidenceState.from_ingest(_get(rec, "mean_probs", path)),
        entropy=_get(rec, "entropy", path),
        variance=_get(rec, "variance", path),
        certainty_weight=_get(rec, "certainty_weight", path),
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
        verts.append(
            SpineVertebra(
                center=center_from_dict(_get(rec, "center", path), path),
                mc=McSampleSet(_convert(_float_array, _get(mc_rec, "samples", path), "samples", path)),
                truth=None if truth is None else VertebraLabel(_convert(int, truth, "truth", path)),
                uncertainty=None if report is None else report_from_dict(report, path),
                fusion_weight=rec.get("fusion_weight"),
            )
        )
    return SpineCase(case_id=str(_get(data, "case_id", path)), vertebrae=tuple(verts))


def save_case(case: SpineCase, path: str | Path) -> None:
    _dump(case_to_dict(case), path)


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
        theta=_get(data, "theta", path),
        hops=_convert(int, _get(data, "hops", path), "hops", path),
        window=_convert(int, _get(data, "window", path), "window", path),
        distance_mode=_get(data, "distance_mode", path),
        phi=phi,
    )


def save_fusion_params(p: FusionParams, path: str | Path) -> None:
    _dump(params_to_dict(p), path)


def load_fusion_params(path: str | Path) -> FusionParams:
    return params_from_dict(_read_json(path), path)


# ---------------------------------------------------------------------------
# embedding batches (input to the contrastive loss commands)


def load_embedding_batch(path: str | Path, tau_override: float | None = None):
    """Read vectors, labels and optional tau; import deferred to avoid a cycle."""
    from .losses import EmbeddingBatch

    data = _read_json(path)
    vectors = np.asarray(_get(data, "vectors", path), dtype=np.float64)
    labels = [
        VertebraLabel(int(v)) if not isinstance(v, str) else VertebraLabel.from_name(v)
        for v in _get(data, "labels", path)
    ]
    tau = tau_override if tau_override is not None else data.get("tau", 0.1)
    return EmbeddingBatch(vectors=vectors, labels=tuple(labels), tau=float(tau))
