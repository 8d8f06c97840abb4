"""File formats: detections (JSON Lines), cases, fusion parameters, labels, batches.

Numbers are written with Python's shortest round-trip float repr, so
``load(save(x)) == x`` bit exactly for every numeric field, and identical
inputs always produce byte-identical files. A detections file in the layout
``save_detections`` writes is read in one JSON scan of its box lines; any
other detections file by one ``json.loads`` per line, with the same values
and errors. A case's MC samples are converted by one ``struct.pack`` and
checked as one block by the number rule; every object of the case is built
by its checking constructor. A vertebra's stored uncertainty report must
equal the report of its samples, so a case loads it as the sample set itself.
"""

from __future__ import annotations

import json
import reprlib
import struct
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .domain import (
    DETECTION_COLUMNS,
    PLANES,
    DetectionSet,
    FusionParams,
    McSampleSet,
    SpineCase,
    SpineVertebra,
    VertebraCenter,
)
from .errors import ParseError, ValidationError, _all_numbers, _invalid, _number, _numbers
from .labels import CANONICAL_NAMES, N_CLASSES, label_index


def _finite(text: str) -> str:
    """``text`` of one or more float reprs, if none is ``nan``, ``inf`` or ``-inf``: finite reprs hold no "n"."""
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _render(obj: Any, pad: str) -> str:
    """The text ``json.dumps(obj, indent=2)`` gives ``obj`` when it starts at indentation ``pad``.

    Only the types spineid writes: ``str``-keyed dicts, lists, ``str``,
    ``int``, ``float`` (finite), ``bool`` and ``None``. Anything else is a
    ``TypeError``; a non-finite float a ``ValueError``, as ``allow_nan=False``.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _finite(float.__repr__(obj))
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, list):
        if not obj:
            return "[]"
        try:  # the bulk of every file: a row of floats, one repr each
            body = _finite(sep.join(map(float.__repr__, obj)))
        except TypeError:
            body = sep.join([_render(item, inner) for item in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("keys must be str")
        body = sep.join([f"{encode_basestring_ascii(key)}: {_render(value, inner)}" for key, value in obj.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not written as JSON")


def save_json(obj: Any, path: str | Path) -> None:
    """Write ``obj`` as 2-space indented JSON plus a newline, the layout of every JSON file spineid writes.

    The bytes are ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``: ASCII
    only, never ``NaN`` or ``Infinity``. The whole text is built before the
    file is opened, so an object that cannot be written leaves ``path`` as it was.
    """
    Path(path).write_text(_render(obj, "") + "\n")


@contextmanager
def _in_file(path: str | Path, line: int | None = None):
    """Every loader's one way to name its file: a ValidationError or ParseError raised inside that names no file
    gets ``[path]``, or ``[path:line]`` with the line it carries, else with ``line``."""
    try:
        yield
    except (ValidationError, ParseError) as exc:
        if exc.path is not None:
            raise
        raise type(exc)(str(exc), path=str(path), line=exc.line or line) from None


def _read_text(path: str | Path) -> str:
    try:  # one unbuffered read and one decode, then the universal newlines Path.read_text gives
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_json(path: str | Path, object_pairs_hook=None) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _get(record: dict, key: str, line: int | None = None) -> Any:
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ParseError(f"missing field {key!r}", line=line) from None


def _convert(convert, value: Any, key: str) -> Any:
    """``convert(value)`` for a field the file writes in another form than the domain takes (plane names, arrays)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise _invalid(f"field {key!r}", value) from None


def _number_array(value: Any, key: str) -> np.ndarray:
    """Field ``key``'s nested lists as a float64 array, if every entry passes the number rule: numpy alone
    parses ``"0.5"`` and reads ``true`` as 1."""
    arr = _convert(lambda v: np.asarray(v, dtype=np.float64), value, key)
    entries = [value]
    for _ in range(arr.ndim):
        entries = list(chain.from_iterable(entries))
    _numbers(entries, f"field {key!r}")
    return arr


# ---------------------------------------------------------------------------
# detections: JSON Lines, one header then one box per line


_PLANE_CODES = {name: code for code, name in enumerate(PLANES)}
_PLANE_JSON = [json.dumps(name) for name in PLANES]
# one box line, the bytes json.dumps gives its dict: repr is json.dumps' text for ints and finite floats
_BOX_LINE = "{" + ", ".join(f'"{name}": %{"s" if name == "plane" else "r"}' for name in DETECTION_COLUMNS) + "}"


def _plane_codes(names: list) -> np.ndarray:
    try:
        return np.fromiter(map(_PLANE_CODES.__getitem__, names), np.int64, len(names))
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


def _records(text: str) -> list[tuple[int, Any]]:
    """``(line number, value)`` of every non-blank line, each parsed on its own by one ``json.loads``."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON record: {exc.msg}", line=lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON record: nested too deeply", line=lineno) from None
    return records


def _guarded_lines(body: str) -> int:
    """The number of lines of ``body``, the box lines, when each "\\n" in it has a "}" before it and a "{" after
    it and it holds 7 colons per line; else 0.

    ``body`` is ASCII, so its byte view has one byte per character, and it
    starts with "{" and ends with "}", so each "\\n" has a byte on both sides.
    The view is freed on return, before the joined parse.
    """
    chars = np.frombuffer(body.encode(), np.uint8)
    breaks = np.flatnonzero(chars == ord("\n"))
    if not ((chars.take(breaks - 1) == ord("}")).all() and (chars.take(breaks + 1) == ord("{")).all()):
        return 0
    n = len(breaks) + 1
    return n if np.count_nonzero(chars == ord(":")) == len(DETECTION_COLUMNS) * n else 0


def _joined_boxes(text: str) -> DetectionSet | None:
    """The DetectionSet of a file in the layout ``save_detections`` writes, its box lines read by one
    ``json.loads("[" + lines joined by "," + "]")``; None when a guard fails or anything raises.

    The header is the text before the first "\\n", read by one ``json.loads``
    as ``_records`` reads line 1, so spaces around it change nothing. The
    guards, for n >= 1 box lines:

    1. The text is ASCII. It holds no "\\r": ``_read_text`` reads universal
       newlines.
    2. The box lines start with "{" and end with "}": the body's first
       character is "{" and its last "}", so neither is a "\\n"; every "\\n"
       then has a character on each side, a "}" before it and a "{" after it.
       As "}\\n{" cannot overlap itself, this holds exactly when the body
       holds as many "}\\n{" as "\\n".
    3. The body holds exactly 7n colons.
    4. The header parses to a dict holding the 3 header fields, and the
       body to n values, each a dict holding the 7 columns.
    5. The plane names and DetectionSet accept the columns.

    Guards 2 and 3 read one byte view of the body (``_guarded_lines``).

    Then line i alone parses to the i-th value, so the set is the one the
    per-line path builds. By (4) the n dicts hold at least 7n members, one
    colon each; by (3) they hold no more, so no key is written twice and no
    string or nested value holds a colon: every value written is a column,
    seen by (5). So every value is a number or a plane name, and every key a
    column name. None of them, nor its written form, holds a "{", "}" or ",",
    so each of those characters is JSON structure, and no container is
    nested. Each inserted comma follows the "}" that closes one of the n
    dicts (2), so it separates two array items; there are n - 1 of each, so
    line i is exactly the text of the i-th dict. The other ASCII line breaks,
    \\x0b, \\x0c and \\x1c to \\x1e, JSON allows neither inside nor outside a
    string, so once the header and the body parse, the lines split at "\\n"
    are the ones ``splitlines`` gives. Any other file goes to ``_records``,
    and every error comes from there, with its message and line.
    """
    if not text.isascii():
        return None
    head, _, body = text.partition("\n")
    body = body.removesuffix("\n")
    n = _guarded_lines(body) if body[:1] == "{" and body[-1:] == "}" else 0
    if not n:
        return None
    try:
        header = json.loads(head)
        values = json.loads("[" + body.replace("\n", ",") + "]")
        if len(values) != n:
            return None
        columns = {key: [value[key] for value in values] for key in DETECTION_COLUMNS}
        columns["plane"] = _plane_codes(columns["plane"])
        return DetectionSet(header["case_id"], header["volume_shape"], header["k"], **columns)
    except Exception:  # a file outside the guards, read again line by line to report its first fault
        return None


def load_detections(path: str | Path) -> DetectionSet:
    """One DetectionSet from a JSON Lines file; a missing field is named with the first line that lacks it.

    A file in the layout ``save_detections`` writes is read in one JSON scan
    (``_joined_boxes``); any other file, and every error, line by line.
    """
    with _in_file(path):
        text = _read_text(path)
        scan = _joined_boxes(text)
        if scan is not None:
            return scan
        records = _records(text)
        if not records:
            raise ParseError("detections file is empty", line=1)
        (header_line, header), boxes = records[0], records[1:]
        columns = {key: [_get(rec, key, lineno) for lineno, rec in boxes] for key in DETECTION_COLUMNS}
        with _in_file(path, header_line):  # a set without boxes checks the header alone, naming its line
            scan = DetectionSet(*(_get(header, key) for key in ("case_id", "volume_shape", "k")),
                                *[[]] * len(DETECTION_COLUMNS))
        columns["plane"] = _convert(_plane_codes, columns["plane"], "plane")
        return replace(scan, **columns)


# ---------------------------------------------------------------------------
# vertebra centers: JSON array (output of the clustering stage)


def center_to_dict(c: VertebraCenter) -> dict:
    return {
        "position": list(c.position),
        "mean_dims": list(c.mean_dims),
        "member_count": int(c.member_count),
        "z_rank": int(c.z_rank),
    }


def center_from_dict(rec: dict) -> VertebraCenter:
    return VertebraCenter(_get(rec, "position"), _get(rec, "mean_dims"), _get(rec, "member_count"),
                          _get(rec, "z_rank"))


def save_centers(centers: list[VertebraCenter], path: str | Path) -> None:
    save_json([center_to_dict(c) for c in centers], path)


def load_centers(path: str | Path) -> list[VertebraCenter]:
    with _in_file(path):
        data = _read_json(path)
        if not isinstance(data, list):
            raise ParseError("centers file must hold a JSON array")
        return [center_from_dict(rec) for rec in data]


# ---------------------------------------------------------------------------
# cases: one JSON document


def report_to_dict(mc: McSampleSet) -> dict:
    return {
        "mean_probs": mc.mean_probs.tolist(),
        "entropy": float(mc.entropy),
        "variance": float(mc.variance),
        "certainty_weight": float(mc.certainty_weight),
    }


def _stored_report(rec: dict, mc: McSampleSet, i: int) -> McSampleSet:
    """``mc``, when the stored report ``rec`` is its report: four fields that pass the number rule and equal
    ``report_to_dict(mc)``. A report that differs, as one written before its samples were edited, is rejected."""
    want = report_to_dict(mc)
    stored = {key: _get(rec, key) for key in want}
    stored["mean_probs"] = list(_numbers(stored["mean_probs"], "field 'mean_probs'"))
    for key in ("entropy", "variance", "certainty_weight"):
        _number(stored[key], f"field {key!r}")
    if stored != want:
        raise ValidationError(f"vertebra {i}: the stored uncertainty report does not match its MC samples")
    return mc


def case_to_dict(case: SpineCase) -> dict:
    verts = [{"center": center_to_dict(v.center), "mc": {"samples": v.mc.samples.tolist()}, "truth": v.truth,
              "uncertainty": None if v.uncertainty is None else report_to_dict(v.uncertainty),
              "fusion_weight": None if v.fusion_weight is None else float(v.fusion_weight)} for v in case.vertebrae]
    return {"case_id": case.case_id, "vertebrae": verts}


def _sample_block(samples: list) -> tuple[np.ndarray, list[int]]:
    """Every vertebra's ``mc.samples`` rows as one (N, 24) float64 block, and each vertebra's row count.

    One ``struct.pack`` converts every value of the case; of the values JSON
    holds, it refuses all but numbers and bools. A bool packs as exactly 0.0
    or 1.0, so only the rows holding such a value have their types checked,
    and none when every value lies strictly between 0 and 1. On any fault,
    each vertebra's samples in turn must pass the number rule and have shape
    (n, 24) with n >= 1, so the error names the first bad one.
    """
    try:
        counts = list(map(len, samples))
        flat = list(chain.from_iterable(samples))
        if 0 not in counts and {*map(len, flat)} == {N_CLASSES}:
            block = np.frombuffer(struct.pack(f"{len(flat) * N_CLASSES}d", *chain.from_iterable(flat)))
            block = block.reshape(-1, N_CLASSES)
            if 0.0 < block.min() and block.max() < 1.0 or _all_numbers(
                    chain.from_iterable(compress(flat, ((block == 0.0) | (block == 1.0)).any(axis=1).tolist()))):
                return block, counts
    except (TypeError, struct.error):
        pass
    for i, rows in enumerate(samples):
        arr = _number_array(rows, f"vertebrae[{i}].mc.samples")
        if arr.ndim != 2 or arr.shape[1] != N_CLASSES or len(arr) == 0:
            raise ValidationError(f"vertebra {i}: samples must have shape (n, {N_CLASSES}) with n >= 1, "
                                  f"got {arr.shape}")
    raise _invalid("field 'vertebrae[].mc.samples'", samples)  # not reached: a vertebra fails a check above


def case_from_dict(data: dict) -> SpineCase:
    """A case from its decoded JSON; the MC samples of all vertebrae are checked and summarized in one pass,
    then each vertebra is built by its checking constructors, so an error names the first bad one."""
    raw_verts = _get(data, "vertebrae")
    if not isinstance(raw_verts, list):
        raise ParseError("vertebrae must be a list")
    samples = [_get(_get(rec, "mc"), "samples") for rec in raw_verts]
    sample_sets = McSampleSet._split(*_sample_block(samples)) if samples else []
    verts = [SpineVertebra(center_from_dict(_get(rec, "center")), mc, rec.get("truth"),
                           None if rec.get("uncertainty") is None else _stored_report(rec["uncertainty"], mc, i),
                           rec.get("fusion_weight")) for i, (rec, mc) in enumerate(zip(raw_verts, sample_sets))]
    return SpineCase(case_id=_get(data, "case_id"), vertebrae=tuple(verts))


def save_case(case: SpineCase, path: str | Path) -> None:
    save_json(case_to_dict(case), path)


def load_case(path: str | Path) -> SpineCase:
    """One case file; every error it raises names the file."""
    with _in_file(path):
        return case_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# fusion parameters: one JSON document, phi matrices row-major under signed keys


def params_to_dict(p: FusionParams) -> dict:
    return {
        "theta": float(p.theta),
        "hops": int(p.hops),
        "window": int(p.window),
        "distance_mode": p.distance_mode,
        "phi": {f"{offset:+d}": p.phi[offset].ravel().tolist() for offset in sorted(p.phi)},
    }


def params_from_dict(data: dict) -> FusionParams:
    raw_phi = _get(data, "phi")
    if not isinstance(raw_phi, dict):
        raise ValidationError(f"field 'phi' must map signed offsets to matrices, got {reprlib.repr(raw_phi)}")
    phi, keys = {}, {}
    for key, flat in raw_phi.items():
        try:
            offset = int(key)
        except ValueError:
            raise ParseError(f"phi key {key!r} is not a signed offset") from None
        if offset in keys:
            raise ParseError(f"phi keys {keys[offset]!r} and {key!r} name the same offset")
        keys[offset] = key
        flat = _number_array(flat, f"phi[{key}]")
        if flat.size != 24 * 24:
            raise ValidationError(f"phi[{key}] must hold 576 values, got {flat.size}")
        phi[offset] = flat.reshape(24, 24)
    return FusionParams(*(_get(data, key) for key in ("theta", "hops", "window", "distance_mode")), phi)


def save_fusion_params(p: FusionParams, path: str | Path) -> None:
    save_json(params_to_dict(p), path)


def load_fusion_params(path: str | Path) -> FusionParams:
    """A parameter file; a key written twice in one object is a ``ParseError``, not the last value winning."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"key {key!r} is written twice in one object")
            seen.add(key)
        return dict(pairs)

    with _in_file(path):
        return params_from_dict(_read_json(path, unique_keys))


# ---------------------------------------------------------------------------
# predicted labels: {"case_id", "labels", "names"}, one file per case


def save_labels(case_id: str, labels: list[int], path: str | Path) -> None:
    save_json({"case_id": case_id, "labels": labels, "names": [CANONICAL_NAMES[i] for i in labels]}, path)


def load_labels(path: str | Path) -> list[int]:
    """The label indices of a labels file, a JSON list of integers; ``case_id`` and ``names`` are not read."""
    with _in_file(path):
        return _numbers(_get(_read_json(path), "labels"), "field 'labels'", integer=True)


# ---------------------------------------------------------------------------
# embedding batches (input to the contrastive loss commands)


def _labels(values: Any) -> list:
    """Labels given as a JSON list of canonical names or label indices, names turned into indices."""
    if not isinstance(values, list):
        raise TypeError("expected a list of vertebra names or label indices")
    return [label_index(v) if isinstance(v, str) else v for v in values]


def load_embedding_batch(path: str | Path, tau_override: float | None = None):
    """Read vectors, labels and optional tau; ``losses`` is imported here, so only ``supcon`` loads it."""
    from .losses import EmbeddingBatch

    with _in_file(path):
        data = _read_json(path)
        vectors = _number_array(_get(data, "vectors"), "vectors")
        labels = _convert(_labels, _get(data, "labels"), "labels")
        tau = tau_override if tau_override is not None else data.get("tau", 0.1)
        return EmbeddingBatch(vectors=vectors, labels=labels, tau=tau)
