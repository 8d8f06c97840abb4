"""Loader robustness: a valid file with one field replaced by any JSON value,
arbitrary bytes, a truncated valid file, and JSON nested too deeply to parse.

Whatever the input, each loader either returns or raises a SpineError
(exit 2 or 4 from the command line), never another exception or a warning.
The detections loader also gives, on mutated files, exactly the result or
the error of the per-line loader it replaced, kept here as the oracle.
"""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_case, random_probs
from spineid import io
from spineid.domain import DETECTION_COLUMNS, PLANES, DetectionSet, SpineCase, SpineVertebra
from spineid.errors import ParseError, SpineError
from spineid.fusion import identity_params
from spineid.synthetic import DetectConfig, GenConfig, generate_case
from spineid.uncertainty import report

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _detections_doc(tmp_path) -> list:
    _, ds = generate_case(GenConfig(k_slices=40, vertebrae_range=(1, 1),
                                    detect=DetectConfig(boxes_per_vertebra=2)), 0)
    io.save_detections(ds, tmp_path / "d.jsonl")
    return [json.loads(line) for line in (tmp_path / "d.jsonl").read_text().splitlines()]


def _case_doc() -> dict:
    case = make_case(random_probs(np.random.default_rng(0), 2), truths=[3, 4])
    first = case.vertebrae[0]
    verts = (SpineVertebra(first.center, first.mc, first.truth, report(first.mc), 0.5),) + case.vertebrae[1:]
    return io.case_to_dict(SpineCase(case.case_id, verts))


def _write_jsonl(doc: list, path) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in doc))


def _write_json(doc, path) -> None:
    path.write_text(json.dumps(doc))


# kind -> (loader, builder of a valid document, writer)
LOADERS = {
    "detections": (io.load_detections, _detections_doc, _write_jsonl),
    "case": (io.load_case, lambda _: _case_doc(), _write_json),
    "centers": (io.load_centers, lambda _: [v["center"] for v in _case_doc()["vertebrae"]], _write_json),
    "phi": (io.load_fusion_params, lambda _: io.params_to_dict(identity_params(window=3)), _write_json),
    "labels": (io.load_labels, lambda _: {"case_id": "c", "labels": [3, 4], "names": ["C4", "C5"]}, _write_json),
    "batch": (io.load_embedding_batch,
              lambda _: {"tau": 0.5, "labels": [0, 0, "C2", 1], "vectors": np.eye(4).tolist()}, _write_json),
}


def _field_paths(doc, prefix=()) -> list[tuple]:
    """Key paths of every dict field in ``doc``, however deeply nested."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    paths = []
    for key, value in items:
        if isinstance(doc, dict):
            paths.append(prefix + (key,))
        paths.extend(_field_paths(value, prefix + (key,)))
    return paths


def _load_only_spine_errors(load, path) -> None:
    try:
        load(path)
    except SpineError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_bad_field_raises_only_spine_errors(tmp_path_factory, kind, data):
    load, build, write = LOADERS[kind]
    tmp_path = tmp_path_factory.mktemp(kind)
    doc = build(tmp_path)
    path = data.draw(st.sampled_from(_field_paths(doc)), label="field")
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(JSON_VALUES, label="value")
    write(doc, tmp_path / "input")
    _load_only_spine_errors(load, tmp_path / "input")


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(content=st.binary(max_size=64) | st.text(alphabet='[]{}",:0123456789.-eE truefalsn\n', max_size=64)
       .map(str.encode))
def test_arbitrary_bytes_raise_only_spine_errors(tmp_path_factory, kind, content):
    path = tmp_path_factory.mktemp(kind) / "input"
    path.write_bytes(content)
    _load_only_spine_errors(LOADERS[kind][0], path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_files_raise_only_spine_errors(tmp_path_factory, kind, data):
    load, build, write = LOADERS[kind]
    tmp_path = tmp_path_factory.mktemp(kind)
    write(build(tmp_path), tmp_path / "valid")
    valid = (tmp_path / "valid").read_bytes()
    cut = data.draw(st.integers(0, len(valid)), label="cut")
    (tmp_path / "input").write_bytes(valid[:cut])
    _load_only_spine_errors(load, tmp_path / "input")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_deeply_nested_json_is_a_parse_error(tmp_path, kind):
    path = tmp_path / "input"
    path.write_text("[" * 200_000)
    with pytest.raises(ParseError, match="nested too deeply"):
        LOADERS[kind][0](path)


def _old_int_list(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError("expected a list of integers")
    return [io._int(v) for v in value]


def per_line_load_detections(path) -> DetectionSet:
    """Oracle: load_detections as it was, one json.loads per line and one io._get per field of every box.

    Planes are looked up with PLANES.index and integers are checked one by
    one, as then. Only case_id follows the current rule, a JSON string, where
    this loader used to take str() of any value.
    """
    records = []
    for lineno, raw in enumerate(io._read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON record: {exc.msg}", path=str(path), line=lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON record: nested too deeply", path=str(path), line=lineno) from None
    if not records:
        raise ParseError("detections file is empty", path=str(path), line=1)
    (header_line, header), boxes = records[0], records[1:]
    columns = {key: [io._get(rec, key, path, lineno) for lineno, rec in boxes] for key in DETECTION_COLUMNS}
    return DetectionSet(
        case_id=io._convert(io._str, io._get(header, "case_id", path, header_line), "case_id", path, header_line),
        volume_shape=tuple(io._convert(_old_int_list, io._get(header, "volume_shape", path, header_line),
                                       "volume_shape", path, header_line)),
        slice_count_per_plane=io._convert(io._int, io._get(header, "k", path, header_line), "k", path, header_line),
        plane=io._convert(lambda names: np.array([PLANES.index(name) for name in names], dtype=np.int64),
                          columns["plane"], "plane", path),
        slice_index=io._convert(lambda v: np.array(_old_int_list(v), dtype=np.int64), columns["slice_index"],
                                "slice_index", path),
        **{key: io._convert(io._float_list, columns[key], key, path) for key in DETECTION_COLUMNS[2:]},
    )


@functools.cache
def _valid_detections_text() -> str:
    """A saved detections file of two vertebrae with two boxes each and no noise."""
    _, ds = generate_case(GenConfig(k_slices=40, vertebrae_range=(2, 2),
                                    detect=DetectConfig(boxes_per_vertebra=2, noise_rate=0.0)), 0)
    with tempfile.TemporaryDirectory() as tmp:
        io.save_detections(ds, Path(tmp) / "d.jsonl")
        return (Path(tmp) / "d.jsonl").read_text()


BAD_VALUES = ("x", "3.5", True, False, None, [1], {"v": 1})
PADS = ("", " ", "\t", " \t ", "\xa0")


@st.composite
def mutated_detections(draw) -> str:
    """A valid detections file's text after up to two record mutations and up to two line mutations.

    Record mutations: two boxes each lose a different field, a numeric box or
    header field takes a string, a bool, null or a container, a box names an
    unknown plane. Line mutations: a blank or whitespace line, a padded line,
    a line cut short, a line holding two records, a line split in two. The
    file may end without a newline, use CRLF and start with a BOM.
    """
    header, *boxes = map(json.loads, _valid_detections_text().splitlines())
    for _ in range(draw(st.integers(0, 2), label="record mutations")):
        kind = draw(st.sampled_from(("drop two fields", "box value", "header value", "unknown plane")))
        box = boxes[draw(st.integers(0, len(boxes) - 1))]
        if kind == "drop two fields":
            first, second = draw(st.lists(st.integers(0, len(boxes) - 1), min_size=2, max_size=2, unique=True))
            one, other = draw(st.lists(st.sampled_from(DETECTION_COLUMNS), min_size=2, max_size=2, unique=True))
            boxes[first].pop(one, None)
            boxes[second].pop(other, None)
        elif kind == "box value":
            box[draw(st.sampled_from(DETECTION_COLUMNS[1:]))] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "header value":
            value = draw(st.sampled_from(BAD_VALUES))
            if draw(st.booleans()):
                header["k"] = value
            else:
                header["volume_shape"][draw(st.integers(0, 2))] = value
        else:
            box["plane"] = draw(st.sampled_from(("axial", "Sagittal", 0, None)))
    lines = [json.dumps(rec) for rec in (header, *boxes)]
    for _ in range(draw(st.integers(0, 2), label="line mutations")):
        # blank and padded lines twice as often: they leave the file loadable
        kind = draw(st.sampled_from(("blank", "pad", "blank", "pad", "cut", "two records", "split")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(PADS)))
        elif kind == "pad":
            lines[i] = draw(st.sampled_from(PADS)) + lines[i] + draw(st.sampled_from(PADS))
        elif kind == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif kind == "two records":
            lines[i] += draw(st.sampled_from(("", " ", ", "))) + lines[draw(st.integers(0, len(lines) - 1))]
        else:
            cut = draw(st.integers(0, len(lines[i])))
            lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
    newline = draw(st.sampled_from(("\n", "\r\n")))
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""
    return bom + newline.join(lines) + draw(st.sampled_from(("", newline)))


def _outcome(load, path):
    """The DetectionSet a loader returns, or the type, message and line of the SpineError it raises."""
    try:
        return load(path)
    except SpineError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(text=mutated_detections())
def test_detections_loader_matches_per_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("detections") / "d.jsonl"
    path.write_bytes(text.encode())
    want = _outcome(per_line_load_detections, path)
    event("loads" if isinstance(want, DetectionSet) else want[0].__name__)
    assert _outcome(io.load_detections, path) == want


def test_detections_lines_are_never_joined(tmp_path):
    # "H, B1" / "{B2a" / "B2b}" would be three valid records inside one [...] document
    header, first, second, *_ = _valid_detections_text().splitlines()
    cut = second.index(",") + 1
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([f"{header}, {first}", second[:cut], second[cut:]]) + "\n")
    with pytest.raises(ParseError, match="Extra data") as err:
        io.load_detections(path)
    assert err.value.line == 1
    assert _outcome(io.load_detections, path) == _outcome(per_line_load_detections, path)
