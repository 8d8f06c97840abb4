"""Loader robustness: a valid file with one field replaced by any JSON value,
arbitrary bytes, a truncated valid file, and JSON nested too deeply to parse.

Whatever the input, each loader either returns or raises a SpineError
(exit 2 or 4 from the command line), never another exception or a warning.
The detections loader also gives, on mutated files, exactly the result or
the error of the per-line loader it replaced, kept here as the oracle; a
file that save_detections writes is read in one joined JSON scan, and any
file a joined scan would misread is read line by line. On generated and
mutated cases, the case loader returns a case that round-trips bit for bit
through ``case_to_dict`` and JSON, or raises a SpineError with a one-line
message; the sample conversion gives exactly the block or the error of the
one nested ``np.array`` it replaced.
"""

import copy
import dataclasses
import functools
import json
import math
import reprlib
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import gen_configs, make_case, random_case, random_probs
from spineid import io
from spineid.domain import DETECTION_COLUMNS, PLANES, DetectionSet, McSampleSet, SpineCase, SpineVertebra
from spineid.errors import ParseError, SpineError, ValidationError
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


# io's checks by exact JSON type, from before the domain took them over
OLD_RULES = {
    str: lambda v: type(v) is str,
    int: lambda v: type(v) is int,
    list[int]: lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    list[float]: lambda v: isinstance(v, list) and all(type(x) in (int, float) for x in v),
}


def _old_check(want, value, key: str, path, line: int | None = None):
    """``value`` if it passes io's old check ``want``; else its error, naming the file and the header line."""
    if not OLD_RULES[want](value):
        raise ValidationError(f"field {key!r} has an invalid value {reprlib.repr(value)}", path=str(path), line=line)
    return value


def per_line_load_detections(path) -> DetectionSet:
    """Oracle: load_detections as it was, one json.loads per line, one io._get per field of every box,
    and each header field and column checked by io on its own before the DetectionSet is built.

    Planes are looked up with PLANES.index and integers are checked one by
    one, as then. The header field ``k`` is named ``slice_count_per_plane``,
    as the DetectionSet that now checks it names it. io._get's and the
    domain's errors name the file through io._in_file. The strategy below
    writes no header value of the right type that the domain rejects, so
    whether such an error names the header line is not compared.
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
    with io._in_file(path):
        columns = {key: [io._get(rec, key, lineno) for lineno, rec in boxes] for key in DETECTION_COLUMNS}
        fields = {name: _old_check(want, io._get(header, key, header_line), name, path, header_line)
                  for key, name, want in (("case_id", "case_id", str), ("volume_shape", "volume_shape", list[int]),
                                          ("k", "slice_count_per_plane", int))}
        try:
            plane = [PLANES.index(name) for name in columns["plane"]]
        except ValueError:
            raise ValidationError(f"field 'plane' has an invalid value {reprlib.repr(columns['plane'])}",
                                  path=str(path)) from None
        return DetectionSet(
            fields["case_id"], tuple(fields["volume_shape"]), fields["slice_count_per_plane"], plane,
            *(_old_check(list[int] if key == "slice_index" else list[float], columns[key], key, path)
              for key in DETECTION_COLUMNS[1:]),
        )


@functools.cache
def _valid_detections_text() -> str:
    """A saved detections file of two vertebrae with two boxes each and no noise."""
    _, ds = generate_case(GenConfig(k_slices=40, vertebrae_range=(2, 2),
                                    detect=DetectConfig(boxes_per_vertebra=2, noise_rate=0.0)), 0)
    with tempfile.TemporaryDirectory() as tmp:
        io.save_detections(ds, Path(tmp) / "d.jsonl")
        return (Path(tmp) / "d.jsonl").read_text()


# Box lines a and b rewritten as two lines that each start with "{" and end
# with "}", and that one json.loads of the lines joined by "," reads as whole
# records, while each line alone is invalid JSON. Each fault escapes every
# guard of io._joined_boxes but the one its comment names.
MERGED_LINES = {
    # the body's colon count: the key's first value hides "},{" in a string
    "duplicate key opening a string": lambda a, b: ['{"cx": "}', '{", ' + a[1:] + ", " + b],
    # the body's colon count: the key's first value hides "},{" in a list
    "duplicate key opening a container": lambda a, b: ['{"cx": [{}', "{}], " + a[1:] + ", " + b],
    # the body's colon count: an eighth key holds the line break, in its value or in its name
    "extra key holding a split container": lambda a, b: [a[:-1] + ', "extra": [{}', "{}]}, " + b],
    "key split across two lines": lambda a, b: [a[:-1] + ', "ex}', '{tra": 0}, ' + b],
    # the lines' first and last characters: a box cut between two fields
    "box split between fields": lambda a, b: [a[:a.find(",")], a[a.find(",") + 1:] + ", " + b],
    # the value count: the first line's string swallows the break, and a's
    # fields but plane are written twice, so the colons still add up
    "two boxes read as one": lambda a, b: ['{"cx": "}', '{", ' + a[1:-1] + ", " + b[b.find(", ") + 2:]],
}


def _merged_text(fault: str) -> str:
    """The valid detections text with its first two box lines rewritten by ``MERGED_LINES[fault]``."""
    header, first, second, *rest = _valid_detections_text().splitlines()
    return "\n".join([header, *MERGED_LINES[fault](first, second), *rest]) + "\n"


def _merged_examples(test):
    """``test`` with one explicit example per ``MERGED_LINES`` fault, so each joined-scan guard is reached."""
    for fault in sorted(MERGED_LINES):
        test = example(text=_merged_text(fault))(test)
    return test


BAD_VALUES = ("x", "3.5", True, False, None, [1], {"v": 1})
PADS = ("", " ", "\t", " \t ", "\xa0")


@st.composite
def mutated_detections(draw) -> str:
    """A valid detections file's text after up to two record mutations and up to two line mutations.

    Record mutations: two boxes each lose a different field, a numeric box or
    header field takes a string, a bool, null or a container, a box names an
    unknown plane. Line mutations: a blank or whitespace line, a padded line,
    a line cut short, a line holding two records, a line split in two, a box
    line and a copy of another box rewritten as two lines that merge across
    the line break (``MERGED_LINES``). The file may end without a newline,
    use CRLF and start with a BOM.
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
        kind = draw(st.sampled_from(("blank", "pad", "blank", "pad", "cut", "two records", "split", "merge")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(PADS)))
        elif kind == "pad":
            lines[i] = draw(st.sampled_from(PADS)) + lines[i] + draw(st.sampled_from(PADS))
        elif kind == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif kind == "two records":
            lines[i] += draw(st.sampled_from(("", " ", ", "))) + lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "split":
            cut = draw(st.integers(0, len(lines[i])))
            lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
        else:
            merge = MERGED_LINES[draw(st.sampled_from(sorted(MERGED_LINES)))]
            lines[i:i + 1] = merge(lines[i], lines[draw(st.integers(0, len(lines) - 1))])
    newline = draw(st.sampled_from(("\n", "\r\n")))
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""
    return bom + newline.join(lines) + draw(st.sampled_from(("", newline)))


def _outcome(load, path):
    """The DetectionSet a loader returns, or the type, message and line of the SpineError it raises."""
    try:
        return load(path)
    except SpineError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@_merged_examples
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


def _load_counting_fallbacks(path):
    """load_detections' outcome, and whether it read the file line by line after the joined scan."""
    with mock.patch.object(io, "_records", wraps=io._records) as records:
        return _outcome(io.load_detections, path), records.called


@pytest.mark.parametrize("fault", sorted(MERGED_LINES))
def test_lines_a_joined_scan_would_merge_load_line_by_line(tmp_path, fault):
    header, first, second, *rest = _valid_detections_text().splitlines()
    faulty = MERGED_LINES[fault](first, second)
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([header, *faulty, *rest]) + "\n")
    joined = json.loads("[" + ",".join(faulty) + "]")  # whole boxes: only the guard the fault names stops them
    assert len(joined) == (1 if fault == "two boxes read as one" else 2)
    assert all(set(DETECTION_COLUMNS) <= box.keys() for box in joined)
    outcome, fallback = _load_counting_fallbacks(path)
    assert fallback
    assert outcome == _outcome(per_line_load_detections, path)
    assert outcome[0] is ParseError


@pytest.mark.parametrize("line, brk", [(0, "\r"), (1, "\r"), (0, "\x85"), (0, "\u2028"), (0, "\u2029")])
def test_line_breaks_but_newline_load_line_by_line(tmp_path, line, brk):
    # "\r" between two fields reads as "\n"; the others sit inside the header's case_id string
    lines = _valid_detections_text().splitlines()
    old, new = (", ", "," + brk) if brk == "\r" else ('": "', '": "' + brk)
    lines[line] = lines[line].replace(old, new, 1)
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n", newline="")
    outcome, fallback = _load_counting_fallbacks(path)
    assert fallback
    assert outcome == _outcome(per_line_load_detections, path)
    assert outcome[0] is ParseError


@pytest.mark.parametrize("extra", ["x", " {}", ", {}"])
def test_header_with_extra_data_loads_line_by_line(tmp_path, extra):
    header, *boxes = _valid_detections_text().splitlines()
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([header + extra, *boxes]) + "\n")
    outcome, fallback = _load_counting_fallbacks(path)
    assert fallback
    assert outcome == _outcome(per_line_load_detections, path)
    assert outcome[:1] == (ParseError,) and outcome[2] == 1


@pytest.mark.parametrize("line", [1, -1])
def test_padded_first_or_last_box_loads_line_by_line(tmp_path, line):
    lines = _valid_detections_text().splitlines()
    lines[line] = " " + lines[line] if line == 1 else lines[line] + " "
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n")
    outcome, fallback = _load_counting_fallbacks(path)
    assert fallback
    assert outcome == per_line_load_detections(path)


def test_padded_header_loads_in_the_joined_scan(tmp_path):
    # the header is read by one json.loads, as line 1 is line by line, so spaces around it change nothing
    header, *boxes = _valid_detections_text().splitlines()
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([f"  {header} \t", *boxes]) + "\n")
    outcome, fallback = _load_counting_fallbacks(path)
    assert not fallback
    assert outcome == per_line_load_detections(path)
    assert isinstance(outcome, DetectionSet) and len(outcome) == len(boxes)


@settings(max_examples=40, deadline=None)
@given(cfg=gen_configs(), case_index=st.integers(0, 9999), case_id=st.text(max_size=8),
       newline=st.sampled_from(("", "\n")))
def test_saved_detections_load_in_one_joined_scan(tmp_path_factory, cfg, case_index, case_id, newline):
    _, ds = generate_case(cfg, case_index)
    assume(len(ds))
    ds = replace(ds, case_id=case_id)
    path = tmp_path_factory.mktemp("saved") / "d.jsonl"
    io.save_detections(ds, path)
    path.write_text(path.read_text().removesuffix("\n") + newline)
    outcome, fallback = _load_counting_fallbacks(path)
    assert not fallback
    assert outcome == ds == per_line_load_detections(path)


def _value_tree(value):
    """``value`` as nested tuples, equal only when every field, its Python type and every array's bits are."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple((f.name, _value_tree(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple, tuple(map(_value_tree, value))
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype.str, value.shape, value.flags.writeable, value.tobytes()
    return type(value), repr(value)


@st.composite
def case_docs(draw) -> dict:
    """A saved case's decoded JSON: 1-12 vertebrae of 1-7 sample rows each, with or without truth, each with or
    without a stored fusion weight; null fields may be left out, and integral numbers written as JSON ints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = io.case_to_dict(random_case(rng, k=draw(st.integers(1, 12)), with_truth=draw(st.booleans())))
    as_ints, drop_nulls = draw(st.booleans()), draw(st.booleans())
    for rec in doc["vertebrae"]:
        rec["fusion_weight"] = draw(st.none() | st.sampled_from([0, 1, -0.0, 1.0]) | st.floats(0, 1))
        if as_ints:
            for key in ("position", "mean_dims"):
                rec["center"][key] = [int(v) if v.is_integer() else v for v in rec["center"][key]]
        if drop_nulls:
            for key in [key for key, value in rec.items() if value is None]:
                del rec[key]
    return json.loads(json.dumps(doc))


MISSING = object()  # a mutation that deletes the field
BAD_CASE_VALUES = (True, "3", math.inf, 10**400, math.nan, 0, -1, 24, 1.5, -0.5, [1.0], MISSING)


def _stored_report(rec: dict) -> dict:
    """The uncertainty report of a vertebra record's samples, as a case file stores one."""
    return io.report_to_dict(McSampleSet(np.array(rec["mc"]["samples"])))


def _mutated(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field or list item at ``path`` set to ``value``, or deleted for MISSING."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    elif value == "report":  # the first vertebra's report, in any field
        target[path[-1]] = _stored_report(doc["vertebrae"][0])
    elif value == "own report, 1 ulp off":  # path ends at a vertebra's "uncertainty"; its entropy moves up
        stored = target[path[-1]] = _stored_report(target)
        stored["entropy"] = math.nextafter(stored["entropy"], math.inf)
    else:
        target[path[-1]] = value
    return doc


@st.composite
def mutated_case_docs(draw) -> dict:
    """A generated case with one field (from ``_field_paths``), or one number of a position or mean_dims list,
    set to a bad value or a stored uncertainty report, or deleted."""
    doc = draw(case_docs())
    path = draw(st.sampled_from(_field_paths(doc)), label="field")
    target = doc
    for key in path:
        target = target[key]
    if path[-1] in ("position", "mean_dims") and draw(st.booleans()):
        path += (draw(st.integers(0, len(target) - 1)),)
    return _mutated(doc, path, draw(st.sampled_from(BAD_CASE_VALUES + ("report",)), label="value"))


@functools.cache
def _mutation_base() -> dict:
    """A three-vertebra case with truth and a stored weight on every vertebra."""
    doc = io.case_to_dict(random_case(np.random.default_rng(28), k=3))
    for rec in doc["vertebrae"]:
        rec["fusion_weight"] = 0.5
    return json.loads(json.dumps(doc))


# Mutations of vertebra 1, one per check of the center and vertebra constructors, and a stored report.
VERTEBRA_MUTATIONS = {
    "center missing": (("center",), MISSING),
    "center field missing": (("center", "z_rank"), MISSING),
    "short position": (("center", "position"), [1.0, 2.0]),
    "short mean_dims": (("center", "mean_dims"), [1.0]),
    # no file decodes to these, but a library caller may pass them to case_from_dict
    "position as a dict of float keys": (("center", "position"), {1.0: 0, 2.0: 0, 3.0: 0}),
    "mean_dims as a dict of float keys": (("center", "mean_dims"), {20.0: 0, 30.0: 0}),
    "bool in position": (("center", "position", 2), True),
    "numeric string in mean_dims": (("center", "mean_dims", 0), "3"),
    "1e400 in position": (("center", "position", 0), math.inf),
    "huge int in position": (("center", "position", 1), 10**400),
    "NaN in position": (("center", "position", 2), math.nan),
    "1e400 in mean_dims": (("center", "mean_dims", 1), math.inf),
    "zero mean_dims": (("center", "mean_dims", 0), 0),
    "bool member_count": (("center", "member_count"), True),
    "float z_rank": (("center", "z_rank"), 1.0),
    "zero member_count": (("center", "member_count"), 0),
    "negative z_rank": (("center", "z_rank"), -1),
    "bool truth": (("truth",), True),
    "truth 24": (("truth",), 24),
    "negative truth": (("truth",), -1),
    "bool weight": (("fusion_weight",), True),
    "weight 1.5": (("fusion_weight",), 1.5),
    "negative weight": (("fusion_weight",), -0.5),
    "stored report": (("uncertainty",), "report"),
    "stored report 1 ulp off its samples": (("uncertainty",), "own report, 1 ulp off"),
}


def _mutation_examples(test):
    """``test`` with the unmutated base case and one explicit example per ``VERTEBRA_MUTATIONS`` entry."""
    test = example(doc=_mutation_base())(test)
    for path, value in VERTEBRA_MUTATIONS.values():
        test = example(doc=_mutated(_mutation_base(), ("vertebrae", 1) + path, value))(test)
    return test


@_mutation_examples
@settings(max_examples=300, deadline=None)
@given(doc=case_docs() | mutated_case_docs())
def test_case_loader_returns_a_case_or_a_spine_error(doc):
    try:
        case = io.case_from_dict(doc)
    except SpineError as exc:
        event(type(exc).__name__)
        assert "\n" not in str(exc)
        return
    event("case")
    assert type(case) is SpineCase
    again = io.case_from_dict(json.loads(json.dumps(io.case_to_dict(case))))
    assert _value_tree(again) == _value_tree(case)


def nested_sample_block(samples: list):
    """Oracle: each vertebra's rows in turn by the number rule (``io._number_array``) and the shape rule, so
    ``True``, ``"0.5"``, ``None`` and ``10**400`` are invalid values."""
    arrays = []
    for i, rows in enumerate(samples):
        arr = io._number_array(rows, f"vertebrae[{i}].mc.samples")
        if arr.ndim != 2 or arr.shape[1] != 24 or len(arr) == 0:
            raise ValidationError(f"vertebra {i}: samples must have shape (n, 24) with n >= 1, got {arr.shape}")
        arrays.append(arr)
    return np.concatenate(arrays), [len(arr) for arr in arrays]


def _block_outcome(build, samples):
    """The block's dtype, shape and bytes and the counts, or the type and message of the error."""
    try:
        block, counts = build(samples)
    except Exception as exc:
        return type(exc), str(exc)
    return block.dtype.str, block.shape, block.tobytes(), counts


BAD_SAMPLE_VALUES = (True, False, "0.5", None, [0.5], {"v": 1}, 10**400, math.inf, math.nan, 0, 1, -0.0)


@st.composite
def sample_lists(draw) -> list:
    """The ``mc.samples`` of a generated case, each vertebra 1-7 rows, after up to two mutations: a value set to
    a bad or integral one, a row made short, long, a string of 24 digits or a tuple, or a vertebra's rows
    emptied, made a tuple or a number."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = io.case_to_dict(random_case(rng, k=draw(st.integers(1, 8))))
    samples = [rec["mc"]["samples"] for rec in doc["vertebrae"]]
    for _ in range(draw(st.integers(0, 2), label="mutations")):
        i = draw(st.integers(0, len(samples) - 1))
        if type(samples[i]) is not list or not samples[i]:
            continue  # rows the first mutation replaced
        j = draw(st.integers(0, len(samples[i]) - 1))
        if type(samples[i][j]) is not list:
            continue
        kind = draw(st.sampled_from(("value", "value", "short", "long", "digits", "tuple", "empty", "rows tuple",
                                     "rows number")))
        if kind == "value":
            # within the row's current length: a first mutation may have made it short
            samples[i][j][draw(st.integers(0, len(samples[i][j]) - 1))] = draw(st.sampled_from(BAD_SAMPLE_VALUES))
        elif kind in ("short", "long"):
            samples[i][j] = samples[i][j][:23] if kind == "short" else samples[i][j] + [0.0]
        elif kind in ("digits", "tuple"):
            samples[i][j] = "0" * 24 if kind == "digits" else tuple(samples[i][j])
        else:
            samples[i] = {"empty": [], "rows tuple": tuple(samples[i]), "rows number": 5}[kind]
    return samples


@settings(max_examples=300, deadline=None)
@given(samples=sample_lists())
def test_sample_block_matches_nested_conversion(samples):
    want = _block_outcome(nested_sample_block, samples)
    event("block" if isinstance(want[0], str) else want[0].__name__)
    assert _block_outcome(io._sample_block, samples) == want


@pytest.mark.parametrize("zero, one", [(0, 1), (0.0, 1.0), (-0.0, 1.0)], ids=["ints", "floats", "negative-zero"])
def test_one_hot_rows_load_as_their_numbers(zero, one):
    # only rows holding an exact 0.0 or 1.0, the values a bool packs to, have their types checked: numbers pass
    samples = [[[one if c == (i + n) % 24 else zero for c in range(24)] for n in range(1 + i % 3)] for i in range(5)]
    block, counts = io._sample_block(samples)
    assert counts == [1, 2, 3, 1, 2]
    assert block.tobytes() == np.array([row for rows in samples for row in rows], dtype=np.float64).tobytes()
    doc = io.case_to_dict(make_case([np.ones((n, 24)) / 24 for n in counts]))
    for rec, rows in zip(doc["vertebrae"], samples):
        rec["mc"]["samples"] = rows
    assert np.concatenate([v.mc.samples for v in io.case_from_dict(doc).vertebrae]).tobytes() == block.tobytes()
