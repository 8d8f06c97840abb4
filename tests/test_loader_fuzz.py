"""Loader robustness: a valid file with one field replaced by any JSON value,
arbitrary bytes, a truncated valid file, and JSON nested too deeply to parse.

Whatever the input, each loader either returns or raises a SpineError
(exit 2 or 4 from the command line), never another exception or a warning.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_case, random_probs
from spineid import io
from spineid.domain import SpineCase, SpineVertebra
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
