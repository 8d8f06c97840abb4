import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_case, one_hot
from spineid import io
from spineid.domain import SpineVertebra
from spineid.errors import ValidationError
from spineid.evaluate import evaluate
from spineid.labels import CANONICAL_NAMES, N_CLASSES, _check_label, label_index, sequence_loss
from spineid.losses import EmbeddingBatch


def test_taxonomy_size_and_order():
    assert N_CLASSES == 24
    assert CANONICAL_NAMES[:7] == ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
    assert CANONICAL_NAMES[7] == "T1"
    assert CANONICAL_NAMES[-1] == "L5"


def test_known_indices():
    assert label_index("C1") == 0
    assert label_index("T12") == 18
    assert label_index("L5") == 23


def test_case_insensitive():
    assert label_index("t3") == 9
    assert CANONICAL_NAMES[label_index(" l1 ")] == "L1"


def test_unknown_name_rejected():
    with pytest.raises(ValidationError, match="S1"):
        label_index("S1")
    with pytest.raises(ValidationError, match="unknown"):
        label_index("")


def test_index_bounds():
    with pytest.raises(ValidationError, match=r"outside \[0, 24\)"):
        _check_label(24, "label")
    with pytest.raises(ValidationError, match=r"outside \[0, 24\)"):
        _check_label(-1, "label")
    with pytest.raises(ValidationError, match="not an integer label index"):
        _check_label(1.5, "label")


@given(st.sampled_from(CANONICAL_NAMES))
def test_name_roundtrip(name):
    assert CANONICAL_NAMES[label_index(name)] == name


@given(st.integers(min_value=0, max_value=23))
def test_index_roundtrip(index):
    assert label_index(CANONICAL_NAMES[index]) == index


def test_ordering_is_cranial_to_caudal():
    assert label_index("C1") < label_index("T1") < label_index("L1") < label_index("L5")
    assert sorted(["L1", "C7", "T1"], key=label_index) == ["C7", "T1", "L1"]


# ---------------------------------------------------------------------------
# one rule at every entry point that takes a label

LABELS = st.one_of(
    st.integers(0, N_CLASSES - 1),
    st.tuples(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]),
              st.integers(0, N_CLASSES - 1)).map(lambda t: t[0](t[1])),
)
NOT_LABELS = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, np.float64(3), "3", ""]),
    st.integers(max_value=-1),
    st.integers(min_value=N_CLASSES),
    st.integers(-(2**63), -1).map(np.int64),
    st.integers(N_CLASSES, 2**63 - 1).map(np.int64),
    st.floats(),
)


def _entry_points(v, workdir) -> dict:
    """Every public way a label ``v`` enters spineid, each a call that returns the label indices it stored.

    ``sequence_loss`` stores nothing and returns its loss; ``evaluate``
    returns the predicted labels its confusion matrix booked.
    """
    case = make_case([one_hot(0)], truths=[0], case_id="one")
    vertebra = case.vertebrae[0]
    as_json = v.item() if isinstance(v, np.generic) else v  # what a file holds for v

    def case_file():
        data = io.case_to_dict(case)
        data["vertebrae"][0]["truth"] = as_json
        (workdir / "case.json").write_text(json.dumps(data))
        return io.load_case(workdir / "case.json").truths

    def batch_file():
        batch = {"tau": 0.5, "labels": [as_json, as_json], "vectors": [[1.0, 0.0], [0.0, 1.0]]}
        (workdir / "batch.json").write_text(json.dumps(batch))
        return io.load_embedding_batch(workdir / "batch.json").labels.tolist()

    return {
        "SpineVertebra": lambda: [SpineVertebra(vertebra.center, vertebra.mc, truth=v).truth],
        "EmbeddingBatch": lambda: EmbeddingBatch(np.eye(2), [v, v], 0.5).labels.tolist(),
        "sequence_loss": lambda: sequence_loss([v]),
        "evaluate": lambda: np.flatnonzero(evaluate([case], [[v]]).per_class_confusion[0]).tolist(),
        "case file": case_file,
        "batch file": batch_file,
    }


@settings(max_examples=60, deadline=None)
@given(v=LABELS)
@example(v=0)
@example(v=23)
@example(v=np.int64(3))
def test_every_entry_point_takes_a_label(v, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("label")
    for name, call in _entry_points(v, workdir).items():
        got = call()
        if name == "sequence_loss":
            assert got == 0
        else:
            assert got in ([int(v)], [int(v), int(v)]), name
            assert all(type(t) is int for t in got), name


@settings(max_examples=60, deadline=None)
@given(v=NOT_LABELS)
@example(v=True)
@example(v=np.True_)
@example(v=3.0)
@example(v=np.float64(3))
@example(v="3")
@example(v=-1)
@example(v=24)
def test_every_entry_point_rejects_what_is_not_a_label(v, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("label")
    for name, call in _entry_points(v, workdir).items():
        with pytest.raises(ValidationError):
            call()
