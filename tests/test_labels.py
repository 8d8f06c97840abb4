import pytest
from hypothesis import given
from hypothesis import strategies as st

from spineid.errors import ValidationError
from spineid.labels import CANONICAL_NAMES, N_CLASSES, VertebraLabel


def test_taxonomy_size_and_order():
    assert N_CLASSES == 24
    assert CANONICAL_NAMES[:7] == ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
    assert CANONICAL_NAMES[7] == "T1"
    assert CANONICAL_NAMES[-1] == "L5"


def test_known_indices():
    assert VertebraLabel.from_name("C1").index == 0
    assert VertebraLabel.from_name("T12").index == 18
    assert VertebraLabel.from_name("L5").index == 23


def test_case_insensitive():
    assert VertebraLabel.from_name("t3") == VertebraLabel(9)
    assert VertebraLabel.from_name(" l1 ").name == "L1"


def test_unknown_name_rejected():
    with pytest.raises(ValidationError, match="S1"):
        VertebraLabel.from_name("S1")
    with pytest.raises(ValidationError, match="unknown"):
        VertebraLabel.from_name("")


def test_index_bounds():
    with pytest.raises(ValidationError):
        VertebraLabel(24)
    with pytest.raises(ValidationError):
        VertebraLabel(-1)
    with pytest.raises(ValidationError):
        VertebraLabel(1.5)  # type: ignore[arg-type]


@given(st.sampled_from(CANONICAL_NAMES))
def test_name_roundtrip(name):
    assert VertebraLabel.from_name(name).name == name


@given(st.integers(min_value=0, max_value=23))
def test_index_roundtrip(index):
    assert VertebraLabel.from_name(VertebraLabel(index).name).index == index


def test_ordering_is_cranial_to_caudal():
    assert VertebraLabel(0) < VertebraLabel(23)
    assert sorted([VertebraLabel(5), VertebraLabel(2)])[0].index == 2
