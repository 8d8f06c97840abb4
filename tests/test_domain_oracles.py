"""The case objects' constructors against the checks they replaced, kept here verbatim as oracles.

``VertebraCenter``, ``SpineVertebra`` and ``SpineCase`` check their fields in
a hand-written ``__init__`` that stores them in one pass. The oracles below
are the dataclass ``__post_init__`` bodies those constructors replaced, with
the ``_numbers`` they called, unchanged. For any field values both must
accept or reject alike: the same stored values of the same types, or the
same exception type and message.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spineid.domain import McSampleSet, SpineCase, SpineVertebra, VertebraCenter
from spineid.errors import ValidationError, _integer, _integer_type, _invalid, _number, _number_type
from spineid.labels import CANONICAL_NAMES, _check_label


def _numbers(values, what: str, integer: bool = False):
    """``values`` as given, if it is a sequence (not a string or a mapping) whose elements pass the number rule.

    ``integer`` asks for the integer rule. The rule runs once per element type, never once per value.
    """
    rule = _integer_type if integer else _number_type
    try:
        ok = not isinstance(values, (str, dict)) and all(map(rule, set(map(type, values))))
    except TypeError:
        ok = False
    if not ok:
        raise _invalid(what, values)
    return values


@dataclass(frozen=True)
class OracleCenter:
    position: tuple[float, float, float]
    mean_dims: tuple[float, float]
    member_count: int
    z_rank: int

    def __post_init__(self):
        for name, n in (("position", 3), ("mean_dims", 2)):
            what = f"field {name!r}"
            try:
                values = tuple(map(float, _numbers(getattr(self, name), what)))
            except OverflowError:
                raise _invalid(what, getattr(self, name)) from None
            if len(values) != n or not all(map(math.isfinite, values)):
                raise ValidationError(f"{name} must be {n} finite numbers, got {values!r}")
            object.__setattr__(self, name, values)
        if min(self.mean_dims) <= 0:
            raise ValidationError(f"mean_dims must be two positive values, got {self.mean_dims!r}")
        if _integer(self.member_count, "field 'member_count'") < 1:
            raise ValidationError(f"member_count must be at least 1, got {self.member_count}")
        if _integer(self.z_rank, "field 'z_rank'") < 0:
            raise ValidationError(f"z_rank must be non-negative, got {self.z_rank}")


@dataclass(frozen=True)
class OracleVertebra:
    center: VertebraCenter
    mc: McSampleSet
    truth: int | None = None
    uncertainty: McSampleSet | None = None
    fusion_weight: float | None = None

    def __post_init__(self):
        if not isinstance(self.center, VertebraCenter):
            raise ValidationError("center must be a VertebraCenter")
        if not isinstance(self.mc, McSampleSet):
            raise ValidationError("mc must be a McSampleSet")
        if self.uncertainty is not None and self.uncertainty is not self.mc:
            raise ValidationError("uncertainty must be None or the vertebra's own mc")
        if self.truth is not None:
            object.__setattr__(self, "truth", _check_label(self.truth, "field 'truth'"))
        if self.fusion_weight is not None:
            fw = _number(self.fusion_weight, "field 'fusion_weight'")
            if not 0.0 <= fw <= 1.0:
                raise ValidationError(f"fusion_weight must lie in [0, 1], got {fw}")
            object.__setattr__(self, "fusion_weight", fw)


@dataclass(frozen=True)
class OracleCase:
    case_id: str
    vertebrae: tuple[SpineVertebra, ...]

    def __post_init__(self):
        if not isinstance(self.case_id, str):
            raise _invalid("field 'case_id'", self.case_id)
        verts = tuple(self.vertebrae)
        object.__setattr__(self, "vertebrae", verts)
        if len(verts) == 0:
            raise ValidationError("a case must contain at least one vertebra")
        for i, v in enumerate(verts):
            if not isinstance(v, SpineVertebra):
                raise ValidationError(f"vertebrae[{i}] is not a SpineVertebra")
            if v.center.z_rank != i:
                raise ValidationError(
                    f"vertebrae[{i}] has z_rank {v.center.z_rank}; order must follow z_rank"
                )
        zs = [v.center.z for v in verts]
        for i in range(len(zs) - 1):
            if zs[i + 1] > zs[i]:
                raise ValidationError(
                    f"center z must not increase along the case (position {i} -> {i + 1})"
                )
        truths = self.truths
        if truths is not None:
            for i in range(len(truths) - 1):
                if truths[i + 1] != truths[i] + 1:
                    raise ValidationError(
                        "truth labels must increase by exactly 1 along the case, got "
                        f"{CANONICAL_NAMES[truths[i]]} -> {CANONICAL_NAMES[truths[i + 1]]} at position {i}"
                    )

    @property
    def truths(self) -> list[int] | None:
        """All-or-nothing ground truth label indices; None when any vertebra lacks a label."""
        out = [v.truth for v in self.vertebrae]
        return None if None in out else out


def _outcome(cls, args):
    try:
        return cls(*args)
    except Exception as exc:  # every exception, not only ValidationError, must match
        return type(exc), str(exc)


def _same_value(a, b) -> bool:
    """Equal values of the same type; a tuple element by element, any other object by identity or ``==``."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a is b or a == b


def assert_same_outcome(cls, oracle, *args):
    got, want = _outcome(cls, args), _outcome(oracle, args)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), f"rejected what the oracle accepts: {got}"
    for f in fields(cls):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name


BEYOND_FLOAT = st.integers(2**1024, 2**1030) | st.integers(-(2**1030), -(2**1024))
NUMBERS = st.one_of(
    st.floats(0.5, 1e3), st.floats(), st.integers(-5, 5), BEYOND_FLOAT, st.booleans(), st.none(),
    st.sampled_from(["1.5", "2", "nan"]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def sequences(n: int):
    """Mostly ``n`` plain floats, valid ones and the values at the edge of each rule, else anything."""
    plain = st.lists(st.floats(0.5, 1e3) | st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e308]), min_size=n, max_size=n)
    return st.one_of(
        plain, plain.map(tuple), plain.map(np.array), st.lists(NUMBERS, max_size=4),
        st.lists(NUMBERS, max_size=4).map(tuple), st.sampled_from(["123", "ab", {1: 2.0}, 5, None, 1.5]),
    )


INTEGERS = st.one_of(
    st.integers(-3, 30), st.integers(2**63, 2**70), st.booleans(), st.floats(-3, 30), st.none(),
    st.integers(-3, 30).map(np.int64), st.integers(0, 30).map(np.uint8), st.booleans().map(np.bool_),
    st.sampled_from(["3", 2.0]),
)


@settings(max_examples=600, deadline=None)
@given(position=sequences(3), mean_dims=sequences(2), member_count=INTEGERS, z_rank=INTEGERS)
@example(position=[1.0, 2.0, 3.0], mean_dims=(4.0, 5.0), member_count=2, z_rank=0)
@example(position=[1.0, 2.0, math.nan], mean_dims="ab", member_count=0, z_rank=-1)  # faults in every field
@example(position=[2**1024, 0, 0], mean_dims=[1.0, 1.0], member_count=1, z_rank=0)
@example(position=(1.0, 2.0), mean_dims=[1.0, -1.0], member_count=True, z_rank=0)
@example(position=(1.0, 2.0, 3.0), mean_dims=[1.0, 0.0], member_count=1, z_rank=0)
@example(position=np.array([1.0, 2.0, 3.0]), mean_dims=[np.float32(2.5), 3], member_count=np.int64(3), z_rank=0)
def test_center_matches_its_oracle(position, mean_dims, member_count, z_rank):
    assert_same_outcome(VertebraCenter, OracleCenter, position, mean_dims, member_count, z_rank)


def often(value, *others):
    """``value`` three times in four, else one of ``others``, so that most drawn objects hold few faults."""
    return st.sampled_from([value] * 3 * len(others) + list(others))


CENTER = VertebraCenter((1.0, 2.0, 3.0), (4.0, 5.0), 2, 0)
MC = McSampleSet(np.full((2, 24), 1 / 24))
OTHER_MC = McSampleSet(np.full((3, 24), 1 / 24))
EQUAL_MC = McSampleSet(np.full((2, 24), 1 / 24))  # equal to MC, but not MC itself
WEIGHTS = st.one_of(
    st.none(), st.floats(0, 1), st.sampled_from([0.0, -0.0, 1.0, 0, 1, 1.0000000000000002]), st.floats(),
    st.integers(-1, 2), BEYOND_FLOAT, st.booleans(),
    st.sampled_from(["0.5"]), st.floats(0, 1).map(np.float64), st.floats(0, 1, width=32).map(np.float32),
)
TRUTHS = st.one_of(
    st.none(), st.integers(-2, 26), st.booleans(), st.floats(-1, 25), st.sampled_from(["3"]),
    st.integers(0, 23).map(np.int64), st.integers(2**64, 2**70),
)


@settings(max_examples=600, deadline=None)
@given(center=often(CENTER, OracleCenter((1.0, 2.0, 3.0), (4.0, 5.0), 2, 0), None, "c"),
       mc=often(MC, OTHER_MC, None, MC.samples), truth=TRUTHS, uncertainty=often(None, MC, OTHER_MC, EQUAL_MC),
       fusion_weight=WEIGHTS)
@example(center=CENTER, mc=MC, truth=3, uncertainty=MC, fusion_weight=0.5)
@example(center=None, mc=None, truth=-1, uncertainty=OTHER_MC, fusion_weight=math.nan)  # faults in every field
@example(center=CENTER, mc=MC, truth=np.int64(5), uncertainty=None, fusion_weight=np.float32(0.25))
def test_vertebra_matches_its_oracle(center, mc, truth, uncertainty, fusion_weight):
    assert_same_outcome(SpineVertebra, OracleVertebra, center, mc, truth, uncertainty, fusion_weight)


def vertebra(z: float, rank: int, truth) -> SpineVertebra:
    return SpineVertebra(VertebraCenter((0.0, 0.0, z), (1.0, 1.0), 1, rank), MC, truth)


@st.composite
def case_fields(draw):
    k = draw(st.integers(0, 6))
    zs = draw(st.lists(st.sampled_from([3.0, 2.0, 1.0, 0.0, -1.0]), min_size=k, max_size=k))
    if draw(often(True, False)):
        zs = sorted(zs, reverse=True)
    ranks = list(range(k)) if draw(often(True, False)) else draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    start = draw(st.integers(0, 24 - k))
    truths = draw(st.sampled_from([
        [None] * k, list(range(start, start + k)),
        draw(st.lists(st.integers(0, 23), min_size=k, max_size=k)),
        draw(st.lists(st.one_of(st.none(), st.integers(0, 23)), min_size=k, max_size=k)),
    ]))
    verts = [vertebra(z, r, t) for z, r, t in zip(zs, ranks, truths)]
    if k and draw(often(False, True)):
        verts[draw(st.integers(0, k - 1))] = draw(st.sampled_from([CENTER, None, "v"]))
    return draw(often("case_0000", None, 3, b"case")), draw(often(verts, tuple(verts), 5, None))


@settings(max_examples=600, deadline=None)
@given(args=case_fields())
@example(args=("c", [vertebra(2.0, 0, 5), vertebra(1.0, 1, 7)]))
@example(args=("c", [vertebra(1.0, 0, 5), vertebra(2.0, 1, 6)]))
@example(args=(None, [vertebra(1.0, 1, 5), "v"]))  # faults in every field
def test_case_matches_its_oracle(args):
    assert_same_outcome(SpineCase, OracleCase, *args)
