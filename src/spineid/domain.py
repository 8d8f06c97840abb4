"""Value types shared by every pipeline stage.

All types are immutable after construction and validate their invariants in
``__post_init__``; numpy-backed fields are stored as read-only arrays, so
instances are safe to share across threads and processes. The one other
constructor, ``McSampleSet._split``, checks the stacked sample rows of a whole
case in one pass and builds one set per vertebra from that checked block.

Coordinate convention (fixed, voxel units): the embedded frame is (x, y, z)
with z the cranial-caudal axis, increasing toward the head. A volume of shape
``(d, h, w)`` spans z in [0, d), y in [0, h) and x in [0, w). Sagittal slices
are indexed along x and coronal slices along y; within any slice the box
center is (cx, cy) where cy is the z coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError, _integer, _invalid, _number, _numbers
from .labels import CANONICAL_NAMES, N_CLASSES, _check_label

PLANES = ("sagittal", "coronal")

# A probability vector handed to ``uncertainty.entropy`` must sum to 1 within
# 1e-9; an MC sample row, from a file or a caller, within 1e-6, and the mean
# of a set's rows is renormalized.
SUM_TOL_INTERNAL = 1e-9
SUM_TOL_INGEST = 1e-6

MAX_ENTROPY = math.log(N_CLASSES)


def _probabilities(values, ndim: int, tol: float, name: str, starts: np.ndarray | None = None) -> np.ndarray:
    """A read-only float64 copy of ``values``, checked as probabilities.

    ``ndim`` 1 asks for one (24,) vector, ``ndim`` 2 for a non-empty matrix
    with one vector per row. Values must be finite and non-negative, and
    each vector must sum to 1 within ``tol``. When the rows are the stacked
    sample sets of several vertebrae, ``starts`` holds each set's first row,
    and a bad row is named by its vertebra and its row within that set.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != N_CLASSES or arr.size == 0:
        want = f"({N_CLASSES},)" if ndim == 1 else f"(n, {N_CLASSES}) with n >= 1"
        raise ValidationError(f"{name} must have shape {want}, got {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{name} must be finite")
    if lo < 0:
        raise ValidationError(f"{name} must be non-negative")
    # a value above 1 rules its vector out before the sum can overflow; one
    # vector's sum stays a numpy scalar, which keeps the common case cheap
    over = hi > 1.0 + tol
    sums = None if over else arr.sum(axis=-1)
    off = arr.max(axis=-1) - 1.0 if over else abs(sums - 1.0)
    if over or (off if ndim == 1 else off.max()) > tol:
        row = int(np.argmax(np.atleast_1d(off) > tol))
        where = f" row {row}" if ndim == 2 else ""
        if starts is not None:
            vertebra = int(np.searchsorted(starts, row, side="right")) - 1
            where = f" row {row - int(starts[vertebra])} of vertebra {vertebra}"
        got = "but a value exceeds 1" if over else f"got {float(np.atleast_1d(sums)[row])!r}"
        raise ValidationError(f"{name}{where} must sum to 1 within {tol}, {got}")
    arr.flags.writeable = False
    return arr


DETECTION_COLUMNS = ("plane", "slice_index", "cx", "cy", "w", "h", "confidence")
_INT_COLUMNS, _FLOAT_COLUMNS = DETECTION_COLUMNS[:2], DETECTION_COLUMNS[2:]
_INT64_MAX = int(np.iinfo(np.int64).max)


def _column(name: str, values, integer: bool) -> np.ndarray:
    """A read-only 1-D int64 or float64 copy of one detection column; an ndarray is checked by its dtype."""
    what = f"field {name!r}"
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in ("iu" if integer else "iuf"):
            raise _invalid(what, values)
    else:
        _numbers(values, what, integer)
    try:
        col = np.array(values, dtype=np.int64 if integer else np.float64)
    except OverflowError:  # an integer beyond int64, or beyond float64
        raise _invalid(what, values) from None
    if col.ndim != 1:
        raise ValidationError(f"column {name} must be 1-D, got shape {col.shape}")
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Every per-slice detection for one scan, plus the scan geometry.

    Boxes are equal-length, read-only 1-D columns; row i of each is box i.
    ``plane`` holds int64 codes into ``PLANES``, ``slice_index`` int64 slice
    numbers, and ``cx``, ``cy``, ``w``, ``h``, ``confidence`` float64 values.
    """

    case_id: str
    volume_shape: tuple[int, int, int]
    slice_count_per_plane: int
    plane: np.ndarray
    slice_index: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        if not isinstance(self.case_id, str):
            raise _invalid("field 'case_id'", self.case_id)
        shape = tuple(map(int, _numbers(self.volume_shape, "field 'volume_shape'", integer=True)))
        k = _integer(self.slice_count_per_plane, "field 'slice_count_per_plane'")
        for name in DETECTION_COLUMNS:
            object.__setattr__(self, name, _column(name, getattr(self, name), name in _INT_COLUMNS))
        if len(shape) != 3 or any(v <= 0 for v in shape):
            raise ValidationError(f"volume_shape must be three positive extents, got {shape!r}")
        if max(shape) > _INT64_MAX:  # the slice_index rule compares against the extents as int64
            raise ValidationError(f"volume_shape extents must fit in int64, got {shape!r}")
        object.__setattr__(self, "volume_shape", shape)
        if k <= 0:
            raise ValidationError(f"slice_count_per_plane must be positive, got {k}")
        lengths = {name: len(getattr(self, name)) for name in DETECTION_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"detection columns must have equal lengths, got {lengths}")

        _, h, w = shape
        extent = np.where(self.plane == PLANES.index("sagittal"), w, h)
        rules = [
            ("plane", (self.plane < 0) | (self.plane >= len(PLANES)), f"must be a code into {PLANES}"),
            *((name, ~np.isfinite(getattr(self, name)), "must be finite") for name in _FLOAT_COLUMNS),
            ("w", self.w <= 0, "must be positive"),
            ("h", self.h <= 0, "must be positive"),
            ("confidence", (self.confidence < 0) | (self.confidence > 1), "must lie in [0, 1]"),
            ("slice_index", (self.slice_index < 0) | (self.slice_index >= extent),
             f"must lie inside its plane (sagittal extent {w}, coronal extent {h})"),
        ]
        for name, bad, rule in rules:
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(f"detections[{i}]: {name} {rule}, got {getattr(self, name)[i]}")

    def __len__(self) -> int:
        return len(self.plane)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class VertebraCenter:
    """A clustered 3D vertebra center with robust box dimensions."""

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

    @property
    def z(self) -> float:
        return self.position[2]


def _segment_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column sums of each segment of ``rows``, segment i holding the next ``counts[i]`` rows.

    Every sum adds its rows in order, as numpy's ``sum(axis=0)`` of the
    segment alone does, so the bits are the same. Equal counts, as every
    generated case has, are one reshape; uneven counts sum each segment alone.
    """
    k, longest = len(counts), int(counts.max())
    if int(counts.min()) == longest:
        return rows.reshape(k, longest, -1).sum(axis=1)
    starts = (np.cumsum(counts) - counts).tolist()
    return np.stack([rows[s:s + n].sum(axis=0) for s, n in zip(starts, counts.tolist())])


def _entropies(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row of a (k, 24) probability matrix; zero terms contribute 0.

    A row holding a zero sums only its non-zero terms, a shorter sum than a
    full row's, as the entropy of that row alone does.
    """
    full = (probs > 0.0).all(axis=1)
    if full.all():
        return -(probs * np.log(probs)).sum(axis=1) + 0.0  # avoid -0.0
    out = np.empty(len(probs))
    p = probs[full]
    out[full] = (p * np.log(p)).sum(axis=1)
    for i in np.flatnonzero(~full).tolist():
        q = probs[i][probs[i] > 0.0]
        out[i] = (q * np.log(q)).sum()
    return -out + 0.0  # avoid -0.0


def _sample_stats(samples: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, entropy and variance of each sample set in one pass over the stacked (N, 24) rows.

    Set i is the next ``counts[i]`` rows. Returns the renormalized mean
    rows (k, 24), the entropy of each mean, and the mean over classes of the
    unbiased per-class variance, 0 for a set of one row. Each value has the
    bits of numpy's per-set ``mean(axis=0)``, ``var(axis=0, ddof=1).mean()``
    and the compacted entropy sum.
    """
    sums = _segment_sums(samples, counts)
    raw_mean = sums / counts[:, None]
    means = raw_mean / raw_mean.sum(axis=1, keepdims=True)
    deviations = np.square(samples - np.repeat(raw_mean, counts, axis=0))
    # a set of one row deviates by exactly 0 from its mean, so its variance is 0 / 1
    variances = (_segment_sums(deviations, counts) / np.maximum(counts - 1, 1)[:, None]).mean(axis=1)
    return means, _entropies(means), variances


@dataclass(frozen=True, eq=False)
class McSampleSet:
    """N stochastic forward-pass probability vectors for one vertebra, and their uncertainty report.

    A sample set is its vertebra's only uncertainty report: ``mean_probs``
    is the element-wise mean of the rows renormalized to sum to 1, a
    read-only (24,) array; ``entropy`` is its Shannon entropy in nats;
    ``variance`` is the mean over classes of the unbiased per-class sample
    variance, 0 for one sample; ``certainty_weight`` is 1 - entropy/ln(24),
    clipped at 0, since the entropy of a near-uniform mean can round past
    ln 24. They come from ``_sample_stats``, which ``_split`` runs once for
    a whole case. Two sets are equal when their samples are.
    """

    samples: np.ndarray
    mean_probs: np.ndarray = field(init=False, repr=False)
    entropy: float = field(init=False, repr=False)
    variance: float = field(init=False, repr=False)
    certainty_weight: float = field(init=False, repr=False)

    def __post_init__(self):
        samples = _probabilities(self.samples, 2, SUM_TOL_INGEST, "samples")
        means, entropies, variances = _sample_stats(samples, np.array([len(samples)]))
        means.flags.writeable = False
        self._store(samples, means[0], entropies.item(), variances.item())

    def _store(self, samples: np.ndarray, mean: np.ndarray, entropy: float, variance: float) -> None:
        """Set the five fields; ``mean`` is a row of a means array its caller made read-only."""
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "mean_probs", mean)
        object.__setattr__(self, "entropy", entropy)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "certainty_weight", max(0.0, 1.0 - entropy / MAX_ENTROPY))

    @classmethod
    def _split(cls, rows, counts) -> list[McSampleSet]:
        """One sample set per vertebra from the (N, 24) sample rows of a whole case, checked once.

        Vertebra i owns the next ``counts[i]`` rows, each at least 1; its set
        holds a read-only view of them. A bad row is named by its vertebra
        and its row within that vertebra's samples.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0 or counts.min() < 1:
            raise ValidationError(f"every vertebra needs at least one sample row, got counts {counts.tolist()}")
        if int(counts.sum()) != len(rows):
            raise ValidationError(f"counts {counts.tolist()} name {int(counts.sum())} sample rows, got {len(rows)}")
        starts = np.cumsum(counts) - counts
        rows = _probabilities(rows, 2, SUM_TOL_INGEST, "samples", starts)
        means, entropies, variances = _sample_stats(rows, counts)
        means.flags.writeable = False
        sets = []
        for start, stop, mean, entropy, variance in zip(starts.tolist(), (starts + counts).tolist(), means,
                                                         entropies.tolist(), variances.tolist()):
            mc = cls.__new__(cls)
            mc._store(rows[start:stop], mean, entropy, variance)
            sets.append(mc)
        return sets

    def __eq__(self, other) -> bool:
        if not isinstance(other, McSampleSet):
            return NotImplemented
        return np.array_equal(self.samples, other.samples)


@dataclass(frozen=True)
class SpineVertebra:
    """One vertebra record inside a case: clustered center, MC samples, optional truth label index.

    ``uncertainty`` is None or ``mc`` itself: the sample set is the report.
    """

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
class SpineCase:
    """An ordered cranial-to-caudal sequence of vertebra records for one scan."""

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

    def __len__(self) -> int:
        return len(self.vertebrae)

    @property
    def truths(self) -> list[int] | None:
        """All-or-nothing ground truth label indices; None when any vertebra lacks a label."""
        out = [v.truth for v in self.vertebrae]
        return None if None in out else out


ALLOWED_WINDOWS = (1, 3, 5, 7)
DISTANCE_MODES = ("index", "physical")
MAX_HOPS = 10


def phi_offsets(window: int) -> tuple[int, ...]:
    """Signed neighbor offsets for a window size: -half..-1, +1..+half."""
    half = (window - 1) // 2
    return tuple(range(-half, 0)) + tuple(range(1, half + 1))


@dataclass(frozen=True, eq=False)
class FusionParams:
    """Hyper-parameters and per-offset message matrices for confidence fusion."""

    theta: float
    hops: int
    window: int
    distance_mode: str
    phi: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        theta = _number(self.theta, "field 'theta'")
        if not 0 <= theta < math.inf:
            raise ValidationError(f"theta must be finite and non-negative, got {theta}")
        object.__setattr__(self, "theta", theta)
        if not 0 <= _integer(self.hops, "field 'hops'") <= MAX_HOPS:
            raise ValidationError(f"hops must be an integer in [0, {MAX_HOPS}], got {self.hops!r}")
        if _integer(self.window, "field 'window'") not in ALLOWED_WINDOWS:
            raise ValidationError(f"window must be odd and one of {ALLOWED_WINDOWS}, got {self.window!r}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValidationError(f"distance_mode must be one of {DISTANCE_MODES}, got {self.distance_mode!r}")
        expected = set(phi_offsets(self.window))
        got = {_integer(k, "phi offset") for k in self.phi}
        if got != expected:
            raise ValidationError(f"phi offsets {sorted(got)} do not match window {self.window} "
                                  f"(expected {sorted(expected)})")
        frozen: dict[int, np.ndarray] = {}
        for offset in sorted(self.phi):
            mat = np.array(self.phi[offset], dtype=np.float64)
            if mat.shape != (N_CLASSES, N_CLASSES):
                raise ValidationError(f"phi[{offset}] must have shape ({N_CLASSES}, {N_CLASSES}), got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"phi[{offset}] must be finite")
            if np.any(mat < 0):
                raise ValidationError(f"phi[{offset}] must be non-negative")
            mat.flags.writeable = False
            frozen[int(offset)] = mat
        object.__setattr__(self, "phi", frozen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionParams):
            return NotImplemented
        return (
            self.theta == other.theta
            and self.hops == other.hops
            and self.window == other.window
            and self.distance_mode == other.distance_mode
            and self.phi.keys() == other.phi.keys()
            and all(np.array_equal(self.phi[k], other.phi[k]) for k in self.phi)
        )
