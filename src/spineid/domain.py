"""Value types shared by every pipeline stage.

All types are immutable after construction and validate their invariants in
``__post_init__``; numpy-backed fields are stored as read-only arrays, so
instances are safe to share across threads and processes.

Coordinate convention (fixed, voxel units): the embedded frame is (x, y, z)
with z the cranial-caudal axis, increasing toward the head. A volume of shape
``(d, h, w)`` spans z in [0, d), y in [0, h) and x in [0, w). Sagittal slices
are indexed along x and coronal slices along y; within any slice the box
center is (cx, cy) where cy is the z coordinate.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .labels import N_CLASSES, VertebraLabel

PLANES = ("sagittal", "coronal")

# Probability vectors must renormalize to this tolerance after internal
# operations; files produced by external tools are accepted at 1e-6 and
# renormalized on ingest.
SUM_TOL_INTERNAL = 1e-9
SUM_TOL_INGEST = 1e-6

MAX_ENTROPY = math.log(N_CLASSES)


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {reprlib.repr(value)}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _probabilities(values, ndim: int, tol: float, name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, checked as probabilities.

    ``ndim`` 1 asks for one (24,) vector, ``ndim`` 2 for a non-empty matrix
    with one vector per row. Values must be finite and non-negative, and
    each vector must sum to 1 within ``tol``.
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
        got = "but a value exceeds 1" if over else f"got {float(np.atleast_1d(sums)[row])!r}"
        raise ValidationError(f"{name}{where} must sum to 1 within {tol}, {got}")
    arr.flags.writeable = False
    return arr


DETECTION_COLUMNS = ("plane", "slice_index", "cx", "cy", "w", "h", "confidence")
_INT_COLUMNS, _FLOAT_COLUMNS = DETECTION_COLUMNS[:2], DETECTION_COLUMNS[2:]


def _column(name: str, values, integer: bool) -> np.ndarray:
    """A read-only 1-D int64 or float64 copy of one detection column."""
    try:
        col = np.array(values, dtype=np.int64 if integer else np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"column {name} must hold numbers") from None
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
        try:
            shape = tuple(int(v) for v in self.volume_shape)
        except (TypeError, ValueError, OverflowError):
            shape = ()
        if len(shape) != 3 or any(v <= 0 for v in shape):
            raise ValidationError(f"volume_shape must be three positive extents, got {self.volume_shape!r}")
        object.__setattr__(self, "volume_shape", shape)
        if self.slice_count_per_plane <= 0:
            raise ValidationError(f"slice_count_per_plane must be positive, got {self.slice_count_per_plane}")
        for name in DETECTION_COLUMNS:
            object.__setattr__(self, name, _column(name, getattr(self, name), name in _INT_COLUMNS))
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
        pos = tuple(_require_finite(f"position[{i}]", v) for i, v in enumerate(self.position))
        if len(pos) != 3:
            raise ValidationError(f"position must have 3 coordinates, got {len(pos)}")
        object.__setattr__(self, "position", pos)
        dims = tuple(_require_finite(f"mean_dims[{i}]", v) for i, v in enumerate(self.mean_dims))
        if len(dims) != 2 or any(v <= 0 for v in dims):
            raise ValidationError(f"mean_dims must be two positive values, got {self.mean_dims!r}")
        object.__setattr__(self, "mean_dims", dims)
        if self.member_count < 1:
            raise ValidationError(f"member_count must be at least 1, got {self.member_count}")
        if self.z_rank < 0:
            raise ValidationError(f"z_rank must be non-negative, got {self.z_rank}")

    @property
    def z(self) -> float:
        return self.position[2]


@dataclass(frozen=True, eq=False)
class McSampleSet:
    """N stochastic forward-pass probability vectors for one vertebra."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _probabilities(self.samples, 2, SUM_TOL_INGEST, "samples"))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, McSampleSet):
            return NotImplemented
        return np.array_equal(self.samples, other.samples)


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Aggregated Monte Carlo statistics for one vertebra.

    ``mean_probs`` is the read-only (24,) mean distribution.
    ``certainty_weight`` is the entropy-complement weight used by message
    fusion: 1 for a one-hot mean distribution, 0 for a uniform one.
    """

    mean_probs: np.ndarray
    entropy: float
    variance: float
    certainty_weight: float

    def __post_init__(self):
        object.__setattr__(self, "mean_probs", _probabilities(self.mean_probs, 1, SUM_TOL_INTERNAL, "mean_probs"))
        ent = _require_finite("entropy", self.entropy)
        if not -1e-12 <= ent <= MAX_ENTROPY + 1e-12:
            raise ValidationError(f"entropy {ent} outside [0, ln {N_CLASSES}]")
        object.__setattr__(self, "entropy", ent)
        var = _require_finite("variance", self.variance)
        if var < 0:
            raise ValidationError(f"variance must be non-negative, got {var}")
        object.__setattr__(self, "variance", var)
        cw = _require_finite("certainty_weight", self.certainty_weight)
        if abs(cw - (1.0 - ent / MAX_ENTROPY)) > 1e-12:
            raise ValidationError("certainty_weight must equal 1 - entropy/ln(24)")
        object.__setattr__(self, "certainty_weight", cw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertaintyReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class SpineVertebra:
    """One vertebra record inside a case: clustered center, MC samples, optional truth."""

    center: VertebraCenter
    mc: McSampleSet
    truth: VertebraLabel | None = None
    uncertainty: UncertaintyReport | None = None
    fusion_weight: float | None = None

    def __post_init__(self):
        if not isinstance(self.center, VertebraCenter):
            raise ValidationError("center must be a VertebraCenter")
        if not isinstance(self.mc, McSampleSet):
            raise ValidationError("mc must be a McSampleSet")
        if self.truth is not None and not isinstance(self.truth, VertebraLabel):
            raise ValidationError("truth must be a VertebraLabel or None")
        if self.fusion_weight is not None:
            fw = _require_finite("fusion_weight", self.fusion_weight)
            if not 0.0 <= fw <= 1.0:
                raise ValidationError(f"fusion_weight must lie in [0, 1], got {fw}")
            object.__setattr__(self, "fusion_weight", fw)


@dataclass(frozen=True)
class SpineCase:
    """An ordered cranial-to-caudal sequence of vertebra records for one scan."""

    case_id: str
    vertebrae: tuple[SpineVertebra, ...]

    def __post_init__(self):
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
        truths = [v.truth for v in verts]
        if all(t is not None for t in truths):
            for i in range(len(truths) - 1):
                if truths[i + 1].index != truths[i].index + 1:
                    raise ValidationError(
                        "truth labels must increase by exactly 1 along the case, got "
                        f"{truths[i].name} -> {truths[i + 1].name} at position {i}"
                    )

    def __len__(self) -> int:
        return len(self.vertebrae)

    @property
    def truths(self) -> list[VertebraLabel] | None:
        """All-or-nothing ground truth; None when any vertebra lacks a label."""
        out = [v.truth for v in self.vertebrae]
        return out if all(t is not None for t in out) else None


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
        theta = _require_finite("theta", self.theta)
        if theta < 0:
            raise ValidationError(f"theta must be non-negative, got {theta}")
        object.__setattr__(self, "theta", theta)
        if not isinstance(self.hops, int) or isinstance(self.hops, bool) or not 0 <= self.hops <= MAX_HOPS:
            raise ValidationError(f"hops must be an integer in [0, {MAX_HOPS}], got {self.hops!r}")
        if self.window not in ALLOWED_WINDOWS:
            raise ValidationError(f"window must be odd and one of {ALLOWED_WINDOWS}, got {self.window!r}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValidationError(f"distance_mode must be one of {DISTANCE_MODES}, got {self.distance_mode!r}")
        expected = set(phi_offsets(self.window))
        got = {int(k) for k in self.phi}
        if got != expected:
            raise ValidationError(f"phi offsets {sorted(got)} do not match window {self.window} "
                                  f"(expected {sorted(expected)})")
        frozen: dict[int, np.ndarray] = {}
        for offset in sorted(self.phi, key=int):
            mat = np.array(self.phi[int(offset)], dtype=np.float64)
            if mat.shape != (N_CLASSES, N_CLASSES):
                raise ValidationError(f"phi[{offset}] must have shape ({N_CLASSES}, {N_CLASSES}), got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"phi[{offset}] must be finite")
            if np.any(mat < 0):
                raise ValidationError(f"phi[{offset}] must be non-negative")
            mat.flags.writeable = False
            frozen[int(offset)] = mat
        object.__setattr__(self, "phi", frozen)

    def with_phi(self, phi: dict[int, np.ndarray]) -> "FusionParams":
        return FusionParams(self.theta, self.hops, self.window, self.distance_mode, phi)

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
