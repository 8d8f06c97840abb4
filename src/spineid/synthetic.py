"""Seeded synthetic spine cases with planted ground truth.

Each generated case carries a consecutive run of vertebra labels, centers on
a gently curved cranial-caudal curve, Dirichlet-sampled MC confidence
vectors whose base distribution leaks mass onto the anatomically adjacent
labels, and a paired detection set: per-plane boxes jittered around each
vertebra's central slices plus a configurable fraction of uniform noise
boxes. Everything derives from one master seed; equal configurations always
produce byte-identical corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import PLANES, DetectionSet, McSampleSet, SpineCase, SpineVertebra, VertebraCenter
from .errors import ValidationError, _integer_type, _number, _numbers
from .labels import N_CLASSES


@dataclass(frozen=True)
class ConfusionModel:
    """Base confidence mass placed on the truth and its neighbors.

    ``true_mass`` sits on the planted label, ``adjacent1`` on each label one
    step away, ``adjacent2`` two steps away and ``floor`` everywhere else;
    the vector is renormalized, which also absorbs mass lost at the label
    range edges.
    """

    true_mass: float = 0.7
    adjacent1: float = 0.1
    adjacent2: float = 0.02
    floor: float = 0.002

    def __post_init__(self):
        masses = {}
        for name in ("true_mass", "adjacent1", "adjacent2", "floor"):
            v = masses[name] = _number(getattr(self, name), name)
            if not 0 <= v < math.inf:
                raise ValidationError(f"{name} must be finite and non-negative, got {v!r}")
        if self.true_mass <= 0:
            raise ValidationError("true_mass must be positive")
        if self.true_mass <= max(self.adjacent1, self.adjacent2, self.floor):
            raise ValidationError("true_mass must dominate every off-target mass")
        # an edge label's vector holds two more floor entries than a middle one's, so any label's sum may be largest
        with np.errstate(over="ignore"):
            if not all(np.isfinite(self._masses(truth).sum()) for truth in range(N_CLASSES)):
                raise ValidationError("the masses of a base vector sum past float64: "
                                      + ", ".join(f"{name} {v!r}" for name, v in masses.items()))

    def _masses(self, truth: int) -> np.ndarray:
        """The base vector of label ``truth`` before it is renormalized."""
        base = np.full(N_CLASSES, self.floor, dtype=np.float64)
        base[truth] = self.true_mass
        for step, mass in ((1, self.adjacent1), (2, self.adjacent2)):
            for j in (truth - step, truth + step):
                if 0 <= j < N_CLASSES:
                    base[j] = mass
        return base

    def base_vector(self, truth: int) -> np.ndarray:
        base = self._masses(truth)
        return base / base.sum()


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sampling: N draws from Dirichlet(concentration * base)."""

    n_samples: int = 20
    concentration: float = 50.0

    def __post_init__(self):
        if not _integer_type(type(self.n_samples)) or self.n_samples < 1:
            raise ValidationError(f"n_samples must be an integer of at least 1, got {self.n_samples!r}")
        if not 0 < _number(self.concentration, "concentration") < math.inf:
            raise ValidationError(f"concentration must be positive, got {self.concentration!r}")


@dataclass(frozen=True)
class DetectConfig:
    """Detector emulation: box counts, jitters, and the uniform noise fraction."""

    boxes_per_vertebra: int = 30
    count_jitter: float = 0.2
    pos_sigma: float = 1.0
    dim_sigma: float = 1.0
    noise_rate: float = 0.1

    def __post_init__(self):
        boxes = self.boxes_per_vertebra
        if not _integer_type(type(boxes)) or boxes < 1:
            raise ValidationError(f"boxes_per_vertebra must be an integer of at least 1, got {boxes!r}")
        if not 0.0 <= _number(self.count_jitter, "count_jitter") < 1.0:
            raise ValidationError(f"count_jitter must lie in [0, 1), got {self.count_jitter!r}")
        for name in ("pos_sigma", "dim_sigma"):
            value = _number(getattr(self, name), name)
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be finite and non-negative, got {value!r}")
        if not 0.0 <= _number(self.noise_rate, "noise_rate") < 1.0:
            raise ValidationError(f"noise_rate must lie in [0, 1), got {self.noise_rate!r}")


# The most detection boxes, and the most MC sample rows, one generated case may hold; GenConfig refuses a
# setting that allows more before any draw. The largest test or benchmark case holds about 6,000 boxes.
MAX_CASE_SIZE = 1_000_000


@dataclass(frozen=True)
class GenConfig:
    """Top-level generator settings."""

    seed: int = 0
    n_cases: int = 1
    k_slices: int = 200
    vertebrae_range: tuple[int, int] = (4, 12)
    confusion: ConfusionModel = field(default_factory=ConfusionModel)
    mc: McConfig = field(default_factory=McConfig)
    detect: DetectConfig = field(default_factory=DetectConfig)

    def __post_init__(self):
        if not _integer_type(type(self.seed)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, value in (("n_cases", self.n_cases), ("k_slices", self.k_slices)):
            if not _integer_type(type(value)) or value < 1:
                raise ValidationError(f"{name} must be an integer of at least 1, got {value!r}")
        span = _numbers(self.vertebrae_range, "vertebrae_range", integer=True)
        if len(span) != 2 or not 1 <= span[0] <= span[1] <= N_CLASSES:
            raise ValidationError(f"vertebrae_range must be (min, max) with 1 <= min <= max <= {N_CLASSES}, "
                                  f"got {span!r}")
        vmax, detect = span[1], self.detect
        # as generate_case counts: 2 runs of round(boxes * (1 + jitter)) boxes per vertebra, then the noise;
        # boxes_per_vertebra is clamped just past the cap, so a huge one overflows no float
        run = max(1, round(min(detect.boxes_per_vertebra, MAX_CASE_SIZE + 1) * (1.0 + detect.count_jitter)))
        true = vmax * 2 * run
        if true + round(detect.noise_rate / (1.0 - detect.noise_rate) * true) > MAX_CASE_SIZE:
            raise ValidationError(f"vertebrae_range max {vmax}, boxes_per_vertebra {detect.boxes_per_vertebra}, "
                                  f"count_jitter {detect.count_jitter} and noise_rate {detect.noise_rate} allow "
                                  f"more than {MAX_CASE_SIZE} boxes per case")
        if vmax * self.mc.n_samples > MAX_CASE_SIZE:
            raise ValidationError(f"vertebrae_range max {vmax} and n_samples {self.mc.n_samples} allow more than "
                                  f"{MAX_CASE_SIZE} MC sample rows per case")


# Geometry of the planted spine, in voxels.
_SPACING = 26.0
_MARGIN = 40.0
_SAGITTAL, _CORONAL = PLANES.index("sagittal"), PLANES.index("coronal")


def _case_rng(master_seed: int, case_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(case_index,)))


def sample_mc(rng: np.random.Generator, base: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Dirichlet draws around a base vector; zero-mass classes stay zero."""
    support = base > 0.0
    rows = np.zeros((n, len(base)), dtype=np.float64)
    rows[:, support] = rng.dirichlet(kappa * base[support], size=n)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _true_boxes(rng: np.random.Generator, cfg: DetectConfig, xs, ys, zs, box_w, box_h, k_slices: int):
    """Box counts per vertebra, and the seven detection columns of the boxes around the vertebrae.

    Each vertebra gets a sagittal run of boxes, then a coronal one. A run draws
    its count, jittered when count_jitter > 0, then per box five standard
    normals (slice, cx, cy, w, h) and one uniform in [0, 1) for the
    confidence: the stream of five scalar ``normal(0, sigma)`` calls and one
    ``uniform(0.6, 0.99)`` call, in two calls. A sagittal box's slice jitters
    around x and its cx around y; a coronal box swaps the two.
    """
    k = len(xs)
    counts = np.full(2 * k, cfg.boxes_per_vertebra, dtype=np.int64)
    blocks = []
    for run in range(2 * k):
        if cfg.count_jitter > 0:
            jitter = rng.uniform(-cfg.count_jitter, cfg.count_jitter)
            counts[run] = max(1, int(round(cfg.boxes_per_vertebra * (1.0 + jitter))))
        block = np.empty((counts[run], 6))
        for row in block:
            rng.standard_normal(out=row[:5])
            row[5] = rng.random()
        blocks.append(block)
    draws = np.concatenate(blocks)

    def per_box(sagittal, coronal):
        return np.column_stack((sagittal, coronal)).ravel().repeat(counts)

    with np.errstate(over="ignore"):  # inf, as the scalar draw gives; the checks below name the sigma that made it
        pos = 0.0 + cfg.pos_sigma * draws[:, :3]
        dims = 0.0 + cfg.dim_sigma * draws[:, 3:5]
    at = per_box(xs, ys) + pos[:, 0]
    if not np.isfinite(at).all():
        raise ValidationError(f"pos_sigma {cfg.pos_sigma!r} is too large: a jittered slice position overflows float64")
    cx, cy = per_box(ys, xs) + pos[:, 1], per_box(zs, zs) + pos[:, 2]
    if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
        raise ValidationError(f"pos_sigma {cfg.pos_sigma!r} is too large: a jittered box center overflows float64")
    w, h = np.maximum(1.0, per_box(box_w, box_w) + dims[:, 0]), np.maximum(1.0, per_box(box_h, box_h) + dims[:, 1])
    if not (np.isfinite(w).all() and np.isfinite(h).all()):
        raise ValidationError(f"dim_sigma {cfg.dim_sigma!r} is too large: a jittered box size overflows float64")
    columns = (
        np.tile([_SAGITTAL, _CORONAL], k).repeat(counts),
        np.clip(np.rint(at), 0, k_slices - 1).astype(np.int64),
        cx, cy, w, h,
        0.6 + (0.99 - 0.6) * draws[:, 5],
    )
    return counts.reshape(k, 2).sum(axis=1).tolist(), columns


def _noise_boxes(rng: np.random.Generator, n: int, k_slices: int, depth: int):
    """The seven detection columns of ``n`` boxes uniform over the volume.

    Per box, in stream order: the plane, the slice, then five uniforms in
    [0, 1), each scaled as ``uniform(low, high)`` scales its draw.
    """
    sagittal = np.empty(n, dtype=bool)
    slices = np.empty(n, dtype=np.int64)
    draws = np.empty((n, 5))
    for i in range(n):
        sagittal[i] = rng.random() < 0.5
        slices[i] = rng.integers(0, k_slices)
        rng.random(out=draws[i])
    low = np.array([0.0, 0.0, 10.0, 10.0, 0.1])
    high = np.array([k_slices, depth, 45.0, 45.0, 0.9])
    return np.where(sagittal, _SAGITTAL, _CORONAL), slices, *(low + (high - low) * draws).T


def generate_case(cfg: GenConfig, case_index: int) -> tuple[SpineCase, DetectionSet]:
    """One seeded case: planted truths, MC samples, centers, and detections."""
    rng = _case_rng(cfg.seed, case_index)
    lo, hi = cfg.vertebrae_range
    k = int(rng.integers(lo, hi + 1))
    start = int(rng.integers(0, N_CLASSES - k + 1))

    depth = int(math.ceil(_SPACING * (k - 1) + 2 * _MARGIN))
    width = height = cfg.k_slices
    amp = rng.uniform(5.0, 15.0, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
    ts = np.arange(k) / max(k - 1, 1)
    xs = width / 2.0 + amp[0] * np.sin(math.pi * ts + phase[0])
    ys = height / 2.0 + amp[1] * np.sin(math.pi * ts + phase[1])
    zs = depth - _MARGIN - _SPACING * np.arange(k)
    box_w = rng.uniform(26.0, 34.0, size=k)
    box_h = rng.uniform(17.0, 23.0, size=k)

    per_vertebra_counts, true_columns = _true_boxes(rng, cfg.detect, xs, ys, zs, box_w, box_h, cfg.k_slices)
    n_true = len(true_columns[0])
    rate = cfg.detect.noise_rate
    n_noise = int(round(rate / (1.0 - rate) * n_true)) if rate > 0 else 0
    noise_columns = _noise_boxes(rng, n_noise, cfg.k_slices, depth)

    samples = [sample_mc(rng, cfg.confusion.base_vector(start + i), cfg.mc.concentration, cfg.mc.n_samples)
               for i in range(k)]
    sample_sets = McSampleSet._split(np.concatenate(samples), [len(rows) for rows in samples])
    vertebrae = [
        SpineVertebra(
            center=VertebraCenter(
                position=(float(xs[i]), float(ys[i]), float(zs[i])),
                mean_dims=(float(box_w[i]), float(box_h[i])),
                member_count=per_vertebra_counts[i],
                z_rank=i,
            ),
            mc=sample_sets[i],
            truth=start + i,
        )
        for i in range(k)
    ]

    case_id = f"case_{case_index:04d}"
    case = SpineCase(case_id=case_id, vertebrae=tuple(vertebrae))
    dets = DetectionSet(case_id, (depth, height, width), cfg.k_slices,
                        *map(np.concatenate, zip(true_columns, noise_columns)))
    return case, dets


def gen_cases(cfg: GenConfig) -> list[tuple[SpineCase, DetectionSet]]:
    """Generate the whole corpus; each case draws from its own child seed."""
    return [generate_case(cfg, i) for i in range(cfg.n_cases)]
