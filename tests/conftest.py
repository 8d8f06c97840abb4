"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from spineid.domain import (
    McSampleSet,
    SpineCase,
    SpineVertebra,
    VertebraCenter,
    phi_offsets,
)
from spineid.labels import N_CLASSES
from spineid.synthetic import DetectConfig, GenConfig


def one_hot(index: int) -> np.ndarray:
    v = np.zeros(N_CLASSES)
    v[index] = 1.0
    return v


def unit_vector_batch() -> dict:
    """An embedding-batch file body: 16 random unit vectors in 8-D, four labels of four rows each, tau 0.5."""
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(16, 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    labels = np.repeat(rng.choice(N_CLASSES, size=4, replace=False), 4)
    return {"tau": 0.5, "labels": labels.tolist(), "vectors": vectors.tolist()}


def random_probs(rng: np.random.Generator, n_rows: int = 1, sharp: float = 1.0) -> np.ndarray:
    """Random valid probability rows via normalized positive draws."""
    raw = rng.uniform(0.01, 1.0, size=(n_rows, N_CLASSES)) ** sharp
    return raw / raw.sum(axis=1, keepdims=True)


def make_case(
    rows,
    truths=None,
    case_id: str = "case",
    spacing: float = 26.0,
    positions=None,
) -> SpineCase:
    """Build a case from per-vertebra MC sample matrices (or single rows)."""
    verts = []
    for i, row in enumerate(rows):
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        pos = positions[i] if positions is not None else (100.0 + 0.1 * i, 100.0, 500.0 - spacing * i)
        verts.append(
            SpineVertebra(
                center=VertebraCenter(
                    position=tuple(float(v) for v in pos),
                    mean_dims=(30.0, 20.0),
                    member_count=10,
                    z_rank=i,
                ),
                mc=McSampleSet(arr),
                truth=None if truths is None else truths[i],
            )
        )
    return SpineCase(case_id=case_id, vertebrae=tuple(verts))


def shift_phi(window: int, scale: float = 1.0) -> dict[int, np.ndarray]:
    """Ideal message matrices: a neighbor at offset d votes for class c - d."""
    phi = {}
    for d in phi_offsets(window):
        m = np.zeros((N_CLASSES, N_CLASSES))
        for c in range(N_CLASSES):
            if 0 <= c - d < N_CLASSES:
                m[c, c - d] = scale
        phi[d] = m
    return phi


def random_case(rng: np.random.Generator, k: int | None = None, with_truth: bool = True) -> SpineCase:
    """A random valid case with dispersed MC samples and distinct positions."""
    if k is None:
        k = int(rng.integers(2, 13))
    start = int(rng.integers(0, N_CLASSES - k + 1))
    rows = []
    for i in range(k):
        base = np.full(N_CLASSES, 0.01)
        base[start + i] = 1.0
        base /= base.sum()
        rows.append(rng.dirichlet(8.0 * base, size=int(rng.integers(1, 8))))
    truths = list(range(start, start + k)) if with_truth else None
    return make_case(rows, truths=truths, case_id=f"rand_{rng.integers(1e9)}")


@st.composite
def gen_configs(draw) -> GenConfig:
    """Small configurations with zero and large jitters, so that slice clipping and the 1.0 size floor both
    happen, noise up to 0.9, single-slice planes and both vertebra-count edges."""
    lo = draw(st.integers(1, N_CLASSES))
    span = draw(st.sampled_from([(1, 1), (N_CLASSES, N_CLASSES), (1, N_CLASSES), (lo, lo),
                                 (lo, draw(st.integers(lo, N_CLASSES)))]))
    sigma = st.just(0.0) | st.floats(0.0, 80.0)
    detect = DetectConfig(
        boxes_per_vertebra=draw(st.integers(1, 6)),
        count_jitter=draw(st.just(0.0) | st.floats(0.0, 0.99)),
        pos_sigma=draw(sigma),
        dim_sigma=draw(sigma),
        noise_rate=draw(st.just(0.0) | st.floats(0.0, 0.9)),
    )
    return GenConfig(seed=draw(st.integers(0, 2**64 - 1)), k_slices=draw(st.integers(1, 250)),
                     vertebrae_range=span, detect=detect)
