"""Clustering: embedding, density oracle, recovery, and determinism."""

import hashlib
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from spineid.clustering import (
    ClusterConfig,
    _canonical_order,
    _component_roots,
    _dbscan,
    _degrees,
    _dimension_labels,
    _median_boxes_per_slice,
    _pairs,
    _segment_medians,
    box_densities,
    cluster_centers,
    embed_detections,
)
from spineid.domain import DETECTION_COLUMNS, PLANES, DetectionSet, VertebraCenter
from spineid.errors import EmptyClusterError, ValidationError
from spineid.io import load_detections, save_centers, save_detections
from spineid.synthetic import DetectConfig, GenConfig, generate_case


SAGITTAL, CORONAL = PLANES.index("sagittal"), PLANES.index("coronal")


def detection_set(case_id, volume, k, rows) -> DetectionSet:
    """A DetectionSet from (plane, slice_index, cx, cy, w, h, confidence) rows."""
    return DetectionSet(case_id, volume, k, *(zip(*rows) if rows else [()] * len(DETECTION_COLUMNS)))


def brute_density_counts(pts: np.ndarray, eps: float) -> np.ndarray:
    """Independent O(n^2) neighbor counts via a full pairwise distance matrix."""
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = (diff**2).sum(axis=2)
    within = d2 <= eps * eps
    return within.sum(axis=1) - 1  # drop self


def permuted(ds: DetectionSet, perm: np.ndarray) -> DetectionSet:
    return DetectionSet(ds.case_id, ds.volume_shape, ds.slice_count_per_plane,
                        *(getattr(ds, name)[perm] for name in DETECTION_COLUMNS))


def doubled_dims(ds: DetectionSet, rows=slice(None, None, 2)) -> DetectionSet:
    """The same boxes with the width and height of ``rows`` doubled."""
    w, h = ds.w.copy(), ds.h.copy()
    w[rows] *= 2
    h[rows] *= 2
    return DetectionSet(ds.case_id, ds.volume_shape, ds.slice_count_per_plane, ds.plane, ds.slice_index,
                        ds.cx, ds.cy, w, h, ds.confidence)


def bfs_dbscan(pts: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Oracle: breadth-first DBSCAN grown from each unlabeled core point in index order."""
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    neighbors = [sorted(nb) for nb in cKDTree(pts).query_ball_point(pts, r=eps)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    cluster = 0
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        labels[start] = cluster
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in neighbors[p]:
                if labels[q] == -1:
                    labels[q] = cluster
                    if core[q]:
                        queue.append(q)
        cluster += 1
    return labels


def looped_dbscan(n: int, i: np.ndarray, j: np.ndarray, min_pts: int) -> tuple[np.ndarray, int]:
    """Oracle: _dbscan with the loop it had before the early stop, and the number of hooking rounds it ran.

    The loop ends only on a round that changes nothing, so it always runs one
    round more than _dbscan needs.
    """
    core = _degrees(n, i, j) + 1 >= min_pts
    core_i, core_j = core[i], core[j]
    linked = core_i & core_j
    a, b = i[linked], j[linked]
    root = np.arange(n)
    rounds = 0
    while True:
        rounds += 1
        hooked = root.copy()
        np.minimum.at(hooked, root[a], root[b])
        np.minimum.at(hooked, root[b], root[a])
        hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            break
        root = hooked
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(root[core], return_inverse=True)[1]
    border = core_i != core_j
    inner = np.where(core_i, i, j)[border]
    outer = np.where(core_i, j, i)[border]
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, outer, labels[inner])
    np.copyto(labels, lowest, where=lowest < n)
    return labels, rounds


def lifted_dimensions(dims: np.ndarray, pos_labels: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """The dimension pass's (w, h, label * 2r) boxes and their radius r."""
    radius = min(eps, 2.0 * float(dims[:, 0].max() + dims[:, 1].max()))
    return np.column_stack((dims, pos_labels * (2.0 * radius))), radius


def all_pairs_dimension_labels(dims: np.ndarray, pos_labels: np.ndarray, eps: float) -> np.ndarray:
    """Oracle: the dimension pass before the one-ball shortcut, one lifted pair query over every clustered box."""
    lifted, radius = lifted_dimensions(dims, pos_labels, eps)
    return _dbscan(len(dims), *_pairs(lifted, radius, "box dimensions"), 2)


def dropped_box_has_neighbour(ds: DetectionSet, cfg: ClusterConfig) -> bool:
    """Whether a box the density floor drops is within eps_pos of another box, so pass 2 must drop a pair."""
    pts = embed_detections(ds)
    degrees = _degrees(len(pts), *_pairs(pts, cfg.eps_pos, "box centers"))
    return bool(degrees[degrees / _median_boxes_per_slice(ds) < cfg.density_floor].any())


@st.composite
def dbscan_clouds(draw):
    """(points, eps, min_pts) in 2-D or 3-D, uniform or on an integer grid.

    Grid clouds repeat points and put many pairs at exactly eps. Each star is a
    center with min_pts - 1 leaves (at most two per axis) along distinct axis
    directions; when it has that many, the center is core and, for
    min_pts >= 3, its leaves are border points.
    """
    dim = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 150))
    min_pts = draw(st.integers(2, 7))
    grid = draw(st.booleans())
    if grid:
        eps = float(draw(st.integers(1, 3)))
        pts = rng.integers(0, 12, size=(n, dim)).astype(np.float64)
    else:
        eps = draw(st.floats(0.5, 6.0))
        pts = rng.uniform(0, 30, size=(n, dim))
    directions = np.concatenate((np.eye(dim), -np.eye(dim)))[: min_pts - 1]
    reach = eps if grid else 0.75 * eps
    stars = [c + np.vstack((np.zeros(dim), reach * directions))
             for c in rng.integers(0, 40, size=(draw(st.integers(0, 3)), dim)).astype(np.float64)]
    pts = np.vstack([pts] + stars)
    return pts[rng.permutation(len(pts))], eps, min_pts


@st.composite
def dimension_clusters(draw):
    """(dims, pos_labels, eps) for the dimension pass, one position cluster of each drawn kind in turn.

    - single: one box, which is noise;
    - ball: boxes whose (w, h) extent lies well inside one eps-ball;
    - spread: boxes scattered over several eps, so the pair query splits them;
    - edge: the two ends of a diagonal eps long times 1 + k * 2**-52, or that
      far from the 1e-9 margin, with k in [-8, 8], plus boxes on its sides,
      so the extent sits a few ulps off eps (or the margin) on either side;
    - huge: copies of one box 1e200 wide.

    eps can be 1e200, which overflows eps**2, and the huge boxes overflow the
    squared spread of any call that also holds ordinary boxes or a second
    cluster lifted 2e200 apart.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from((0.5, 3.0, 10.0, 1e200)))
    kinds = draw(st.lists(st.sampled_from(("single", "ball", "spread", "edge", "huge")), min_size=1, max_size=6))
    reach = min(eps, 100.0)
    groups = []
    for kind in kinds:
        m = draw(st.integers(2, 12))
        base = rng.uniform(1.0, 50.0, size=2)
        if kind == "single":
            rows = base[None]
        elif kind == "ball":
            rows = base + rng.uniform(0.0, reach / 2, size=(m, 2))
        elif kind == "spread":
            rows = base + rng.uniform(0.0, 4 * reach, size=(m, 2))
        elif kind == "edge":
            scale = draw(st.sampled_from((1.0, float(np.sqrt(1 - 1e-9))))) * (1 + draw(st.integers(-8, 8)) * 2.0**-52)
            angle = draw(st.sampled_from((0.0, np.pi / 4, np.pi / 2))) + rng.uniform(-0.3, 0.3)
            diagonal = reach * scale * np.array([abs(np.cos(angle)), abs(np.sin(angle))])
            corner = np.array([64.0, 64.0])
            sides = corner + rng.uniform(0.0, 1.0, size=(m - 2, 1)) * diagonal * rng.integers(0, 2, size=(m - 2, 2))
            rows = np.vstack((corner, corner + diagonal, sides))
        else:
            rows = np.tile([1e200, base[1]], (m, 1))
        groups.append(rows[rng.permutation(len(rows))])
    dims = np.vstack(groups)
    pos_labels = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return dims, pos_labels, eps

@st.composite
def median_groups(draw):
    """(seg, values, counts) for _segment_medians: groups of 1 to 9 rows, rows shuffled.

    Values are (m,) or (m, 5). Labels skip values, as the winners of the
    dimension pass do, and there may be no group at all. Most values come from
    a few exact numbers, -0.0 and 0.0 among them, so groups hold ties and zeros
    of both signs; the rest are uniform draws whose sums round.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 9), max_size=6))
    seg = np.repeat(np.cumsum(rng.integers(1, 4, size=len(sizes))) - 1, sizes)
    shape = (len(seg),) + draw(st.sampled_from(((), (5,))))
    exact = rng.choice([-0.0, 0.0, 1.0, -2.5, 0.1, 3.0], size=shape)
    values = np.where(rng.uniform(size=shape) < 0.6, exact, rng.uniform(-5.0, 5.0, size=shape))
    perm = rng.permutation(len(seg))
    return seg[perm], values[perm], np.array(sizes, dtype=np.int64)


def loop_centers(ds: DetectionSet, cfg: ClusterConfig) -> list[VertebraCenter]:
    """Oracle: cluster_centers with the per-cluster loop it once ended in, one np.median per coordinate.

    Passes 1-3 label boxes as cluster_centers once did, pass 2 over the boxes
    that survived pass 1, renumbered; the loop then picks each position
    cluster's dimension cluster and takes its medians one cluster at a time.
    """
    pts = embed_detections(ds)
    order = np.lexsort((ds.confidence, ds.h, ds.w, pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    dims = np.column_stack((ds.w, ds.h))[order]
    i, j = _pairs(pts, cfg.eps_pos, "box centers")
    keep = _degrees(len(pts), i, j) / _median_boxes_per_slice(ds) >= cfg.density_floor
    dropped_density = int(np.count_nonzero(~keep))
    renumber = np.cumsum(keep) - 1
    both = keep[i] & keep[j]
    pos_labels = _dbscan(int(np.count_nonzero(keep)), renumber[i[both]], renumber[j[both]], cfg.min_pts)
    dropped_position = int(np.count_nonzero(pos_labels == -1))
    by_label = np.flatnonzero(pos_labels >= 0)
    by_label = by_label[np.argsort(pos_labels[by_label], kind="stable")]
    pts3, dims3, labels3 = pts[keep][by_label], dims[keep][by_label], pos_labels[by_label]
    n_clusters = int(labels3[-1]) + 1 if len(labels3) else 0
    all_dim_labels = _dimension_labels(dims3, labels3, cfg.eps_dim) if n_clusters else labels3
    bounds = np.searchsorted(labels3, np.arange(n_clusters + 1))
    dropped_dimension = 0
    centers: list[tuple[float, float, float, float, float, int]] = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        member_pts = pts3[start:stop]
        member_dims = dims3[start:stop]
        dim_labels = all_dim_labels[start:stop]
        if dim_labels.max() < 0:
            dropped_dimension += int(stop - start)
            continue
        # Labels run on from earlier clusters; the zero counts below this
        # cluster's first label never win, and the order of its own is kept.
        sizes = np.bincount(dim_labels[dim_labels >= 0])
        # Largest dimension cluster wins; equal sizes resolve to the smaller
        # median box area, since oversized boxes straddling two vertebrae are
        # the dominant failure mode being rejected here.
        candidates = np.flatnonzero(sizes == sizes.max())
        areas = [float(np.median(np.prod(member_dims[dim_labels == c], axis=1))) for c in candidates]
        best = int(candidates[int(np.argmin(areas))])
        if len(candidates) > 1:
            event("equal-size dimension clusters" + (", equal areas" if len(set(areas)) < len(areas) else ""))
        kept = dim_labels == best
        dropped_dimension += int(np.count_nonzero(~kept))
        if kept.sum() < cfg.min_pts:
            # a cluster thinned below min_pts no longer counts as a vertebra
            dropped_dimension += int(kept.sum())
            continue
        if np.any((member_pts[kept] == 0) & np.signbit(member_pts[kept])):
            event("-0.0 among a center's coordinates")
        cx, cy, cz = (float(np.median(member_pts[kept, a])) for a in range(3))
        mw = float(np.median(member_dims[kept, 0]))
        mh = float(np.median(member_dims[kept, 1]))
        centers.append((cx, cy, cz, mw, mh, int(kept.sum())))

    if not centers:
        raise EmptyClusterError(
            dropped_density=dropped_density,
            dropped_position=dropped_position,
            dropped_dimension=dropped_dimension,
        )

    centers.sort(key=lambda c: (-c[2], c[0], c[1]))
    return [
        VertebraCenter(position=(cx, cy, cz), mean_dims=(mw, mh), member_count=m, z_rank=rank)
        for rank, (cx, cy, cz, mw, mh, m) in enumerate(centers)
    ]


# (10, 30) and (30, 10) have equal areas, as do (15, 20) and (20, 15)
BOX_SIZES = ((10.0, 30.0), (30.0, 10.0), (15.0, 20.0), (20.0, 15.0), (10.0, 10.0), (40.0, 40.0))


@st.composite
def tied_detections(draw):
    """(DetectionSet, ClusterConfig) built to reach every tie-break of the dimension pass.

    Each planted vertebra gets one to three groups of boxes, every group of one
    size from BOX_SIZES, so groups of equal count tie on size and often on area
    too. Box centers sit on a unit grid around the vertebra where a zero
    coordinate carries either sign, so the middle of a sorted group can be -0.0.
    Noise boxes come alone or in pairs; at a density floor of 0.6 or 1.0, the
    two boxes of a pair can fall below it although each has a neighbour.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for center in rng.integers(0, 4, size=(draw(st.integers(1, 4)), 3)) * 20.0:
        for _ in range(draw(st.integers(1, 3))):
            w, h = BOX_SIZES[draw(st.integers(0, len(BOX_SIZES) - 1))]
            for _ in range(draw(st.integers(1, 5))):
                plane = int(rng.integers(0, 2))
                offset = rng.choice([-1.0, -0.0, 0.0, 1.0], size=3)
                x, y, z = np.where(center == 0, offset, center + offset)
                normal, in_plane = (x, y) if plane == SAGITTAL else (y, x)
                rows.append((plane, int(max(0.0, normal)), in_plane, z, w, h, float(rng.uniform())))
    for _ in range(draw(st.integers(0, 6))):
        plane, index, in_plane, z = int(rng.integers(0, 2)), int(rng.integers(0, 80)), *rng.uniform(0, 80, size=2)
        for _ in range(int(rng.integers(1, 3))):  # a lone box or a pair one unit apart
            rows.append((plane, index, in_plane, z, *BOX_SIZES[4], 0.5))
            z += 1.0
    cfg = ClusterConfig(eps_pos=draw(st.sampled_from((1.5, 2.5, 6.0))), min_pts=draw(st.integers(2, 6)),
                        eps_dim=draw(st.sampled_from((0.5, 5.0, 15.0, 1e3))),
                        density_floor=draw(st.sampled_from((0.05, 0.1, 0.3, 0.6, 1.0))))
    return detection_set("tied", (100, 100, 100), 100, rows), cfg


@st.composite
def dense_scans(draw) -> DetectionSet:
    """The detections of one criterion-2 scan: 200 slices per plane, 3 to 24 vertebrae of 30 boxes, 10% noise."""
    gen = GenConfig(seed=draw(st.integers(0, 2**64 - 1)), k_slices=200, vertebrae_range=(3, 24),
                    detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1))
    return generate_case(gen, draw(st.integers(0, 199)))[1]


def blob_detections(
    rng,
    centers,
    boxes_each=30,
    sigma=1.0,
    dims=(30.0, 20.0),
    noise=0,
    volume=(600, 200, 200),
    dim_sigma=0.5,
    dims_per_center=None,
):
    """Boxes jittered around planted 3D centers, both planes, plus noise."""
    d, h, w = volume
    rows = []
    for ci, (x, y, z) in enumerate(centers):
        bw, bh = dims if dims_per_center is None else dims_per_center[ci]
        for plane, normal, in_cx in ((SAGITTAL, x, y), (CORONAL, y, x)):
            extent = w if plane == SAGITTAL else h
            for _ in range(boxes_each // 2):
                rows.append(
                    (
                        plane,
                        int(np.clip(round(normal + rng.normal(0, sigma)), 0, extent - 1)),
                        float(in_cx + rng.normal(0, sigma)),
                        float(z + rng.normal(0, sigma)),
                        float(max(1.0, bw + rng.normal(0, dim_sigma))),
                        float(max(1.0, bh + rng.normal(0, dim_sigma))),
                        float(rng.uniform(0.5, 1.0)),
                    )
                )
    for _ in range(noise):
        plane = SAGITTAL if rng.uniform() < 0.5 else CORONAL
        rows.append(
            (
                plane,
                int(rng.integers(0, w if plane == SAGITTAL else h)),
                float(rng.uniform(0, h if plane == SAGITTAL else w)),
                float(rng.uniform(0, d)),
                float(rng.uniform(5, 45)),
                float(rng.uniform(5, 45)),
                float(rng.uniform(0.1, 0.9)),
            )
        )
    return detection_set("blob", volume, max(w, h), rows)


class TestEmbedding:
    VOLUME = (64, 64, 64)

    def test_sagittal_mapping(self):
        ds = detection_set("e", self.VOLUME, 10, [(SAGITTAL, 10, 5.0, 7.0, 3.0, 3.0, 0.9)])
        p = embed_detections(ds)
        assert p.dtype == np.float64 and p.shape == (1, 3)
        assert np.array_equal(p, [[10.0, 5.0, 7.0]])

    def test_coronal_mapping(self):
        ds = detection_set("e", self.VOLUME, 10, [(CORONAL, 10, 5.0, 7.0, 3.0, 3.0, 0.9)])
        p = embed_detections(ds)
        assert p.dtype == np.float64 and p.shape == (1, 3)
        assert np.array_equal(p, [[5.0, 10.0, 7.0]])

    def test_mixed_planes_map_row_by_row(self):
        ds = detection_set("e", self.VOLUME, 10, [(CORONAL, 10, 5.0, 7.0, 3.0, 3.0, 0.9),
                                                  (SAGITTAL, 3, 1.25, 9.5, 2.0, 2.0, 0.5)])
        assert np.array_equal(embed_detections(ds), [[5.0, 10.0, 7.0], [3.0, 1.25, 9.5]])

    def test_deterministic(self):
        ds = detection_set("e", self.VOLUME, 10, [(SAGITTAL, 3, 1.25, 9.5, 2.0, 2.0, 0.5)])
        assert np.array_equal(embed_detections(ds), embed_detections(ds))


class TestClusterConfig:
    @pytest.mark.parametrize("field, value", [
        ("eps_pos", "6"), ("eps_dim", None), ("density_floor", True), ("eps_pos", np.True_),
        ("min_pts", 2.5), ("min_pts", True), ("min_pts", np.float64(4.0)), ("min_pts", "4"),
    ], ids=["eps-pos-str", "eps-dim-none", "density-floor-bool", "eps-pos-numpy-bool",
            "min-pts-float", "min-pts-bool", "min-pts-numpy-float", "min-pts-str"])
    def test_wrong_types_rejected(self, field, value):
        kw = dict(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1) | {field: value}
        with pytest.raises(ValidationError, match=field):
            ClusterConfig(**kw)

    def test_numpy_scalars_accepted(self):
        cfg = ClusterConfig(eps_pos=np.float64(6.0), min_pts=np.int64(4), eps_dim=np.float32(10.0),
                            density_floor=np.float64(0.1))
        assert cfg.min_pts == 4 and cfg.eps_pos == 6.0

    @pytest.mark.parametrize("field, value", [
        ("eps_pos", 0.0), ("eps_dim", float("inf")), ("min_pts", 1), ("density_floor", 0.0), ("density_floor", 1.5),
    ])
    def test_out_of_range_rejected(self, field, value):
        kw = dict(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1) | {field: value}
        with pytest.raises(ValidationError, match=field):
            ClusterConfig(**kw)


class TestBoxDensity:
    def test_isolated_point(self):
        pts = np.array([[0, 0, 0], [100, 100, 100], [200, 0, 0]], dtype=float)
        assert box_densities(pts, eps=5.0, l=5)[0] == 0.0

    def test_four_neighbors(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [50, 50, 50]], dtype=float)
        assert box_densities(pts, eps=2.0, l=5)[0] == pytest.approx(4 / 5)

    def test_rejects_non_point_arrays(self):
        for bad in (np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3, 3))):
            with pytest.raises(ValidationError, match=r"\(n, 3\)"):
                box_densities(bad, eps=1.5, l=2)

    @pytest.mark.parametrize("eps, l, message", [
        ("1", 5, "eps has an invalid value '1'"),
        (1.0, "5", "l has an invalid value '5'"),
        (True, 5, "eps has an invalid value True"),
        (math.nan, 5, "eps must be a positive finite radius, got nan"),
        (1.0, math.inf, "l must be a positive finite frame count, got inf"),
        (1.0, -2, "l must be a positive finite frame count, got -2.0"),
        (1.0, 0, "l must be a positive finite frame count, got 0.0"),
    ], ids=["eps-string", "l-string", "eps-bool", "eps-nan", "l-inf", "l-negative", "l-zero"])
    def test_eps_and_l_must_be_positive_finite_numbers(self, eps, l, message):
        # once a raw TypeError, a numpy UFuncTypeError, radius 1, all zeros and negative densities
        with pytest.raises(ValidationError, match=re.escape(message)):
            box_densities(np.zeros((2, 3)), eps=eps, l=l)

    def test_no_points(self):
        # once numpy's raw "zero-size array to reduction operation maximum" ValueError
        densities = box_densities(np.empty((0, 3)), 1.0, 1.0)
        assert densities.dtype == np.float64 and densities.shape == (0,)

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 51))
            pts = rng.uniform(0, 30, size=(n, 3))
            eps = float(rng.uniform(0.5, 15))
            l_i = int(rng.integers(1, 10))
            counts = brute_density_counts(pts, eps)
            assert np.array_equal(box_densities(pts, eps, l_i), counts / l_i)


class TestPairs:
    """_pairs sweeps sorted coordinates; its pairs must be those of scipy's cKDTree, each as (lower, higher)."""

    @staticmethod
    def pair_list(i, j) -> list[tuple[int, int]]:
        return sorted(zip(i.tolist(), j.tolist()))

    def check(self, pts, eps, what) -> int:
        """Assert _pairs lists cKDTree's pairs; return how many lie at exactly eps."""
        i, j = _pairs(pts, eps, what)
        assert i.flags.c_contiguous and j.flags.c_contiguous
        assert (i < j).all()
        expected = cKDTree(pts).query_pairs(eps, output_type="ndarray").T
        sq = np.zeros(expected.shape[1])
        for column in pts.T:
            sq += (column[expected[0]] - column[expected[1]]) ** 2
        assert self.pair_list(i, j) == self.pair_list(*expected)
        return int(np.count_nonzero(sq == eps * eps))

    @settings(max_examples=300, deadline=None)
    @given(dbscan_clouds())
    def test_same_pairs_as_default_tree(self, cloud):
        pts, eps, _ = cloud
        event("a pair at exactly eps" if self.check(pts, eps, "points") else "no pair at exactly eps")

    @settings(max_examples=300, deadline=None)
    @given(dimension_clusters())
    def test_same_pairs_as_default_tree_lifted(self, case):
        lifted, radius = lifted_dimensions(*case)
        try:
            at_eps = self.check(lifted, radius, "box dimensions")
        except ValidationError:
            event("rejected")
        else:
            event("a pair at exactly eps" if at_eps else "no pair at exactly eps")

    @pytest.mark.parametrize("eps", [1.0, 2.0, math.sqrt(2), math.sqrt(5), 3.0])
    def test_integer_grid_with_many_pairs_at_eps(self, eps):
        # squared distances are exact integers, and sqrt(2) and sqrt(5) square to a rounded bound
        grid = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = np.vstack((grid, grid[::5]))[np.random.default_rng(0).permutation(len(grid) + len(grid[::5]))]
        if eps * eps == round(eps * eps):
            assert self.check(pts, eps, "points") > 100
        else:
            self.check(pts, eps, "points")

    @pytest.mark.parametrize("scale", [1e6, 2.0**52, 1e15, 1e150])
    def test_large_magnitude_points_with_a_tiny_extent(self, scale):
        # coordinates a few ulps apart, so every difference and window end is a multiple of one ulp
        ulp = np.spacing(scale)
        base = np.array([scale, -scale, 0.75 * scale])
        pts = base + np.random.default_rng(1).integers(-30, 30, size=(300, 3)) * ulp
        for eps in ulp * np.array([1.0, 7.0, 7.5, 40.0]):
            self.check(pts, eps, "points")

    def test_pairs_across_zero_need_the_window_margin(self):
        # -1e16 and 0.3 are 1e16 + 0.3 apart, which rounds to 1e16: the pair is at exactly eps, while
        # -1e16 + eps is 0.0, short of 0.3; the squared distance from -1e16 to (0.5, 1) rounds to eps**2 too
        pts = np.array([[-1e16, 0.0, 0.0], [0.3, 0.0, 0.0], [0.5, 1.0, 0.0], [-1e16 + 2, 0.0, 0.0]])
        assert self.check(pts, 1e16, "points") == 2
        assert self.pair_list(*_pairs(pts, 1e16, "points")) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_squares_are_summed_in_column_order(self):
        # (dx*dx + dy*dy) + dz*dz rounds to eps * eps here, while (dz*dz + dy*dy) + dx*dx rounds above it
        d = np.array([0.2997118905373848, 0.42268722119765845, 0.028319671145462966])
        eps = 0.5189351674988685
        assert (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2] == eps * eps < (d[2] * d[2] + d[1] * d[1]) + d[0] * d[0]
        assert self.check(np.array([[0.0, 0.0, 0.0], d]), eps, "points") == 1

    def test_tiny_eps_keeps_pairs_whose_squares_underflow(self):
        # eps * eps underflows to 0.0, and so does the square of any distance below about 1.5e-162
        pts = np.array([[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0], [3e-162, 0.0, 0.0], [1e-170, 1e-170, 1e-170]])
        self.check(pts, 1e-300, "points")
        assert self.pair_list(*_pairs(pts, 1e-300, "points")) == [(0, 1), (0, 3), (1, 3)]

    @pytest.mark.parametrize("pts", [np.empty((0, 3)), np.array([[1.0, 2.0, 3.0]]), np.full((40, 3), 2.5)],
                             ids=["none", "one", "identical"])
    def test_degenerate_clouds(self, pts):
        self.check(pts, 1.0, "points")
        i, j = _pairs(pts, 1.0, "points")
        assert len(i) == len(pts) * (len(pts) - 1) // 2

    def test_cloud_dense_along_every_axis(self):
        # every axis's window holds most of the cloud, yet most candidates lie farther than eps
        pts = np.random.default_rng(2).uniform(0.0, 1.0, size=(600, 3))
        self.check(pts, 0.4, "points")

    @pytest.mark.parametrize("eps_dim", [0.5, 3.0, 10.0])
    def test_lifted_dimension_clusters_of_a_dense_case(self, eps_dim):
        gen = GenConfig(seed=2002, n_cases=1, k_slices=200, vertebrae_range=(12, 12),
                        detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1))
        ds = generate_case(gen, 0)[1]
        pts = embed_detections(ds)
        pos_labels = _dbscan(len(pts), *_pairs(pts, 6.0, "box centers"), 4)
        by_label = np.argsort(pos_labels, kind="stable")[np.count_nonzero(pos_labels < 0):]
        lifted, radius = lifted_dimensions(np.column_stack((ds.w, ds.h))[by_label], pos_labels[by_label], eps_dim)
        self.check(lifted, radius, "box dimensions")


class TestDbscan:
    @settings(max_examples=300, deadline=None)
    @given(dbscan_clouds())
    def test_matches_breadth_first_oracle(self, cloud):
        pts, eps, min_pts = cloud
        pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
        labels = _dbscan(len(pts), *pairs.T, min_pts)
        expected = bfs_dbscan(pts, eps, min_pts)
        core = np.bincount(pairs.ravel(), minlength=len(pts)) + 1 >= min_pts
        event("border points" if np.any(~core & (expected >= 0)) else "no border points")
        assert np.array_equal(labels, expected)

    def test_border_point_joins_lowest_cluster(self):
        # two core centers, each with three leaves; the last point is a border
        # point at exactly eps from both centers
        pts = np.array([[2, 0], [2, 1], [2, -1], [3, 0], [0, 0], [0, 1], [0, -1], [-1, 0], [1, 0]], dtype=float)
        labels = _dbscan(len(pts), *cKDTree(pts).query_pairs(1.0, output_type="ndarray").T, 4)
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 0]
        assert np.array_equal(labels, bfs_dbscan(pts, 1.0, 4))

    def test_no_points(self):
        assert _dbscan(0, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), 3).shape == (0,)

    def test_pass_one_degrees_match_ball_counts(self):
        gen = GenConfig(seed=2002, n_cases=1, k_slices=200, vertebrae_range=(12, 12),
                        detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1))
        pts = embed_detections(generate_case(gen, 0)[1])
        degrees = _degrees(len(pts), *_pairs(pts, 6.0, "box centers"))
        assert np.array_equal(degrees, cKDTree(pts).query_ball_point(pts, r=6.0, return_length=True) - 1)


    @settings(max_examples=200, deadline=None)
    @given(dbscan_clouds())
    def test_early_stop_matches_loop_to_no_op_round(self, cloud):
        pts, eps, min_pts = cloud
        pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray").T
        expected, rounds = looped_dbscan(len(pts), *pairs, min_pts)
        event(f"{min(rounds, 4)}{'+' if rounds >= 4 else ''} hooking rounds")
        assert np.array_equal(_dbscan(len(pts), *pairs, min_pts), expected)

    @settings(max_examples=200, deadline=None)
    @given(dbscan_clouds(), st.integers(0, 2**32 - 1))
    def test_component_roots_take_pairs_in_either_order(self, cloud, seed):
        # every caller lists each pair as (lower, upper); the hook must not depend on it
        pts, eps, min_pts = cloud
        i, j = cKDTree(pts).query_pairs(eps, output_type="ndarray").T
        labels, _ = looped_dbscan(len(pts), i, j, min_pts)
        core = _degrees(len(pts), i, j) + 1 >= min_pts
        linked = core[i] & core[j]
        pairs = np.column_stack((i[linked], j[linked]))
        rng = np.random.default_rng(seed)
        swapped = rng.permutation(len(pairs))[: len(pairs) // 2]
        pairs[swapped] = pairs[swapped, ::-1]
        pairs = pairs[rng.permutation(len(pairs))]
        # the oracle's roots: each core point's smallest core index of its cluster, every other point itself
        expected = np.arange(len(pts))
        for label in np.unique(labels[core]).tolist():
            members = np.flatnonzero(core & (labels == label))
            expected[members] = members[0]
        event("a swapped pair" if len(swapped) else "no pair to swap")
        assert np.array_equal(_component_roots(len(pts), *pairs.T), expected)

    @pytest.mark.parametrize("n", [9, 64, 1000])
    def test_long_chain_keeps_hooking(self, n):
        # a path through the points in a shuffled index order: every hooking
        # round shortens it by a bounded factor, so long paths need several
        order = np.random.default_rng(n).permutation(n)
        i, j = np.sort((order[:-1], order[1:]), axis=0)
        expected, rounds = looped_dbscan(n, i, j, 2)
        assert rounds >= 3
        labels = _dbscan(n, i, j, 2)
        assert np.array_equal(labels, expected) and not labels.any()


class TestDimensionLabels:
    @staticmethod
    def outcome(dimension_labels, dims, pos_labels, eps):
        try:
            return dimension_labels(dims, pos_labels, eps).tolist()
        except ValidationError as e:
            return ("ValidationError", str(e))

    @settings(max_examples=500, deadline=None)
    @given(dimension_clusters())
    def test_matches_all_pairs_oracle(self, case):
        dims, pos_labels, eps = case
        expected = self.outcome(all_pairs_dimension_labels, dims, pos_labels, eps)
        event("rejected" if isinstance(expected, tuple) else "labeled")
        assert self.outcome(_dimension_labels, dims, pos_labels, eps) == expected

    @pytest.mark.parametrize("steps", [-8, -1, 0, 1, 8])
    @pytest.mark.parametrize("margin", [1.0, 1 - 1e-9])
    def test_extent_at_the_radius(self, steps, margin):
        # two boxes whose distance is the cluster's extent, a few ulps either
        # side of eps or of the shortcut's margin, beside a cluster split in two
        eps = 10.0
        far = 64.0 + eps * np.sqrt(margin) * (1 + steps * 2.0**-52)
        dims = np.array([[64.0, 20.0], [far, 20.0], [5.0, 5.0], [5.0, 6.0], [40.0, 40.0], [40.0, 41.0]])
        pos_labels = np.array([0, 0, 1, 1, 1, 1])
        expected = all_pairs_dimension_labels(dims, pos_labels, eps)
        assert _dimension_labels(dims, pos_labels, eps).tolist() == expected.tolist()

    def test_identical_huge_boxes_still_rejected(self):
        dims = np.array([[1e200, 20.0]] * 5)
        with pytest.raises(ValidationError, match="squared distances fit in float64"):
            _dimension_labels(dims, np.array([0, 0, 0, 1, 1]), 1e200)
        assert _dimension_labels(dims, np.zeros(5, dtype=np.int64), 1e200).tolist() == [0] * 5

class TestCenterReduction:
    @staticmethod
    def outcome(cluster, ds, cfg):
        try:
            return repr(cluster(ds, cfg))
        except EmptyClusterError as e:
            return ("EmptyClusterError", e.dropped_density, e.dropped_position, e.dropped_dimension)

    @settings(max_examples=300, deadline=None)
    @given(tied_detections())
    def test_matches_per_cluster_loop(self, case):
        ds, cfg = case
        expected = self.outcome(loop_centers, ds, cfg)
        event("no center" if isinstance(expected, tuple) else "centers")
        event(("a" if dropped_box_has_neighbour(ds, cfg) else "no") + " dropped box has a neighbour")
        assert self.outcome(cluster_centers, ds, cfg) == expected

    @pytest.mark.parametrize("min_pts, expected", [
        (4, [VertebraCenter(position=(10.5, 0.5, 0.5), mean_dims=(10.0, 10.0), member_count=8, z_rank=0)]),
        (10, ("EmptyClusterError", 1, 8, 0)),
    ], ids=["centers", "no-center"])
    def test_dropped_box_beside_a_kept_one(self, min_pts, expected):
        # eight boxes on the corners of a unit cube in sagittal slices 10 and
        # 11, and one box 1.9 above one corner: the median slice holds 4.5
        # boxes, so at floor 0.5 the lone box's one neighbour leaves it below
        # the floor, while its neighbour, with eight, stays
        rows = [(SAGITTAL, s, cx, cy, 10.0, 10.0, 0.5) for s in (10, 11) for cx in (0.0, 1.0) for cy in (0.0, 1.0)]
        ds = detection_set("lone", (100, 100, 100), 100, rows + [(SAGITTAL, 11, 1.0, 2.9, 10.0, 10.0, 0.5)])
        cfg = ClusterConfig(eps_pos=2.0, min_pts=min_pts, eps_dim=5.0, density_floor=0.5)
        assert dropped_box_has_neighbour(ds, cfg)
        outcome = self.outcome(cluster_centers, ds, cfg)
        assert outcome == self.outcome(loop_centers, ds, cfg)
        assert outcome == (repr(expected) if isinstance(expected, list) else expected)


class TestCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(tied_detections().map(lambda case: case[0]) | dense_scans())
    def test_matches_six_key_lexsort(self, ds):
        pts = embed_detections(ds)
        expected = np.lexsort((ds.confidence, ds.h, ds.w, pts[:, 2], pts[:, 1], pts[:, 0]))
        xy = pts[expected, :2]
        tied = (xy[1:] == xy[:-1]).all(axis=1)
        event("(x, y) tie: six-key sort" if tied.any() else "no (x, y) tie: two-key sort")
        if np.any(tied & (np.signbit(xy[1:]) != np.signbit(xy[:-1])).any(axis=1)):
            event("-0.0 tied with 0.0")
        assert np.array_equal(_canonical_order(ds, pts), expected)


class TestSegmentMedians:
    @settings(max_examples=300, deadline=None)
    @given(median_groups())
    def test_matches_per_group_median(self, case):
        seg, values, counts = case
        columns = values if values.ndim == 2 else values[:, None]
        expected = np.array([[np.median(col) for col in columns[seg == label].T] for label in np.unique(seg)])
        expected = expected.reshape((len(counts), *values.shape[1:]))
        medians = _segment_medians(seg, values, counts)
        event(f"{values.ndim}-D, " + ("no group" if not len(counts) else "groups"))
        if np.any(np.signbit(values) & (values == 0)):
            event("-0.0 among the values")
        assert medians.shape == expected.shape and medians.tobytes() == expected.tobytes()


class TestClusterCenters:
    CFG = ClusterConfig(eps_pos=5.0, min_pts=4, eps_dim=5.0, density_floor=0.1)

    def planted(self, rng, noise=0, **kw):
        centers = [(100.0, 100.0, 120.0), (100.0, 100.0, 260.0), (100.0, 100.0, 400.0)]
        ds = blob_detections(rng, centers, noise=noise, **kw)
        return centers, ds

    def match_errors(self, planted, found):
        """Exhaustive nearest-planted matching of recovered centers."""
        planted = np.array(planted)
        return [float(np.min(np.linalg.norm(planted - np.array(c.position), axis=1))) for c in found]

    def test_three_planted_centers(self):
        rng = np.random.default_rng(11)
        planted, ds = self.planted(rng)
        found = cluster_centers(ds, self.CFG)
        assert len(found) == 3
        assert max(self.match_errors(planted, found)) <= 1.0

    def test_noise_rejected(self):
        rng = np.random.default_rng(12)
        planted, ds = self.planted(rng, noise=15)
        found = cluster_centers(ds, self.CFG)
        assert len(found) == 3
        assert max(self.match_errors(planted, found)) <= 1.0

    def test_dense_scan_peak_memory(self):
        # a scan like the largest of the benchmark's dense corpus (1,571 boxes): the block of candidate pairs
        # in _pairs sets the peak, about 3.2 MiB
        gen = GenConfig(seed=0, n_cases=1, k_slices=200, vertebrae_range=(24, 24),
                        detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1))
        ds = generate_case(gen, 0)[1]
        cfg = ClusterConfig(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1)
        tracemalloc.start()
        try:
            found = cluster_centers(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 24
        assert peak <= 4 * 2**20

    def test_oversized_dimension_cluster_discarded(self):
        rng = np.random.default_rng(13)
        base = (30.0, 20.0)
        center = [(100.0, 100.0, 200.0)]
        # double the dims of exactly half the boxes, keeping positions
        ds = doubled_dims(blob_detections(rng, center, boxes_each=30, dims=base))
        found = cluster_centers(ds, self.CFG)
        assert len(found) == 1
        mw, mh = found[0].mean_dims
        assert abs(mw - base[0]) / base[0] <= 0.15
        assert abs(mh - base[1]) / base[1] <= 0.15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        planted, ds = self.planted(rng, noise=10)
        found = cluster_centers(ds, self.CFG)
        perm = np.random.default_rng(99).permutation(len(ds))
        found2 = cluster_centers(permuted(ds, perm), self.CFG)
        assert len(found) == len(found2)
        for a, b in zip(found, found2):
            assert a == b

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(range(100)))
    def test_permutation_invariance_property(self, perm):
        # 3 x 30 planted boxes plus 10 noise boxes, with a doubled-dimension
        # half in the last cluster so the dimension pass has a choice to make
        ds = doubled_dims(self.planted(np.random.default_rng(14), noise=10)[1], slice(60, 90, 2))
        assert cluster_centers(permuted(ds, np.array(perm)), self.CFG) == cluster_centers(ds, self.CFG)

    def test_huge_eps_dim_keeps_every_box(self, tmp_path):
        # eps_dim far beyond any box size: every position cluster is one
        # dimension cluster, as when each cluster ran its own DBSCAN
        rng = np.random.default_rng(13)
        ds = doubled_dims(blob_detections(rng, [(100.0, 100.0, 200.0), (100.0, 100.0, 320.0)], boxes_each=30))
        found = cluster_centers(ds, ClusterConfig(eps_pos=5.0, min_pts=4, eps_dim=1e200, density_floor=0.1))
        assert [c.member_count for c in found] == [30, 30]
        save_centers(found, tmp_path / "c.json")
        assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() == (
            "21253b05d591a6728abe407990a3fd3065fd51aff719d7e4dba01f783f42f434")

    @pytest.mark.parametrize("column, value", [("cy", 1e300), ("w", 1e200)])
    def test_unmeasurable_spread_rejected(self, column, value):
        _, ds = self.planted(np.random.default_rng(21))
        col = getattr(ds, column).copy()
        col[0] = value
        cols = {name: getattr(ds, name) for name in DETECTION_COLUMNS} | {column: col}
        ds = DetectionSet(ds.case_id, ds.volume_shape, ds.slice_count_per_plane, **cols)
        with pytest.raises(ValidationError, match="squared distances fit in float64"):
            cluster_centers(ds, self.CFG)

    def test_determinism(self):
        rng = np.random.default_rng(15)
        _, ds = self.planted(rng, noise=10)
        a = cluster_centers(ds, self.CFG)
        b = cluster_centers(ds, self.CFG)
        assert a == b

    def test_z_rank_order(self):
        rng = np.random.default_rng(16)
        _, ds = self.planted(rng)
        found = cluster_centers(ds, self.CFG)
        zs = [c.position[2] for c in found]
        assert zs == sorted(zs, reverse=True)
        assert [c.z_rank for c in found] == [0, 1, 2]

    def test_member_counts_meet_min_pts(self):
        rng = np.random.default_rng(17)
        _, ds = self.planted(rng, noise=12)
        centers = cluster_centers(ds, self.CFG)
        for c in centers:
            assert c.member_count >= self.CFG.min_pts
        # each kept box feeds exactly one center, so counts cannot exceed the input
        assert sum(c.member_count for c in centers) <= len(ds)

    def test_empty_result_error_carries_counts(self):
        rng = np.random.default_rng(18)
        rows = []
        for _ in range(12):  # isolated boxes only
            rows.append(
                (SAGITTAL, int(rng.integers(0, 200)),
                 float(rng.uniform(0, 200)), float(rng.uniform(0, 600)),
                 float(rng.uniform(5, 45)), float(rng.uniform(5, 45)), 0.5)
            )
        ds = detection_set("noise", (600, 200, 200), 200, rows)
        with pytest.raises(EmptyClusterError) as err:
            cluster_centers(ds, self.CFG)
        e = err.value
        assert e.dropped_density + e.dropped_position + e.dropped_dimension >= 12

    def test_empty_detection_set_rejected(self):
        ds = detection_set("x", (10, 10, 10), 10, [])
        with pytest.raises(ValidationError, match="empty"):
            cluster_centers(ds, self.CFG)

    def test_defaults_follow_box_height(self):
        rng = np.random.default_rng(19)
        _, ds = self.planted(rng)
        cfg = ClusterConfig.defaults_for(ds)
        median_h = float(np.median(ds.h))
        assert cfg.eps_pos == pytest.approx(1.5 * median_h)
        assert cfg.eps_dim == pytest.approx(0.5 * median_h)
        assert cfg.min_pts == max(4, ds.slice_count_per_plane // 50)
        assert cfg.density_floor == 0.1

    def test_default_config_on_sparse_blobs(self):
        # planted centers far apart relative to 1.5 x box height
        rng = np.random.default_rng(20)
        centers = [(100.0, 100.0, 100.0), (100.0, 100.0, 300.0), (100.0, 100.0, 500.0)]
        ds = blob_detections(rng, centers, volume=(700, 200, 200))
        found = cluster_centers(ds)  # defaults
        assert len(found) == 3


def test_golden_generator_and_centers(tmp_path):
    """Pins the bytes of generated detections and of their clustered centers.

    Criterion 2's generator settings, cases 0-2: any change to the generator's
    draw order, the detections format or the clustering passes moves a hash.
    Centers are pinned under criterion 2's explicit config and under the
    data-derived defaults, which take a different eps_pos and eps_dim.
    """
    gen = GenConfig(seed=2002, n_cases=3, k_slices=200, vertebrae_range=(3, 24),
                    detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1))
    cfg = ClusterConfig(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1)
    det_hash, center_hash, default_hash = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for i in range(3):
        _, ds = generate_case(gen, i)
        save_detections(ds, tmp_path / "d.jsonl")
        det_hash.update((tmp_path / "d.jsonl").read_bytes())
        loaded = load_detections(tmp_path / "d.jsonl")
        save_centers(cluster_centers(loaded, cfg), tmp_path / "c.json")
        center_hash.update((tmp_path / "c.json").read_bytes())
        save_centers(cluster_centers(loaded), tmp_path / "c.json")
        default_hash.update((tmp_path / "c.json").read_bytes())
    assert det_hash.hexdigest() == "e5707e4d32906492c7e20341b3a96c076eb98545d34691419c9016accc8fa537"
    assert center_hash.hexdigest() == "4b6b1dd85a55d783a92586ffd83b245d43d89ca328c351a3bd11aa675563e12b"
    assert default_hash.hexdigest() == "ac05d8ee405f02cfde34898e0fbeb2a6989d15c009a2b5208b2d8303741d2e07"
