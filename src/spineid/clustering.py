"""Dual-factor density clustering of per-slice detections into 3D centers.

Noisy 2D boxes from many sagittal and coronal slices are turned into one
clean, ordered list of vertebra centers in three passes:

1. density filter: boxes whose neighborhood density falls below a floor are
   discarded as isolated noise;
2. position pass: DBSCAN over the embedded 3D box centers groups the
   surviving boxes into one cluster per vertebra;
3. dimension pass: within each position cluster, DBSCAN over (width, height)
   keeps only the largest dimension cluster, rejecting boxes that straddle
   multiple vertebrae or cover a vertebra only partially.

Passes 1 and 2 share one radius, so one KD-tree pair query serves both.
DBSCAN works on that pair list as array code: clusters are the connected
components of core points, and each border point joins the lowest-numbered
cluster it touches, which are the labels of a breadth-first DBSCAN grown in
index order. The dimension pass runs once for all position clusters, with
each cluster lifted onto its own plane along a third axis so no pair crosses
clusters.

The center of each surviving cluster is the coordinate-wise median of its
members, which tolerates residual outliers. Output is sorted cranial to
caudal (descending z, ties broken by x then y) and assigned z ranks.

Every pass runs on a canonical ordering of the input, so the result is
deterministic and invariant to the order in which detections arrive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import PLANES, DetectionSet, VertebraCenter
from .errors import EmptyClusterError, ValidationError


@dataclass(frozen=True)
class ClusterConfig:
    """Radii and thresholds for the three clustering passes."""

    eps_pos: float
    min_pts: int
    eps_dim: float
    density_floor: float

    def __post_init__(self):
        for name in ("eps_pos", "eps_dim"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValidationError(f"{name} must be a positive finite radius, got {v!r}")
        if self.min_pts < 2:
            raise ValidationError(f"min_pts must be at least 2, got {self.min_pts}")
        if not 0.0 < self.density_floor <= 1.0:
            raise ValidationError(f"density_floor must lie in (0, 1], got {self.density_floor!r}")

    @classmethod
    def defaults_for(cls, ds: DetectionSet) -> "ClusterConfig":
        """Scale-relative defaults derived from the data.

        eps_pos is 1.5x and eps_dim 0.5x the median box height; min_pts grows
        with the slice count. These suit producers that emit boxes tightly
        around each vertebra's central slices. When boxes cover a vertebra's
        whole extent, 1.5x the box height can exceed the inter-vertebra
        spacing and merge neighbors, so pass an explicit eps_pos there.
        """
        if not len(ds):
            raise ValidationError("cannot derive defaults from an empty detection set")
        median_h = float(np.median(ds.h))
        return cls(
            eps_pos=1.5 * median_h,
            min_pts=max(4, ds.slice_count_per_plane // 50),
            eps_dim=0.5 * median_h,
            density_floor=0.1,
        )


def embed_detections(ds: DetectionSet) -> np.ndarray:
    """Map every box center to volume coordinates: a float64 (n, 3) array of (x, y, z) rows.

    Sagittal slices are stacked along x and coronal slices along y; within a
    slice, cy is always the cranial-caudal (z) coordinate.
    """
    sagittal = ds.plane == PLANES.index("sagittal")
    x = np.where(sagittal, ds.slice_index, ds.cx)
    y = np.where(sagittal, ds.cx, ds.slice_index)
    return np.column_stack((x, y, ds.cy))


def box_density(i: int, dets: np.ndarray, eps: float, l_i: int) -> float:
    """Neighborhood box density: neighbors within eps of point i, over l_i.

    Counts embedded centers at Euclidean distance <= eps from point ``i``,
    excluding ``i`` itself, and divides by the per-vertebra frame count
    ``l_i``. ``dets`` is an (n, 3) array of embedded centers.
    """
    if l_i == 0:
        raise ValidationError("l_i must be non-zero")
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps!r}")
    pts = np.asarray(dets, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if not 0 <= i < len(pts):
        raise ValidationError(f"index {i} outside the detection list of length {len(pts)}")
    neighbors = _kdtree(pts, "points").query_ball_point(pts[i], r=eps)
    return (len(neighbors) - 1) / l_i


def _kdtree(pts: np.ndarray, what: str):
    """A KD-tree over ``pts``, refusing clouds it cannot measure.

    cKDTree fails with a bare ValueError once the squared extent of its points
    overflows float64; that case, and non-finite points, are rejected here.
    scipy.spatial is imported here, on first use, because loading it costs
    more than most commands spend on their own work, and only clustering
    needs it.
    """
    from scipy.spatial import cKDTree

    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.sum(np.ptp(pts, axis=0) ** 2)
    if not np.isfinite(reach):
        raise ValidationError(f"{what} must be finite and close enough that squared distances fit in float64")
    return cKDTree(pts)


def _dbscan(n: int, pairs: np.ndarray, min_pts: int) -> np.ndarray:
    """Deterministic DBSCAN labels for n points; -1 marks noise.

    ``pairs`` is an (m, 2) index array listing once every pair of points at
    distance <= eps. A point is core when its eps-ball holds at least min_pts
    points, itself included. Clusters are the connected components of core
    points joined by a pair, numbered in order of their smallest core index. A
    border point (not core, but paired with a core point) joins the
    lowest-numbered cluster it touches. These are the labels a breadth-first
    DBSCAN grown from each unlabeled core point in index order assigns.
    """
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts
    i, j = pairs[:, 0], pairs[:, 1]
    linked = core[i] & core[j]
    a = np.concatenate((i[linked], j[linked]))
    b = np.concatenate((j[linked], i[linked]))
    # Min-label propagation with pointer jumping: every root hooks onto the
    # smallest root across a core-core pair, then each point jumps to its
    # root's root. The fixed point gives each core point the smallest index of
    # its component.
    root = np.arange(n)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[a], root[b])
        hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            break
        root = hooked
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(root[core], return_inverse=True)[1]
    border = core[i] != core[j]
    inner = np.where(core[i], i, j)[border]
    outer = np.where(core[i], j, i)[border]
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, outer, labels[inner])
    touched = lowest < n
    labels[touched] = lowest[touched]
    return labels


def _dimension_labels(dims: np.ndarray, pos_labels: np.ndarray, eps: float) -> np.ndarray:
    """One DBSCAN (min_pts 2) over (w, h) for every position cluster at once.

    ``pos_labels`` must be sorted. Each box is lifted to (w, h, label * 2r):
    boxes of one position cluster share the third coordinate exactly, so their
    distances are unchanged, while boxes of different clusters lie more than r
    apart. No (w, h) distance reaches 2 * (max w + max h), so capping the radius
    r there keeps every pair and keeps the lift finite for any eps. The labels
    of each position cluster form one contiguous run in the order a separate
    DBSCAN of that cluster alone would number them.
    """
    radius = min(eps, 2.0 * float(dims[:, 0].max() + dims[:, 1].max()))
    lifted = np.column_stack((dims, pos_labels * (2.0 * radius)))
    pairs = _kdtree(lifted, "box dimensions").query_pairs(radius, output_type="ndarray")
    return _dbscan(len(dims), pairs, 2)


def _median_boxes_per_slice(ds: DetectionSet) -> float:
    _, counts = np.unique(ds.slice_index * len(PLANES) + ds.plane, return_counts=True)
    return float(np.median(counts))


def cluster_centers(ds: DetectionSet, cfg: ClusterConfig | None = None) -> list[VertebraCenter]:
    """Run the three clustering passes and return ordered vertebra centers.

    Raises EmptyClusterError, carrying per-pass drop counts, when nothing
    survives. Permuting the rows of ``ds`` never changes the result.
    """
    if not len(ds):
        raise ValidationError(f"detection set {ds.case_id!r} is empty")
    if cfg is None:
        cfg = ClusterConfig.defaults_for(ds)

    # Canonical total order makes every later step permutation invariant.
    pts = embed_detections(ds)
    order = np.lexsort((ds.confidence, ds.h, ds.w, pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    dims = np.column_stack((ds.w, ds.h))[order]

    # Pass 1: density floor. l is the median box count over populated slices,
    # a scale-free stand-in for the per-vertebra frame count. Passes 1 and 2
    # share one radius, so one pair query serves both.
    l_med = _median_boxes_per_slice(ds)
    pairs = _kdtree(pts, "box centers").query_pairs(cfg.eps_pos, output_type="ndarray")
    density = np.bincount(pairs.ravel(), minlength=len(pts)) / l_med
    keep = density >= cfg.density_floor
    dropped_density = int(np.count_nonzero(~keep))

    # Pass 2: position clustering over the pairs whose ends both survived.
    renumber = np.cumsum(keep) - 1
    kept_pairs = renumber[pairs[keep[pairs[:, 0]] & keep[pairs[:, 1]]]]
    pos_labels = _dbscan(int(np.count_nonzero(keep)), kept_pairs, cfg.min_pts)
    dropped_position = int(np.count_nonzero(pos_labels == -1))

    # Pass 3: dimension clustering inside each position cluster, run as one
    # DBSCAN over the clustered boxes sorted by position label.
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
        kept = dim_labels == best
        dropped_dimension += int(np.count_nonzero(~kept))
        if kept.sum() < cfg.min_pts:
            # a cluster thinned below min_pts no longer counts as a vertebra
            dropped_dimension += int(kept.sum())
            continue
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
