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

The center of each surviving cluster is the coordinate-wise median of its
members, which tolerates residual outliers. Output is sorted cranial to
caudal (descending z, ties broken by x then y) and assigned z ranks.

Both passes run on a canonical ordering of the input, so the result is
deterministic and invariant to the order in which detections arrive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .domain import DetectionSet, SliceDetection, VertebraCenter
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
        if not ds.detections:
            raise ValidationError("cannot derive defaults from an empty detection set")
        median_h = float(np.median([d.h for d in ds.detections]))
        return cls(
            eps_pos=1.5 * median_h,
            min_pts=max(4, ds.slice_count_per_plane // 50),
            eps_dim=0.5 * median_h,
            density_floor=0.1,
        )


def _embed(detections) -> np.ndarray:
    """(n, 3) volume coordinates of the box centers; see ``embed_detection``."""
    pts = np.array([(d.slice_index, d.cx, d.cy) for d in detections], dtype=np.float64)
    coronal = np.array([d.plane == "coronal" for d in detections])
    pts[coronal, :2] = pts[coronal, 1::-1]
    return pts


def embed_detection(d: SliceDetection) -> np.ndarray:
    """Map an in-slice box center to volume coordinates, a float64 (x, y, z) array.

    Sagittal slices are stacked along x and coronal slices along y; within a
    slice, cy is always the cranial-caudal (z) coordinate.
    """
    return _embed([d])[0]


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
    tree = cKDTree(pts)
    neighbors = tree.query_ball_point(pts[i], r=eps)
    return (len(neighbors) - 1) / l_i


def _neighbor_lists(pts: np.ndarray, eps: float) -> list[list[int]]:
    tree = cKDTree(pts)
    lists = tree.query_ball_point(pts, r=eps)
    return [sorted(nb) for nb in lists]


def _dbscan(pts: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Deterministic DBSCAN labels; -1 marks noise.

    A point is core when its eps-ball holds at least min_pts points, itself
    included. Clusters are grown breadth-first in index order, so identical
    input always yields identical labels.
    """
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    neighbors = _neighbor_lists(pts, eps)
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


def _median_boxes_per_slice(ds: DetectionSet) -> float:
    counts: dict[tuple[str, int], int] = {}
    for d in ds.detections:
        key = (d.plane, d.slice_index)
        counts[key] = counts.get(key, 0) + 1
    return float(np.median(sorted(counts.values())))


def cluster_centers(ds: DetectionSet, cfg: ClusterConfig | None = None) -> list[VertebraCenter]:
    """Run the three clustering passes and return ordered vertebra centers.

    Raises EmptyClusterError, carrying per-pass drop counts, when nothing
    survives. Shuffling ``ds.detections`` never changes the result.
    """
    if not ds.detections:
        raise ValidationError(f"detection set {ds.case_id!r} is empty")
    if cfg is None:
        cfg = ClusterConfig.defaults_for(ds)

    pts = _embed(ds.detections)
    dims = np.array([[d.w, d.h] for d in ds.detections], dtype=np.float64)
    conf = np.array([d.confidence for d in ds.detections], dtype=np.float64)

    # Canonical total order makes every later step permutation invariant.
    order = np.lexsort((conf, dims[:, 1], dims[:, 0], pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = pts[order]
    dims = dims[order]

    # Pass 1: density floor. l is the median box count over populated slices,
    # a scale-free stand-in for the per-vertebra frame count.
    l_med = _median_boxes_per_slice(ds)
    tree = cKDTree(pts)
    neighbor_counts = np.array([len(nb) - 1 for nb in tree.query_ball_point(pts, r=cfg.eps_pos)])
    density = neighbor_counts / l_med
    keep = density >= cfg.density_floor
    dropped_density = int(np.count_nonzero(~keep))
    pts1, dims1 = pts[keep], dims[keep]

    # Pass 2: position clustering.
    pos_labels = _dbscan(pts1, cfg.eps_pos, cfg.min_pts)
    dropped_position = int(np.count_nonzero(pos_labels == -1))

    # Pass 3: dimension clustering inside each position cluster.
    dropped_dimension = 0
    centers: list[tuple[float, float, float, float, float, int]] = []
    for label in range(pos_labels.max() + 1 if len(pos_labels) else 0):
        mask = pos_labels == label
        member_pts = pts1[mask]
        member_dims = dims1[mask]
        dim_labels = _dbscan(member_dims, cfg.eps_dim, 2)
        if dim_labels.max() < 0:
            dropped_dimension += int(mask.sum())
            continue
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
