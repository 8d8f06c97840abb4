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

Passes 1 and 2 share one radius, so one pair query serves both, and passes
1 to 3 work in one index space: pass 2 runs over every box, keeping only the
pairs whose two ends survived pass 1, so a dropped box has no pair and is
noise, and every box keeps its index. Every pair query is a numpy
sort-and-sweep along the axis with the fewest candidates, z for box centers
stacked along the spine; it lists the pairs cKDTree.query_pairs lists, by
the same float64 rule, with numpy alone. DBSCAN
works on that pair list as array code: clusters are the connected components
of core points, and each border point joins the lowest-numbered cluster it
touches, which are the labels of a breadth-first DBSCAN grown in index
order. Label propagation stops as soon as every linked pair shares a root,
without a last round that would change nothing.

The dimension pass runs once for all position clusters, and most clusters
need no pair query there: when the (w, h) extent of two or more boxes fits
inside one eps-ball, every pair lies within eps, so they form one dimension
cluster. On criterion-2 detections (30 boxes per vertebra, 10% noise, eps
10) that holds for 294 of the 297 clusters of the benchmark's seed-1
cluster_dense corpus and for 2,804 of the 2,831 of criterion 2's 200 scans.
Only the other clusters' boxes go through one pair query, each cluster
lifted onto its own plane along a third axis so no pair crosses clusters.

The center of each surviving cluster is the coordinate-wise median of its
members, which tolerates residual outliers; one segmented reduction, with no
Python loop over clusters, picks every cluster's boxes and takes the medians
of all five columns (x, y, z, w, h) from one sort: each cluster is one row,
padded with +inf to the largest cluster. Output is sorted cranial to caudal
(descending z, ties broken by x then y) and assigned z ranks.

Every pass runs on a canonical ordering of the input, so the result is
deterministic and invariant to the order in which detections arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import PLANES, DetectionSet, VertebraCenter
from .errors import EmptyClusterError, ValidationError, _integer_type, _number


@dataclass(frozen=True)
class ClusterConfig:
    """Radii and thresholds for the three clustering passes."""

    eps_pos: float
    min_pts: int
    eps_dim: float
    density_floor: float

    def __post_init__(self):
        for name in ("eps_pos", "eps_dim"):
            if not 0 < _number(getattr(self, name), name) < math.inf:
                raise ValidationError(f"{name} must be a positive finite radius, got {getattr(self, name)!r}")
        if not _integer_type(type(self.min_pts)) or self.min_pts < 2:
            raise ValidationError(f"min_pts must be an integer of at least 2, got {self.min_pts!r}")
        if not 0.0 < _number(self.density_floor, "density_floor") <= 1.0:
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


def box_densities(pts: np.ndarray, eps: float, l: float) -> np.ndarray:
    """Neighborhood box density of every row of the (n, 3) array ``pts``.

    The other rows within Euclidean distance eps, over the per-vertebra frame
    count ``l``: the pair query and counts the density floor of pass 1 uses.
    Both ``eps`` and ``l`` must be positive finite numbers.
    """
    eps, l = _number(eps, "eps"), _number(l, "l")
    if not 0 < l < math.inf:
        raise ValidationError(f"l must be a positive finite frame count, got {l!r}")
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be a positive finite radius, got {eps!r}")
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"expected an (n, 3) point array, got shape {pts.shape}")
    return _degrees(len(pts), *_pairs(pts, eps, "points")) / l


def _require_measurable(lo: np.ndarray, hi: np.ndarray, what: str) -> None:
    """Reject points whose squared extent overflows float64, or that hold a non-finite point.

    ``lo`` and ``hi`` hold the points' least and greatest coordinate in each
    column, one of them NaN where the column holds a NaN. Every squared distance of
    measurable points is finite, so ``_pairs`` compares finite sums, and its
    window arithmetic cannot produce NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.sum((hi - lo) ** 2)
    if not np.isfinite(reach):
        raise ValidationError(f"{what} must be finite and close enough that squared distances fit in float64")


def _pairs(pts: np.ndarray, eps: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rows of ``pts`` at distance <= eps, listed once, as two contiguous index columns.

    A pair is kept when its squared distance, ``dx*dx + dy*dy + ...`` summed in
    column order in float64, is at most ``eps * eps``: the rule cKDTree's
    ``query_pairs`` applies, so these are its pairs, each as (lower index,
    higher index), in another order, on which no caller depends. Points that
    cannot be measured are rejected first (``_require_measurable``), by the
    extent between the ends of the sorted columns the sweep uses, where a NaN
    sorts last.

    A sort-and-sweep finds them. Along one axis, each row in sorted order is
    paired with the later rows whose coordinate lies in a window past its
    own, and every candidate pair goes through the exact rule. The axis is the
    one whose windows hold the fewest candidates, which bounds the work and
    memory: about 1.1 candidates per pair on box centers, which crowd around
    vertebrae stacked along z, but far more on points spread evenly. The
    window is eps plus 4 ulps of the axis's largest magnitude: a kept pair's
    rounded difference is at most eps, since the square of any float above
    eps rounds above ``eps * eps``, and the rounding of that difference is
    within one ulp of the largest magnitude, so the window holds every kept
    pair. Below 2**-510, ``eps * eps`` leaves the normal range, where that
    argument fails, so the window is at least 2**-510 wide.
    """
    n = len(pts)
    ordered = np.sort(pts, axis=0)
    if n:
        _require_measurable(ordered[0], ordered[-1], what)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    eps = float(eps)  # a Python float squares to inf, not to an overflow warning
    reach = max(eps, 2.0**-510)
    # ends[axis][p]: one past the last sorted position in the window of position p
    with np.errstate(over="ignore"):  # a window end past the float range is inf, after every row
        ends = [np.searchsorted(s, s + (reach + 4 * np.spacing(max(-s[0], s[-1]))), side="right")
                for s in ordered.T]
    axis = int(np.argmin([end.sum() for end in ends]))
    counts = ends[axis] - np.arange(1, n + 1)
    order = np.argsort(pts[:, axis])
    # Candidate pair k joins sorted positions first[k] < later[k]. Every array
    # with one entry per candidate lives in one block: such arrays allocated
    # apart made malloc hand their pages back and fault them in again on
    # every call, about 300 page faults per dense scan.
    block = np.empty((5, int(counts.sum())))
    first, later = block[:2].view(np.int64)
    sq, d, e = block[2:]
    first[:] = np.repeat(np.arange(n), counts)
    later[:] = np.repeat(np.arange(1, n + 1) - (np.cumsum(counts) - counts), counts)
    later += np.arange(len(later))
    sq.fill(0.0)  # 0.0 + dx*dx is dx*dx: the squares add up column by column, as the rule sums them
    for column in pts.T:
        ordered = column.take(order)
        ordered.take(later, out=d, mode="clip")  # "clip" writes straight into out; every index is in range
        ordered.take(first, out=e, mode="clip")
        d -= e
        d *= d
        sq += d
    keep = np.flatnonzero(sq <= eps * eps)
    lower = order.take(first.take(keep))
    upper = order.take(later.take(keep))
    return np.minimum(lower, upper), np.maximum(lower, upper, out=upper)


def _degrees(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """How many pairs each of n points is in."""
    return np.bincount(i, minlength=n) + np.bincount(j, minlength=n)


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest index in each point's connected component, over n points joined by pairs ``(a[k], b[k])``.

    Min-label propagation with pointer jumping: every root hooks onto the
    smallest root across a pair, then each point jumps to its root's root. A
    point's root always lies in its own component, so once every pair shares
    a root, each component has one root, which is its own root, and a further
    round would change nothing; until then every round lowers some entry. The
    loop stops there, without that round. The two per-pair columns of roots
    are refreshed in place and freed on return, so no round allocates new
    ones (``mode="clip"`` only spares ``np.take`` a buffered output; every
    index is in range).
    """
    root = np.arange(n)
    root_a, root_b = root[a], root[b]
    while not np.array_equal(root_a, root_b):
        hooked = root.copy()
        np.minimum.at(hooked, root_a, root_b)
        np.minimum.at(hooked, root_b, root_a)
        root = hooked[hooked]
        np.take(root, a, out=root_a, mode="clip")
        np.take(root, b, out=root_b, mode="clip")
    return root


def _dbscan(n: int, i: np.ndarray, j: np.ndarray, min_pts: int, degrees: np.ndarray | None = None) -> np.ndarray:
    """Deterministic DBSCAN labels for n points; -1 marks noise.

    Pairs ``(i[k], j[k])`` list once every pair of points at distance <= eps.
    A point is core when its eps-ball holds at least min_pts points, itself
    included. Clusters are the connected components of core points joined by a
    pair, numbered in order of their smallest core index. A border point (not
    core, but paired with a core point) joins the lowest-numbered cluster it
    touches. These are the labels a breadth-first DBSCAN grown from each
    unlabeled core point in index order assigns. ``degrees``, when given, must
    be ``_degrees(n, i, j)``; a caller that has them spares the count.
    """
    if degrees is None:
        degrees = _degrees(n, i, j)
    core = degrees + 1 >= min_pts
    core_i, core_j = core[i], core[j]
    linked = core_i & core_j
    a, b = i[linked], j[linked]
    root = _component_roots(n, a, b)
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(root[core], return_inverse=True)[1]
    border = core_i != core_j
    inner = np.where(core_i, i, j)[border]
    outer = np.where(core_i, j, i)[border]
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, outer, labels[inner])
    np.copyto(labels, lowest, where=lowest < n)
    return labels


def _dimension_labels(dims: np.ndarray, pos_labels: np.ndarray, eps: float) -> np.ndarray:
    """One DBSCAN (min_pts 2) over (w, h) for every position cluster at once.

    ``pos_labels`` must be sorted. A cluster of two or more boxes whose (w, h)
    extent has a squared diagonal within eps**2 (less a 1e-9 relative margin)
    is one dimension cluster, found without a pair query: |a - b| <= max - min
    for every pair, and rounding is monotone, so no pair's squared distance,
    as ``_pairs`` computes it, exceeds the extent's. The margin leaves
    clusters near the threshold to the query. A single box is noise.

    The other clusters' boxes go through one query, each lifted to
    (w, h, label * 2r): boxes of one position cluster share the third
    coordinate exactly, so their distances are unchanged, while boxes of
    different clusters lie more than r apart. No (w, h) distance reaches
    2 * (max w + max h), so capping the radius r there keeps every pair and
    keeps the lift finite for any eps. Lifted boxes whose squared distances
    overflow float64 (``_require_measurable``) are rejected whether or not
    their cluster needs the query.

    Dimension clusters are numbered by their smallest index, so the labels of
    each position cluster form one contiguous run in the order a separate
    DBSCAN of that cluster alone would number them.
    """
    radius = min(eps, 2.0 * float(dims[:, 0].max() + dims[:, 1].max()))
    lifted = np.column_stack((dims, pos_labels * (2.0 * radius)))
    _require_measurable(lifted.min(axis=0), lifted.max(axis=0), "box dimensions")
    starts = np.flatnonzero(np.diff(pos_labels, prepend=-1))
    sizes = np.diff(starts, append=len(dims))
    span = np.maximum.reduceat(dims, starts) - np.minimum.reduceat(dims, starts)
    eps = float(eps)  # a Python float squares to inf, not to an overflow warning
    whole = np.repeat((sizes >= 2) & (span[:, 0] ** 2 + span[:, 1] ** 2 <= eps * eps * (1 - 1e-9)), sizes)
    # first: the smallest index in each box's dimension cluster, -1 for noise
    first = np.where(whole, np.repeat(starts, sizes), -1)
    split = np.flatnonzero(~whole)
    if len(split):
        sub = _dbscan(len(split), *_pairs(lifted[split], radius, "box dimensions"), 2)
        _, sub_first, sub_inverse = np.unique(sub, return_index=True, return_inverse=True)
        first[split] = np.where(sub >= 0, split[sub_first][sub_inverse], -1)
    labels = np.full(len(dims), -1, dtype=np.int64)
    member = first >= 0
    labels[member] = np.unique(first[member], return_inverse=True)[1]
    return labels


def _segment_medians(seg: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.median`` of ``values`` over each group of equal ``seg`` labels, in label order, column by column.

    ``values`` is (m,) or (m, c) and holds no NaN; ``counts`` holds the group
    sizes, in label order. Each group becomes one row padded with +inf to the
    largest group, so one sort along the rows orders every group of every
    column; the padding takes (groups x largest group) values per column.
    np.median is the mean of the middle one or two sorted values, and numpy's
    sum starts from +0.0, so it never returns -0.0; adding 0.0 keeps it bit
    for bit.
    """
    groups = np.arange(len(counts))
    # row k of the label-sorted values goes to slot k - (its group's start) of its group's row
    slot = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.full((len(counts), counts.max(initial=0), *values.shape[1:]), np.inf)
    padded[np.repeat(groups, counts), slot] = values[np.argsort(seg)]
    ordered = np.sort(padded, axis=1)
    hi = counts // 2
    medians = ordered[groups, hi] + 0.0
    even = counts % 2 == 0
    with np.errstate(over="ignore"):  # two values near the float limit sum to inf, which VertebraCenter rejects
        medians[even] = (ordered[groups[even], hi[even] - 1] + medians[even]) / 2
    return medians


def _median_boxes_per_slice(ds: DetectionSet) -> float:
    _, counts = np.unique(ds.slice_index * len(PLANES) + ds.plane, return_counts=True)
    return float(np.median(counts))


def _canonical_order(ds: DetectionSet, pts: np.ndarray) -> np.ndarray:
    """The permutation that sorts the boxes by (x, y, z, w, h, confidence), ``pts`` their embedded centers.

    This total order makes every later step of ``cluster_centers`` invariant
    to the order of the input rows. When no two boxes share an (x, y) pair,
    (x, y) alone decides it, so one two-key sort gives the six-key
    permutation; a tie, -0.0 beside 0.0 included, goes to the six-key sort.
    """
    x, y = pts[:, 0], pts[:, 1]
    order = np.lexsort((y, x))
    xs, ys = x.take(order), y.take(order)
    if ((xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])).any():
        order = np.lexsort((ds.confidence, ds.h, ds.w, pts[:, 2], y, x))
    return order


def cluster_centers(ds: DetectionSet, cfg: ClusterConfig | None = None) -> list[VertebraCenter]:
    """Run the three clustering passes and return ordered vertebra centers.

    Raises EmptyClusterError, carrying per-pass drop counts, when nothing
    survives. Permuting the rows of ``ds`` never changes the result.
    """
    if not len(ds):
        raise ValidationError(f"detection set {ds.case_id!r} is empty")
    if cfg is None:
        cfg = ClusterConfig.defaults_for(ds)

    # Canonical total order makes every later step permutation invariant: one
    # (x, y) sort, or the six-key sort when two boxes share an (x, y) pair.
    pts = embed_detections(ds)
    order = _canonical_order(ds, pts)
    pts = pts[order]
    dims = np.column_stack((ds.w, ds.h))[order]

    # Pass 1: density floor. l is the median box count over populated slices,
    # a scale-free stand-in for the per-vertebra frame count. Passes 1 and 2
    # share one radius, so one pair query serves both.
    i, j = _pairs(pts, cfg.eps_pos, "box centers")
    degrees = _degrees(len(pts), i, j)
    keep = degrees / _median_boxes_per_slice(ds) >= cfg.density_floor
    dropped_density = int(np.count_nonzero(~keep))

    # Pass 2: position clustering over the pairs whose ends both survived, in
    # the same index space. A dropped box keeps no pair, so it is noise
    # (min_pts >= 2), and the kept boxes keep their order, so they get the
    # labels a DBSCAN of the kept boxes alone gives. A dropped box is most
    # often isolated, and then every pair survives and so do the degrees.
    if degrees[~keep].any():
        both = keep[i] & keep[j]
        i, j = i[both], j[both]
        degrees = _degrees(len(pts), i, j)
    pos_labels = _dbscan(len(pts), i, j, cfg.min_pts, degrees)
    noise = int(np.count_nonzero(pos_labels < 0))
    dropped_position = noise - dropped_density

    # Pass 3: dimension clustering inside each position cluster, run as one
    # DBSCAN over the clustered boxes sorted by position label.
    by_label = np.argsort(pos_labels, kind="stable")[noise:]
    pts3, dims3, labels3 = pts[by_label], dims[by_label], pos_labels[by_label]
    dim_labels = _dimension_labels(dims3, labels3, cfg.eps_dim) if len(labels3) else labels3
    # Each dimension cluster lies inside one position cluster, its owner, and
    # owners number their labels in turn. An owner keeps its largest; equal
    # sizes go to the smaller median box area, since oversized boxes straddling
    # two vertebrae are the failure mode rejected here, then to the lower label.
    # A winner thinned below min_pts no longer counts as a vertebra.
    member = np.flatnonzero(dim_labels >= 0)
    d = dim_labels[member]
    sizes = np.bincount(d)
    owner = np.empty(len(sizes), dtype=np.int64)
    owner[d] = labels3[member]
    area = _segment_medians(d, dims3[member, 0] * dims3[member, 1], sizes)
    ranked = np.lexsort((area, -sizes, owner))
    winners = ranked[np.diff(owner[ranked], prepend=-1) != 0]
    winners = winners[sizes[winners] >= cfg.min_pts]
    dropped_dimension = len(labels3) - int(sizes[winners].sum())
    if not len(winners):
        raise EmptyClusterError(dropped_density=dropped_density, dropped_position=dropped_position,
                                dropped_dimension=dropped_dimension)

    rows, counts = member[np.isin(d, winners)], sizes[winners]
    x, y, z, w, h = _segment_medians(dim_labels[rows], np.column_stack((pts3, dims3))[rows], counts).T
    ranks = np.lexsort((y, x, -z))  # cranial to caudal: descending z, ties broken by x then y
    ranked_rows = zip(*(c[ranks].tolist() for c in (x, y, z, w, h, counts)))
    return [
        VertebraCenter(position=(cx, cy, cz), mean_dims=(mw, mh), member_count=m, z_rank=rank)
        for rank, (cx, cy, cz, mw, mh, m) in enumerate(ranked_rows)
    ]
