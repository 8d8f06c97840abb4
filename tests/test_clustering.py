"""Clustering: embedding, density oracle, recovery, and determinism."""

import numpy as np
import pytest

from spineid.clustering import ClusterConfig, box_density, cluster_centers, embed_detection
from spineid.domain import DetectionSet, SliceDetection
from spineid.errors import EmptyClusterError, ValidationError


def brute_density_counts(pts: np.ndarray, eps: float) -> np.ndarray:
    """Independent O(n^2) neighbor counts via a full pairwise distance matrix."""
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = (diff**2).sum(axis=2)
    within = d2 <= eps * eps
    return within.sum(axis=1) - 1  # drop self


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
    dets = []
    for ci, (x, y, z) in enumerate(centers):
        bw, bh = dims if dims_per_center is None else dims_per_center[ci]
        for plane, normal, in_cx in (("sagittal", x, y), ("coronal", y, x)):
            extent = w if plane == "sagittal" else h
            for _ in range(boxes_each // 2):
                dets.append(
                    SliceDetection(
                        plane=plane,
                        slice_index=int(np.clip(round(normal + rng.normal(0, sigma)), 0, extent - 1)),
                        cx=float(in_cx + rng.normal(0, sigma)),
                        cy=float(z + rng.normal(0, sigma)),
                        w=float(max(1.0, bw + rng.normal(0, dim_sigma))),
                        h=float(max(1.0, bh + rng.normal(0, dim_sigma))),
                        confidence=float(rng.uniform(0.5, 1.0)),
                    )
                )
    for _ in range(noise):
        plane = "sagittal" if rng.uniform() < 0.5 else "coronal"
        dets.append(
            SliceDetection(
                plane=plane,
                slice_index=int(rng.integers(0, w if plane == "sagittal" else h)),
                cx=float(rng.uniform(0, h if plane == "sagittal" else w)),
                cy=float(rng.uniform(0, d)),
                w=float(rng.uniform(5, 45)),
                h=float(rng.uniform(5, 45)),
                confidence=float(rng.uniform(0.1, 0.9)),
            )
        )
    return DetectionSet("blob", volume, tuple(dets), max(w, h))


class TestEmbedding:
    def test_sagittal_mapping(self):
        d = SliceDetection("sagittal", 10, 5.0, 7.0, 3.0, 3.0, 0.9)
        p = embed_detection(d)
        assert p.dtype == np.float64 and p.shape == (3,)
        assert np.array_equal(p, [10.0, 5.0, 7.0])

    def test_coronal_mapping(self):
        d = SliceDetection("coronal", 10, 5.0, 7.0, 3.0, 3.0, 0.9)
        p = embed_detection(d)
        assert p.dtype == np.float64 and p.shape == (3,)
        assert np.array_equal(p, [5.0, 10.0, 7.0])

    def test_deterministic(self):
        d = SliceDetection("sagittal", 3, 1.25, 9.5, 2.0, 2.0, 0.5)
        assert np.array_equal(embed_detection(d), embed_detection(d))


class TestBoxDensity:
    def test_isolated_point(self):
        pts = np.array([[0, 0, 0], [100, 100, 100], [200, 0, 0]], dtype=float)
        assert box_density(0, pts, eps=5.0, l_i=5) == 0.0

    def test_four_neighbors(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [50, 50, 50]], dtype=float)
        assert box_density(0, pts, eps=2.0, l_i=5) == pytest.approx(4 / 5)

    def test_rejects_non_point_arrays(self):
        for bad in (np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3, 3))):
            with pytest.raises(ValidationError, match=r"\(n, 3\)"):
                box_density(0, bad, eps=1.5, l_i=2)

    def test_zero_l_rejected(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValidationError, match="l_i"):
            box_density(0, pts, eps=1.0, l_i=0)

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 51))
            pts = rng.uniform(0, 30, size=(n, 3))
            eps = float(rng.uniform(0.5, 15))
            l_i = int(rng.integers(1, 10))
            counts = brute_density_counts(pts, eps)
            for i in range(n):
                assert box_density(i, pts, eps, l_i) == counts[i] / l_i


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

    def test_oversized_dimension_cluster_discarded(self):
        rng = np.random.default_rng(13)
        base = (30.0, 20.0)
        center = [(100.0, 100.0, 200.0)]
        small = blob_detections(rng, center, boxes_each=30, dims=base).detections
        # double the dims of exactly half the boxes, keeping positions
        doctored = []
        for i, d in enumerate(small):
            if i % 2 == 0:
                doctored.append(SliceDetection(d.plane, d.slice_index, d.cx, d.cy, 2 * d.w, 2 * d.h, d.confidence))
            else:
                doctored.append(d)
        ds = DetectionSet("half", (600, 200, 200), tuple(doctored), 200)
        found = cluster_centers(ds, self.CFG)
        assert len(found) == 1
        mw, mh = found[0].mean_dims
        assert abs(mw - base[0]) / base[0] <= 0.15
        assert abs(mh - base[1]) / base[1] <= 0.15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        planted, ds = self.planted(rng, noise=10)
        found = cluster_centers(ds, self.CFG)
        perm = np.random.default_rng(99).permutation(len(ds.detections))
        shuffled = DetectionSet(ds.case_id, ds.volume_shape,
                                tuple(ds.detections[i] for i in perm), ds.slice_count_per_plane)
        found2 = cluster_centers(shuffled, self.CFG)
        assert len(found) == len(found2)
        for a, b in zip(found, found2):
            assert a == b

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
        assert sum(c.member_count for c in centers) <= len(ds.detections)

    def test_empty_result_error_carries_counts(self):
        rng = np.random.default_rng(18)
        dets = []
        for _ in range(12):  # isolated boxes only
            dets.append(
                SliceDetection("sagittal", int(rng.integers(0, 200)),
                               float(rng.uniform(0, 200)), float(rng.uniform(0, 600)),
                               float(rng.uniform(5, 45)), float(rng.uniform(5, 45)), 0.5)
            )
        ds = DetectionSet("noise", (600, 200, 200), tuple(dets), 200)
        with pytest.raises(EmptyClusterError) as err:
            cluster_centers(ds, self.CFG)
        e = err.value
        assert e.dropped_density + e.dropped_position + e.dropped_dimension >= 12

    def test_empty_detection_set_rejected(self):
        ds = DetectionSet("x", (10, 10, 10), (), 10)
        with pytest.raises(ValidationError, match="empty"):
            cluster_centers(ds, self.CFG)

    def test_defaults_follow_box_height(self):
        rng = np.random.default_rng(19)
        _, ds = self.planted(rng)
        cfg = ClusterConfig.defaults_for(ds)
        median_h = float(np.median([d.h for d in ds.detections]))
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
