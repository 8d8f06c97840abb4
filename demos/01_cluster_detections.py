"""From noisy per-slice boxes to ordered 3D vertebra centers.

Generates one synthetic scan, clusters its detection boxes, and compares the
recovered centers against the planted ones.
"""

import numpy as np

from spineid import ClusterConfig, GenConfig, cluster_centers, generate_case
from spineid.labels import CANONICAL_NAMES

case, detections = generate_case(GenConfig(seed=42, vertebrae_range=(6, 10)), 0)
print(f"case {case.case_id}: {len(case)} vertebrae, "
      f"{len(detections)} boxes in a volume of shape {detections.volume_shape}")

# Radii in voxels. Box blobs have ~1 voxel of jitter and vertebrae sit ~26
# voxels apart, so a 6-voxel position radius separates neighbors cleanly.
cfg = ClusterConfig(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1)
centers = cluster_centers(detections, cfg)
print(f"recovered {len(centers)} centers (planted {len(case)})\n")

planted = np.array([v.center.position for v in case.vertebrae])
print("rank  truth  recovered center              error   members  dims")
for c in centers:
    err = float(np.min(np.linalg.norm(planted - np.array(c.position), axis=1)))
    label = CANONICAL_NAMES[case.vertebrae[c.z_rank].truth]
    x, y, z = c.position
    print(f"{c.z_rank:4d}  {label:>5}  ({x:6.1f}, {y:6.1f}, {z:6.1f})   "
          f"{err:5.2f}   {c.member_count:7d}  {c.mean_dims[0]:.1f} x {c.mean_dims[1]:.1f}")

# Noise boxes (10% of the set) never make it into a cluster: the density
# floor drops isolated boxes and the position pass rejects the rest.
total_members = sum(c.member_count for c in centers)
print(f"\n{len(detections) - total_members} of {len(detections)} boxes rejected as noise or outliers")
