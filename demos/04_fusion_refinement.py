"""Watching message fusion fix an off-by-one vertebra, hop by hop.

The middle vertebra of a five-vertebra case leans toward its caudal
neighbor's label; its four neighbors are confidently correct. With shift
matrices as messages (a neighbor at offset d votes for class c - d), each hop
moves confidence mass back onto the true label until the argmax flips.
"""

import numpy as np

from spineid import FusionParams, fuse
from spineid.labels import CANONICAL_NAMES, N_CLASSES
from spineid.domain import McSampleSet, SpineCase, SpineVertebra, VertebraCenter, phi_offsets

START = 10  # T4..T8

rows = []
for i, truth in enumerate(range(START, START + 5)):
    v = np.full(N_CLASSES, 1e-3)
    if i == 2:
        v[truth + 1] = 0.5  # leaning one label too caudal
        v[truth] = 0.4
    else:
        v[truth] = 0.9
    rows.append(v / v.sum())

vertebrae = tuple(
    SpineVertebra(
        center=VertebraCenter((100.0, 100.0, 500.0 - 26.0 * i), (30.0, 20.0), 10, i),
        mc=McSampleSet(row[None, :]),
        truth=START + i,
    )
    for i, row in enumerate(rows)
)
case = SpineCase("demo", vertebrae)

# Shift matrices: the ideal message transform for consecutive anatomy.
phi = {}
for d in phi_offsets(5):
    m = np.zeros((N_CLASSES, N_CLASSES))
    for c in range(N_CLASSES):
        if 0 <= c - d < N_CLASSES:
            m[c, c - d] = 1.0
    phi[d] = m

trace = fuse(case, FusionParams(theta=0.1, hops=3, window=5, distance_mode="index", phi=phi))

truth_names = [CANONICAL_NAMES[START + i] for i in range(5)]
print(f"truth: {' '.join(truth_names)}\n")
for t, snap in enumerate(trace.snapshots):
    decoded = [CANONICAL_NAMES[i] for i in snap.argmax(axis=1)]
    middle = snap[2]
    print(f"hop {t}: {' '.join(decoded):30s} middle P({truth_names[2]}) = {middle[START + 2]:.3f}, "
          f"P({CANONICAL_NAMES[START + 3]}) = {middle[START + 3]:.3f}")

final = [CANONICAL_NAMES[i] for i in trace.final_labels]
print(f"\nfinal: {' '.join(final)}  (corrected: {final == truth_names})")
