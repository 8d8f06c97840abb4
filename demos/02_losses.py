"""The three training losses: contrastive, sequence-consistency, and the combiner."""

import numpy as np

from spineid import EmbeddingBatch, label_index, sequence_loss, supcon_grad, supcon_loss, total_loss

rng = np.random.default_rng(0)

# --- supervised contrastive loss ------------------------------------------
# Two classes, two embeddings each. Well-separated classes score low; the
# same batch collapsed onto a single direction scores 4 * log(3).
tight = np.array([
    [1.0, 0.0, 0.0],
    [0.999, 0.044, 0.0],
    [0.0, 1.0, 0.0],
    [0.044, 0.999, 0.0],
])
tight /= np.linalg.norm(tight, axis=1, keepdims=True)
labels = [label_index(name) for name in ("T1", "T1", "T2", "T2")]  # label indices 7, 7, 8, 8
batch = EmbeddingBatch(tight, labels, tau=0.1)
print(f"separated classes : loss = {supcon_loss(batch):.4f}")

collapsed = np.tile(np.array([[1.0, 0.0, 0.0]]), (4, 1))
print(f"collapsed classes : loss = {supcon_loss(EmbeddingBatch(collapsed, labels, tau=0.1)):.4f}"
      f"  (= 4 log 3 = {4 * np.log(3):.4f})")

# The analytic gradient agrees with finite differences; a one-step descent
# move along it must reduce the loss.
g = supcon_grad(batch)
stepped = tight - 0.01 * g
stepped /= np.linalg.norm(stepped, axis=1, keepdims=True)
print(f"after one gradient step: loss = {supcon_loss(EmbeddingBatch(stepped, labels, tau=0.1)):.4f}")

# --- sequence-consistency penalty ------------------------------------------
# Length minus the longest strictly increasing subsequence: 0 means the
# predicted sequence is anatomically ordered.
for seq in ([7, 8, 9, 10], [7, 9, 8, 10], [3, 1, 2, 4], [23, 22, 21, 20, 19], [5, 5, 6]):
    print(f"sequence {seq}: penalty {sequence_loss(seq)}")

# --- weighted total ---------------------------------------------------------
print(f"total_loss(2, 0.4, 0.8) with weights (0.1, 0.5, 1.0) = "
      f"{total_loss(2.0, 0.4, 0.8, 0.1, 0.5, 1.0):.2f}")
