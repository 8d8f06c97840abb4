"""Loss oracles: brute-force contrastive loss, finite differences, exhaustive LIS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_vector_batch
from spineid.errors import DivergenceError, ValidationError
from spineid.labels import sequence_loss
from spineid.losses import EmbeddingBatch, supcon_grad, supcon_loss, total_loss


def oracle_supcon(vectors: np.ndarray, labels, tau: float) -> float:
    """Extended-precision double loop over anchors, positives, and the denominator."""
    z = np.asarray(vectors, dtype=np.longdouble)
    lab = list(labels)
    n = len(z)
    total = np.longdouble(0.0)
    for v in range(n):
        others = [a for a in range(n) if a != v]
        positives = [g for g in others if lab[g] == lab[v]]
        denom = np.longdouble(0.0)
        for a in others:
            denom += np.exp(np.dot(z[v], z[a]) / np.longdouble(tau))
        acc = np.longdouble(0.0)
        for g in positives:
            acc += np.exp(np.dot(z[v], z[g]) / np.longdouble(tau)) / denom
        total += -np.log(acc / len(positives))
    return float(total)


def oracle_lis_exhaustive(seq) -> int:
    """Longest strictly increasing subsequence by exhaustive subset search.

    A subset is valid iff no selected pair (i < j) has seq[i] >= seq[j];
    validity is checked for all 2^n subsets via precomputed bad-pair masks.
    """
    n = len(seq)
    masks = np.arange(1 << n, dtype=np.uint32)
    invalid = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] >= seq[j]:
                pm = np.uint32((1 << i) | (1 << j))
                invalid |= (masks & pm) == pm
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    return int(popcount[~invalid].max())


def random_batch(rng, pairs=None, dim=None, tau=None) -> EmbeddingBatch:
    pairs = pairs if pairs is not None else int(rng.integers(2, 9))
    dim = dim if dim is not None else int(rng.integers(2, 9))
    tau = tau if tau is not None else float(rng.uniform(0.05, 2.0))
    classes = rng.choice(24, size=pairs, replace=False)
    labels = np.repeat(classes, 2)
    rng.shuffle(labels)
    vecs = rng.normal(size=(2 * pairs, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return EmbeddingBatch(vecs, labels, tau)


def fd_grad(batch: EmbeddingBatch, h: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(batch.vectors)
    base = np.array(batch.vectors)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus, minus = base.copy(), base.copy()
            plus[i, j] += h
            minus[i, j] -= h
            # bypass the norm check: evaluate the loss on perturbed raw rows
            lp = _raw_loss(plus, batch.labels, batch.tau)
            lm = _raw_loss(minus, batch.labels, batch.tau)
            out[i, j] = (lp - lm) / (2 * h)
    return out


def _raw_loss(vectors, labels, tau) -> float:
    """supcon_loss on unnormalized rows (the gradient treats rows as free)."""
    z = np.asarray(vectors, dtype=np.float64)
    lab = np.asarray(labels)
    s = z @ z.T / tau
    n = len(z)
    valid = ~np.eye(n, dtype=bool)
    pos = (lab[:, None] == lab[None, :]) & valid
    m = np.max(np.where(valid, s, -np.inf), axis=1, keepdims=True)
    e = np.exp(s - m) * valid
    return float(-(np.log((e * pos).sum(1) / pos.sum(1)) - np.log(e.sum(1))).sum())


class TestSupconLoss:
    def test_all_identical_vectors(self):
        v = np.zeros(4)
        v[0] = 1.0
        vecs = np.tile(v, (4, 1))
        labels = (0, 0, 1, 1)
        batch = EmbeddingBatch(vecs, labels, tau=0.5)
        got = supcon_loss(batch)
        expected = oracle_supcon(vecs, labels, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        # every ratio is 1/|A| = 1/3, so the loss collapses to 4 * log 3
        assert got == pytest.approx(4 * math.log(3), rel=1e-12)

    def test_orthogonal_pairs(self):
        vecs = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
        labels = (3, 3, 8, 8)
        batch = EmbeddingBatch(vecs, labels, tau=1.0)
        assert supcon_loss(batch) == pytest.approx(oracle_supcon(vecs, labels, 1.0), rel=1e-12)

    def test_matches_oracle_on_random_batches(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            batch = random_batch(rng)
            assert supcon_loss(batch) == pytest.approx(
                oracle_supcon(batch.vectors, batch.labels, batch.tau), rel=1e-10
            )

    def test_large_tau_flattens_to_identical_value(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, pairs=2, dim=4, tau=1e7)
        n = batch.size
        assert supcon_loss(batch) == pytest.approx(n * math.log(n - 1), rel=1e-5)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, pairs=3, dim=4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = EmbeddingBatch((batch.vectors @ q) / np.linalg.norm(batch.vectors @ q, axis=1, keepdims=True),
                                 batch.labels, batch.tau)
        assert abs(supcon_loss(rotated) - supcon_loss(batch)) <= 1e-9

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng)
        perm = rng.permutation(batch.size)
        shuffled = EmbeddingBatch(batch.vectors[perm], batch.labels[perm], batch.tau)
        assert abs(supcon_loss(shuffled) - supcon_loss(batch)) <= 1e-9

    def test_lonely_label_rejected(self):
        vecs = np.eye(3)
        labels = (0, 0, 1)
        with pytest.raises(ValidationError, match="label C2 at row 2 has no positive partner"):
            EmbeddingBatch(vecs, labels, 0.1)

    def test_labels_are_a_read_only_index_array(self):
        batch = EmbeddingBatch(np.eye(4), [np.int64(3), 3, np.uint8(8), 8], 0.1)
        assert batch.labels.dtype == np.int64 and batch.labels.tolist() == [3, 3, 8, 8]
        assert not batch.labels.flags.writeable

    def test_bad_tau_rejected(self):
        vecs = np.eye(2)
        labels = (0, 0)
        with pytest.raises(ValidationError, match="tau"):
            EmbeddingBatch(vecs, labels, 0.0)

    def test_unnormalized_rows_rejected(self):
        vecs = np.eye(2) * 1.5
        with pytest.raises(ValidationError, match="norm"):
            EmbeddingBatch(vecs, (0, 0), 0.1)

    def test_self_similarity_never_overflows(self):
        # the corners of a regular tetrahedron: every off-diagonal logit is
        # -1/(3 tau), so the loss is 4 log 3 and the gradient scales as 1/tau
        # at any tau, while exp of the self-similarity 1/tau would overflow
        vecs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
        labels = (0, 0, 1, 1)
        small, unit = EmbeddingBatch(vecs, labels, 1e-3), EmbeddingBatch(vecs, labels, 1.0)
        assert supcon_loss(small) == pytest.approx(4 * math.log(3), rel=1e-12)
        assert supcon_loss(unit) == pytest.approx(4 * math.log(3), rel=1e-12)
        assert np.allclose(supcon_grad(small) * 1e-3, supcon_grad(unit), rtol=1e-12, atol=0)

    def test_underflowing_positives_raise_divergence(self):
        # every positive of some anchor lies over 745 below the row maximum
        data = unit_vector_batch()
        batch = EmbeddingBatch(np.array(data["vectors"]), data["labels"], 1e-3)
        with pytest.raises(DivergenceError, match="loss is not finite at tau 0.001"):
            supcon_loss(batch)
        with pytest.raises(DivergenceError, match="gradient is not finite at tau 0.001"):
            supcon_grad(batch)


class TestSupconGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            batch = random_batch(rng, pairs=int(rng.integers(2, 5)), dim=int(rng.integers(2, 6)))
            an = supcon_grad(batch)
            fd = fd_grad(batch)
            rel = np.abs(an - fd) / np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-6)
            assert rel.max() <= 1e-4

    def test_symmetric_rows_get_equal_gradients(self):
        v = np.zeros(3)
        v[1] = 1.0
        vecs = np.stack([v, v, np.array([1.0, 0, 0]), np.array([0, 0, 1.0])])
        labels = (2, 2, 9, 9)
        g = supcon_grad(EmbeddingBatch(vecs, labels, 0.3))
        assert np.allclose(g[0], g[1], atol=1e-12)

    def test_flat_softmax_limit_still_matches_fd(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, pairs=3, dim=4, tau=100.0)
        an = supcon_grad(batch)
        fd = fd_grad(batch)
        rel = np.abs(an - fd) / np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-6)
        assert rel.max() <= 1e-4


class TestSequenceLoss:
    def test_already_increasing(self):
        assert sequence_loss([7, 8, 9, 10]) == 0

    def test_one_out_of_place(self):
        seq = [3, 1, 2, 4]
        expected = len(seq) - oracle_lis_exhaustive(seq)
        assert expected == 1
        assert sequence_loss(seq) == expected

    def test_fully_decreasing(self):
        seq = [23, 22, 21, 20, 19]
        expected = len(seq) - oracle_lis_exhaustive(seq)
        assert expected == 4
        assert sequence_loss(seq) == expected

    def test_duplicates_are_penalized(self):
        assert sequence_loss([5, 5, 5]) == 2

    def test_singleton(self):
        assert sequence_loss([12]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            sequence_loss([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            sequence_loss([0, 24])

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            seq = rng.integers(0, 24, size=n).tolist()
            assert sequence_loss(seq) == n - oracle_lis_exhaustive(seq)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=22), min_size=1, max_size=10))
    def test_appending_larger_never_increases(self, seq):
        extended = seq + [max(seq) + 1]
        assert sequence_loss(extended) <= sequence_loss(seq)

    def test_label_sequence_type(self):
        # any sequence of label indices, numpy integers included
        for seq in ([1, 5, 3], (1, 5, 3), np.array([1, 5, 3]), [np.int32(1), np.uint8(5), 3]):
            assert sequence_loss(seq) == 1

    @pytest.mark.parametrize("seq", [[1.7, 3], [True, 2], ["3", 4], [np.float64(1), 2]],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_labels_rejected(self, seq):
        # each once read as an increasing sequence with loss 0
        with pytest.raises(ValidationError, match=r"seq\[0\] has an invalid value"):
            sequence_loss(seq)


class TestTotalLoss:
    def test_reference_weights(self):
        # alpha, beta, gamma = 0.1, 0.5, 1 on losses (2, 0.4, 0.8)
        assert total_loss(2.0, 0.4, 0.8, 0.1, 0.5, 1.0) == pytest.approx(1.2)

    def test_zero_losses(self):
        assert total_loss(0.0, 0.0, 0.0, 0.1, 0.5, 1.0) == 0.0

    def test_projection(self):
        assert total_loss(3.0, 7.0, 0.25, 0.0, 0.0, 1.0) == 0.25

    def test_linearity_by_superposition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = rng.uniform(0, 2, 3)
            x1, y1, z1, x2, y2, z2 = rng.uniform(-3, 3, 6)
            lhs = total_loss(x1 + x2, y1 + y2, z1 + z2, a, b, c)
            rhs = total_loss(x1, y1, z1, a, b, c) + total_loss(x2, y2, z2, a, b, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            total_loss(float("inf"), 0.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            total_loss(1.0, 1.0, 1.0, alpha=-0.1)
