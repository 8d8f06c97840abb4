"""Uncertainty aggregation against extended-precision recomputation."""

import math

import numpy as np
import pytest

from conftest import one_hot, random_probs
from spineid.domain import MAX_ENTROPY, McSampleSet
from spineid.errors import ValidationError
from spineid.uncertainty import aggregate_samples, certainty_from_variance, entropy, fusion_weight, report


def oracle_report(samples: np.ndarray):
    """Recompute every report field in extended precision."""
    s = samples.astype(np.longdouble)
    mean = s.mean(axis=0)
    mean = mean / mean.sum()
    nz = mean > 0
    ent = float(-(mean[nz] * np.log(mean[nz])).sum())
    n = s.shape[0]
    if n > 1:
        var = float(((s - s.mean(axis=0)) ** 2).sum(axis=0).mean() / (n - 1))
    else:
        var = 0.0
    return np.asarray(mean, dtype=np.float64), ent, var, 1.0 - ent / math.log(24)


class TestAggregate:
    def test_single_sample_passthrough(self):
        rng = np.random.default_rng(0)
        row = random_probs(rng)[0]
        mc = McSampleSet(row[None, :])
        assert np.allclose(aggregate_samples(mc), row, atol=1e-15)

    def test_two_one_hot_rows(self):
        mc = McSampleSet(np.stack([one_hot(0), one_hot(1)]))
        mean = aggregate_samples(mc)
        assert mean[0] == 0.5 and mean[1] == 0.5 and mean[2:].sum() == 0.0

    def test_dirichlet_mean_matches_oracle(self):
        rng = np.random.default_rng(3)
        base = random_probs(rng)[0]
        samples = rng.dirichlet(50 * base, size=20)
        samples /= samples.sum(axis=1, keepdims=True)
        mc = McSampleSet(samples)
        oracle_mean, _, _, _ = oracle_report(samples)
        assert np.abs(aggregate_samples(mc) - oracle_mean).max() <= 1e-12

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(4)
        samples = random_probs(rng, 10)
        a = aggregate_samples(McSampleSet(samples))
        b = aggregate_samples(McSampleSet(samples[::-1]))
        assert np.abs(a - b).max() <= 1e-15


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(one_hot(5)) == 0.0

    def test_uniform_is_ln24(self):
        uniform = np.full(24, 1 / 24)
        assert entropy(uniform) == pytest.approx(math.log(24), abs=1e-12)

    def test_two_point_uniform(self):
        v = np.zeros(24)
        v[0] = v[1] = 0.5
        assert entropy(v) == pytest.approx(math.log(2), abs=1e-12)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_probs(rng)[0]
            h = entropy(p)
            assert 0.0 <= h <= MAX_ENTROPY + 1e-12
            perm = rng.permutation(24)
            assert entropy(p[perm]) == pytest.approx(h, abs=1e-12)

    def test_concavity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, q = random_probs(rng, 2)
            mid = (p + q) / 2
            assert entropy(mid) >= (entropy(p) + entropy(q)) / 2 - 1e-12


class TestReport:
    def test_identical_rows_zero_variance(self):
        rng = np.random.default_rng(7)
        row = random_probs(rng)[0]
        rep = report(McSampleSet(np.tile(row, (8, 1))))
        assert rep.variance == pytest.approx(0.0, abs=1e-30)
        assert rep.certainty_weight == pytest.approx(1 - entropy(row) / MAX_ENTROPY, abs=1e-15)

    def test_uniform_rows_zero_certainty(self):
        rep = report(McSampleSet(np.tile(np.full(24, 1 / 24), (5, 1))))
        assert rep.entropy == pytest.approx(MAX_ENTROPY, abs=1e-12)
        assert rep.certainty_weight == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_certainty_is_one(self):
        rep = report(McSampleSet(np.tile(one_hot(3), (5, 1))))
        assert rep.certainty_weight == 1.0
        assert rep.variance == 0.0

    def test_single_sample_variance_zero(self):
        rng = np.random.default_rng(8)
        rep = report(McSampleSet(random_probs(rng)))
        assert rep.variance == 0.0

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            base = random_probs(rng)[0]
            samples = rng.dirichlet(rng.uniform(5, 80) * base, size=20)
            samples /= samples.sum(axis=1, keepdims=True)
            rep = report(McSampleSet(samples))
            mean, ent, var, cw = oracle_report(samples)
            assert np.abs(rep.mean_probs - mean).max() <= 1e-10
            assert rep.entropy == pytest.approx(ent, abs=1e-10)
            assert rep.variance == pytest.approx(var, abs=1e-10)
            assert rep.certainty_weight == pytest.approx(cw, abs=1e-10)

    def test_certainty_weight_range(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rep = report(McSampleSet(random_probs(rng, int(rng.integers(1, 12)))))
            assert 0.0 <= rep.certainty_weight <= 1.0
            # weight 1 happens only for a one-hot mean; these draws never are
            assert rep.certainty_weight < 1.0
            assert rep.certainty_weight > 0.0  # nor exactly uniform


class TestVarianceWeight:
    def test_zero_variance_gives_one(self):
        rep = report(McSampleSet(np.tile(one_hot(0), (4, 1))))
        assert certainty_from_variance(rep) == 1.0

    def test_alternating_one_hots_give_low_weight(self):
        rows = np.stack([one_hot(0), one_hot(1)] * 5)
        rep = report(McSampleSet(rows))
        w = certainty_from_variance(rep)
        assert 0.0 <= w < 0.95

    def test_clipped_into_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rep = report(McSampleSet(random_probs(rng, 6)))
            assert 0.0 <= certainty_from_variance(rep) <= 1.0


class TestFusionWeight:
    def test_metrics_pick_entropy_or_variance_weight(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mc = McSampleSet(random_probs(rng, 5))
            rep = report(mc)
            assert fusion_weight(rep, "entropy") == rep.certainty_weight
            assert fusion_weight(rep, "variance") == certainty_from_variance(rep)
            assert np.array_equal(rep.mean_probs, aggregate_samples(mc))

    def test_unknown_metric_rejected(self):
        rep = report(McSampleSet(one_hot(3)[None, :]))
        with pytest.raises(ValidationError, match="u_metric"):
            fusion_weight(rep, "mutual_information")
