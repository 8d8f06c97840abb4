"""Uncertainty aggregation against extended-precision recomputation."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_case, one_hot, random_case, random_probs
from spineid import io
from spineid.domain import MAX_ENTROPY, McSampleSet, SpineVertebra, UncertaintyReport, _sample_stats
from spineid.errors import ValidationError
from spineid.fusion import TrainConfig, fuse, identity_params, resolve_certainty, train_phi
from spineid.uncertainty import aggregate_samples, certainty_from_variance, entropy, fusion_weight, report, with_reports


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


def per_set_stats(samples: np.ndarray):
    """The per-vertebra numpy code that summarized one sample set before whole cases were summarized at once."""
    mean = samples.mean(axis=0)
    mean /= mean.sum()
    nz = mean > 0.0
    ent = float(-(mean[nz] * np.log(mean[nz])).sum()) + 0.0
    var = float(samples.var(axis=0, ddof=1).mean()) if len(samples) > 1 else 0.0
    return mean, ent, var


@st.composite
def sample_sets(draw, max_rows: int = 30):
    """1-24 sample sets of 1-``max_rows`` rows: dense, sparse (a mean with zero entries), one-hot or mixed rows."""
    counts = draw(st.lists(st.integers(1, max_rows), min_size=1, max_size=24), label="counts")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sets = []
    for n in counts:
        kind = draw(st.sampled_from(["dense", "sparse", "one-hot", "mixed"]))
        alpha = np.full(24, rng.uniform(0.05, 10.0))
        if kind == "sparse":  # every row shares one support, so the mean holds zeros
            alpha[rng.permutation(24)[:int(rng.integers(1, 24))]] = 0.0
            alpha[int(rng.integers(0, 24))] = 1.0
        rows = np.zeros((n, 24))
        rows[:, alpha > 0] = rng.dirichlet(alpha[alpha > 0], size=n)
        if kind in ("one-hot", "mixed"):
            hot = np.ones(n, dtype=bool) if kind == "one-hot" else rng.random(n) < 0.5
            rows[hot] = np.eye(24)[rng.integers(0, 24, size=int(hot.sum()))]
        sets.append(rows)
    return sets


class TestSampleStats:
    """Whole-case statistics against the per-vertebra numpy code, bit for bit."""

    @staticmethod
    def assert_bits(mc: McSampleSet, rows: np.ndarray):
        mean, ent, var = per_set_stats(rows)
        assert mc.mean_probs.tobytes() == mean.tobytes()
        assert np.float64(mc.entropy).tobytes() == np.float64(ent).tobytes()
        assert np.float64(mc.variance).tobytes() == np.float64(var).tobytes()
        assert type(mc.entropy) is float and type(mc.variance) is float

    @settings(max_examples=300, deadline=None)
    @given(sets=sample_sets())
    def test_split_matches_per_set_numpy(self, sets):
        block = np.concatenate(sets)
        split = McSampleSet._split(block, [len(rows) for rows in sets])
        assert len(split) == len(sets)
        for mc, rows in zip(split, sets, strict=True):
            assert np.array_equal(mc.samples, rows) and not mc.samples.flags.writeable
            assert not mc.mean_probs.flags.writeable
            self.assert_bits(mc, rows)
            self.assert_bits(McSampleSet(rows), rows)  # a set built alone runs the same code on one segment

    def test_long_and_short_sets_in_one_case(self):
        # uneven counts from 1 to 300 rows in mixed order, so the sums cannot take the reshape
        rng = np.random.default_rng(40)
        counts = [300, 1, 2, 3, 5, 4, 7, 8, 16, 17, 31, 30, 1, 64, 200, 2, 9]
        sets = [rng.dirichlet(np.full(24, 0.3), size=n) for n in counts]
        for mc, rows in zip(McSampleSet._split(np.concatenate(sets), counts), sets, strict=True):
            self.assert_bits(mc, rows)

    def test_memory_grows_with_the_rows(self):
        # padding every set to the longest would take 24 x 20,000 rows here (92 MB, 24 times the block)
        counts = np.array([1] * 23 + [20_000])
        block = np.tile(np.full(24, 1 / 24), (int(counts.sum()), 1))
        tracemalloc.start()
        try:
            _sample_stats(block, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block.nbytes

    @pytest.mark.parametrize("n_rows, counts, message", [
        (3, [2, 0, 1], "at least one sample row"), (3, [], "at least one sample row"),
        (3, [[3]], "at least one sample row"), (3, [1, 1], "counts [1, 1] name 2 sample rows, got 3"),
        (2, [1, 2], "counts [1, 2] name 3 sample rows, got 2"),
    ], ids=["zero", "none", "2-d", "rows-left", "rows-short"])
    def test_split_needs_a_row_per_vertebra(self, n_rows, counts, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            McSampleSet._split(np.full((n_rows, 24), 1 / 24), counts)

    def test_bad_row_named_by_vertebra(self):
        block = np.full((6, 24), 1 / 24)
        block[4, 0] = 0.5
        with pytest.raises(ValidationError, match=r"^samples row 1 of vertebra 2 must sum to 1 within 1e-06"):
            McSampleSet._split(block, [1, 2, 3])
        with pytest.raises(ValidationError, match=r"^samples row 4 must sum to 1"):
            McSampleSet(block)


class TestSampleSetIsItsReport:
    """A sample set is its own uncertainty report. The runtime builds no plain report from it, so the checks a
    plain report runs on its four fields are kept here."""

    @settings(max_examples=200, deadline=None)
    @given(sets=sample_sets())
    def test_fields_pass_the_report_checks(self, sets):
        split = McSampleSet._split(np.concatenate(sets), [len(rows) for rows in sets])
        for mc in [*split, *map(McSampleSet, sets)]:
            plain = UncertaintyReport(mc.mean_probs, mc.entropy, mc.variance, mc.certainty_weight)
            assert plain == mc and mc == plain
            assert type(mc.certainty_weight) is float
            assert mc.certainty_weight == 1.0 - mc.entropy / MAX_ENTROPY

    def test_report_and_with_reports_store_the_sample_set(self):
        rng = np.random.default_rng(13)
        mc = McSampleSet(random_probs(rng, 4))
        assert report(mc) is mc
        for metric in ("entropy", "variance"):
            case = with_reports(random_case(rng), metric)
            assert all(v.uncertainty is v.mc for v in case.vertebrae)
            assert [v.fusion_weight for v in case.vertebrae] == [fusion_weight(v.mc, metric) for v in case.vertebrae]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 24), metric=st.sampled_from(["entropy", "variance"]))
    def test_with_reports_matches_the_checking_constructors(self, seed, k, metric):
        # with_reports builds its case and vertebrae unchecked; the checking ones, as it built them before, agree
        case = random_case(np.random.default_rng(seed), k=k)
        want = replace(case, vertebrae=tuple(replace(v, uncertainty=v.mc, fusion_weight=fusion_weight(v.mc, metric))
                                              for v in case.vertebrae))
        got = with_reports(case, metric)
        assert got == want and repr(got) == repr(want)
        assert json.dumps(io.case_to_dict(got)) == json.dumps(io.case_to_dict(want))
        for v, g in zip(case.vertebrae, got.vertebrae, strict=True):
            assert g.center is v.center and g.mc is v.mc and g.uncertainty is v.mc and g.truth is v.truth
            assert type(g.fusion_weight) is float

    def test_weight_below_zero_rejected_as_by_the_vertebra(self):
        # a near-uniform mean's entropy can round past ln 24, so its certainty weight falls just below 0
        rng = np.random.default_rng(0)
        rows = np.full(24, 1 / 24) + rng.uniform(-1e-12, 1e-12, (50, 24))
        low = next(mc for mc in (McSampleSet(r[None] / r.sum()) for r in rows) if mc.certainty_weight < 0)
        case = make_case([one_hot(3), low.samples, one_hot(5)], truths=[3, 4, 5])
        v = case.vertebrae[1]
        with pytest.raises(ValidationError) as checked:
            SpineVertebra(v.center, v.mc, v.truth, v.mc, low.certainty_weight)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(checked.value))}$"):
            with_reports(case)

    def test_reports_and_fusion_build_no_plain_report(self, monkeypatch):
        rng = np.random.default_rng(14)
        cases = [random_case(rng) for _ in range(3)]

        def refuse(self):
            raise AssertionError("a plain UncertaintyReport was built")

        monkeypatch.setattr(UncertaintyReport, "__post_init__", refuse)
        for case in cases:
            report(case.vertebrae[0].mc)
            resolve_certainty(case)
            fuse(case, identity_params())
            fuse(with_reports(case, "variance"), identity_params())
        train_phi(cases, identity_params(), TrainConfig(0.1, 1))
        with pytest.raises(AssertionError, match="plain UncertaintyReport"):
            UncertaintyReport(one_hot(0), 0.0, 0.0, 1.0)
