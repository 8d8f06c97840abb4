"""Generator determinism, noiseless limits, and the baseline-rate oracle."""

import json

import numpy as np
import pytest

from spineid import io
from spineid.errors import ValidationError
from spineid.evaluate import evaluate
from spineid.labels import N_CLASSES
from spineid.synthetic import ConfusionModel, DetectConfig, GenConfig, McConfig, gen_cases, generate_case
from spineid.uncertainty import aggregate_samples


def test_noiseless_limit_is_perfect():
    cfg = GenConfig(
        seed=5,
        n_cases=20,
        confusion=ConfusionModel(1.0, 0.0, 0.0, 0.0),
        mc=McConfig(20, 5.0),
    )
    cases = [c for c, _ in gen_cases(cfg)]
    for case in cases:
        for v in case.vertebrae:
            col = v.truth
            assert np.all(v.mc.samples[:, col] == 1.0)
    preds = [[aggregate_samples(v.mc) for v in c.vertebrae] for c in cases]
    rep = evaluate(cases, preds)
    assert rep.id_rate == 1.0
    assert rep.mse == 0.0


def test_same_seed_byte_identical():
    cfg = GenConfig(seed=77, n_cases=4)
    a = gen_cases(cfg)
    b = gen_cases(cfg)
    for (ca, da), (cb, db) in zip(a, b):
        assert json.dumps(io.case_to_dict(ca)) == json.dumps(io.case_to_dict(cb))
        assert ca == cb
        assert da == db


def test_different_seeds_differ():
    a = generate_case(GenConfig(seed=1, n_cases=1), 0)
    b = generate_case(GenConfig(seed=2, n_cases=1), 0)
    assert a[0] != b[0]


def test_cases_are_valid_and_consecutive():
    cfg = GenConfig(seed=9, n_cases=30, vertebrae_range=(1, 24))
    for case, dets in gen_cases(cfg):
        truths = case.truths
        assert truths == list(range(truths[0], truths[0] + len(truths)))
        assert len(dets) > 0
        assert dets.slice_count_per_plane == cfg.k_slices


def test_noise_rate_controls_noise_fraction():
    quiet = generate_case(GenConfig(seed=4, n_cases=1, detect=DetectConfig(noise_rate=0.0)), 0)[1]
    noisy = generate_case(GenConfig(seed=4, n_cases=1, detect=DetectConfig(noise_rate=0.3)), 0)[1]
    assert len(noisy) > len(quiet)


def test_infeasible_mass_rejected():
    with pytest.raises(ValidationError, match="dominate"):
        ConfusionModel(0.2, 0.3, 0.0, 0.0)
    with pytest.raises(ValidationError, match="true_mass"):
        ConfusionModel(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        ConfusionModel(0.5, -0.1, 0.0, 0.0)


@pytest.mark.parametrize("seed", [-1, 1.0, True, "3", None], ids=["negative", "float", "bool", "str", "none"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        GenConfig(seed=seed)


def test_numpy_integer_seed_equals_python_int():
    assert generate_case(GenConfig(seed=np.int64(5)), 0) == generate_case(GenConfig(seed=5), 0)


def test_base_vector_edges_renormalize():
    model = ConfusionModel(0.6, 0.15, 0.03, 0.004)
    for truth in (0, 1, 22, 23, 11):
        base = model.base_vector(truth)
        assert base.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(base)) == truth


def test_vertebrae_range_respected():
    cfg = GenConfig(seed=10, n_cases=40, vertebrae_range=(2, 5))
    sizes = {len(c) for c, _ in gen_cases(cfg)}
    assert sizes <= {2, 3, 4, 5}
    assert len(sizes) > 1


def test_baseline_rate_matches_model_oracle():
    """Empirical argmax ID-rate vs a direct Monte Carlo oracle on the model."""
    conf = ConfusionModel(0.6, 0.15, 0.03, 0.004)
    kappa, n_samples = 30.0, 20
    lo, hi = 4, 12
    cfg = GenConfig(seed=123, n_cases=500, vertebrae_range=(lo, hi),
                    confusion=conf, mc=McConfig(n_samples, kappa))
    cases = [c for c, _ in gen_cases(cfg)]
    preds = [[aggregate_samples(v.mc) for v in c.vertebrae] for c in cases]
    empirical = evaluate(cases, preds).id_rate

    # Oracle: enumerate the truth-label distribution implied by (K, start)
    # draws, then Monte Carlo the per-truth top-1 rate of mean-of-N Dirichlet
    # samples, independently of the generator's code path.
    rng = np.random.default_rng(999)
    weights = np.zeros(N_CLASSES)
    for k in range(lo, hi + 1):
        for start in range(N_CLASSES - k + 1):
            for truth in range(start, start + k):
                weights[truth] += 1.0 / ((hi - lo + 1) * (N_CLASSES - k + 1))
    weights /= weights.sum()
    per_truth = np.zeros(N_CLASSES)
    for truth in range(N_CLASSES):
        base = np.full(N_CLASSES, conf.floor)
        base[truth] = conf.true_mass
        for step, mass in ((1, conf.adjacent1), (2, conf.adjacent2)):
            for j in (truth - step, truth + step):
                if 0 <= j < N_CLASSES:
                    base[j] = mass
        base /= base.sum()
        hits = 0
        trials = 3000
        for _ in range(trials):
            mean = rng.dirichlet(kappa * base, size=n_samples).mean(axis=0)
            hits += int(np.argmax(mean)) == truth
        per_truth[truth] = hits / trials
    oracle = float((weights * per_truth).sum())
    assert abs(empirical - oracle) <= 0.03
