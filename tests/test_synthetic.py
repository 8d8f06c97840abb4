"""Generator determinism, noiseless limits, and the baseline-rate oracle."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gen_configs
from spineid import io, synthetic
from spineid.domain import DETECTION_COLUMNS, DetectionSet, McSampleSet, SpineCase, SpineVertebra, VertebraCenter
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


@pytest.mark.parametrize("masses", [(1e308, 9e307, 0.02, 0.002), (1e308, 0.0, 0.0, 3.8e306)],
                         ids=["middle-label", "edge-label-only"])
def test_masses_whose_sum_overflows_are_rejected(masses):
    # once accepted: base_vector's sum overflowed, and gen ended in `samples must be finite` after two warnings;
    # with floor 3.8e306 only an edge label's vector, which holds two more floor entries, overflows
    names = ("true_mass", "adjacent1", "adjacent2", "floor")
    with pytest.raises(ValidationError) as err:
        ConfusionModel(*masses)
    assert str(err.value) == ("the masses of a base vector sum past float64: "
                              + ", ".join(f"{name} {m!r}" for name, m in zip(names, masses)))


def test_masses_just_below_the_float_limit_are_accepted():
    model = ConfusionModel(1e308, 0.0, 0.0, 3.5e306)
    assert all(np.isfinite(model.base_vector(truth)).all() for truth in range(24))


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


def _at_cap(boxes: int = 250_000, n_samples: int = 20) -> GenConfig:
    """One vertebra of 2 x ``boxes`` true boxes and as many noise boxes: 1,000,000 boxes at the default."""
    return GenConfig(vertebrae_range=(1, 1), mc=McConfig(n_samples=n_samples),
                     detect=DetectConfig(boxes_per_vertebra=boxes, count_jitter=0.0, noise_rate=0.5))


def test_configs_at_the_caps_are_accepted_and_one_past_refused():
    # built only, never generated from: one case at the box cap takes seconds and about 200 MB
    assert synthetic.MAX_CASE_SIZE == 1_000_000
    _at_cap()
    _at_cap(n_samples=1_000_000)
    with pytest.raises(ValidationError, match="allow more than 1000000 boxes per case"):
        _at_cap(boxes=250_001)
    with pytest.raises(ValidationError, match="n_samples 1000001 allow more than 1000000 MC sample rows per case"):
        _at_cap(n_samples=1_000_001)


@pytest.mark.parametrize("detect, mc", [
    (DetectConfig(boxes_per_vertebra=10**30), McConfig()),
    (DetectConfig(boxes_per_vertebra=1, noise_rate=0.9999999), McConfig()),
    (DetectConfig(boxes_per_vertebra=1, noise_rate=math.nextafter(1.0, 0.0)), McConfig()),
    (DetectConfig(), McConfig(n_samples=10**30)),
], ids=["boxes", "noise", "largest-noise-rate", "samples"])
def test_over_cap_config_is_refused_before_any_allocation(detect, mc):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="per case"):
            GenConfig(vertebrae_range=(1, 24), mc=mc, detect=detect)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# The generator as it drew one box at a time, kept verbatim as the oracle of
# the array version: six scalar draws per true box, seven per noise box, and
# Python round/min/max on each value.
def _oracle_true_boxes(rng, cfg: DetectConfig, plane, normal_coord, in_cx, in_cy, bw, bh, extent):
    count = cfg.boxes_per_vertebra
    if cfg.count_jitter > 0:
        count = max(1, int(round(count * (1.0 + rng.uniform(-cfg.count_jitter, cfg.count_jitter)))))
    return [
        (
            plane,
            int(min(max(round(normal_coord + rng.normal(0.0, cfg.pos_sigma)), 0), extent - 1)),
            float(in_cx + rng.normal(0.0, cfg.pos_sigma)),
            float(in_cy + rng.normal(0.0, cfg.pos_sigma)),
            float(max(1.0, bw + rng.normal(0.0, cfg.dim_sigma))),
            float(max(1.0, bh + rng.normal(0.0, cfg.dim_sigma))),
            float(rng.uniform(0.6, 0.99)),
        )
        for _ in range(count)
    ]


def _oracle_generate_case(cfg: GenConfig, case_index: int) -> tuple[SpineCase, DetectionSet]:
    _SAGITTAL, _CORONAL = synthetic._SAGITTAL, synthetic._CORONAL
    rng = synthetic._case_rng(cfg.seed, case_index)
    lo, hi = cfg.vertebrae_range
    k = int(rng.integers(lo, hi + 1))
    start = int(rng.integers(0, N_CLASSES - k + 1))

    depth = int(math.ceil(synthetic._SPACING * (k - 1) + 2 * synthetic._MARGIN))
    width = height = cfg.k_slices
    amp = rng.uniform(5.0, 15.0, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
    ts = np.arange(k) / max(k - 1, 1)
    xs = width / 2.0 + amp[0] * np.sin(math.pi * ts + phase[0])
    ys = height / 2.0 + amp[1] * np.sin(math.pi * ts + phase[1])
    zs = depth - synthetic._MARGIN - synthetic._SPACING * np.arange(k)
    box_w = rng.uniform(26.0, 34.0, size=k)
    box_h = rng.uniform(17.0, 23.0, size=k)

    rows: list[tuple] = []
    per_vertebra_counts: list[int] = []
    for i in range(k):
        sag = _oracle_true_boxes(rng, cfg.detect, _SAGITTAL, xs[i], ys[i], zs[i], box_w[i], box_h[i], width)
        cor = _oracle_true_boxes(rng, cfg.detect, _CORONAL, ys[i], xs[i], zs[i], box_w[i], box_h[i], height)
        per_vertebra_counts.append(len(sag) + len(cor))
        rows.extend(sag + cor)

    n_true = len(rows)
    rate = cfg.detect.noise_rate
    n_noise = int(round(rate / (1.0 - rate) * n_true)) if rate > 0 else 0
    for _ in range(n_noise):
        plane = _SAGITTAL if rng.uniform() < 0.5 else _CORONAL
        extent = width if plane == _SAGITTAL else height
        in_extent = height if plane == _SAGITTAL else width
        rows.append(
            (
                plane,
                int(rng.integers(0, extent)),
                float(rng.uniform(0.0, in_extent)),
                float(rng.uniform(0.0, depth)),
                float(rng.uniform(10.0, 45.0)),
                float(rng.uniform(10.0, 45.0)),
                float(rng.uniform(0.1, 0.9)),
            )
        )

    samples = [synthetic.sample_mc(rng, cfg.confusion.base_vector(start + i), cfg.mc.concentration,
                                   cfg.mc.n_samples)
               for i in range(k)]
    sample_sets = McSampleSet._split(np.concatenate(samples), [len(rows) for rows in samples])
    vertebrae = [
        SpineVertebra(
            center=VertebraCenter(
                position=(float(xs[i]), float(ys[i]), float(zs[i])),
                mean_dims=(float(box_w[i]), float(box_h[i])),
                member_count=per_vertebra_counts[i],
                z_rank=i,
            ),
            mc=sample_sets[i],
            truth=start + i,
        )
        for i in range(k)
    ]

    case_id = f"case_{case_index:04d}"
    case = SpineCase(case_id=case_id, vertebrae=tuple(vertebrae))
    dets = DetectionSet(case_id, (depth, height, width), cfg.k_slices, *zip(*rows))
    return case, dets


@settings(max_examples=60, deadline=None)
@given(cfg=gen_configs(), case_index=st.integers(0, 9999))
@example(cfg=GenConfig(seed=1), case_index=0)
@example(cfg=GenConfig(seed=2, k_slices=1, vertebrae_range=(24, 24),
                       detect=DetectConfig(1, 0.0, 0.0, 0.0, 0.9)), case_index=7)
def test_generate_case_is_the_per_box_oracle_bit_for_bit(cfg, case_index):
    case, dets = generate_case(cfg, case_index)
    oracle_case, oracle_dets = _oracle_generate_case(cfg, case_index)
    for name in DETECTION_COLUMNS:
        got, want = getattr(dets, name), getattr(oracle_dets, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (dets.case_id, dets.volume_shape, dets.slice_count_per_plane) == (
        oracle_dets.case_id, oracle_dets.volume_shape, oracle_dets.slice_count_per_plane)
    assert case == oracle_case
    assert json.dumps(io.case_to_dict(case)) == json.dumps(io.case_to_dict(oracle_case))


class _CountingRng:
    """A Generator that counts its calls by method name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


def test_two_generator_calls_per_true_box_and_three_per_noise_box(monkeypatch):
    rng = _CountingRng(synthetic._case_rng(4, 0))
    monkeypatch.setattr(synthetic, "_case_rng", lambda seed, case_index: rng)
    cfg = GenConfig(seed=4, vertebrae_range=(5, 5), detect=DetectConfig(noise_rate=0.2))
    case, dets = generate_case(cfg, 0)
    n_true = sum(v.center.member_count for v in case.vertebrae)
    n_noise = len(dets) - n_true
    assert n_noise > 0
    # besides the per-box calls: 2 integers for the vertebra count and run, 4 uniforms for the curve and
    # box sizes, one count-jitter uniform per plane run, and one dirichlet per vertebra
    assert rng.calls == {"integers": 2 + n_noise, "uniform": 4 + 2 * len(case), "dirichlet": len(case),
                             "standard_normal": n_true, "random": n_true + 2 * n_noise}
