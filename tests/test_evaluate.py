"""Metrics, constrained decoding, and report consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_case, one_hot, random_case, random_probs
from spineid.domain import McSampleSet
from spineid.errors import ValidationError
from spineid.evaluate import EvalReport, constrained_decode, decode_states, evaluate
from spineid.labels import N_CLASSES
from spineid.uncertainty import aggregate_samples


def oracle_best_window(states) -> list[int]:
    """Exhaustive window search maximizing the product of picked probabilities."""
    k = len(states)
    best_start, best_score = 0, -1.0
    for start in range(N_CLASSES - k + 1):
        score = np.longdouble(1.0)
        for i, s in enumerate(states):
            score *= np.longdouble(s[start + i])
        if score > best_score:
            best_start, best_score = start, score
    return list(range(best_start, best_start + k))


def loop_constrained_decode(states) -> list[int]:
    """constrained_decode as it was: one log sum per start window, scored in a Python loop."""
    mat = np.asarray(states, dtype=np.float64)
    k = len(mat)
    scores = [float(np.log(mat[np.arange(k), start + np.arange(k)] + 1e-12).sum())
              for start in range(N_CLASSES - k + 1)]
    best = int(np.argmax(scores))
    return list(range(best, best + k))


def oracle_evaluate(cases, predictions, decode="argmax") -> EvalReport:
    """The per-vertebra booking loop ``evaluate`` ran on lists of confidence rows or label indices."""
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    per_case = []
    correct = 0
    sq_err = 0.0
    total = 0
    for case, preds in zip(cases, predictions):
        truths = case.truths
        preds = list(preds)
        if preds and np.ndim(preds[0]) == 1:
            labels = decode_states(preds, decode)
        else:
            labels = [int(v) for v in preds]
        case_correct = 0
        for pred, truth in zip(labels, truths):
            confusion[truth, pred] += 1
            case_correct += pred == truth
            sq_err += (pred - truth) ** 2
        correct += case_correct
        total += len(case)
        per_case.append(case_correct / len(case))
    return EvalReport(
        id_rate=correct / total,
        mse=sq_err / total,
        per_class_confusion=confusion,
        n_vertebrae=total,
        per_case_id_rate=tuple(per_case),
    )


def _metrics(pred: list[int], truth: list[int]):
    """``evaluate`` on one case whose truths are ``truth``, predicted as ``pred``."""
    return evaluate([make_case([one_hot(t) for t in truth], truths=truth)], [pred])


class TestIdRate:
    def test_perfect(self):
        assert _metrics([7, 8, 9], [7, 8, 9]).id_rate == 1.0

    def test_one_wrong_of_four(self):
        assert _metrics([1, 2, 3, 5], [1, 2, 3, 4]).id_rate == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            _metrics([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], [])


class TestLabelMse:
    def test_identical(self):
        assert _metrics([4, 5, 6], [4, 5, 6]).mse == 0.0

    def test_all_off_by_one(self):
        assert _metrics([5, 6, 7], [4, 5, 6]).mse == 1.0

    def test_third(self):
        assert _metrics([7, 9, 9], [7, 8, 9]).mse == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            _metrics([1, 2], [1])


class TestConstrainedDecode:
    def test_one_hot_consecutive_recovered(self):
        states = np.array([one_hot(i) for i in range(9, 13)])
        assert constrained_decode(states) == [9, 10, 11, 12]

    def test_full_spine_forced_to_identity_window(self):
        rng = np.random.default_rng(1)
        states = random_probs(rng, 24)
        assert constrained_decode(states) == list(range(24))

    def test_too_many_vertebrae_rejected(self):
        rng = np.random.default_rng(2)
        states = random_probs(rng, 25)
        with pytest.raises(ValidationError):
            constrained_decode(states)

    def test_matches_exhaustive_window_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            states = random_probs(rng, k)
            assert constrained_decode(states) == oracle_best_window(states)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, N_CLASSES))
    def test_matches_the_per_window_loop(self, data, k):
        # entries from a few values, zeros among them, so that windows often tie and the smallest start must win
        entry = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
        states = data.draw(arrays(np.float64, (k, N_CLASSES), elements=entry))
        if data.draw(st.booleans(), label="tied rows"):
            states[:] = states[0]
        assert constrained_decode(states) == loop_constrained_decode(states)

    def test_output_always_consecutive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 15))
            states = random_probs(rng, k)
            out = constrained_decode(states)
            assert out == list(range(out[0], out[0] + k))

    def test_decode_states_modes(self):
        states = np.array([one_hot(3), one_hot(7)])
        assert decode_states(states, "argmax") == [3, 7]
        assert decode_states(states, "constrained") != [3, 7]
        with pytest.raises(ValidationError):
            decode_states(states, "viterbi")

    @pytest.mark.parametrize("mode", ["argmax", "constrained"])
    def test_matrix_rows_and_states_decode_alike(self, mode):
        rng = np.random.default_rng(8)
        mat = random_probs(rng, 6)
        want = decode_states(mat, mode)
        assert decode_states(list(mat), mode) == want
        assert decode_states([aggregate_samples(McSampleSet(r[None, :])) for r in mat], mode) == want

    @pytest.mark.parametrize("bad", [np.full((2, 23), 1 / 23), np.full(24, 1 / 24), -np.eye(24)[:2],
                                     np.full((2, 24), np.nan)], ids=["23-classes", "one-row", "negative", "nan"])
    def test_non_probability_matrix_rejected(self, bad):
        with pytest.raises(ValidationError, match="confidences"):
            decode_states(bad, "constrained")


class TestEvaluate:
    def test_perfect_predictions(self):
        cases = [make_case([one_hot(5), one_hot(6)], truths=[5, 6], case_id="a")]
        rep = evaluate(cases, [[5, 6]])
        assert rep.id_rate == 1.0
        assert rep.mse == 0.0
        assert rep.per_class_confusion[5, 5] == 1
        assert rep.per_class_confusion.sum() == 2
        assert np.trace(rep.per_class_confusion) == 2

    def test_accepts_confidence_states(self):
        cases = [make_case([one_hot(5), one_hot(6)], truths=[5, 6])]
        rep = evaluate(cases, [[aggregate_samples(McSampleSet(one_hot(t)[None, :])) for t in (5, 7)]])
        assert rep.id_rate == 0.5
        assert rep.per_class_confusion[6, 7] == 1

    def test_confusion_row_sums_are_truth_counts(self):
        rng = np.random.default_rng(5)
        cases, preds = [], []
        for i in range(10):
            k = int(rng.integers(2, 6))
            start = int(rng.integers(0, 24 - k + 1))
            cases.append(make_case([one_hot(t) for t in range(start, start + k)],
                                   truths=list(range(start, start + k)), case_id=f"c{i}"))
            preds.append([int(rng.integers(0, 24)) for _ in range(k)])
        rep = evaluate(cases, preds)
        truth_counts = np.zeros(24, dtype=int)
        for case in cases:
            for t in case.truths:
                truth_counts[t] += 1
        assert np.array_equal(rep.per_class_confusion.sum(axis=1), truth_counts)
        assert rep.id_rate == pytest.approx(np.trace(rep.per_class_confusion) / rep.n_vertebrae)

    def test_absent_regions_have_zero_rows(self):
        # thoracic-only corpus: cervical and lumbar rows stay empty
        cases = [make_case([one_hot(t) for t in range(8, 12)], truths=list(range(8, 12)))]
        rep = evaluate(cases, [[8, 9, 10, 11]])
        assert rep.per_class_confusion[:7].sum() == 0
        assert rep.per_class_confusion[19:].sum() == 0

    def test_accepts_matrices_and_rows(self):
        cases = [make_case([one_hot(5), one_hot(6)], truths=[5, 6])]
        mat = np.array([one_hot(5), one_hot(7)])
        for preds in (mat, list(mat)):
            rep = evaluate(cases, [preds])
            assert rep.id_rate == 0.5
            assert rep.per_class_confusion[6, 7] == 1

    @pytest.mark.parametrize("label", [-1, 24, 99, -24], ids=["minus-1", "24", "99", "minus-24"])
    def test_out_of_range_labels_rejected(self, label):
        cases = [make_case([one_hot(t) for t in (17, 18, 19)], truths=[17, 18, 19], case_id="spine")]
        with pytest.raises(ValidationError, match=r"case 'spine'.* position 1 .*outside \[0, 24\)"):
            evaluate(cases, [[17, label, 19]])

    @pytest.mark.parametrize("preds", [[5.9, 6.2], [True, 6], ["5", "6"]], ids=["floats", "bool", "strings"])
    def test_non_integer_labels_rejected(self, preds):
        # the floats once scored id_rate 1.0, truncated to [5, 6]
        cases = [make_case([one_hot(5), one_hot(6)], truths=[5, 6], case_id="spine")]
        with pytest.raises(ValidationError, match="case 'spine': predicted label at position 0 has an invalid value"):
            evaluate(cases, [preds])

    def test_constrained_per_case_all_or_nothing(self):
        rng = np.random.default_rng(6)
        cases, preds = [], []
        for i in range(20):
            k = int(rng.integers(2, 7))
            start = int(rng.integers(0, 24 - k + 1))
            rows = []
            for t in range(start, start + k):
                base = np.full(24, 0.01)
                base[t] = 0.5
                rows.append(base / base.sum())
            cases.append(make_case(rows, truths=list(range(start, start + k)), case_id=f"c{i}"))
            preds.append(rows)
        rep = evaluate(cases, preds, decode="constrained")
        assert set(rep.per_case_id_rate) <= {0.0, 1.0}

    def test_missing_truth_rejected(self):
        rng = np.random.default_rng(7)
        case = make_case([random_probs(rng)[0]])
        with pytest.raises(ValidationError, match="ground truth"):
            evaluate([case], [[3]])

    def test_alignment_mismatch_rejected(self):
        cases = [make_case([one_hot(5)], truths=[5])]
        with pytest.raises(ValidationError, match="predictions"):
            evaluate(cases, [[5, 6]])
        with pytest.raises(ValidationError, match="prediction lists"):
            evaluate(cases, [])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cases=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(["matrix", "states", "labels"]), min_size=5, max_size=5),
    decode=st.sampled_from(["argmax", "constrained"]),
    sharp=st.sampled_from([1.0, 4.0, 12.0]),
)
def test_matches_per_vertebra_oracle(seed, n_cases, kinds, decode, sharp):
    """Random cases, confidence matrices and label lists: every EvalReport field equals the oracle's."""
    rng = np.random.default_rng(seed)
    cases = [random_case(rng, k=int(rng.integers(1, 13))) for _ in range(n_cases)]
    given_preds, oracle_preds = [], []
    for case, kind in zip(cases, kinds):
        if kind == "labels":
            labels = rng.integers(0, N_CLASSES, size=len(case))
            given_preds.append(labels if rng.integers(2) else labels.tolist())
            oracle_preds.append(labels.tolist())
        else:
            mat = random_probs(rng, len(case), sharp)
            given_preds.append(mat if kind == "matrix" else list(mat))
            oracle_preds.append(list(mat))
    got = evaluate(cases, given_preds, decode)
    want = oracle_evaluate(cases, oracle_preds, decode)
    assert got.id_rate == want.id_rate
    assert got.mse == want.mse
    assert got.n_vertebrae == want.n_vertebrae
    assert got.per_case_id_rate == want.per_case_id_rate
    assert np.array_equal(got.per_class_confusion, want.per_class_confusion)
