"""Identification metrics, decoding, and corpus-level evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import SpineCase
from .errors import ValidationError
from .labels import N_CLASSES, _check_label

DECODE_MODES = ("argmax", "constrained")


def _as_matrix(states) -> np.ndarray:
    """One case's confidences, given as a matrix or a list of rows, as a (k, 24) matrix."""
    mat = np.asarray(states, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != N_CLASSES:
        raise ValidationError(f"confidences must form a k x {N_CLASSES} matrix, got shape {mat.shape}")
    if not np.all((mat >= 0.0) & (mat <= 1.0)):
        raise ValidationError("confidences must lie in [0, 1]")
    return mat


def constrained_decode(states) -> list[int]:
    """Best strictly consecutive label window for a case's (k, 24) confidences.

    Chooses the start s maximizing sum_i log(C_i[s + i] + 1e-12) over all
    feasible windows and returns [s, s+1, ...]; ties go to the smallest s.
    """
    mat = _as_matrix(states)
    k = len(mat)
    if k == 0:
        raise ValidationError("cannot decode an empty state list")
    if k > N_CLASSES:
        raise ValidationError(f"{k} vertebrae cannot carry {N_CLASSES} distinct consecutive labels")
    windows = np.arange(N_CLASSES - k + 1)[:, None] + np.arange(k)  # row s: the labels s, s+1, ..., s+k-1
    scores = np.log(mat[np.arange(k), windows] + 1e-12).sum(axis=1)
    best = int(np.argmax(scores))  # argmax takes the first, i.e. smallest, start
    return list(range(best, best + k))


def decode_states(states, mode: str = "argmax") -> list[int]:
    """Turn a case's (k, 24) confidences into label indices."""
    if mode == "argmax":
        return _as_matrix(states).argmax(axis=1).tolist()
    if mode == "constrained":
        return constrained_decode(states)
    raise ValidationError(f"decode mode must be one of {DECODE_MODES}, got {mode!r}")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Aggregated identification metrics over a corpus.

    The confusion matrix is indexed [truth, predicted]; its trace over
    n_vertebrae reproduces id_rate exactly. per_case_id_rate feeds the
    per-case histogram (all-or-nothing under constrained decoding).
    """

    id_rate: float
    mse: float
    per_class_confusion: np.ndarray
    n_vertebrae: int
    per_case_id_rate: tuple[float, ...]

    def __post_init__(self):
        conf = np.array(self.per_class_confusion, dtype=np.int64, copy=True)
        if conf.shape != (N_CLASSES, N_CLASSES):
            raise ValidationError(f"confusion matrix must be {N_CLASSES} x {N_CLASSES}, got {conf.shape}")
        if int(conf.sum()) != self.n_vertebrae:
            raise ValidationError("confusion matrix total must equal n_vertebrae")
        if abs(self.id_rate - np.trace(conf) / self.n_vertebrae) > 1e-12:
            raise ValidationError("id_rate must equal trace(confusion) / n_vertebrae")
        conf.flags.writeable = False
        object.__setattr__(self, "per_class_confusion", conf)
        object.__setattr__(self, "per_case_id_rate", tuple(float(v) for v in self.per_case_id_rate))


def evaluate(
    cases: Sequence[SpineCase],
    predictions: Sequence,
    decode: str = "argmax",
) -> EvalReport:
    """Score per-case predictions against the cases' ground truth.

    ``predictions`` holds, per case, either confidences (a (k, 24) matrix or
    a list of rows, decoded with the chosen mode) or k label indices in
    [0, 24). Every case must carry full ground truth.
    """
    if len(cases) != len(predictions):
        raise ValidationError(f"{len(predictions)} prediction lists for {len(cases)} cases")
    if len(cases) == 0:
        raise ValidationError("cannot evaluate an empty corpus")
    truths, preds, per_case = [], [], []
    for case, case_preds in zip(cases, predictions):
        if case.truths is None:
            raise ValidationError(f"case {case.case_id!r} lacks full ground truth")
        if len(case_preds) != len(case):
            raise ValidationError(f"case {case.case_id!r}: {len(case_preds)} predictions for {len(case)} vertebrae")
        if np.ndim(case_preds[0]) == 1:
            labels = decode_states(case_preds, decode)
        else:
            labels = [_check_label(v, f"case {case.case_id!r}: predicted label at position {i}")
                      for i, v in enumerate(case_preds)]
        labels = np.array(labels, dtype=np.int64)
        truth = np.array(case.truths, dtype=np.int64)
        truths.append(truth)
        preds.append(labels)
        per_case.append(int((labels == truth).sum()) / len(case))
    truth, pred = np.concatenate(truths), np.concatenate(preds)
    total = len(truth)
    return EvalReport(
        id_rate=int((pred == truth).sum()) / total,
        mse=int(((pred - truth) ** 2).sum()) / total,
        per_class_confusion=np.bincount(truth * N_CLASSES + pred, minlength=N_CLASSES**2).reshape(N_CLASSES, -1),
        n_vertebrae=total,
        per_case_id_rate=tuple(per_case),
    )
