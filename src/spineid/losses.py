"""Batch-contrastive loss and the weighted loss combiner.

``supcon_loss`` pulls same-label embeddings together and pushes different
labels apart; its printed form places the mean over positives inside the
log, and ``supcon_grad`` differentiates exactly that form. ``total_loss``
is the weighted scalar combiner. The sequence-consistency penalty,
``sequence_loss``, needs no arrays and lives in ``labels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, _number
from .labels import CANONICAL_NAMES, N_CLASSES, _check_label

NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """L2-normalized embedding rows with labels and a softmax temperature.

    ``labels`` is stored as a read-only int64 ``(n,)`` array of label
    indices. Every label must occur at least twice, so each anchor has a
    non-empty positive set.
    """

    vectors: np.ndarray
    labels: np.ndarray
    tau: float

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=np.float64, copy=True)
        if vecs.ndim != 2 or vecs.shape[0] < 2:
            raise ValidationError(f"vectors must be a (batch >= 2) x dim matrix, got shape {vecs.shape}")
        # checked before the norm, which would overflow on huge components
        outside = ~(np.abs(vecs) <= 1.0 + NORM_TOL)
        if np.any(outside):
            row = int(np.argmax(outside.any(axis=1)))
            raise ValidationError(f"embedding row {row} has a component outside [-1, 1], so its L2 norm is not 1")
        norms = np.linalg.norm(vecs, axis=1)
        off = np.abs(norms - 1.0)
        if np.any(off > NORM_TOL):
            row = int(np.argmax(off))
            raise ValidationError(f"embedding row {row} has L2 norm {norms[row]!r}, expected 1 within {NORM_TOL}")
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        labels = np.array([_check_label(v, "field 'labels'") for v in self.labels], dtype=np.int64)
        if len(labels) != vecs.shape[0]:
            raise ValidationError(f"{len(labels)} labels for {vecs.shape[0]} vectors")
        lonely = np.bincount(labels, minlength=N_CLASSES)[labels] < 2
        if lonely.any():
            row = int(np.argmax(lonely))
            raise ValidationError(
                f"label {CANONICAL_NAMES[labels[row]]} at row {row} has no positive partner in the batch"
            )
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        tau = _number(self.tau, "field 'tau'")
        if not 0 < tau < math.inf:
            raise ValidationError(f"tau must be a positive temperature, got {tau!r}")
        object.__setattr__(self, "tau", tau)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _shifted_exp(batch: EmbeddingBatch) -> tuple[np.ndarray, np.ndarray]:
    """exp of the temperature-scaled dot products shifted by each row's largest
    off-diagonal logit, plus the positive-pair mask. The diagonal is set to
    -inf before exponentiating (exp gives 0), since at a small tau the
    self-similarity can exceed the row maximum by more than exp can hold."""
    z = batch.vectors
    s = (z @ z.T) / batch.tau
    labels = batch.labels
    valid = ~np.eye(batch.size, dtype=bool)
    positive = (labels[:, None] == labels[None, :]) & valid
    s = np.where(valid, s, -np.inf)
    return np.exp(s - s.max(axis=1, keepdims=True)), positive


def _raise_if_diverged(values: np.ndarray, what: str, tau: float) -> None:
    if not np.all(np.isfinite(values)):
        raise DivergenceError(
            f"supervised contrastive {what} is not finite at tau {tau!r}: "
            "the shifted logits under- or overflow float64, so use a larger tau"
        )


def supcon_loss(batch: EmbeddingBatch) -> float:
    """Supervised contrastive loss, summed over anchors.

    For each anchor v the contribution is
    -log( mean over positives g of exp(s_vg) / sum over a != v of exp(s_va) )
    with s the temperature-scaled dot products. Exponents are shifted by the
    per-anchor row maximum before exponentiation. Raises DivergenceError when
    the result is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e, positive = _shifted_exp(batch)
        denom = e.sum(axis=1)
        pos_sum = (e * positive).sum(axis=1)
        pos_count = positive.sum(axis=1)
        per_anchor = -(np.log(pos_sum / pos_count) - np.log(denom))
        loss = float(per_anchor.sum())
    _raise_if_diverged(loss, "loss", batch.tau)
    return loss


def supcon_grad(batch: EmbeddingBatch) -> np.ndarray:
    """Gradient of supcon_loss with respect to every embedding row.

    Rows are treated as free variables; no normalization constraint is
    back-propagated. Closed form: with q the per-anchor softmax over the
    non-self logits and p the positive-restricted normalization, the
    gradient is ((W + W^T) @ Z) / tau where W = q - p on valid entries.
    Raises DivergenceError when the result is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e, positive = _shifted_exp(batch)
        q = e / e.sum(axis=1, keepdims=True)
        pos_sum = (e * positive).sum(axis=1, keepdims=True)
        p = np.where(positive, e / pos_sum, 0.0)
        w = q - p
        grad = (w + w.T) @ batch.vectors / batch.tau
    _raise_if_diverged(grad, "gradient", batch.tau)
    return grad


def total_loss(
    l_se: float,
    l_mse: float,
    l_ce: float,
    alpha: float = 0.1,
    beta: float = 0.5,
    gamma: float = 1.0,
) -> float:
    """Weighted sum alpha*l_se + beta*l_mse + gamma*l_ce."""
    values = {name: _number(v, name) for name, v in (("l_se", l_se), ("l_mse", l_mse), ("l_ce", l_ce),
                                                      ("alpha", alpha), ("beta", beta), ("gamma", gamma))}
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
    for name in ("alpha", "beta", "gamma"):
        if values[name] < 0:
            raise ValidationError(f"{name} must be non-negative, got {values[name]!r}")
    l_se, l_mse, l_ce, alpha, beta, gamma = values.values()
    return alpha * l_se + beta * l_mse + gamma * l_ce
