"""Monte Carlo sample aggregation and per-vertebra uncertainty scoring.

The mean of the stochastic forward-pass samples is the predictive
distribution; its Shannon entropy (natural log, with 0*log(0) = 0) is the
uncertainty score. The certainty weight 1 - H/ln(24) feeds message fusion,
so confident neighbors dominate and uncertain ones are damped. Per-class
sample variance is reported alongside as an alternative dispersion measure.
"""

from __future__ import annotations

import numpy as np

from .domain import (
    SUM_TOL_INTERNAL,
    McSampleSet,
    SpineCase,
    SpineVertebra,
    UncertaintyReport,
    _entropies,
    _probabilities,
)
from .errors import ValidationError

__all__ = [
    "UncertaintyReport",
    "aggregate_samples",
    "entropy",
    "report",
    "certainty_from_variance",
    "fusion_weight",
    "with_reports",
]

# Largest possible variance of a [0, 1]-valued variable; normalizes the
# variance-based certainty weight.
_VAR_CEILING = 0.25


def aggregate_samples(mc: McSampleSet) -> np.ndarray:
    """Element-wise mean of the sample rows, renormalized to sum to 1, as a read-only (24,) array.

    The sample set computes it with its entropy and variance (``McSampleSet.mean_probs``).
    """
    return mc.mean_probs


def entropy(p) -> float:
    """Shannon entropy of a (24,) probability vector in nats; zero terms contribute 0."""
    return _entropies(_probabilities(p, 1, SUM_TOL_INTERNAL, "probabilities")[None, :]).item()


def report(mc: McSampleSet) -> UncertaintyReport:
    """Full uncertainty summary for one vertebra's sample set: the set itself.

    Entropy is computed on the mean distribution, not averaged over
    per-sample entropies. Variance is the mean over classes of the unbiased
    per-class sample variance, 0 when only one sample exists. The sample set
    computed all four fields from its checked rows; a case loaded from a
    file had them computed in one pass over all its vertebrae
    (``McSampleSet._split``).
    """
    return mc


def certainty_from_variance(rep: UncertaintyReport) -> float:
    """Alternative fusion weight 1 - variance/0.25, clipped into [0, 1]."""
    return float(np.clip(1.0 - rep.variance / _VAR_CEILING, 0.0, 1.0))


def fusion_weight(rep: UncertaintyReport, metric: str) -> float:
    """One vertebra's fusion weight u under ``metric``: 'entropy' or 'variance'."""
    if metric == "entropy":
        return rep.certainty_weight
    if metric == "variance":
        return certainty_from_variance(rep)
    raise ValidationError(f"u_metric must be 'entropy' or 'variance', got {metric!r}")


def with_reports(case: SpineCase, metric: str = "entropy") -> SpineCase:
    """``case`` with each vertebra's sample set stored as its report, and its fusion weight under ``metric``.

    The only code that turns MC samples into stored fusion weights; ``fuse``
    and ``train_phi`` read them back. The case and its vertebrae were
    checked when built, so only the new weights are.
    """
    weights = [fusion_weight(v.mc, metric) for v in case.vertebrae]
    for w in weights:
        if not 0.0 <= w <= 1.0:  # an entropy can round past ln 24, and its weight below 0
            raise ValidationError(f"fusion_weight must lie in [0, 1], got {w}")
    verts = tuple(SpineVertebra._trusted(v.center, v.mc, v.truth, w, v.mc) for v, w in zip(case.vertebrae, weights))
    return SpineCase._trusted(case.case_id, verts)
