"""Monte Carlo sample aggregation and per-vertebra uncertainty scoring.

The mean of the stochastic forward-pass samples is the predictive
distribution; its Shannon entropy (natural log, with 0*log(0) = 0) is the
uncertainty score. The certainty weight 1 - H/ln(24) feeds message fusion,
so confident neighbors dominate and uncertain ones are damped. Per-class
sample variance is reported alongside as an alternative dispersion measure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .domain import MAX_ENTROPY, SUM_TOL_INTERNAL, McSampleSet, SpineCase, UncertaintyReport, _probabilities
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
    """Element-wise mean of the sample rows, renormalized to sum to 1, as a read-only (24,) array."""
    mean = mc.samples.mean(axis=0)
    mean /= mean.sum()
    mean.flags.writeable = False
    return mean


def _entropy(probs: np.ndarray) -> float:
    nz = probs > 0.0
    return float(-(probs[nz] * np.log(probs[nz])).sum()) + 0.0  # avoid -0.0


def entropy(p) -> float:
    """Shannon entropy of a (24,) probability vector in nats; zero terms contribute 0."""
    return _entropy(_probabilities(p, 1, SUM_TOL_INTERNAL, "probabilities"))


def report(mc: McSampleSet) -> UncertaintyReport:
    """Full uncertainty summary for one vertebra's sample set.

    Entropy is computed on the mean distribution, not averaged over
    per-sample entropies. Variance is the mean over classes of the unbiased
    per-class sample variance, 0 when only one sample exists.
    """
    mean_probs = aggregate_samples(mc)
    ent = _entropy(mean_probs)
    if mc.n > 1:
        var = float(mc.samples.var(axis=0, ddof=1).mean())
    else:
        var = 0.0
    return UncertaintyReport(
        mean_probs=mean_probs,
        entropy=ent,
        variance=var,
        certainty_weight=1.0 - ent / MAX_ENTROPY,
    )


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
    """``case`` with each vertebra's uncertainty report and its fusion weight under ``metric`` stored.

    The only code that turns MC samples into stored fusion weights; ``fuse``
    and ``train_phi`` read them back.
    """
    verts = []
    for v in case.vertebrae:
        rep = report(v.mc)
        verts.append(replace(v, uncertainty=rep, fusion_weight=fusion_weight(rep, metric)))
    return replace(case, vertebrae=tuple(verts))
