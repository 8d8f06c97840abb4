"""Uncertainty-weighted message fusion over the vertebra chain.

Each hop updates every vertebra's confidence vector by mixing in messages
from its window neighbors:

    raw_i = C_i + theta * sum_j (1 / dis(i, j)) * u_j * (C_j @ phi[j - i])
    C_i'  = raw_i / sum(raw_i)

where u_j is the neighbor's certainty weight, dis is the index gap or the
physical center distance, and phi holds one non-negative 24 x 24 matrix per
signed neighbor offset, shared across positions. Every factor is
non-negative, so confidences stay non-negative and the per-vertebra
normalization keeps them summing to 1 after every hop.

``train_phi`` fits the phi matrices by full-batch gradient descent on the
mean cross-entropy between final-hop confidences and one-hot truths,
back-propagating through the unrolled hops by hand; entries are projected
onto [0, inf) after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import FusionParams, SpineCase, phi_offsets
from .errors import DegenerateGeometryError, DivergenceError, ValidationError, _integer_type, _number
from .labels import N_CLASSES


@dataclass(frozen=True, eq=False)
class FusionTrace:
    """Per-hop confidences plus the argmax labels of the last hop.

    ``snapshots`` is a read-only float64 array of shape (hops + 1, k, 24):
    ``snapshots[0]`` holds the inputs, each vertebra's MC sample mean, and
    ``snapshots[t]`` the states after hop t.
    """

    snapshots: np.ndarray
    final_labels: tuple[int, ...]


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for fitting the phi matrices."""

    learning_rate: float
    epochs: int
    seed: int = 0
    init: str = "identity"

    def __post_init__(self):
        if not _integer_type(type(self.seed)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0 <= _number(self.learning_rate, "learning_rate") < math.inf:
            raise ValidationError(f"learning_rate must be finite and non-negative, got {self.learning_rate!r}")
        if not _integer_type(type(self.epochs)) or not 1 <= self.epochs <= 100_000:
            raise ValidationError(f"epochs must be an integer in [1, 100000], got {self.epochs!r}")
        if self.init not in ("identity", "uniform_small"):
            raise ValidationError(f"init must be 'identity' or 'uniform_small', got {self.init!r}")


def initial_phi(window: int, init: str = "identity", seed: int = 0) -> dict[int, np.ndarray]:
    """Starting phi matrices: identity, or small positive uniform entries."""
    offsets = phi_offsets(window)
    if init == "identity":
        return {d: np.eye(N_CLASSES) for d in offsets}
    if init == "uniform_small":
        rng = np.random.default_rng(seed)
        return {d: rng.uniform(0.0, 0.05, size=(N_CLASSES, N_CLASSES)) for d in offsets}
    raise ValidationError(f"unknown init {init!r}")


def identity_params(
    theta: float = 0.1,
    hops: int = 3,
    window: int = 5,
    distance_mode: str = "index",
) -> FusionParams:
    """Convenience constructor with identity phi matrices."""
    return FusionParams(theta, hops, window, distance_mode, initial_phi(window))


def resolve_certainty(case: SpineCase) -> np.ndarray:
    """Per-vertebra fusion weights u.

    The weights stored on the case (by ``uncertainty.with_reports``) when
    every vertebra has one, else each sample set's entropy certainty weight.
    """
    stored = [v.fusion_weight for v in case.vertebrae]
    if all(w is not None for w in stored):
        return np.array(stored, dtype=np.float64)
    return np.array([v.mc.certainty_weight for v in case.vertebrae])


def _fuse_pairs(cases: list[SpineCase], params: FusionParams):
    """Per offset d, the message weights over the stacked rows of ``cases``: ``(lo, hi, w, dst)``.

    Rows are numbered case after case. Row i in ``lo:hi`` hears from row
    i + d with weight ``w[i - lo]``, which folds theta, that row's certainty
    u and 1/dis, and is 0 where row i + d lies in another case; so one pass
    over the stack fuses every case on its own. ``w`` is a (hi - lo, 1)
    column, and ``dst`` lists the rows whose partner is in their own case.
    Offsets with no such row are left out.
    """
    case_of = np.repeat(np.arange(len(cases)), [len(case) for case in cases])
    u = np.concatenate([resolve_certainty(case) for case in cases])
    if params.distance_mode == "physical":
        positions = np.array([v.center.position for case in cases for v in case.vertebrae], dtype=np.float64)
    pairs = {}
    for delta in phi_offsets(params.window):
        lo = max(0, -delta)
        hi = max(lo, len(u) - max(0, delta))
        here, there = slice(lo, hi), slice(lo + delta, hi + delta)
        same = case_of[here] == case_of[there]  # row i's partner i + d lies in its own case
        if not same.any():
            continue
        if params.distance_mode == "index":
            dis = float(abs(delta))
        else:
            with np.errstate(over="ignore"):  # an overflowing distance is rejected below
                dis = np.linalg.norm(positions[here] - positions[there], axis=1)
            over, zero = np.isinf(dis) & same, (dis == 0.0) & same
            if over.any() or zero.any():
                row = lo + int(np.argmax(over if over.any() else zero))
                i = row - int(np.argmax(case_of == case_of[row]))  # vertebra i of its own case
                pair, case = f"vertebrae {i} and {i + delta}", f"case {cases[case_of[row]].case_id!r}"
                if over.any():
                    raise ValidationError(f"{pair} lie too far apart in {case}: "
                                          "their physical distance overflows float64")
                raise DegenerateGeometryError(f"{pair} share a physical position in {case}; 1/distance is undefined")
            dis[~same] = 1.0  # pairs across cases get weight 0 below, whatever their distance
        w = np.where(same, params.theta * u[there] / dis, 0.0)[:, None]
        pairs[delta] = (lo, hi, w, np.flatnonzero(same) + lo)
    return pairs


def _input_states(cases: list[SpineCase]) -> np.ndarray:
    """The stacked (m, 24) states fusion starts from: each vertebra's MC sample mean, case after case."""
    return np.array([v.mc.mean_probs for case in cases for v in case.vertebrae])


def _forward(c0: np.ndarray, pairs, phi: dict[int, np.ndarray], hops: int):
    """Run ``hops`` fusion hops from the (m, 24) states ``c0``.

    Returns the states before and after every hop, written into one
    preallocated (hops + 1, m, 24) array, and each hop's raw row sums, a
    (hops, m) array the backward pass divides by. Offset d's messages are
    the product of all m states with phi[d], shifted by d rows, so a case
    has the same bits alone as inside a stack.
    """
    cs = np.empty((hops + 1, *c0.shape))
    cs[0] = c0
    sums = np.empty((hops, len(c0)))
    for t in range(hops):
        c = cs[t]
        raw = c.copy()
        for delta, (lo, hi, w, _) in pairs.items():
            raw[lo:hi] += w * (c @ phi[delta])[lo + delta:hi + delta]
        s = sums[t] = raw.sum(axis=1)
        np.divide(raw, s[:, None], out=cs[t + 1])
    return cs, sums


def fuse(case: SpineCase, params: FusionParams) -> FusionTrace:
    """Iterate the fusion hop from each vertebra's MC sample mean.

    The trace holds hops + 1 snapshots, the first being the inputs, and the
    argmax labels of the last; ties break toward the smaller class index.
    With theta = 0, a single vertebra, or a window of 1 there are no
    messages, and every snapshot is the inputs unchanged. Otherwise the hops
    are ``train_phi``'s forward pass over a stack of one case, so a case has
    the same bits here as inside the training stack. A hop whose raw
    confidences overflow float64 raises ``ValidationError`` naming the case
    and the vertebra.
    """
    c0 = _input_states([case])
    if params.theta == 0.0 or len(case) == 1 or params.window == 1:
        # no messages; renormalizing would still move the states by ulps
        snapshots = np.repeat(c0[None], params.hops + 1, axis=0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            snapshots, sums = _forward(c0, _fuse_pairs([case], params), params.phi, params.hops)
        bad = ~np.isfinite(sums)
        if bad.any():
            hop, i = np.argwhere(bad)[0]
            raise ValidationError(f"fusion overflowed at hop {hop + 1}: the raw confidences of vertebra {i} "
                                  f"of case {case.case_id!r} do not sum to a finite number")
    snapshots.flags.writeable = False
    return FusionTrace(snapshots=snapshots, final_labels=tuple(snapshots[-1].argmax(axis=1).tolist()))


# ---------------------------------------------------------------------------
# training


class _Unrolled:
    """All training cases stacked into one matrix, with their fusion pairs."""

    def __init__(self, cases: list[SpineCase], params: FusionParams):
        for case in cases:
            if case.truths is None:
                raise ValidationError(f"case {case.case_id!r} lacks full ground truth")
        self.c0, self.pairs = _input_states(cases), _fuse_pairs(cases, params)
        # the phi gradient sums over the pairs inside a case only, (src, coeff) per offset:
        # the zero-weight rows between cases would change the product's blocking, and so its bits
        self.gathered = {delta: (dst + delta, w[dst - lo]) for delta, (lo, hi, w, dst) in self.pairs.items()}
        self.truth = np.array([t for case in cases for t in case.truths], dtype=np.int64)
        self.hops = params.hops

    def _cross_entropy(self, final: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy of the final states and the truth entries it picks."""
        picked = final[np.arange(len(self.c0)), self.truth]
        with np.errstate(divide="ignore"):
            return float(-np.log(picked).mean()), picked

    def loss(self, phi: dict[int, np.ndarray]) -> float:
        """Mean cross-entropy at the final hop, without the gradient."""
        cs, _ = _forward(self.c0, self.pairs, phi, self.hops)
        return self._cross_entropy(cs[-1])[0]

    def loss_and_grad(self, phi: dict[int, np.ndarray]):
        """Mean cross-entropy at the final hop and its gradient w.r.t. phi, None for a loss that is not finite."""
        cs, sums = _forward(self.c0, self.pairs, phi, self.hops)
        loss, picked = self._cross_entropy(cs[-1])
        if not np.isfinite(loss):
            return loss, None
        m = len(self.c0)
        grad = {delta: np.zeros((N_CLASSES, N_CLASSES)) for delta in phi}
        g = np.zeros_like(cs[-1])
        g[np.arange(m), self.truth] = -1.0 / (m * picked)
        for t in range(self.hops - 1, -1, -1):
            c_next, c_prev, s = cs[t + 1], cs[t], sums[t]
            # backward through raw -> raw/sum(raw)
            h = (g - (g * c_next).sum(axis=1, keepdims=True)) / s[:, None]
            g = h.copy()
            for delta, (lo, hi, w, dst) in self.pairs.items():
                src, coeff = self.gathered[delta]
                grad[delta] += (coeff * c_prev[src]).T @ h[dst]
                g[lo + delta:hi + delta] += w * (h @ phi[delta].T)[lo:hi]
        return loss, grad


def train_phi(train_cases: list[SpineCase], params_init: FusionParams, cfg: TrainConfig) -> FusionParams:
    """Fit phi by projected full-batch gradient descent.

    The starting point comes from ``cfg.init``; ``params_init`` supplies
    theta, hops, window and distance mode. Entries are clipped to zero after
    each step. Returns the best parameters seen, so the training loss never
    exceeds the initial loss. Deterministic for a fixed seed.
    """
    if not train_cases:
        raise ValidationError("training requires at least one case")
    unrolled = _Unrolled(list(train_cases), params_init)
    # best_phi keeps phi's own arrays: initial_phi and every step build new ones, none is written in place
    phi = initial_phi(params_init.window, cfg.init, cfg.seed)
    best_loss, best_phi = math.inf, phi
    for epoch in range(cfg.epochs):
        loss, grad = unrolled.loss_and_grad(phi)
        if not np.isfinite(loss):
            raise DivergenceError("training loss is not finite", epoch=epoch)
        if loss < best_loss:
            best_loss, best_phi = loss, phi
        phi = {d: np.maximum(phi[d] - cfg.learning_rate * grad[d], 0.0) for d in phi}
    final_loss = unrolled.loss(phi)
    if np.isfinite(final_loss) and final_loss < best_loss:
        best_phi = phi
    return replace(params_init, phi=best_phi)
