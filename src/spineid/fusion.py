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
    sizes = [len(case) for case in cases]
    m = sum(sizes)
    case_of = np.repeat(np.arange(len(cases)), sizes)
    u = np.concatenate([resolve_certainty(case) for case in cases])
    if params.distance_mode == "physical":
        positions = np.array([v.center.position for case in cases for v in case.vertebrae], dtype=np.float64)
    pairs = {}
    for delta in phi_offsets(params.window):
        lo, hi = max(0, -delta), m - max(0, delta)
        rows = np.arange(lo, max(lo, hi))
        dst = rows[case_of[rows] == case_of[rows + delta]]
        if len(dst) == 0:
            continue
        src = dst + delta
        if params.distance_mode == "index":
            dis = float(abs(delta))
        else:
            with np.errstate(over="ignore"):  # an overflowing distance is rejected below
                dis = np.linalg.norm(positions[dst] - positions[src], axis=1)
            over, same = np.isinf(dis), dis == 0.0
            if over.any() or same.any():
                row = int(dst[np.argmax(over if over.any() else same)])
                i = row - sum(sizes[:case_of[row]])  # vertebra i of its own case
                if over.any():
                    raise ValidationError(f"vertebrae {i} and {i + delta} lie too far apart: "
                                          "their physical distance overflows float64")
                raise DegenerateGeometryError(
                    f"vertebrae {i} and {i + delta} share a physical position; 1/distance is undefined"
                )
        w = np.zeros((hi - lo, 1))
        w[dst - lo, 0] = params.theta * u[src] / dis
        pairs[delta] = (lo, hi, w, dst)
    return pairs


def _forward(c0: np.ndarray, pairs, phi: dict[int, np.ndarray], hops: int):
    """Run ``hops`` fusion hops from the (m, 24) states ``c0``.

    Returns the states before and after every hop (hops + 1 matrices) and
    each hop's raw row sums, which the backward pass divides by. Offset d's
    messages are one product of the states shifted by d rows.
    """
    cs, sums = [c0], []
    for _ in range(hops):
        c = cs[-1]
        raw = c.copy()
        for delta, (lo, hi, w, _) in pairs.items():
            raw[lo:hi] += w * (c[lo + delta:hi + delta] @ phi[delta])
        s = raw.sum(axis=1)
        cs.append(raw / s[:, None])
        sums.append(s)
    return cs, sums


def fuse(case: SpineCase, params: FusionParams) -> FusionTrace:
    """Iterate the fusion hop from each vertebra's MC sample mean.

    The trace holds hops + 1 snapshots, the first being the inputs, and the
    argmax labels of the last; ties break toward the smaller class index. A
    single hop is ``fuse(case, params_with_hops_1).snapshots[1]``.

    With theta = 0, a single vertebra, or a window of 1 there are no
    messages, and every snapshot is the input states unchanged. A hop whose
    raw confidences overflow float64 raises ``ValidationError``.
    """
    c0 = np.array([v.mc.mean_probs for v in case.vertebrae])
    if params.theta == 0.0 or len(case) == 1 or params.window == 1:
        # no messages; renormalizing would still move the states by ulps
        cs = [c0] * (params.hops + 1)
    else:
        pairs = _fuse_pairs([case], params)
        with np.errstate(over="ignore", invalid="ignore"):
            cs, sums = _forward(c0, pairs, params.phi, params.hops)
        bad = ~np.isfinite(sums)
        if bad.any():
            hop, i = np.argwhere(bad)[0]
            raise ValidationError(f"fusion overflowed at hop {hop + 1}: the raw confidences of vertebra {i} "
                                  "do not sum to a finite number")
    snapshots = np.stack(cs)
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
        self.pairs = _fuse_pairs(cases, params)
        # the phi gradient sums over the pairs inside a case only, (src, coeff)
        # per offset: the zero-weight rows between cases would change the
        # product's blocking, and so its bits
        self.gathered = {delta: (dst + delta, w[dst - lo]) for delta, (lo, hi, w, dst) in self.pairs.items()}
        self.c0 = np.array([v.mc.mean_probs for case in cases for v in case.vertebrae])
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
                g[lo + delta:hi + delta] += w * (h[lo:hi] @ phi[delta].T)
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
