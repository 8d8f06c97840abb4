"""Message fusion: hand-checked steps, invariants, locality, and training."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import make_case, one_hot, random_case, shift_phi
from spineid import fusion, io
from spineid.domain import FusionParams, McSampleSet, phi_offsets
from spineid.errors import DegenerateGeometryError, DivergenceError, SpineError, ValidationError
from spineid.fusion import (
    TrainConfig,
    _forward,
    _Unrolled,
    fuse,
    identity_params,
    initial_phi,
    resolve_certainty,
    train_phi,
)
from spineid.uncertainty import aggregate_samples, fusion_weight, report, with_reports


def oracle_step(states, u, theta, window, phi, dis=None):
    """Straight-line extended-precision recomputation of one fusion hop."""
    k = len(states)
    half = (window - 1) // 2
    states = [np.asarray(s, dtype=np.longdouble) for s in states]
    out = []
    for i in range(k):
        omega = np.zeros(24, dtype=np.longdouble)
        for j in range(max(0, i - half), min(k, i + half + 1)):
            if j == i:
                continue
            d = abs(i - j) if dis is None else dis(i, j)
            omega += (1.0 / d) * u[j] * (states[j] @ phi[j - i].astype(np.longdouble))
        raw = states[i] + np.longdouble(theta) * omega
        out.append(np.asarray(raw / raw.sum(), dtype=np.float64))
    return out


def input_states(case) -> np.ndarray:
    """Each vertebra's MC sample mean, the (k, 24) states fusion starts from."""
    return np.array([aggregate_samples(v.mc) for v in case.vertebrae])


def one_hop(case, params) -> np.ndarray:
    """One fusion hop from the input states: ``fuse`` with hops = 1, second snapshot."""
    params = FusionParams(params.theta, 1, params.window, params.distance_mode, params.phi)
    return fuse(case, params).snapshots[1]


class TestFuseStep:
    """A single hop, run through ``fuse`` with hops = 1."""

    def test_theta_zero_is_exact_identity(self):
        case = make_case([one_hot(3), one_hot(4), one_hot(5)], truths=[3, 4, 5])
        out = one_hop(case, identity_params(theta=0.0))
        assert np.array_equal(out, input_states(case))

    def test_single_vertebra_identity(self):
        case = make_case([one_hot(9)], truths=[9])
        out = one_hop(case, identity_params(theta=0.7))
        assert np.array_equal(out[0], input_states(case)[0])

    def test_three_vertebrae_hand_computed(self):
        # one-hot inputs, identity phi, u = 1 everywhere, index distances
        case = make_case([one_hot(0), one_hot(1), one_hot(2)], truths=[0, 1, 2])
        params = identity_params(theta=0.1, hops=1, window=3)
        out = one_hop(case, params)
        middle = np.zeros(24)
        middle[0] = middle[2] = 0.1 / 1.2
        middle[1] = 1.0 / 1.2
        assert np.allclose(out[1], middle, atol=1e-15)
        first = np.zeros(24)
        first[0] = 1.0 / 1.1
        first[1] = 0.1 / 1.1
        assert np.allclose(out[0], first, atol=1e-15)

    # the entropy runs keep the ids they had before the metric parameter
    @pytest.mark.parametrize("hops, distance, metric", [
        pytest.param(hops, distance, metric, id=f"{hops}-{distance}" + ("" if metric == "entropy" else f"-{metric}"))
        for metric in ("entropy", "variance") for hops in (1, 3) for distance in ("index", "physical")
    ])
    def test_matches_oracle_on_random_case(self, hops, distance, metric):
        rng = np.random.default_rng(21)
        case = with_reports(random_case(rng, k=7), metric)
        params = FusionParams(0.15, hops, 5, distance,
                              {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(5)})
        pos = np.array([v.center.position for v in case.vertebrae])
        dis = None if distance == "index" else (lambda i, j: np.linalg.norm(pos[i] - pos[j]))
        u = [fusion_weight(report(v.mc), metric) for v in case.vertebrae]
        trace = fuse(case, params)
        assert len(trace.snapshots) == hops + 1
        expected = list(trace.snapshots[0])
        for snap in trace.snapshots[1:]:
            expected = oracle_step(expected, u, 0.15, 5, params.phi, dis)
            for g, e in zip(snap, expected, strict=True):
                assert np.abs(g - e).max() <= 1e-12

    def test_coincident_centers_in_physical_mode(self):
        case = make_case([one_hot(1), one_hot(2)], truths=[1, 2],
                         positions=[(5.0, 5.0, 10.0), (5.0, 5.0, 10.0)])
        params = identity_params(theta=0.1, window=3, distance_mode="physical")
        with pytest.raises(DegenerateGeometryError):
            one_hop(case, params)

    def test_overflowing_physical_distance_rejected(self):
        # |z| of 1e200 squares past float64; fuse and train_phi share the pair builder
        case = make_case([one_hot(t) for t in (4, 5, 6)], truths=[4, 5, 6],
                         positions=[(0.0, 0.0, 1e200), (0.0, 0.0, 0.0), (0.0, 0.0, -1e200)])
        params = identity_params(theta=0.1, window=3, distance_mode="physical")
        with pytest.raises(ValidationError, match="vertebrae 1 and 0 lie too far apart"):
            fuse(case, params)
        with pytest.raises(ValidationError, match="too far apart"):
            train_phi([case], params, TrainConfig(0.1, 1))


def test_computed_weights_are_the_stored_weights():
    """Without stored weights, fusion reads each sample set's certainty weight: the bits ``with_reports`` stores."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        case = random_case(rng)
        loaded = io.case_from_dict(io.case_to_dict(case))  # sample sets from one pass over the case
        stored = resolve_certainty(with_reports(case))
        assert resolve_certainty(case).tobytes() == stored.tobytes()
        assert resolve_certainty(loaded).tobytes() == stored.tobytes()


# The gathered kernel fusion ran before offsets became shifted slices, kept
# as the oracle: per offset, the (dst, src, coeff) rows of every pair inside
# a case, and the partner rows gathered from the product over all rows. That
# product is over all rows, as fusion takes it, because numpy hands a
# one-row product to another BLAS routine than a many-row one: gathering
# the rows first gave a case with a single pair at some offset other bits.


def gathered_pairs(cases, params):
    offsets = phi_offsets(params.window)
    parts = {delta: ([], [], []) for delta in offsets}
    start = 0
    for case in cases:
        k = len(case)
        u = resolve_certainty(case)
        positions = np.array([v.center.position for v in case.vertebrae], dtype=np.float64)
        for delta in offsets:
            dst = np.arange(max(0, -delta), k - max(0, delta), dtype=np.int64)
            if len(dst) == 0:
                continue
            src = dst + delta
            if params.distance_mode == "index":
                dis = np.full(len(dst), float(abs(delta)))
            else:
                dis = np.linalg.norm(positions[dst] - positions[src], axis=1)
            dsts, srcs, coeffs = parts[delta]
            dsts.append(dst + start)
            srcs.append(src + start)
            coeffs.append(params.theta * u[src] / dis)
        start += k
    return {delta: tuple(np.concatenate(column) for column in parts[delta]) for delta in offsets if parts[delta][0]}


def gathered_forward(c0, pairs, phi, hops):
    cs, sums = [c0], []
    for _ in range(hops):
        c = cs[-1]
        raw = c.copy()
        for delta, (dst, src, coeff) in pairs.items():
            raw[dst] += coeff[:, None] * (c @ phi[delta])[src]
        s = raw.sum(axis=1)
        cs.append(raw / s[:, None])
        sums.append(s)
    return cs, sums


def gathered_fuse(case, params) -> np.ndarray:
    c0 = input_states(case)
    if params.theta == 0.0 or len(case) == 1 or params.window == 1:
        return np.stack([c0] * (params.hops + 1))
    return np.stack(gathered_forward(c0, gathered_pairs([case], params), params.phi, params.hops)[0])


def gathered_loss_and_grad(c0, truth, pairs, phi, hops):
    cs, sums = gathered_forward(c0, pairs, phi, hops)
    m = len(c0)
    picked = cs[-1][np.arange(m), truth]
    loss = float(-np.log(picked).mean())
    grad = {delta: np.zeros((24, 24)) for delta in phi}
    g = np.zeros_like(cs[-1])
    g[np.arange(m), truth] = -1.0 / (m * picked)
    for t in range(hops - 1, -1, -1):
        c_next, c_prev, s = cs[t + 1], cs[t], sums[t]
        h = (g - (g * c_next).sum(axis=1, keepdims=True)) / s[:, None]
        g = h.copy()
        for delta, (dst, src, coeff) in pairs.items():
            grad[delta] += (coeff[:, None] * c_prev[src]).T @ h[dst]
            g[src] += coeff[:, None] * (h @ phi[delta].T)[dst]
    return loss, grad


# Random fusion settings: the case and phi come from ``seed``; the weights are
# stored under ``metric`` by the uncertainty stage, or left to fusion (None).
fusion_settings = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
    window=st.sampled_from([1, 3, 5, 7]),
    hops=st.integers(0, 10),
    theta=st.floats(0.0, 1.0),
    distance=st.sampled_from(["index", "physical"]),
    metric=st.sampled_from([None, "entropy", "variance"]),
)


def seeded_case_and_params(seed, k, window, hops, theta, distance):
    rng = np.random.default_rng(seed)
    case = random_case(rng, k=k)
    phi = {d: rng.uniform(0, 2, (24, 24)) for d in phi_offsets(window)}
    return case, FusionParams(theta, hops, window, distance, phi)


def stored(case, metric):
    return case if metric is None else with_reports(case, metric)


class TestShiftedKernel:
    """The shifted-slice kernel against the gathered one, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(**fusion_settings)
    def test_fuse_matches_gathered_kernel(self, seed, k, window, hops, theta, distance, metric):
        case, params = seeded_case_and_params(seed, k, window, hops, theta, distance)
        case = stored(case, metric)
        assert fuse(case, params).snapshots.tobytes() == gathered_fuse(case, params).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        window=st.sampled_from([3, 5, 7]),
        hops=st.integers(1, 3),
        distance=st.sampled_from(["index", "physical"]),
        metric=st.sampled_from(["entropy", "variance"]),
        silent=st.integers(0, 2**16),
    )
    def test_training_matches_gathered_kernel(self, seed, sizes, window, hops, distance, metric, silent):
        # One vertebra has a uniform mean and a stored weight of exactly 0. Its
        # pairs are real, so they stay in the phi-gradient product: dropping
        # zero-weight rows there changes the product's blocking and its bits.
        rng = np.random.default_rng(seed)
        cases = [with_reports(random_case(rng, k=k), metric) for k in sizes]
        j = silent % len(cases)
        verts = list(cases[j].vertebrae)
        i = silent % len(verts)
        verts[i] = replace(verts[i], mc=McSampleSet(np.full((3, 24), 1 / 24)), uncertainty=None, fusion_weight=0.0)
        cases[j] = replace(cases[j], vertebrae=tuple(verts))
        params = FusionParams(0.2, hops, window, distance, {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(window)})
        un = _Unrolled(cases, params)
        pairs = gathered_pairs(cases, params)
        assert un.c0.tobytes() == np.concatenate([input_states(c) for c in cases]).tobytes()
        phi = params.phi
        for _ in range(4):  # a few descent steps, each from the phi both kernels agree on
            loss, grad = un.loss_and_grad(phi)
            want_loss, want_grad = gathered_loss_and_grad(un.c0, un.truth, pairs, phi, hops)
            assert loss == want_loss and un.loss(phi) == want_loss
            for d in phi:
                assert grad[d].tobytes() == want_grad[d].tobytes()
            phi = {d: np.maximum(phi[d] - 5.0 * grad[d], 0.0) for d in phi}


    def test_training_matches_gathered_kernel_at_corpus_scale(self):
        # Thousands of rows, as the criterion-8 corpus has. Only at this size
        # does the phi-gradient product's blocking show a dropped zero-weight
        # row, or a sum over the zero-weight rows between cases.
        rng = np.random.default_rng(41)
        cases = [with_reports(random_case(rng), "entropy") for _ in range(500)]
        for j in range(0, len(cases), 7):
            verts = list(cases[j].vertebrae)
            verts[1] = replace(verts[1], mc=McSampleSet(np.full((3, 24), 1 / 24)), uncertainty=None,
                               fusion_weight=0.0)
            cases[j] = replace(cases[j], vertebrae=tuple(verts))
        params = FusionParams(0.2, 3, 5, "index", {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(5)})
        un = _Unrolled(cases, params)
        assert len(un.c0) > 3000
        pairs = gathered_pairs(cases, params)
        phi = params.phi
        for _ in range(2):
            loss, grad = un.loss_and_grad(phi)
            want_loss, want_grad = gathered_loss_and_grad(un.c0, un.truth, pairs, phi, params.hops)
            assert loss == want_loss
            for d in phi:
                assert grad[d].tobytes() == want_grad[d].tobytes()
            phi = {d: np.maximum(phi[d] - 5.0 * grad[d], 0.0) for d in phi}


def stacked_fuse_pairs(cases, params):
    """Oracle: fusion._fuse_pairs as it was, one builder for any number of cases, each offset's in-case rows
    found by comparing the case of every row with its partner's, and their weights gathered by those rows."""
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
            with np.errstate(over="ignore"):
                dis = np.linalg.norm(positions[dst] - positions[src], axis=1)
            over, same = np.isinf(dis), dis == 0.0
            if over.any() or same.any():
                row = int(dst[np.argmax(over if over.any() else same)])
                i = row - sum(sizes[:case_of[row]])
                case_id = cases[case_of[row]].case_id
                if over.any():
                    raise ValidationError(f"vertebrae {i} and {i + delta} lie too far apart in case {case_id!r}: "
                                          "their physical distance overflows float64")
                raise DegenerateGeometryError(
                    f"vertebrae {i} and {i + delta} share a physical position in case {case_id!r}; "
                    "1/distance is undefined"
                )
        w = np.zeros((hi - lo, 1))
        w[dst - lo, 0] = params.theta * u[src] / dis
        pairs[delta] = (lo, hi, w, dst)
    return pairs


def pair_table(build, cases, params):
    """Each offset's ``(lo, hi, w, dst)`` as plain values and bytes, or the type and message of the error."""
    try:
        pairs = build(cases, params)
    except SpineError as exc:
        return type(exc), str(exc)
    return [(delta, lo, hi, w.shape, w.dtype.str, w.tobytes(), dst.dtype.str, dst.tobytes())
            for delta, (lo, hi, w, dst) in pairs.items()]


@st.composite
def fusion_corpora(draw):
    """1-8 cases of 1-24 vertebrae with their weights stored or left to fusion; one case may hold two vertebrae
    at one position, or a vertebra so far above the rest that its physical distance overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cases = []
    for k in draw(st.lists(st.integers(1, 24), min_size=1, max_size=8), label="sizes"):
        case = random_case(rng, k=k)
        metric = draw(st.sampled_from([None, "entropy", "variance"]))
        cases.append(case if metric is None else with_reports(case, metric))
    j = draw(st.integers(0, len(cases) - 1))
    geometry = draw(st.sampled_from(["planted", "planted", "shared", "overflow"]))
    if geometry != "planted" and len(cases[j]) > 1:
        verts = list(cases[j].vertebrae)
        i = draw(st.integers(1, len(verts) - 1))
        if geometry == "shared":  # vertebra i at the position of vertebra i - 1
            verts[i] = replace(verts[i], center=replace(verts[i].center, position=verts[i - 1].center.position))
        else:  # vertebrae 0 to i - 1 moved to the far top of the volume
            for n in range(i):
                verts[n] = replace(verts[n], center=replace(verts[n].center, position=(float(n), 0.0, 1e200)))
        cases[j] = replace(cases[j], vertebrae=tuple(verts))
    return cases


@settings(max_examples=200, deadline=None)
@given(cases=fusion_corpora(), window=st.sampled_from([1, 3, 5, 7]), distance=st.sampled_from(["index", "physical"]),
       theta=st.sampled_from([0.0, 0.1, 0.7]))
def test_pair_tables_match_the_stacked_builder(cases, window, distance, theta):
    # one case is a stack without case boundaries: the stack and each of its cases give the old tables
    params = FusionParams(theta, 1, window, distance, {d: np.eye(24) for d in phi_offsets(window)})
    want = pair_table(stacked_fuse_pairs, cases, params)
    event(want[0].__name__ if isinstance(want, tuple) else "table")
    assert pair_table(fusion._fuse_pairs, cases, params) == want
    for case in cases:
        assert pair_table(fusion._fuse_pairs, [case], params) == pair_table(stacked_fuse_pairs, [case], params)


def outcome(run):
    """``run()``, or the type and message of the ``SpineError`` it raises."""
    try:
        return run()
    except SpineError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(cases=fusion_corpora(), window=st.sampled_from([1, 3, 5, 7]), hops=st.integers(0, 3),
       distance=st.sampled_from(["index", "physical"]), theta=st.sampled_from([0.0, 0.1, 0.7]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_forward_matches_each_case_fuse(cases, window, hops, distance, theta, seed):
    # training's forward pass over a stack of cases gives every case fuse's bits; uneven sample counts
    # come from random_case. A case without messages (theta 0, window 1 or one vertebra) keeps its input
    # states in fuse, while the stack still renormalizes its rows. A stack that cannot be fused raises
    # the error its one bad case raises alone.
    rng = np.random.default_rng(seed)
    params = FusionParams(theta, hops, window, distance, {d: rng.uniform(0, 2, (24, 24)) for d in phi_offsets(window)})
    errors = [r for r in (outcome(lambda case=case: fusion._fuse_pairs([case], params)) for case in cases)
              if isinstance(r, tuple)]
    pairs = outcome(lambda: fusion._fuse_pairs(cases, params))
    event("error" if errors else "traces")
    if errors:
        assert pairs == errors[0]
        return
    c0 = fusion._input_states(cases)
    cs, _ = _forward(c0, pairs, params.phi, hops)
    start = 0
    for case in cases:
        rows = slice(start, start + len(case))
        start += len(case)
        trace = fuse(case, params)
        if theta == 0.0 or window == 1 or len(case) == 1:
            assert trace.snapshots.tobytes() == np.stack([c0[rows]] * (hops + 1)).tobytes()
            continue
        for c, want in zip(cs, trace.snapshots, strict=True):
            assert c[rows].tobytes() == want.tobytes()
    assert start == len(c0)


class TestFuse:
    def test_hops_zero_labels_are_input_argmax(self):
        rng = np.random.default_rng(22)
        case = random_case(rng, k=5)
        trace = fuse(case, identity_params(theta=0.1, hops=0))
        assert list(trace.final_labels) == [int(np.argmax(s)) for s in input_states(case)]
        assert len(trace.snapshots) == 1

    def test_snapshot_zero_is_input(self):
        rng = np.random.default_rng(23)
        case = random_case(rng, k=4)
        trace = fuse(case, identity_params(theta=0.1, hops=3))
        assert np.array_equal(trace.snapshots[0], input_states(case))
        assert len(trace.snapshots) == 4

    @pytest.mark.parametrize("theta", [0.0, 0.1], ids=["no-messages", "messages"])
    def test_snapshots_are_one_read_only_array(self, theta):
        rng = np.random.default_rng(29)
        case = random_case(rng, k=5)
        trace = fuse(case, identity_params(theta=theta, hops=2))
        assert isinstance(trace.snapshots, np.ndarray)
        assert trace.snapshots.shape == (3, 5, 24) and trace.snapshots.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            trace.snapshots[0, 0, 0] = 0.5
        assert trace.final_labels == tuple(np.argmax(trace.snapshots[-1], axis=1).tolist())
        assert all(type(label) is int for label in trace.final_labels)

    def test_overflowing_hop_rejected_without_warning(self):
        # every message is ~1e307 per class, so a row's raw sum overflows float64, first in
        # vertebra 1, which hears two neighbours; the suite turns an escaping RuntimeWarning into a failure
        rng = np.random.default_rng(30)
        case = random_case(rng, k=4)
        params = FusionParams(0.1, 3, 3, "index", {d: np.full((24, 24), 1e308) for d in phi_offsets(3)})
        with pytest.raises(ValidationError, match=rf"^fusion overflowed at hop 1: the raw confidences of vertebra 1 "
                                                  rf"of case {case.case_id!r} do not sum to a finite number$"):
            fuse(case, params)

    def test_geometry_error_in_a_stack_names_its_case(self):
        # training fuses a stack of cases; the error names the case and its own vertebrae
        rng = np.random.default_rng(32)
        good = [random_case(rng, k=4) for _ in range(2)]
        bad = make_case([one_hot(t) for t in (4, 5, 6)], truths=[4, 5, 6], case_id="bad",
                        positions=[(0.0, 0.0, 10.0), (0.0, 0.0, 5.0), (0.0, 0.0, 5.0)])
        params = identity_params(theta=0.1, window=3, distance_mode="physical")
        with pytest.raises(DegenerateGeometryError, match=r"^vertebrae 2 and 1 share a physical position in case 'bad';"):
            train_phi([good[0], bad, good[1]], params, TrainConfig(0.1, 1))

    def test_confident_neighbors_fix_off_by_one_middle(self):
        # middle vertebra leans to truth+1; neighbors are confidently correct
        start = 10
        rows = []
        for i, truth in enumerate(range(start, start + 5)):
            v = np.full(24, 1e-3)
            if i == 2:
                v[truth + 1] = 0.5
                v[truth] = 0.4
            else:
                v[truth] = 0.9
            rows.append(v / v.sum())
        case = make_case(rows, truths=list(range(start, start + 5)))
        params = FusionParams(0.1, 3, 5, "index", shift_phi(5))
        trace = fuse(case, params)
        before = [int(np.argmax(s)) for s in trace.snapshots[0]]
        assert before[2] == start + 3  # wrong at the start
        assert list(trace.final_labels) == list(range(start, start + 5))

    @settings(max_examples=60, deadline=None)
    @given(**fusion_settings)
    @example(seed=24, k=8, window=5, hops=10, theta=0.1, distance="index", metric=None)  # the former fixed inputs
    def test_deep_iteration_stays_normalized(self, seed, k, window, hops, theta, distance, metric):
        case, params = seeded_case_and_params(seed, k, window, hops, theta, distance)
        trace = fuse(stored(case, metric), params)
        assert trace.snapshots.shape == (hops + 1, k, 24)
        assert np.all(trace.snapshots >= 0)
        assert np.abs(trace.snapshots.sum(axis=2) - 1.0).max() <= 1e-12

    def test_theta_zero_fixed_point_any_hops(self):
        rng = np.random.default_rng(25)
        case = random_case(rng, k=6)
        trace = fuse(case, identity_params(theta=0.0, hops=7))
        for snap in trace.snapshots[1:]:
            assert np.array_equal(snap, trace.snapshots[0])

    @settings(max_examples=60, deadline=None)
    @given(**fusion_settings, perturbed=st.integers(0, 11))
    # the seed and the extremes of the former fixed example's ranges
    @example(seed=26, k=12, window=5, hops=3, theta=0.1, distance="index", metric=None, perturbed=6)
    @example(seed=26, k=8, window=3, hops=1, theta=0.1, distance="index", metric=None, perturbed=0)
    def test_locality_bound(self, seed, k, window, hops, theta, distance, metric, perturbed):
        # a vertebra more than hops * half positions from the perturbed one keeps its bits
        case, params = seeded_case_and_params(seed, k, window, hops, theta, distance)
        m = perturbed % k
        rows = [np.asarray(v.mc.samples) for v in case.vertebrae]
        rows[m] = np.roll(rows[m], 2, axis=1)
        other = make_case(rows, truths=case.truths, case_id=case.case_id)
        a = fuse(stored(case, metric), params).snapshots[-1]
        b = fuse(stored(other, metric), params).snapshots[-1]
        radius = hops * ((window - 1) // 2)
        far = np.abs(np.arange(k) - m) > radius
        assert np.array_equal(a[far], b[far])

    def test_case_id_and_translation_equivariance(self):
        rng = np.random.default_rng(27)
        case = random_case(rng, k=6)
        params = FusionParams(0.1, 3, 5, "physical",
                              {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(5)})
        shift = np.array([10.0, -4.0, 2.5])
        moved_rows = [np.asarray(v.mc.samples) for v in case.vertebrae]
        moved = make_case(
            moved_rows,
            truths=case.truths,
            case_id="renamed",
            positions=[tuple(np.array(v.center.position) + shift) for v in case.vertebrae],
        )
        a = fuse(case, params)
        b = fuse(moved, params)
        for x, y in zip(a.snapshots[-1], b.snapshots[-1], strict=True):
            assert np.array_equal(x, y)
        # index mode ignores geometry entirely
        params_idx = FusionParams(0.1, 3, 5, "index", params.phi)
        ai = fuse(case, params_idx)
        bi = fuse(moved, params_idx)
        for x, y in zip(ai.snapshots[-1], bi.snapshots[-1], strict=True):
            assert np.array_equal(x, y)

    def test_shifted_phi_improves_on_confused_corpus(self):
        # statistical direction: fusion with ideal shift matrices never hurts
        rng = np.random.default_rng(28)
        params = FusionParams(0.1, 3, 5, "index", shift_phi(5))
        base_rates, fused_rates = [], []
        for _ in range(100):
            k = int(rng.integers(4, 10))
            start = int(rng.integers(0, 24 - k + 1))
            rows = []
            for truth in range(start, start + k):
                base = np.full(24, 0.004)
                base[truth] = 0.40
                for d in (-1, 1):
                    if 0 <= truth + d < 24:
                        base[truth + d] = 0.29
                base /= base.sum()
                rows.append(rng.dirichlet(5 * base, size=20))
            case = make_case(rows, truths=list(range(start, start + k)))
            trace = fuse(case, params)
            truth_idx = case.truths
            before = [int(np.argmax(s)) for s in trace.snapshots[0]]
            base_rates.append(np.mean([p == t for p, t in zip(before, truth_idx)]))
            fused_rates.append(np.mean([p == t for p, t in zip(trace.final_labels, truth_idx)]))
        assert np.mean(fused_rates) >= np.mean(base_rates)


class TestTrainPhi:
    def toy_cases(self, rng, n=3, k=4):
        cases = []
        for _ in range(n):
            start = int(rng.integers(0, 24 - k + 1))
            rows = []
            for truth in range(start, start + k):
                base = np.full(24, 0.01)
                base[truth] = 0.6
                if truth + 1 < 24:
                    base[truth + 1] = 0.3
                base /= base.sum()
                rows.append(rng.dirichlet(10 * base, size=5))
            cases.append(make_case(rows, truths=list(range(start, start + k)),
                                   case_id=f"toy_{len(cases)}"))
        return cases

    def test_zero_learning_rate_returns_init(self):
        rng = np.random.default_rng(30)
        cases = self.toy_cases(rng)
        params = identity_params(theta=0.1, hops=2, window=3)
        out = train_phi(cases, params, TrainConfig(learning_rate=0.0, epochs=5, seed=1, init="identity"))
        for d in phi_offsets(3):
            assert np.array_equal(out.phi[d], np.eye(24))

    def test_training_never_worsens_loss(self):
        from spineid.fusion import _Unrolled

        rng = np.random.default_rng(31)
        cases = self.toy_cases(rng)
        params = identity_params(theta=0.1, hops=3, window=3)
        un = _Unrolled(cases, params)
        init_loss = un.loss(initial_phi(3, "identity"))
        out = train_phi(cases, params, TrainConfig(learning_rate=2.0, epochs=50, seed=1, init="identity"))
        assert un.loss(out.phi) <= init_loss

    def test_missing_truth_rejected(self):
        rng = np.random.default_rng(32)
        case = random_case(rng, k=3, with_truth=False)
        with pytest.raises(ValidationError, match="ground truth"):
            train_phi([case], identity_params(), TrainConfig(0.1, 1))

    @pytest.mark.parametrize("init", ["identity", "uniform_small"])
    @pytest.mark.parametrize("seed", [-1, 2.0, False, "7"], ids=["negative", "float", "bool", "str"])
    def test_seed_must_be_a_non_negative_integer(self, seed, init):
        # the identity init draws nothing, and once ran with any seed
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            TrainConfig(learning_rate=0.1, epochs=1, seed=seed, init=init)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(33)
        cases = self.toy_cases(rng)
        params = identity_params(theta=0.1, hops=2, window=3)
        cfg = TrainConfig(learning_rate=1.0, epochs=20, seed=7, init="uniform_small")
        a = train_phi(cases, params, cfg)
        b = train_phi(cases, params, cfg)
        assert a == b

    def test_projection_keeps_phi_nonnegative(self):
        rng = np.random.default_rng(34)
        cases = self.toy_cases(rng)
        out = train_phi(cases, identity_params(theta=0.1, hops=2, window=3),
                        TrainConfig(learning_rate=5.0, epochs=30, seed=2, init="identity"))
        for mat in out.phi.values():
            assert np.all(mat >= 0)

    def test_gradient_matches_finite_differences(self):
        from spineid.fusion import _Unrolled

        rng = np.random.default_rng(35)
        cases = self.toy_cases(rng)
        for hops in (1, 2, 3):
            params = identity_params(theta=0.1, hops=hops, window=3)
            un = _Unrolled(cases, params)
            phi = {d: np.eye(24) + 0.05 for d in phi_offsets(3)}
            _, grad = un.loss_and_grad(phi)
            h = 1e-5
            worst = 0.0
            for d in phi:
                for i, j in [(int(a), int(b)) for a, b in rng.integers(0, 24, size=(25, 2))]:
                    pp = {key: m.copy() for key, m in phi.items()}
                    pp[d][i, j] += h
                    lp = un.loss(pp)
                    pp[d][i, j] -= 2 * h
                    lm = un.loss(pp)
                    fd = (lp - lm) / (2 * h)
                    an = grad[d][i, j]
                    worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
            assert worst <= 1e-4

    def test_divergent_input_raises(self):
        # a one-hot truth with zero mass at truth gives an infinite loss
        case = make_case([one_hot(4), one_hot(5)], truths=[5, 6])
        with pytest.raises(DivergenceError):
            train_phi([case], identity_params(theta=0.1, hops=1, window=3),
                      TrainConfig(learning_rate=0.5, epochs=3))

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_one_forward_pass_per_epoch_and_one_for_the_last_step(self, epochs):
        # epoch 0's loss was once also computed before the loop, on the same phi
        cases = self.toy_cases(np.random.default_rng(36))
        cfg = TrainConfig(learning_rate=1.0, epochs=epochs)
        with mock.patch.object(fusion, "_forward", wraps=fusion._forward) as forward:
            train_phi(cases, identity_params(theta=0.1, hops=2, window=3), cfg)
        assert forward.call_count == epochs + 1
