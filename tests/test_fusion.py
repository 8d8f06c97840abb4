"""Message fusion: hand-checked steps, invariants, locality, and training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_case, one_hot, random_case, shift_phi
from spineid.domain import ConfidenceState, FusionParams, phi_offsets
from spineid.errors import DegenerateGeometryError, DivergenceError, ValidationError
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
from spineid.uncertainty import aggregate_samples


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


def one_hop(states, case, params):
    """One fusion hop from ``states``: ``fuse`` with hops = 1, second snapshot."""
    params = FusionParams(params.theta, 1, params.window, params.distance_mode, params.phi)
    return list(fuse(case, params, initial_states=states).snapshots[1])


class TestFuseStep:
    """A single hop, run through ``fuse`` with hops = 1 and given initial states."""

    def test_theta_zero_is_exact_identity(self):
        case = make_case([one_hot(3), one_hot(4), one_hot(5)], truths=[3, 4, 5])
        states = [aggregate_samples(v.mc) for v in case.vertebrae]
        out = one_hop(states, case, identity_params(theta=0.0))
        assert all(a == b for a, b in zip(out, states))

    def test_single_vertebra_identity(self):
        case = make_case([one_hot(9)], truths=[9])
        states = [aggregate_samples(v.mc) for v in case.vertebrae]
        out = one_hop(states, case, identity_params(theta=0.7))
        assert out[0] == states[0]

    def test_three_vertebrae_hand_computed(self):
        # one-hot inputs, identity phi, u = 1 everywhere, index distances
        case = make_case([one_hot(0), one_hot(1), one_hot(2)], truths=[0, 1, 2])
        params = identity_params(theta=0.1, hops=1, window=3)
        states = [aggregate_samples(v.mc) for v in case.vertebrae]
        out = one_hop(states, case, params)
        middle = np.zeros(24)
        middle[0] = middle[2] = 0.1 / 1.2
        middle[1] = 1.0 / 1.2
        assert np.allclose(out[1].probs, middle, atol=1e-15)
        first = np.zeros(24)
        first[0] = 1.0 / 1.1
        first[1] = 0.1 / 1.1
        assert np.allclose(out[0].probs, first, atol=1e-15)

    @pytest.mark.parametrize("distance", ["index", "physical"])
    @pytest.mark.parametrize("hops", [1, 3])
    def test_matches_oracle_on_random_case(self, hops, distance):
        rng = np.random.default_rng(21)
        case = random_case(rng, k=7)
        params = FusionParams(0.15, hops, 5, distance,
                              {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(5)})
        pos = np.array([v.center.position for v in case.vertebrae])
        dis = None if distance == "index" else (lambda i, j: np.linalg.norm(pos[i] - pos[j]))
        u = resolve_certainty(case)
        trace = fuse(case, params)
        assert len(trace.snapshots) == hops + 1
        expected = [s.probs for s in trace.snapshots[0]]
        for snap in trace.snapshots[1:]:
            expected = oracle_step(expected, u, 0.15, 5, params.phi, dis)
            for g, e in zip(snap, expected):
                assert np.abs(g.probs - e).max() <= 1e-12

    def test_state_count_mismatch(self):
        case = make_case([one_hot(1), one_hot(2)], truths=[1, 2])
        with pytest.raises(ValidationError, match="states"):
            one_hop([ConfidenceState(one_hot(1))], case, identity_params())

    def test_coincident_centers_in_physical_mode(self):
        case = make_case([one_hot(1), one_hot(2)], truths=[1, 2],
                         positions=[(5.0, 5.0, 10.0), (5.0, 5.0, 10.0)])
        params = identity_params(theta=0.1, window=3, distance_mode="physical")
        states = [aggregate_samples(v.mc) for v in case.vertebrae]
        with pytest.raises(DegenerateGeometryError):
            one_hop(states, case, params)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cases=st.integers(1, 4),
    hops=st.integers(1, 3),
    window=st.sampled_from([3, 5]),
    distance=st.sampled_from(["index", "physical"]),
)
def test_stacked_forward_matches_each_case_fuse(seed, n_cases, hops, window, distance):
    # cases of two or more vertebrae: fuse returns a single vertebra's states
    # unrenormalized, while the stacked pass renormalizes every row
    rng = np.random.default_rng(seed)
    cases = [random_case(rng, k=int(rng.integers(2, 7))) for _ in range(n_cases)]
    params = FusionParams(0.1, hops, window, distance,
                          {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(window)})
    un = _Unrolled(cases, params, None)
    cs, _ = _forward(un.c0, un.pairs, params.phi, hops)
    start = 0
    for case in cases:
        trace = fuse(case, params)
        # A case with one pair at some offset multiplies a single row by phi,
        # which numpy hands to a different BLAS routine than a many-row
        # product; that row may then differ by an ulp from the stacked pass.
        single_pair = len(case) <= (window + 1) // 2
        for c, snap in zip(cs, trace.snapshots, strict=True):
            got, want = c[start:start + len(case)], np.array([s.probs for s in snap])
            if single_pair:
                assert np.abs(got - want).max() <= 1e-15
            else:
                assert np.array_equal(got, want)
        start += len(case)
    assert start == len(un.c0)
    for c in cs[1:]:
        assert np.abs(c.sum(axis=1) - 1.0).max() <= 1e-9


class TestFuse:
    def test_hops_zero_labels_are_input_argmax(self):
        rng = np.random.default_rng(22)
        case = random_case(rng, k=5)
        trace = fuse(case, identity_params(theta=0.1, hops=0))
        inputs = [aggregate_samples(v.mc) for v in case.vertebrae]
        assert list(trace.final_labels) == [int(np.argmax(s.probs)) for s in inputs]
        assert len(trace.snapshots) == 1

    def test_snapshot_zero_is_input(self):
        rng = np.random.default_rng(23)
        case = random_case(rng, k=4)
        trace = fuse(case, identity_params(theta=0.1, hops=3))
        inputs = [aggregate_samples(v.mc) for v in case.vertebrae]
        assert all(a == b for a, b in zip(trace.snapshots[0], inputs))
        assert len(trace.snapshots) == 4

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
        before = [int(np.argmax(s.probs)) for s in trace.snapshots[0]]
        assert before[2] == start + 3  # wrong at the start
        assert list(trace.final_labels) == list(range(start, start + 5))

    def test_deep_iteration_stays_normalized(self):
        rng = np.random.default_rng(24)
        case = random_case(rng, k=8)
        params = FusionParams(0.1, 10, 5, "index",
                              {d: rng.uniform(0, 2, (24, 24)) for d in phi_offsets(5)})
        trace = fuse(case, params)
        for snap in trace.snapshots:
            for s in snap:
                assert abs(float(s.probs.sum()) - 1.0) <= 1e-9
                assert np.all(s.probs >= 0)

    def test_theta_zero_fixed_point_any_hops(self):
        rng = np.random.default_rng(25)
        case = random_case(rng, k=6)
        trace = fuse(case, identity_params(theta=0.0, hops=7))
        for snap in trace.snapshots[1:]:
            assert all(a == b for a, b in zip(snap, trace.snapshots[0]))

    def test_locality_bound(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            k = int(rng.integers(8, 13))
            case = random_case(rng, k=k)
            window = int(rng.choice([3, 5]))
            hops = int(rng.integers(1, 4))
            params = FusionParams(0.1, hops, window, "index",
                                  {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(window)})
            m = int(rng.integers(0, k))
            perturbed_rows = [np.asarray(v.mc.samples) for v in case.vertebrae]
            perturbed_rows[m] = np.roll(perturbed_rows[m], 2, axis=1)
            other = make_case(perturbed_rows,
                              truths=[t.index for t in case.truths],
                              case_id=case.case_id)
            a = fuse(case, params)
            b = fuse(other, params)
            radius = hops * (window - 1) // 2
            for i in range(k):
                if abs(i - m) > radius:
                    assert np.array_equal(a.snapshots[-1][i].probs, b.snapshots[-1][i].probs)

    def test_case_id_and_translation_equivariance(self):
        rng = np.random.default_rng(27)
        case = random_case(rng, k=6)
        params = FusionParams(0.1, 3, 5, "physical",
                              {d: rng.uniform(0, 1, (24, 24)) for d in phi_offsets(5)})
        shift = np.array([10.0, -4.0, 2.5])
        moved_rows = [np.asarray(v.mc.samples) for v in case.vertebrae]
        moved = make_case(
            moved_rows,
            truths=[t.index for t in case.truths],
            case_id="renamed",
            positions=[tuple(np.array(v.center.position) + shift) for v in case.vertebrae],
        )
        a = fuse(case, params)
        b = fuse(moved, params)
        for x, y in zip(a.snapshots[-1], b.snapshots[-1]):
            assert np.array_equal(x.probs, y.probs)
        # index mode ignores geometry entirely
        params_idx = FusionParams(0.1, 3, 5, "index", params.phi)
        ai = fuse(case, params_idx)
        bi = fuse(moved, params_idx)
        for x, y in zip(ai.snapshots[-1], bi.snapshots[-1]):
            assert np.array_equal(x.probs, y.probs)

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
            truth_idx = [t.index for t in case.truths]
            before = [int(np.argmax(s.probs)) for s in trace.snapshots[0]]
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
        un = _Unrolled(cases, params, None)
        init_loss = un.loss(initial_phi(3, "identity"))
        out = train_phi(cases, params, TrainConfig(learning_rate=2.0, epochs=50, seed=1, init="identity"))
        assert un.loss(out.phi) <= init_loss

    def test_missing_truth_rejected(self):
        rng = np.random.default_rng(32)
        case = random_case(rng, k=3, with_truth=False)
        with pytest.raises(ValidationError, match="ground truth"):
            train_phi([case], identity_params(), TrainConfig(0.1, 1))

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
            un = _Unrolled(cases, params, None)
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
