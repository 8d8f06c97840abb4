"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance and
runtime budget is pinned here; the expensive ablation corpus is built once
and shared by the criteria that need it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spineid
from conftest import make_case, one_hot, random_case
from spineid.clustering import ClusterConfig, box_densities, cluster_centers
from spineid.domain import FusionParams, McSampleSet, phi_offsets
from spineid.evaluate import evaluate
from spineid.fusion import TrainConfig, _Unrolled, fuse, identity_params, train_phi
from spineid.labels import N_CLASSES, sequence_loss
from spineid.losses import supcon_grad, supcon_loss
from spineid.synthetic import ConfusionModel, DetectConfig, GenConfig, McConfig, gen_cases
from spineid.uncertainty import aggregate_samples, entropy, report
from test_losses import _raw_loss, oracle_lis_exhaustive, oracle_supcon, random_batch


@contextmanager
def criterion(n: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL {desc} ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} {desc} "
          f"({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert ok, f"criterion {n} exceeded its runtime budget: {elapsed:.1f}s >= {budget_s}s"


# ---------------------------------------------------------------------------
# criterion 1: neighborhood density vs brute force


def test_criterion_1_density_oracle():
    with criterion(1, "box_densities equals O(n^2) brute force on 1000 instances", 10.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            pts = rng.uniform(0, 100, size=(n, 3))
            eps = float(rng.uniform(1.0, 40.0))
            l_i = int(rng.integers(1, 40))
            diff = pts[:, None, :] - pts[None, :, :]
            within = (diff**2).sum(axis=2) <= eps * eps
            counts = within.sum(axis=1) - 1
            densities = box_densities(pts, eps, l_i)
            for i in map(int, rng.integers(0, n, size=3)):
                assert densities[i] == counts[i] / l_i


# ---------------------------------------------------------------------------
# criterion 2: clustering recovery on synthetic detection sets


def test_criterion_2_clustering_recovery():
    with criterion(2, "cluster recovery: count == K, error <= eps_pos/2, >= 95% of 200", 60.0):
        cfg = ClusterConfig(eps_pos=6.0, min_pts=4, eps_dim=10.0, density_floor=0.1)
        gen = GenConfig(
            seed=2002,
            n_cases=200,
            k_slices=200,
            vertebrae_range=(3, 24),
            detect=DetectConfig(boxes_per_vertebra=30, noise_rate=0.1),
        )
        successes = 0
        for case, dets in gen_cases(gen):
            try:
                found = cluster_centers(dets, cfg)
            except Exception:
                continue
            if len(found) != len(case):
                continue
            planted = np.array([v.center.position for v in case.vertebrae])
            errors = [
                float(np.min(np.linalg.norm(planted - np.array(c.position), axis=1)))
                for c in found
            ]
            if max(errors) <= cfg.eps_pos / 2:
                successes += 1
        assert successes >= 0.95 * 200, f"only {successes}/200 runs recovered the planted spine"


# ---------------------------------------------------------------------------
# criterion 3: contrastive loss and gradient oracles


def test_criterion_3_supcon_oracles():
    with criterion(3, "supcon loss vs brute force (1e-10) and grad vs FD (1e-4)", 30.0):
        rng = np.random.default_rng(3003)
        h = 1e-5
        for _ in range(100):
            batch = random_batch(rng)
            expected = oracle_supcon(batch.vectors, batch.labels, batch.tau)
            got = supcon_loss(batch)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

            an = supcon_grad(batch)
            base = np.array(batch.vectors)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    plus, minus = base.copy(), base.copy()
                    plus[i, j] += h
                    minus[i, j] -= h
                    fd = (_raw_loss(plus, batch.labels, batch.tau)
                          - _raw_loss(minus, batch.labels, batch.tau)) / (2 * h)
                    rel = abs(an[i, j] - fd) / max(abs(an[i, j]), abs(fd), 1e-6)
                    assert rel <= 1e-4


# ---------------------------------------------------------------------------
# criterion 4: sequence loss vs exhaustive subsequence search


def test_criterion_4_sequence_loss_oracle():
    with criterion(4, "sequence_loss equals exhaustive LIS on 1000 sequences", 5.0):
        rng = np.random.default_rng(4004)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            seq = rng.integers(0, N_CLASSES, size=n).tolist()
            assert sequence_loss(seq) == n - oracle_lis_exhaustive(seq)


# ---------------------------------------------------------------------------
# criterion 5: uncertainty invariants and extended-precision oracle


def test_criterion_5_uncertainty_oracle():
    with criterion(5, "entropy bounds and MC aggregation vs 1e-10 oracle on 1000 sets", 10.0):
        assert entropy(one_hot(7)) == 0.0
        uniform = np.full(N_CLASSES, 1.0 / N_CLASSES)
        assert abs(entropy(uniform) - math.log(N_CLASSES)) <= 1e-12

        rng = np.random.default_rng(5005)
        for _ in range(1000):
            base = rng.uniform(0.01, 1.0, N_CLASSES)
            base /= base.sum()
            samples = rng.dirichlet(rng.uniform(3, 100) * base, size=20)
            samples /= samples.sum(axis=1, keepdims=True)
            rep = report(McSampleSet(samples))
            assert 0.0 <= rep.entropy <= math.log(N_CLASSES) + 1e-12

            s = samples.astype(np.longdouble)
            mean = s.mean(axis=0)
            mean /= mean.sum()
            nz = mean > 0
            ent = float(-(mean[nz] * np.log(mean[nz])).sum())
            var = float(((s - s.mean(axis=0)) ** 2).sum(axis=0).mean() / (len(s) - 1))
            assert np.abs(rep.mean_probs - np.asarray(mean, dtype=np.float64)).max() <= 1e-10
            assert abs(rep.entropy - ent) <= 1e-10
            assert abs(rep.variance - var) <= 1e-10
            assert abs(rep.certainty_weight - (1 - ent / math.log(N_CLASSES))) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 6: fusion invariants


def test_criterion_6_fusion_invariants():
    with criterion(6, "fusion normalization, nonnegativity, identities, locality on 500 cases", 30.0):
        rng = np.random.default_rng(6006)
        windows = (3, 5, 7)
        for trial in range(500):
            window = windows[trial % 3]
            k = int(rng.integers(2, 13))
            case = random_case(rng, k=k)
            phi = {d: rng.uniform(0, 1, (N_CLASSES, N_CLASSES)) for d in phi_offsets(window)}
            params = FusionParams(0.1, 3, window, "index", phi)
            trace = fuse(case, params)
            assert trace.snapshots.shape == (4, k, N_CLASSES)
            assert np.abs(trace.snapshots.sum(axis=2) - 1.0).max() <= 1e-9
            assert np.all(trace.snapshots >= 0)

            # theta = 0 identity
            zero = fuse(case, FusionParams(0.0, 3, window, "index", phi))
            assert np.array_equal(zero.snapshots[-1], zero.snapshots[0])

            # locality: perturbing vertebra m cannot reach beyond hops * half
            if trial % 5 == 0:
                m = int(rng.integers(0, k))
                rows = [np.asarray(v.mc.samples) for v in case.vertebrae]
                rows[m] = np.roll(rows[m], 3, axis=1)
                other = make_case(rows, truths=case.truths)
                a, b = fuse(case, params), fuse(other, params)
                radius = params.hops * (window - 1) // 2
                for i in range(k):
                    if abs(i - m) > radius:
                        assert np.array_equal(a.snapshots[-1][i], b.snapshots[-1][i])

        single = make_case([one_hot(11)], truths=[11])
        tr = fuse(single, identity_params(theta=0.4, hops=3))
        assert np.array_equal(tr.snapshots[-1][0], tr.snapshots[0][0])


# ---------------------------------------------------------------------------
# criterion 7: unrolled-fusion gradient vs finite differences


def test_criterion_7_unrolled_gradient():
    with criterion(7, "train_phi gradient vs central FD on the toy fixture", 30.0):
        rng = np.random.default_rng(7007)
        cases = []
        for i in range(3):
            start = int(rng.integers(0, N_CLASSES - 4 + 1))
            rows = []
            for truth in range(start, start + 4):
                base = np.full(N_CLASSES, 0.01)
                base[truth] = 0.5
                if truth + 1 < N_CLASSES:
                    base[truth + 1] = 0.3
                base /= base.sum()
                rows.append(rng.dirichlet(8 * base, size=5))
            cases.append(make_case(rows, truths=list(range(start, start + 4)), case_id=f"toy{i}"))

        h = 1e-5
        for hops in (1, 2, 3):
            params = identity_params(theta=0.1, hops=hops, window=3)
            un = _Unrolled(cases, params)
            phi = {d: np.eye(N_CLASSES) + 0.05 for d in phi_offsets(3)}
            _, grad = un.loss_and_grad(phi)
            worst = 0.0
            for d in phi:
                for i in range(N_CLASSES):
                    for j in range(N_CLASSES):
                        pp = {key: m.copy() for key, m in phi.items()}
                        pp[d][i, j] += h
                        lp = un.loss(pp)
                        pp[d][i, j] -= 2 * h
                        lm = un.loss(pp)
                        fd = (lp - lm) / (2 * h)
                        rel = abs(grad[d][i, j] - fd) / max(abs(grad[d][i, j]), abs(fd), 1e-6)
                        worst = max(worst, rel)
            assert worst <= 1e-4, f"hops={hops}: max relative error {worst}"


# ---------------------------------------------------------------------------
# criteria 8 and 9 share one calibrated corpus and trained parameters


_ABLATION: dict = {}


def _baseline_states(cases):
    return [[aggregate_samples(v.mc) for v in c.vertebrae] for c in cases]


def _fused_reports(cases, params):
    states = [fuse(c, params).snapshots[-1] for c in cases]
    return evaluate(cases, states)


def _make_corpus(conf: ConfusionModel, seed: int, n: int):
    cfg = GenConfig(seed=seed, n_cases=n, vertebrae_range=(5, 12), confusion=conf,
                    mc=McConfig(20, 5.0), detect=DetectConfig(boxes_per_vertebra=2, noise_rate=0.0))
    return [c for c, _ in gen_cases(cfg)]


def ablation_bundle() -> dict:
    """Calibrate the confusion model to a 0.85 baseline, then train window-5 phi.

    The bisection over the adjacent-label mass measures the argmax baseline
    on the held-out seed itself: the target is a property of that corpus, and
    the noise level is a harness knob, not a trained quantity.
    """
    if _ABLATION:
        return _ABLATION
    lo, hi = 0.20, 0.36
    conf = held = baseline = None
    for _ in range(12):
        adjacent = (lo + hi) / 2
        conf = ConfusionModel(0.40, adjacent, 0.03, 0.004)
        held = _make_corpus(conf, seed=8202, n=200)
        baseline = evaluate(held, _baseline_states(held))
        if abs(baseline.id_rate - 0.85) <= 0.01:
            break
        if baseline.id_rate > 0.85:
            lo = adjacent
        else:
            hi = adjacent
    train = _make_corpus(conf, seed=8101, n=500)

    # small deterministic learning-rate grid, chosen by final training loss
    params = identity_params(theta=0.1, hops=3, window=5)
    best = None
    for lr in (4.0, 12.0):
        trained = train_phi(train, params, TrainConfig(learning_rate=lr, epochs=600, seed=42, init="identity"))
        loss = _Unrolled(train, params).loss(trained.phi)
        if best is None or loss < best[0]:
            best = (loss, trained)
    _ABLATION.update(
        conf=conf, train=train, held=held, baseline=baseline, trained_w5=best[1], params=params
    )
    return _ABLATION


def test_criterion_8_ablation_analog():
    with criterion(8, "trained fusion beats the 0.85 baseline by >= 0.05 held out", 300.0):
        bundle = ablation_bundle()
        baseline = bundle["baseline"]
        assert abs(baseline.id_rate - 0.85) <= 0.03, f"baseline {baseline.id_rate:.4f} off target"
        fused = _fused_reports(bundle["held"], bundle["trained_w5"])
        print(f"    baseline id {baseline.id_rate:.4f} mse {baseline.mse:.4f} -> "
              f"fused id {fused.id_rate:.4f} mse {fused.mse:.4f}")
        assert fused.id_rate >= baseline.id_rate + 0.05
        assert fused.mse < baseline.mse


def test_criterion_9_parameter_sweeps():
    with criterion(9, "sweep directions: hops, theta, window monotonicity", 600.0):
        bundle = ablation_bundle()
        held = bundle["held"]
        trained = bundle["trained_w5"]

        # (a) hops = 3 at least as good as hops = 0
        at_hops = {}
        for hops in (0, 3):
            p = FusionParams(0.1, hops, 5, "index", trained.phi)
            at_hops[hops] = _fused_reports(held, p).id_rate
        print(f"    hops 0 -> {at_hops[0]:.4f}, hops 3 -> {at_hops[3]:.4f}")
        assert at_hops[3] >= at_hops[0]

        # (b) theta = 0.1 at least as good as theta = 0.5
        at_theta = {}
        for theta in (0.1, 0.5):
            p = FusionParams(theta, 3, 5, "index", trained.phi)
            at_theta[theta] = _fused_reports(held, p).id_rate
        print(f"    theta 0.1 -> {at_theta[0.1]:.4f}, theta 0.5 -> {at_theta[0.5]:.4f}")
        assert at_theta[0.1] >= at_theta[0.5]

        # (c) window 3 -> 5 -> 7 non-decreasing within one standard error
        per_window = {5: _per_case_rates(held, trained)}
        for window in (3, 7):
            params = identity_params(theta=0.1, hops=3, window=window)
            tw = train_phi(bundle["train"], params,
                           TrainConfig(learning_rate=12.0, epochs=600, seed=42, init="identity"))
            per_window[window] = _per_case_rates(held, tw)
        means = {w: float(np.mean(r)) for w, r in per_window.items()}
        print(f"    window id-rates: {means[3]:.4f} (3), {means[5]:.4f} (5), {means[7]:.4f} (7)")
        for a, b in ((3, 5), (5, 7)):
            diff = np.asarray(per_window[b]) - np.asarray(per_window[a])
            se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
            assert means[b] >= means[a] - se, f"window {b} fell below window {a} by more than one SE"


def _per_case_rates(cases, params) -> list[float]:
    states = [fuse(c, params).snapshots[-1] for c in cases]
    return list(evaluate(cases, states).per_case_id_rate)


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def _child_env() -> dict[str, str]:
    """This environment with the directory holding the imported spineid first on
    PYTHONPATH, so a child started in any working directory imports the same
    package as this test run (a relative PYTHONPATH would not resolve there)."""
    env = dict(os.environ)
    root = str(Path(spineid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _run(args: list[str], cwd) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "spineid", *args],
                          capture_output=True, cwd=cwd, env=_child_env())
    assert proc.returncode == 0, (f"spineid {args[0]} exited {proc.returncode}:\n"
                                  f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def _dir_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI subcommand is byte-identical across reruns", 120.0):
        gen_args = ["--seed", "5", "--n-cases", "2", "--k", "60", "--vmin", "3", "--vmax", "4",
                    "--boxes-per-vertebra", "10"]
        out_a, out_b = tmp_path / "gen_a", tmp_path / "gen_b"
        _run(["gen", "--out-dir", str(out_a), *gen_args], tmp_path)
        _run(["gen", "--out-dir", str(out_b), *gen_args], tmp_path)
        assert _dir_bytes(out_a) == _dir_bytes(out_b)

        corpus = out_a
        case = corpus / "case_0000.json"
        dets = corpus / "case_0000.detections.jsonl"
        cluster_flags = ["--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]

        # identical invocations, identical paths: capture bytes after each pass
        d = tmp_path / "run"
        d.mkdir()
        batch = {"tau": 0.5, "labels": [0, 0, 1, 1], "vectors": np.eye(4).tolist()}
        (d / "batch.json").write_text(json.dumps(batch))

        def one_pass() -> tuple[bytes, dict]:
            stdout = b""
            stdout += _run(["cluster", "--in", str(dets), "--out", str(d / "centers.json"), *cluster_flags], tmp_path)
            stdout += _run(["uncertainty", "--in", str(case), "--out", str(d / "case_u.json")], tmp_path)
            stdout += _run(["train-phi", "--train", str(corpus), "--lr", "1.0", "--epochs", "5",
                            "--seed", "42", "--window", "3", "--out", str(d / "phi.json")], tmp_path)
            stdout += _run(["fuse", "--case", str(d / "case_u.json"), "--params", str(d / "phi.json"),
                            "--trace", str(d / "trace.json"), "--out", str(d / "labels.json")], tmp_path)
            stdout += _run(["score", "--seq", "7,8,9,11,10"], tmp_path)
            stdout += _run(["supcon", "--in", str(d / "batch.json"), "--grad"], tmp_path)
            stdout += _run(["eval", "--cases-dir", str(corpus), "--out", str(d / "report.json"),
                            "--dump-csv", str(d / "per_class.csv")], tmp_path)
            stdout += _run(["pipeline", "--dir", str(corpus), "--out", str(d / "pipeline.json"),
                            *cluster_flags, "--window", "3"], tmp_path)
            files = {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != "batch.json"}
            return stdout, files

        first = one_pass()
        second = one_pass()
        assert first[0] == second[0], "stdout differs between identical runs"
        assert first[1] == second[1], "output files differ between identical runs"
