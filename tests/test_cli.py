"""CLI behavior: every subcommand, file outputs, and exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_case, one_hot, unit_vector_batch
from test_acceptance import _child_env
from spineid import io
from spineid.cli import build_parser, main
from spineid.domain import FusionParams, phi_offsets
from spineid.fusion import fuse, identity_params, initial_phi
from spineid.synthetic import GenConfig
from spineid.uncertainty import with_reports


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    code = main([
        "gen", "--out-dir", str(out), "--seed", "3", "--n-cases", "3",
        "--k", "60", "--vmin", "3", "--vmax", "5", "--boxes-per-vertebra", "12",
    ])
    assert code == 0
    return out


def test_gen_writes_pairs(corpus):
    cases = sorted(corpus.glob("case_*.json"))
    dets = sorted(corpus.glob("case_*.detections.jsonl"))
    assert len(cases) == 3 and len(dets) == 3
    case = io.load_case(cases[0])
    assert len(case) >= 3


def test_gen_defaults_are_the_generator_defaults():
    # the parser is built before numpy loads, so it restates them; --n-cases defaults to 10 on purpose
    args = vars(build_parser().parse_args(["gen", "--out-dir", "unused"]))
    cfg = GenConfig()
    want = {
        "seed": cfg.seed, "k": cfg.k_slices, "vmin": cfg.vertebrae_range[0], "vmax": cfg.vertebrae_range[1],
        "true_mass": cfg.confusion.true_mass, "adjacent1": cfg.confusion.adjacent1,
        "adjacent2": cfg.confusion.adjacent2, "floor": cfg.confusion.floor,
        "mc_n": cfg.mc.n_samples, "kappa": cfg.mc.concentration,
        "boxes_per_vertebra": cfg.detect.boxes_per_vertebra, "count_jitter": cfg.detect.count_jitter,
        "pos_sigma": cfg.detect.pos_sigma, "dim_sigma": cfg.detect.dim_sigma, "noise_rate": cfg.detect.noise_rate,
    }
    assert set(args) - {"command", "func", "out_dir", "n_cases"} == set(want)
    assert {name: (type(args[name]), args[name]) for name in want} == {
        name: (type(value), value) for name, value in want.items()}


@pytest.mark.parametrize("command, required", [
    ("fuse", ["--case", "c.json"]), ("pipeline", ["--dir", "d"]), ("train-phi", ["--train", "d"])])
def test_fusion_flags_are_declared_once(capsys, command, required):
    """No command gives a fusion flag a default of its own, so each starts from ``identity_params()``."""
    args = build_parser().parse_args([command, *required, "--out", "o"])
    assert [args.theta, args.hops, args.window, args.distance] == [None] * 4
    assert identity_params() == FusionParams(0.1, 3, 5, "index", initial_phi(5))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag in ("--theta THETA fusion weight", "--hops HOPS number of fusion hops",
                 "--window {1,3,5,7} neighbor window size", "--distance {index,physical} distance mode"):
        assert flag in help_text


def test_gen_memory_does_not_grow_with_the_case_count(tmp_path, capsys):
    # gen once built the whole corpus before writing it, and its peak at 40 cases was 3.8x that at 4
    def peak(n_cases):
        flags = ["--seed", "3", "--n-cases", str(n_cases), "--k", "60", "--vmin", "3", "--vmax", "4",
                 "--boxes-per-vertebra", "12"]
        tracemalloc.start()
        try:
            assert main(["gen", "--out-dir", str(tmp_path / str(n_cases)), *flags]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # first-call allocations of the modules
    assert peak(40) < 1.5 * peak(4)


def test_cluster_command(corpus, tmp_path, capsys):
    out = tmp_path / "centers.json"
    code = main([
        "cluster", "--in", str(corpus / "case_0000.detections.jsonl"),
        "--out", str(out), "--eps-pos", "6", "--min-pts", "4",
        "--eps-dim", "10", "--density-floor", "0.1",
    ])
    assert code == 0
    centers = io.load_centers(out)
    case = io.load_case(corpus / "case_0000.json")
    assert len(centers) == len(case)


def test_uncertainty_command(corpus, tmp_path):
    out = tmp_path / "case_u.json"
    assert main(["uncertainty", "--in", str(corpus / "case_0000.json"), "--out", str(out)]) == 0
    case = io.load_case(out)
    for v in case.vertebrae:
        assert v.uncertainty is not None
        assert v.fusion_weight == pytest.approx(v.uncertainty.certainty_weight)


def test_uncertainty_variance_metric(corpus, tmp_path):
    out = tmp_path / "case_u.json"
    assert main(["uncertainty", "--in", str(corpus / "case_0000.json"),
                 "--out", str(out), "--metric", "variance"]) == 0
    case = io.load_case(out)
    for v in case.vertebrae:
        assert v.fusion_weight == pytest.approx(min(1.0, max(0.0, 1 - v.uncertainty.variance / 0.25)))


def test_fuse_command_with_trace(corpus, tmp_path):
    params_path = tmp_path / "phi.json"
    io.save_fusion_params(identity_params(theta=0.1, hops=3, window=5), params_path)
    labels_path = tmp_path / "labels.json"
    trace_path = tmp_path / "trace.json"
    code = main([
        "fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
        "--hops", "2", "--theta", "0.1", "--window", "3", "--distance", "index",
        "--trace", str(trace_path), "--out", str(labels_path),
    ])
    assert code == 0
    labels = json.loads(labels_path.read_text())
    case = io.load_case(corpus / "case_0000.json")
    assert len(labels["labels"]) == len(case)
    trace = json.loads(trace_path.read_text())
    assert len(trace["snapshots"]) == 3  # hops 2 -> 3 snapshots
    for snap in trace["snapshots"]:
        for row in snap:
            assert abs(sum(row) - 1.0) <= 1e-9


def test_fuse_constrained_decode(corpus, tmp_path):
    out = tmp_path / "labels.json"
    assert main(["fuse", "--case", str(corpus / "case_0000.json"),
                 "--decode", "constrained", "--out", str(out)]) == 0
    labels = json.loads(out.read_text())["labels"]
    assert labels == list(range(labels[0], labels[0] + len(labels)))


def test_fuse_window_narrowing_from_file(corpus, tmp_path):
    params_path = tmp_path / "phi.json"
    io.save_fusion_params(identity_params(window=5), params_path)
    out = tmp_path / "labels.json"
    assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                 "--window", "3", "--out", str(out)]) == 0
    # widening beyond the stored offsets must fail validation
    assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                 "--window", "7", "--out", str(out)]) == 2


def test_fuse_window_without_params_file(corpus, tmp_path):
    # once "parameter file lacks phi matrices for offsets [-3, 3]", with no parameter file given
    case_path = corpus / "case_0000.json"
    trace_path = tmp_path / "trace.json"
    assert main(["fuse", "--case", str(case_path), "--window", "7", "--hops", "2", "--trace", str(trace_path),
                 "--out", str(tmp_path / "labels.json")]) == 0
    want = fuse(io.load_case(case_path), identity_params(hops=2, window=7))
    assert json.loads(trace_path.read_text())["snapshots"] == want.snapshots.tolist()
    assert main(["pipeline", "--dir", str(corpus), "--window", "7", "--out", str(tmp_path / "pipeline.json")]) == 0


def test_train_phi_command(corpus, tmp_path):
    out = tmp_path / "phi.json"
    code = main([
        "train-phi", "--train", str(corpus), "--init", "identity", "--lr", "1.0",
        "--epochs", "10", "--seed", "42", "--out", str(out), "--window", "3",
    ])
    assert code == 0
    params = io.load_fusion_params(out)
    assert set(params.phi) == set(phi_offsets(3))


def test_score_command(capsys):
    assert main(["score", "--seq", "7,8,9,11,10"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["score", "--seq", "23,22,21"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["score", "--seq", " 7, 8 ,9,11 ,10 "]) == 0  # spaces around an entry are stripped
    assert capsys.readouterr().out.strip() == "1"


def test_score_rejects_bad_labels(capsys):
    assert main(["score", "--seq", "7,42"]) == 2


def test_supcon_command(tmp_path, capsys):
    batch = {
        "tau": 0.5,
        "labels": [0, 0, 1, 1],
        "vectors": np.eye(4).tolist(),
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    assert main(["supcon", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("loss:")
    assert main(["supcon", "--in", str(path), "--grad"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5  # loss line + 4 gradient rows


def test_supcon_accepts_label_names(tmp_path, capsys):
    batch = {"tau": 0.5, "labels": ["T1", "T1", "L5", "L5"], "vectors": np.eye(4).tolist()}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    assert main(["supcon", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("loss:")


def test_supcon_tau_override(tmp_path, capsys):
    vecs = np.eye(4)
    batch = {"labels": [0, 0, 1, 1], "vectors": vecs.tolist()}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    assert main(["supcon", "--in", str(path), "--tau", "1000000.0"]) == 0
    loss = float(capsys.readouterr().out.split("loss:")[1])
    assert loss == pytest.approx(4 * math.log(3), rel=1e-4)


def test_eval_command_baseline(corpus, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "per_class.csv"
    code = main(["eval", "--cases-dir", str(corpus), "--out", str(report_path),
                 "--dump-csv", str(csv_path)])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert 0.0 <= rep["id_rate"] <= 1.0
    assert len(rep["confusion"]) == 24
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "class_index,class_name,truth_count,correct,id_rate"
    assert len(lines) == 25


def test_eval_with_labels_dir(corpus, tmp_path):
    labels_dir = tmp_path / "labels"
    labels_dir.mkdir()
    for case_path in corpus.glob("case_*.json"):
        if case_path.name.endswith(".detections.jsonl"):
            continue
        case = io.load_case(case_path)
        truth = case.truths
        (labels_dir / f"{case_path.stem}.labels.json").write_text(
            json.dumps({"case_id": case.case_id, "labels": truth})
        )
    report_path = tmp_path / "report.json"
    assert main(["eval", "--cases-dir", str(corpus), "--labels-dir", str(labels_dir),
                 "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["id_rate"] == 1.0


def test_pipeline_command(corpus, tmp_path):
    report_path = tmp_path / "pipeline.json"
    code = main([
        "pipeline", "--dir", str(corpus), "--out", str(report_path),
        "--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1",
        "--theta", "0.1", "--hops", "3", "--window", "3",
    ])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["cases"] == 3
    assert rep["clustering"]["count_match_rate"] == 1.0
    assert rep["clustering"]["mean_center_error"] < 3.0
    assert "baseline" in rep and "fused" in rep


def test_case_dir_skips_spineid_outputs(corpus, tmp_path, capsys):
    """eval, train-phi and pipeline read the same cases when the directory also holds spineid's per-case outputs."""
    commands = [
        ["eval", "--cases-dir", str(corpus)],
        ["train-phi", "--train", str(corpus), "--epochs", "2", "--window", "3", "--out", str(tmp_path / "phi.json")],
        ["pipeline", "--dir", str(corpus), "--out", str(tmp_path / "pipeline.json")],
    ]

    def printed():
        out = {}
        for argv in commands:
            assert main(argv) == 0, capsys.readouterr().err
            out[argv[0]] = capsys.readouterr().out
        return out

    bare = printed()
    for case_path in sorted(corpus.glob("case_*.json")):
        stem = case_path.name.removesuffix(".json")
        assert main(["fuse", "--case", str(case_path), "--trace", str(corpus / f"{stem}.trace.json"),
                     "--out", str(corpus / f"{stem}.labels.json")]) == 0
    assert main(["eval", "--cases-dir", str(corpus), "--out", str(corpus / "eval.report.json")]) == 0
    assert main(["pipeline", "--dir", str(corpus), "--out", str(corpus / "pipeline.report.json")]) == 0
    capsys.readouterr()
    assert {p.name.split(".", 1)[1] for p in corpus.glob("*.json")} == \
        {"json", "trace.json", "labels.json", "report.json"}
    assert printed() == bare



_CASE_DIR_COMMANDS = {
    "eval": lambda corpus, out: ["eval", "--cases-dir", str(corpus), "--out", str(out)],
    "pipeline": lambda corpus, out: ["pipeline", "--dir", str(corpus), "--out", str(out)],
    "train-phi": lambda corpus, out: ["train-phi", "--train", str(corpus), "--epochs", "2", "--window", "3",
                                      "--out", str(out)],
}


@pytest.mark.parametrize("command", sorted(_CASE_DIR_COMMANDS))
@pytest.mark.parametrize("name", ["out.json", "case_0003.json", ".json"])
def test_out_read_as_a_case_is_rejected(corpus, capsys, command, name):
    """An --out the next run would read as a case of the directory is refused before anything is written."""
    before = sorted(p.name for p in corpus.iterdir())
    assert main(_CASE_DIR_COMMANDS[command](corpus, corpus / name)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and "would be read as a case" in err and err.count("\n") == 1
    assert sorted(p.name for p in corpus.iterdir()) == before


@pytest.mark.parametrize("command", sorted(_CASE_DIR_COMMANDS))
def test_out_beside_the_cases_reruns(corpus, command):
    """A .report.json, or a name that is not *.json, inside the directory is not read back: reruns give the same bytes."""
    out = corpus / ("phi.bin" if command == "train-phi" else "run.report.json")
    argv = _CASE_DIR_COMMANDS[command](corpus, out)
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first

class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["cluster", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 4

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fuse", "--case", str(bad), "--out", str(tmp_path / "o")]) == 4

    def test_invariant_violation_is_validation_error(self, tmp_path):
        case = make_case([one_hot(7), one_hot(8)], truths=[7, 8])
        data = io.case_to_dict(case)
        data["vertebrae"][1]["truth"] = 10
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("subcommand", ["eval", "train-phi", "pipeline"])
    def test_case_invariant_error_names_the_file(self, corpus, tmp_path, capsys, subcommand):
        # one bad case among many: the message must say which file it is
        path = corpus / "case_0001.json"
        data = json.loads(path.read_text())
        data["vertebrae"][0]["truth"], data["vertebrae"][1]["truth"] = 1, 6
        path.write_text(json.dumps(data))
        flag = {"eval": "--cases-dir", "train-phi": "--train", "pipeline": "--dir"}[subcommand]
        assert main([subcommand, flag, str(corpus), "--out", str(tmp_path / "o.report.json")]) == 2
        assert capsys.readouterr().err == ("error: truth labels must increase by exactly 1 along the case, "
                                           f"got C2 -> C7 at position 0 [{path}]\n")

    def test_bad_sample_row_is_named_by_vertebra_and_row(self, corpus, tmp_path, capsys):
        # the rows of a case are checked as one block; the message still counts rows per vertebra
        path = corpus / "case_0000.json"
        data = json.loads(path.read_text())
        row = data["vertebrae"][2]["mc"]["samples"][4]
        row[0] += 0.5
        path.write_text(json.dumps(data))
        assert main(["uncertainty", "--in", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (f"error: samples row 4 of vertebra 2 must sum to 1 within 1e-06, "
                                           f"got {float(np.sum(row))!r} [{path}]\n")

    @pytest.mark.parametrize("vertebra, samples, shape", [
        (1, [], "(0,)"),
        (2, [[0.5] * 23], "(1, 23)"),
        (0, [1.0 / 24] * 24, "(24,)"),
    ], ids=["empty", "short-row", "one-row-unnested"])
    def test_bad_sample_shape_is_named_by_vertebra(self, corpus, tmp_path, capsys, vertebra, samples, shape):
        path = corpus / "case_0000.json"
        data = json.loads(path.read_text())
        data["vertebrae"][vertebra]["mc"]["samples"] = samples
        path.write_text(json.dumps(data))
        assert main(["uncertainty", "--in", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (f"error: vertebra {vertebra}: samples must have shape (n, 24) with "
                                           f"n >= 1, got {shape} [{path}]\n")

    def test_phi_key_written_twice_is_parse_error(self, corpus, tmp_path, capsys):
        # json.loads keeps the last of two equal keys, so the second matrix used to win silently
        text = json.dumps(io.params_to_dict(identity_params(window=3)), indent=2)
        flat = json.dumps([0.5] * 576)
        text = text.replace('"+1": [', f'"+1": {flat},\n    "+1": [', 1)
        params_path = tmp_path / "phi.json"
        params_path.write_text(text)
        assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                     "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == f"error: key '+1' is written twice in one object [{params_path}]\n"

    def test_divergence_is_exit_3(self, tmp_path, capsys):
        # one-hot samples put zero mass on a neighbor's truth: the starting phi's loss is infinite, and epoch 0
        # stops before its backward pass divides by the zero entries
        case_dir = tmp_path / "train"
        case_dir.mkdir()
        case = make_case([one_hot(4), one_hot(5)], truths=[5, 6])
        io.save_case(case, case_dir / "case_0000.json")
        assert main(["train-phi", "--train", str(case_dir), "--lr", "0.5", "--epochs", "3",
                     "--out", str(tmp_path / "phi.json"), "--window", "3", "--hops", "1"]) == 3
        assert capsys.readouterr().err == "error: training loss is not finite (epoch 0)\n"
        assert not (tmp_path / "phi.json").exists()

    @pytest.mark.parametrize("init", ["identity", "uniform_small"])
    def test_negative_train_seed_is_validation_error(self, corpus, tmp_path, capsys, init):
        # uniform_small ended in numpy's traceback; identity ignored the seed and exited 0
        assert main(["train-phi", "--train", str(corpus), "--epochs", "1", "--seed", "-1", "--init", init,
                     "--out", str(tmp_path / "phi.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "phi.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--noise-rate", "0.9999999", "--vmin", "1", "--vmax", "1", "--boxes-per-vertebra", "1"],
        ["--boxes-per-vertebra", "100000000000"],
        ["--vmin", "24", "--vmax", "24", "--boxes-per-vertebra", "30000", "--count-jitter", "0", "--noise-rate", "0"],
        ["--vmin", "24", "--vmax", "24", "--boxes-per-vertebra", "20000", "--count-jitter", "0.9",
         "--noise-rate", "0"],
        ["--mc-n", "1000000"],
    ], ids=["noise-rate", "boxes-per-vertebra", "vmax", "count-jitter", "mc-n"])
    def test_gen_refuses_a_case_past_the_cap(self, tmp_path, capsys, flags):
        # the noise-rate flags once drew about 2e7 noise boxes one at a time, past 6.8 GB of memory
        assert main(["gen", "--out-dir", str(tmp_path / "out"), "--n-cases", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vertebrae_range max ") and err.count("\n") == 1
        assert "per case" in err
        assert not (tmp_path / "out").exists()

    def test_negative_gen_seed_is_validation_error(self, tmp_path, capsys):
        # once numpy's "expected non-negative integer" traceback, exit 1
        assert main(["gen", "--out-dir", str(tmp_path / "out"), "--seed", "-1", "--n-cases", "1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--pos-sigma", "--dim-sigma"])
    def test_non_finite_detector_sigma_is_validation_error(self, tmp_path, capsys, flag, value):
        # nan and inf positions once ended in a traceback; a nan dim-sigma wrote 1 x 1 boxes with exit 0
        assert main(["gen", "--out-dir", str(tmp_path / "out"), "--n-cases", "1", flag, value]) == 2
        name = flag.removeprefix("--").replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite and non-negative, got {value}\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_slice_jitter_is_validation_error(self, tmp_path, capsys):
        # once an OverflowError traceback from round(), exit 1
        out = tmp_path / "out"
        assert main(["gen", "--out-dir", str(out), "--n-cases", "2", "--pos-sigma", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: pos_sigma 1e+308 is too large: a jittered slice position overflows float64\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        # seed 5's one box per run draws finite slice jitters and an overflowing center jitter
        (["--seed", "5", "--vmin", "1", "--vmax", "1", "--boxes-per-vertebra", "1", "--noise-rate", "0",
          "--pos-sigma", "1e308"], "pos_sigma 1e+308 is too large: a jittered box center overflows float64"),
        (["--dim-sigma", "1e308"], "dim_sigma 1e+308 is too large: a jittered box size overflows float64"),
    ], ids=["center", "size"])
    def test_overflowing_box_jitter_names_its_sigma(self, tmp_path, capsys, flags, message):
        # once `error: detections[1]: cx must be finite` and `w must be finite`, about a file never given
        out = tmp_path / "out"
        assert main(["gen", "--out-dir", str(out), "--n-cases", "1", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(_CASE_DIR_COMMANDS))
    def test_two_files_of_one_case_are_rejected(self, corpus, tmp_path, capsys, command):
        # the copy was read as a second case: eval scored its vertebrae twice, train-phi trained on it twice
        copy = corpus / "case_0000.u.json"
        assert main(["uncertainty", "--in", str(corpus / "case_0000.json"), "--out", str(copy)]) == 0
        capsys.readouterr()
        assert main(_CASE_DIR_COMMANDS[command](corpus, tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {str(corpus / 'case_0000.json')!r} and {str(copy)!r} both hold case 'case_0000'; "
                       f"keep one of them in {str(corpus)!r}\n")
        assert not (tmp_path / "out.json").exists()

    # hops 2.9, "2" and true, and window 5.0, once ran as the integer they truncate or parse to, with exit 0
    @pytest.mark.parametrize("field, value", [
        ("hops", "x"), ("phi", []), ("theta", "x"), ("hops", 2.9), ("hops", "2"), ("hops", True), ("window", 5.0),
        ("theta", "0.1"),
    ], ids=["hops-str", "phi-list", "theta-str", "hops-float", "hops-digit-str", "hops-bool", "window-float",
            "theta-digit-str"])
    def test_bad_phi_field_is_validation_error(self, corpus, tmp_path, capsys, field, value):
        data = io.params_to_dict(identity_params())
        data[field] = value
        params_path = tmp_path / "phi.json"
        params_path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value", [("position", "x"), ("mean_dims", ["x", 1.0])],
                             ids=["position-str", "mean-dims-str"])
    def test_bad_center_field_is_validation_error(self, corpus, tmp_path, capsys, field, value):
        data = json.loads((corpus / "case_0000.json").read_text())
        data["vertebrae"][0]["center"][field] = value
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(case_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value", [
        ("vectors", "x"),
        ("vectors", [[1e308, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
        ("labels", [[0], [0], [1], [1]]),
        ("tau", "x"),
        ("tau", "0.5"),
    ], ids=["vectors-str", "vectors-overflow", "labels-nested", "tau-str", "tau-digit-str"])
    def test_bad_batch_field_is_validation_error(self, tmp_path, capsys, field, value):
        batch = {"tau": 0.5, "labels": [0, 0, 1, 1], "vectors": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]}
        batch[field] = value
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["supcon", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("subcommand, name, content, code", [
        ("fuse", "case.json", b'{"case_id": "\xff"}', 4),
        ("cluster", "d.detections.jsonl", b'{"case_id": "c", "volume_shape": [10, 10, 10], "k": 5}\n\xfe\n', 4),
        ("cluster", "d.detections.jsonl", b'{"case_id": "c", "volume_shape": 5, "k": 5}\n', 2),
        ("cluster", "d.detections.jsonl", b'{"case_id": "c", "volume_shape": ["x", 1, 1], "k": 5}\n', 2),
        ("cluster", "d.detections.jsonl", b'{"case_id": "c", "volume_shape": [10, 10, 10], "k": 5}\n'
                                          b'{"plane": "sagittal", "slice_index": 1, "cx": "x", "cy": 1, "w": 1, '
                                          b'"h": 1, "confidence": 1}\n', 2),
        ("fuse", "case.json", b"[" * 200_000, 4),
        ("cluster", "d.detections.jsonl", b"[" * 200_000, 4),
    ], ids=["case-not-utf8", "detections-not-utf8", "volume-shape-scalar", "volume-shape-str", "cx-str",
            "case-nested-too-deep", "detections-nested-too-deep"])
    def test_bad_input_file(self, tmp_path, capsys, subcommand, name, content, code):
        path = tmp_path / name
        path.write_bytes(content)
        flag = "--case" if subcommand == "fuse" else "--in"
        assert main([subcommand, flag, str(path), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, n_boxes, value", [("w", 40, 1e200), ("cy", 1, 1e300)],
                             ids=["w-1e200", "cy-1e300"])
    def test_unmeasurable_detections_are_validation_error(self, corpus, tmp_path, capsys, field, n_boxes, value):
        header, *lines = (corpus / "case_0000.detections.jsonl").read_text().splitlines()
        boxes = [json.loads(line) for line in lines]
        for box in boxes[:n_boxes]:
            box[field] = value
        path = tmp_path / "d.detections.jsonl"
        path.write_text("\n".join([header] + [json.dumps(box) for box in boxes]) + "\n")
        assert main(["cluster", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n_boxes", [0, 1], ids=["no-box", "one-box"])
    def test_volume_extent_beyond_int64_is_validation_error(self, tmp_path, capsys, n_boxes):
        # once an OverflowError traceback with exit 1: the slice_index rule takes the extents as int64
        box = {"plane": "sagittal", "slice_index": 1, "cx": 1.0, "cy": 1.0, "w": 1.0, "h": 1.0, "confidence": 0.5}
        header = {"case_id": "c", "volume_shape": [10, 10**30, 10], "k": 5}
        path = tmp_path / "d.detections.jsonl"
        path.write_text("\n".join(map(json.dumps, [header] + [box] * n_boxes)) + "\n")
        assert main(["cluster", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: volume_shape extents must fit in int64, got (10, {10**30}, 10) [{path}:1]\n")

    def test_overflowing_median_reports_one_line(self, tmp_path):
        # the even-count median of four cy near the float limit sums two of them to inf: numpy's overflow
        # warning and its source line were once printed above the error
        box = {"plane": "sagittal", "slice_index": 1, "cx": 1.0, "cy": 1.7e308, "w": 10.0, "h": 10.0,
               "confidence": 0.5}
        header = {"case_id": "c", "volume_shape": [10, 10, 10], "k": 5}
        path = tmp_path / "d.detections.jsonl"
        path.write_text("\n".join(map(json.dumps, [header] + [box] * 4)) + "\n")
        proc = subprocess.run([sys.executable, "-m", "spineid", "cluster", "--in", str(path),
                               "--out", str(tmp_path / "o"), "--min-pts", "2"], capture_output=True, env=_child_env())
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: position must be 3 finite numbers, got (1.0, 1.0, inf)\n"

    def test_overflowing_box_area_is_silent(self, tmp_path):
        # the six boxes' areas, 1e200 squared, overflow to inf: numpy's overflow warning was once printed, and
        # under PYTHONWARNINGS=error (set by _child_env) raised, exiting 1
        header = {"case_id": "c", "volume_shape": [40, 40, 40], "k": 10}
        boxes = [{"plane": "sagittal", "slice_index": 5 + n // 3, "cx": 10, "cy": 20.0 + n / 10, "w": 1e200,
                  "h": 1e200, "confidence": 0.9} for n in range(6)]
        path, out = tmp_path / "d.detections.jsonl", tmp_path / "centers.json"
        path.write_text("\n".join(map(json.dumps, [header] + boxes)) + "\n")
        proc = subprocess.run([sys.executable, "-m", "spineid", "cluster", "--in", str(path), "--out", str(out),
                               "--eps-pos", "6", "--min-pts", "2", "--eps-dim", "10", "--density-floor", "0.1"],
                              capture_output=True, env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        [center] = io.load_centers(out)
        assert center.mean_dims == (1e200, 1e200) and center.member_count == 6

    @pytest.mark.parametrize("first, second", [(1.4e154, 1.5e154), (1.5e154, 1.4e154)])
    def test_infinite_box_areas_tie_to_the_lower_label(self, tmp_path, capsys, first, second):
        # two dimension clusters of six boxes in one position cluster, every area past the float range: the
        # tie goes to the lower label, the cluster of the first box, whichever dims it has
        header = {"case_id": "c", "volume_shape": [40, 40, 40], "k": 10}
        boxes = [{"plane": "sagittal", "slice_index": 5 + n % 2, "cx": 10, "cy": 20.0 + n / 10,
                  "w": (first, second)[n % 2], "h": (first, second)[n % 2], "confidence": 0.9} for n in range(12)]
        path, out = tmp_path / "d.detections.jsonl", tmp_path / "centers.json"
        path.write_text("\n".join(map(json.dumps, [header] + boxes)) + "\n")
        assert main(["cluster", "--in", str(path), "--out", str(out),
                     "--eps-pos", "6", "--min-pts", "2", "--eps-dim", "10", "--density-floor", "0.1"]) == 0
        assert capsys.readouterr().err == ""
        [center] = io.load_centers(out)
        assert center.mean_dims == (first, first) and center.member_count == 6

    @pytest.mark.parametrize("record", ["samples", "mean_probs"])
    def test_overflowing_probabilities_are_validation_error(self, corpus, tmp_path, capsys, record):
        path = tmp_path / "case.json"
        assert main(["uncertainty", "--in", str(corpus / "case_0000.json"), "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        vertebra = data["vertebrae"][0]
        if record == "samples":
            vertebra["mc"]["samples"][0] = [1e308] * 24
        else:
            vertebra["uncertainty"]["mean_probs"] = [1e308] * 24
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["uncertainty", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("label", [-1, 99, "truth-24"])
    def test_out_of_range_label_is_validation_error(self, corpus, tmp_path, capsys, label):
        labels_dir = tmp_path / "labels"
        labels_dir.mkdir()
        for case_path in sorted(corpus.glob("case_*.json")):
            case = io.load_case(case_path)
            labels = case.truths
            if case_path.stem == "case_0001":
                labels[1] = labels[1] - 24 if label == "truth-24" else label
            (labels_dir / f"{case_path.stem}.labels.json").write_text(json.dumps({"labels": labels}))
        assert main(["eval", "--cases-dir", str(corpus), "--labels-dir", str(labels_dir),
                     "--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: case 'case_0001': predicted label") and "position 1" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_fusion_is_validation_error(self, corpus, tmp_path, capsys):
        data = io.params_to_dict(identity_params(window=3))
        data["phi"] = {key: [1e308] * len(flat) for key, flat in data["phi"].items()}
        params_path = tmp_path / "phi.json"
        params_path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fusion overflowed at hop 1") and err.count("\n") == 1

    @pytest.mark.parametrize("vertebra, field, value", [
        (0, "truth", 17.9), (1, "truth", "18"), (0, "member_count", 7.5), (0, "z_rank", False), (2, "z_rank", 2.0),
    ], ids=["truth-float", "truth-str", "member-count-float", "z-rank-bool", "z-rank-float"])
    def test_case_integer_fields_must_be_integers(self, tmp_path, capsys, vertebra, field, value):
        # each once read as the integer it truncates or parses to, with exit 0
        data = io.case_to_dict(make_case([one_hot(t) for t in (17, 18, 19)], truths=[17, 18, 19]))
        record = data["vertebrae"][vertebra]
        (record if field == "truth" else record["center"])[field] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        assert main(["uncertainty", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {field!r} has an invalid value") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("cx", "3.5"), ("h", "20"), ("confidence", True)],
                             ids=["cx-digit-str", "h-digit-str", "confidence-bool"])
    def test_detections_float_fields_must_be_numbers(self, corpus, tmp_path, capsys, field, value):
        # each once read as the float it spells or casts to and clustered with exit 0
        header, first, *rest = (corpus / "case_0000.detections.jsonl").read_text().splitlines()
        first = json.loads(first) | {field: value}
        path = tmp_path / "d.detections.jsonl"
        path.write_text("\n".join([header, json.dumps(first), *rest]) + "\n")
        assert main(["cluster", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {field!r} has an invalid value") and err.count("\n") == 1

    @pytest.mark.parametrize("field, spoil", [
        ("fusion_weight", lambda v: True), ("fusion_weight", str), ("entropy", str), ("variance", str),
        ("certainty_weight", lambda v: True), ("position", lambda v: [v[0], True, v[2]]),
        ("mean_dims", lambda v: [str(v[0]), v[1]]),
    ], ids=["fusion-weight-bool", "fusion-weight-str", "entropy-str", "variance-str", "certainty-weight-bool",
            "position-bool", "mean-dims-digit-str"])
    def test_case_float_fields_must_be_numbers(self, tmp_path, capsys, field, spoil):
        # each once read as the float it spells or casts to, and fused with exit 0
        data = io.case_to_dict(with_reports(make_case([one_hot(t) for t in (17, 18, 19)], truths=[17, 18, 19])))
        record = data["vertebrae"][1]
        holder = next(r for r in (record, record["uncertainty"], record["center"]) if field in r)
        holder[field] = spoil(holder[field])
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {field!r} has an invalid value") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["k", "volume_shape", "slice_index"])
    def test_detections_integer_fields_must_be_integers(self, corpus, tmp_path, capsys, field):
        # each once read as the integer it truncates to and clustered with exit 0
        header, first, *rest = (corpus / "case_0000.detections.jsonl").read_text().splitlines()
        header, first = json.loads(header), json.loads(first)
        if field == "k":
            header["k"] += 0.9
        elif field == "volume_shape":
            header["volume_shape"][0] += 0.5
        else:
            first["slice_index"] += 0.5
        path = tmp_path / "d.detections.jsonl"
        path.write_text("\n".join([json.dumps(header), json.dumps(first), *rest]) + "\n")
        assert main(["cluster", "--in", str(path), "--out", str(tmp_path / "o"), "--eps-pos", "6",
                     "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]) == 2
        err = capsys.readouterr().err
        name = "slice_count_per_plane" if field == "k" else field  # the DetectionSet field the file key "k" fills
        assert err.startswith(f"error: field {name!r} has an invalid value") and err.count("\n") == 1

    def test_pipeline_names_a_bad_detections_file(self, corpus, tmp_path, capsys):
        # the message once named no file, so the bad one of the directory's detections was not known
        path = corpus / "case_0001.detections.jsonl"
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, json.dumps(json.loads(first) | {"h": 0}), *rest]) + "\n")
        assert main(["pipeline", "--dir", str(corpus), "--out", str(tmp_path / "pipeline.json")]) == 2
        assert capsys.readouterr().err == f"error: detections[0]: h must be positive, got 0.0 [{path}]\n"

    @pytest.mark.parametrize("subcommand", ["cluster", "pipeline"])
    @pytest.mark.parametrize("all_flags", [True, False])
    def test_detections_without_boxes(self, corpus, tmp_path, capsys, subcommand, all_flags):
        # with every cluster flag given, the error once blamed the defaults that no flag left to derive
        path = corpus / "case_0001.detections.jsonl"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        flags = ["--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]
        flags = flags if all_flags else flags[:2]
        args = ["cluster", "--in", str(path)] if subcommand == "cluster" else ["pipeline", "--dir", str(corpus)]
        assert main([*args, "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err == ("error: detection set 'case_0001' is empty\n" if all_flags
                       else "error: cannot derive defaults from an empty detection set\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, ["c"], {"id": "c"}],
                             ids=["null", "int", "float", "bool", "list", "object"])
    @pytest.mark.parametrize("subcommand", ["cluster", "fuse"])
    def test_case_id_must_be_a_string(self, corpus, tmp_path, capsys, subcommand, value):
        # each once read as its str(), so a null case_id clustered as case 'None' with exit 0
        if subcommand == "cluster":
            header, *boxes = (corpus / "case_0000.detections.jsonl").read_text().splitlines()
            path = tmp_path / "d.detections.jsonl"
            path.write_text("\n".join([json.dumps(json.loads(header) | {"case_id": value}), *boxes]) + "\n")
            args = ["cluster", "--in", str(path)]
        else:
            path = tmp_path / "case.json"
            path.write_text(json.dumps(json.loads((corpus / "case_0000.json").read_text()) | {"case_id": value}))
            args = ["fuse", "--case", str(path)]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'case_id' has an invalid value") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, flag", [("fuse", "--case"), ("train-phi", "--train")])
    def test_u_metric_flag_is_gone(self, tmp_path, capsys, subcommand, flag):
        # fusion reads the weights the uncertainty stage stored; only pipeline picks a metric
        with pytest.raises(SystemExit) as exc:
            main([subcommand, flag, str(tmp_path), "--u-metric", "entropy", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u-metric entropy" in capsys.readouterr().err

    def test_non_integer_score_sequence_is_validation_error(self, capsys):
        # int() alone would read "1_0" as 10 and the Arabic-Indic digit three as 3
        for seq in ["1,a", "1_0,3", "0_3,2,\u0663", "+3,4"]:
            assert main(["score", "--seq", seq]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --seq must list comma-separated label indices, got {seq!r}\n"

    @pytest.mark.parametrize("content, code", [
        ("{not json", 4),
        ('{"case_id": "c"}', 4),
        ('{"labels": ["a"]}', 2),
    ], ids=["not-json", "no-labels-key", "label-not-int"])
    def test_bad_labels_file(self, corpus, tmp_path, capsys, content, code):
        labels_dir = tmp_path / "labels"
        labels_dir.mkdir()
        for case_path in corpus.glob("case_*.json"):
            (labels_dir / f"{case_path.stem}.labels.json").write_text(content)
        assert main(["eval", "--cases-dir", str(corpus), "--labels-dir", str(labels_dir)]) == code
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("labels", ['"123"', "[1.9, 2.9, 3.9]", "[true, 2, 3]"],
                             ids=["digit-string", "floats", "bool"])
    def test_labels_must_be_a_list_of_integers(self, tmp_path, capsys, labels):
        # each of these once read as [1, 2, 3], the case's truths
        cases_dir, labels_dir = tmp_path / "cases", tmp_path / "labels"
        cases_dir.mkdir()
        labels_dir.mkdir()
        io.save_case(make_case([one_hot(t) for t in (1, 2, 3)], truths=[1, 2, 3]), cases_dir / "case_0000.json")
        (labels_dir / "case_0000.labels.json").write_text('{"labels": %s}' % labels)
        assert main(["eval", "--cases-dir", str(cases_dir), "--labels-dir", str(labels_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'labels' has an invalid value") and err.count("\n") == 1

    def test_overflowing_physical_distance_is_validation_error(self, tmp_path, capsys):
        case = make_case([one_hot(t) for t in (4, 5, 6)], truths=[4, 5, 6],
                         positions=[(0.0, 0.0, 1e200), (0.0, 0.0, 0.0), (0.0, 0.0, -1e200)])
        io.save_case(case, tmp_path / "case.json")
        assert main(["fuse", "--case", str(tmp_path / "case.json"), "--distance", "physical",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vertebrae 2 and 0 lie too far apart") and err.count("\n") == 1

    @pytest.mark.parametrize("labels", [[True, True, False, False], [1.0, 1.9, 0.2, 0.0], "L1L1L2L2"],
                             ids=["bools", "floats", "string"])
    def test_batch_labels_must_be_names_or_integers(self, tmp_path, capsys, labels):
        # the bools and floats once read as [1, 1, 0, 0]
        batch = {"tau": 0.5, "labels": labels, "vectors": np.eye(4).tolist()}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["supcon", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'labels' has an invalid value") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["0.5", True], ids=["digit-str", "bool"])
    def test_batch_vectors_must_be_numbers(self, tmp_path, capsys, entry):
        # numpy once parsed "0.5" and read true as 1.0
        vectors = np.eye(4).tolist()
        vectors[2][1] = entry
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"tau": 0.5, "labels": [0, 0, 1, 1], "vectors": vectors}))
        assert main(["supcon", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'vectors' has an invalid value") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["0.5", True], ids=["digit-str", "bool"])
    def test_phi_entries_must_be_numbers(self, corpus, tmp_path, capsys, entry):
        # numpy once parsed "0.5" and read true as 1.0
        data = io.params_to_dict(identity_params(window=3))
        data["phi"]["+1"][5] = entry
        params_path = tmp_path / "phi.json"
        params_path.write_text(json.dumps(data))
        assert main(["fuse", "--case", str(corpus / "case_0000.json"), "--params", str(params_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'phi[+1]' has an invalid value") and err.count("\n") == 1

    def test_small_tau_is_divergence(self, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(unit_vector_batch()))
        assert main(["supcon", "--in", str(path), "--tau", "0.001"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: supervised contrastive loss is not finite") and err.count("\n") == 1


COLD_PATH = """
import json, sys
from spineid.cli import main

def loaded(root):
    return sorted(m for m in sys.modules if m.split(".")[0] == root)

code = main(sys.argv[1:])
print(json.dumps({"code": code, "spineid": loaded("spineid"), "scipy": loaded("scipy"),
                  "numpy": "numpy" in sys.modules}))
"""

# Runs one command in a process where every scipy import fails.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from spineid.cli import main
sys.exit(main(sys.argv[1:]))
"""

# The spineid modules a fresh process holds after one command, besides
# spineid, spineid.cli and spineid.errors.
COMMAND_MODULES = {
    "gen": ["domain", "io", "labels", "synthetic"],
    "score": ["labels"],
    "supcon": ["domain", "io", "labels", "losses"],
    "uncertainty": ["domain", "io", "labels", "uncertainty"],
    "fuse": ["domain", "evaluate", "fusion", "io", "labels"],
    "eval": ["domain", "evaluate", "io", "labels"],
    "train-phi": ["domain", "fusion", "io", "labels"],
    "cluster": ["clustering", "domain", "io", "labels"],
    "pipeline": ["clustering", "domain", "evaluate", "fusion", "io", "labels", "uncertainty"],
}


def test_commands_load_only_their_modules_and_never_scipy(tmp_path):
    """A fresh process loads only the spineid modules its command calls, never scipy, not even when it
    clusters, and numpy whenever it touches an array: ``score`` is the one command that runs without it."""
    (tmp_path / "batch.json").write_text(json.dumps(unit_vector_batch()))
    assert main(["gen", "--out-dir", str(tmp_path / "corpus"), "--seed", "3", "--n-cases", "1", "--k", "60",
                 "--vmin", "3", "--vmax", "4", "--boxes-per-vertebra", "12"]) == 0
    cluster_flags = ["--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]
    commands = [
        ["gen", "--out-dir", "gen", "--n-cases", "1", "--k", "20", "--vmin", "1", "--vmax", "1"],
        ["score", "--seq", "3,4,6,5"],
        ["supcon", "--in", "batch.json", "--grad"],
        ["uncertainty", "--in", "corpus/case_0000.json", "--out", "u.json"],
        ["fuse", "--case", "u.json", "--out", "labels.json"],
        ["eval", "--cases-dir", "corpus"],
        ["train-phi", "--train", "corpus", "--epochs", "2", "--window", "3", "--out", "phi.json"],
        ["cluster", "--in", "corpus/case_0000.detections.jsonl", "--out", "centers.json", *cluster_flags],
        ["pipeline", "--dir", "corpus", "--out", "pipeline.json", *cluster_flags],
    ]
    runs = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", COLD_PATH, *argv], capture_output=True, cwd=tmp_path,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        runs[argv[0]] = json.loads(proc.stdout.decode().splitlines()[-1])
    base = ["spineid", "spineid.cli", "spineid.errors"]
    assert {cmd: run["spineid"] for cmd, run in runs.items()} == {
        cmd: sorted(base + [f"spineid.{m}" for m in mods]) for cmd, mods in COMMAND_MODULES.items()}
    assert {cmd: run["code"] for cmd, run in runs.items()} == dict.fromkeys(COMMAND_MODULES, 0)
    assert {cmd: run["scipy"] for cmd, run in runs.items()} == dict.fromkeys(COMMAND_MODULES, [])
    assert {cmd for cmd, run in runs.items() if not run["numpy"]} == {"score"}
    assert len(io.load_centers(tmp_path / "centers.json")) == len(io.load_case(tmp_path / "corpus" / "case_0000.json"))


def test_clustering_commands_run_without_scipy(corpus, tmp_path):
    """cluster and pipeline write the same bytes in a process where every scipy import fails."""
    cluster_flags = ["--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]
    outputs = {}
    for name, script in (("plain", "from spineid.cli import main; import sys; sys.exit(main(sys.argv[1:]))"),
                         ("no_scipy", NO_SCIPY)):
        out = tmp_path / name
        out.mkdir()
        for argv in (["cluster", "--in", str(corpus / "case_0000.detections.jsonl"), "--out", "centers.json"],
                     ["pipeline", "--dir", str(corpus), "--out", "pipeline.json"]):
            proc = subprocess.run([sys.executable, "-c", script, *argv, *cluster_flags], capture_output=True,
                                  cwd=out, env=_child_env())
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(outputs["plain"]) == ["centers.json", "pipeline.json"]
    assert outputs["no_scipy"] == outputs["plain"]


# sha256 of every output file of test_golden_cli_outputs. A different hash is
# an output change, which is made on purpose and on its own.
GOLDEN_CLI = {
    "c10/argmax/case_0000.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "c10/argmax/case_0000.trace.json": "082f84c251561713d519beb00441df302608e2702661d20c843623a2601fbf36",
    "c10/argmax/case_0001.labels.json": "46e7f695f59fae633e36998970b0aad4087cab5a16ff360b8bfade13c66336e8",
    "c10/argmax/case_0001.trace.json": "56863d194e114b0d27608d0a62818607be13585521c64d8ad816bc45091f37a4",
    "c10/argmax/eval_baseline.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/argmax/eval_baseline.json": "608f80e2b0d6269cda2b9dc4655bd7669d55a88970afea756d68b6bffa3d9b23",
    "c10/argmax/eval_fused.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/argmax/eval_fused.json": "608f80e2b0d6269cda2b9dc4655bd7669d55a88970afea756d68b6bffa3d9b23",
    "c10/argmax/eval_wrong.csv": "940ea3cfb6c59e7b8a1d159467fd15cbe9f6a26a6b350de1ef391b2213491831",
    "c10/argmax/eval_wrong.json": "484b928c70cc08e9b9c7c0b78ca30125b077a0e910f0fe2e469b5c98213ee8ce",
    "c10/argmax/pipeline.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/argmax/pipeline.json": "38abe616874fb8b5b5064998d6a92dc312051ff787b1d961cce20daea60c1151",
    "c10/case_u_entropy.json": "fbf4cbfecb578a7ba76d12f3bdc41a9609670040706d6690a8f82312aebc371a",
    "c10/case_u_variance.json": "d33fc68b3c9edd302c9b6d9a23b4b2086849e2787947f6ad8bc91e4e727f1817",
    "c10/constrained/case_0000.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "c10/constrained/case_0000.trace.json": "082f84c251561713d519beb00441df302608e2702661d20c843623a2601fbf36",
    "c10/constrained/case_0001.labels.json": "46e7f695f59fae633e36998970b0aad4087cab5a16ff360b8bfade13c66336e8",
    "c10/constrained/case_0001.trace.json": "56863d194e114b0d27608d0a62818607be13585521c64d8ad816bc45091f37a4",
    "c10/constrained/eval_baseline.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/constrained/eval_baseline.json": "608f80e2b0d6269cda2b9dc4655bd7669d55a88970afea756d68b6bffa3d9b23",
    "c10/constrained/eval_fused.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/constrained/eval_fused.json": "608f80e2b0d6269cda2b9dc4655bd7669d55a88970afea756d68b6bffa3d9b23",
    "c10/constrained/eval_wrong.csv": "940ea3cfb6c59e7b8a1d159467fd15cbe9f6a26a6b350de1ef391b2213491831",
    "c10/constrained/eval_wrong.json": "484b928c70cc08e9b9c7c0b78ca30125b077a0e910f0fe2e469b5c98213ee8ce",
    "c10/constrained/pipeline.csv": "2fa0fab567f0b5c936d910c5bfc6345370b79d6141957f21c2c84660ac771530",
    "c10/constrained/pipeline.json": "38abe616874fb8b5b5064998d6a92dc312051ff787b1d961cce20daea60c1151",
    "c10/pipeline_variance.json": "38abe616874fb8b5b5064998d6a92dc312051ff787b1d961cce20daea60c1151",
    "c10/phi.json": "7c265f46ee5b74565146d59229884cb91fbaafdc01557b7f749e592115055eb8",
    "c10/phi_flags.json": "d976f833235e6ec125f58b4644a5f5cda5981b17886666bdc97c2d550050b10b",
    "c10/stored.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "c10/stored.trace.json": "3efe3a7c5aed959097463b9bbf4cebc028d15204c5444ecf80022a9aaef63cd2",
    "confused/argmax/case_0000.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "confused/argmax/case_0000.trace.json": "5474a11e1239b1227875b9e04bb89bf4cd70be08b449313a118a5c2d64b1ee94",
    "confused/argmax/case_0001.labels.json": "ed8f42e67dc14308591f2babd7cd08a1e2a3d3f440e513b532f3731a98cb8442",
    "confused/argmax/case_0001.trace.json": "347f1a5203727262dcf4d916e49717568af9bd964ca7cc36f66ac39177f9da50",
    "confused/argmax/case_0002.labels.json": "fec35b2a6ad466fe1147c8cd1bb62f92f93bde186661af7cae82cfb8d96fcffd",
    "confused/argmax/case_0002.trace.json": "ef3b5c631306934bd9b61b5300743000feef5d39ff83d02df1441b0c7c32660c",
    "confused/argmax/eval_baseline.csv": "e0a7798da272d7aabfb07482fac4fd2f97942a45d167566991eeff3d7abc342c",
    "confused/argmax/eval_baseline.json": "2b40d70b4f015a03e6e60c36db85899790ef72a37e3534b8108d2d40f2c1017c",
    "confused/argmax/eval_fused.csv": "9c64c91db84df8c239d0545a09adee18b918dcc2adfd3be03a809b4bf6652d31",
    "confused/argmax/eval_fused.json": "28f2781435570b2ae01f8e38cbf7b80c10f72108e276e15376d0f03e0775c323",
    "confused/argmax/eval_wrong.csv": "d3c7f034d7f0ed0209d37c3c52a325b7fdc3ae16d9f8c64371389d3281817002",
    "confused/argmax/eval_wrong.json": "0d4958aca411c595212cd48567c215d198ed4a9549e051d528f2eef256d2922d",
    "confused/argmax/pipeline.csv": "82b32cdb6d06edf8b627d06388803612f5eefe6cd966d6d8336c0ed3369c246b",
    "confused/argmax/pipeline.json": "29ecc5c23c2e2f2d0ae5a42ee38bca9581cf24509123abc79308605ddbe8a4b9",
    "confused/case_u_entropy.json": "ed5cc8ea8e9edbfd20786812b6e6802bfd101adb4a5fa13a5577ba209f5cd334",
    "confused/case_u_variance.json": "45c190ed84828968168d4204643e93fe7390819fe300f4f15910fb78ba2b37c2",
    "confused/constrained/case_0000.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "confused/constrained/case_0000.trace.json": "5474a11e1239b1227875b9e04bb89bf4cd70be08b449313a118a5c2d64b1ee94",
    "confused/constrained/case_0001.labels.json": "719949b18a4661166ff37f9f8c33f8d50d3c1f005252fef532f698d04c08b380",
    "confused/constrained/case_0001.trace.json": "347f1a5203727262dcf4d916e49717568af9bd964ca7cc36f66ac39177f9da50",
    "confused/constrained/case_0002.labels.json": "13a5ce6a8d5055e8196ac85859e4574ec94338579b4cd2a7b72682e593abb509",
    "confused/constrained/case_0002.trace.json": "ef3b5c631306934bd9b61b5300743000feef5d39ff83d02df1441b0c7c32660c",
    "confused/constrained/eval_baseline.csv": "b006752ce3997bbf9341027b45cc078cfd08a36fc45fcc9b12294be4f68993f5",
    "confused/constrained/eval_baseline.json": "a568da9371da7409eac9bd9cbe3473fb1d2e2ec67ff617e4e2358d450cd7757f",
    "confused/constrained/eval_fused.csv": "b006752ce3997bbf9341027b45cc078cfd08a36fc45fcc9b12294be4f68993f5",
    "confused/constrained/eval_fused.json": "a568da9371da7409eac9bd9cbe3473fb1d2e2ec67ff617e4e2358d450cd7757f",
    "confused/constrained/eval_wrong.csv": "d3c7f034d7f0ed0209d37c3c52a325b7fdc3ae16d9f8c64371389d3281817002",
    "confused/constrained/eval_wrong.json": "0d4958aca411c595212cd48567c215d198ed4a9549e051d528f2eef256d2922d",
    "confused/constrained/pipeline.csv": "b006752ce3997bbf9341027b45cc078cfd08a36fc45fcc9b12294be4f68993f5",
    "confused/constrained/pipeline.json": "055369eda42d6db978736dea09e1ceeced9c0d62c938e435596d2ebda8f8a51d",
    "confused/pipeline_variance.json": "09824f3f754f5bc373856b290e4488efcf21a794c7eddfddc37ce6d1d93f2c1b",
    "confused/phi.json": "5b85c63a4df75375f7b0d1d984190316dfd6d4007b63896284d4789987a3e241",
    "confused/phi_flags.json": "41d65931e1e102cedb59855c09f555cb523f1cf6b3d443c0b5e8f5d2b4611b9b",
    "confused/stored.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "confused/stored.trace.json": "226d0a2efc2cd49aba5cf00b49de62223b65260242d38c6c2a534a4f79d84481",
}


def test_golden_cli_outputs(tmp_path):
    """Byte pins on criterion 10's gen corpus and on a confused one from the same seed.

    Covers ``uncertainty`` (both metrics), ``fuse --trace`` (argmax and
    constrained decoding, computed and stored weights), ``eval --out
    --dump-csv`` on fused, baseline and wrong labels, ``pipeline``, and
    ``train-phi`` with the default and with given fusion flags.
    """
    gen = ["gen", "--seed", "5", "--n-cases", "2", "--k", "60", "--vmin", "3", "--vmax", "4",
           "--boxes-per-vertebra", "10"]
    confused = ["--n-cases", "3", "--vmax", "6", "--true-mass", "0.4", "--adjacent1", "0.29",
                "--adjacent2", "0.03", "--floor", "0.004", "--kappa", "5"]
    cluster_flags = ["--eps-pos", "6", "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1"]
    out = tmp_path / "out"
    runs = []
    for name, extra in (("c10", []), ("confused", confused)):
        corpus = tmp_path / name
        assert main([*gen, *extra, "--out-dir", str(corpus)]) == 0
        stems = sorted(p.stem for p in corpus.glob("case_*.json"))
        runs += [["uncertainty", "--in", str(corpus / "case_0000.json"), "--metric", metric,
                  "--out", str(out / name / f"case_u_{metric}.json")] for metric in ("entropy", "variance")]
        runs.append(["fuse", "--case", str(out / name / "case_u_variance.json"),
                     "--trace", str(out / name / "stored.trace.json"), "--out", str(out / name / "stored.labels.json")])
        wrong = out / name / "wrong"
        wrong.mkdir(parents=True)
        for i, stem in enumerate(stems):
            truth = io.load_case(corpus / f"{stem}.json").truths
            labels = [(t + i + j) % 24 for j, t in enumerate(truth)]
            (wrong / f"{stem}.labels.json").write_text(json.dumps({"labels": labels}))
        for decode in ("argmax", "constrained"):
            d = out / name / decode
            d.mkdir()
            runs += [["fuse", "--case", str(corpus / f"{stem}.json"), "--decode", decode,
                      "--trace", str(d / f"{stem}.trace.json"), "--out", str(d / f"{stem}.labels.json")]
                     for stem in stems]
            for labels_dir, tag in ((None, "baseline"), (d, "fused"), (wrong, "wrong")):
                runs.append(["eval", "--cases-dir", str(corpus), "--decode", decode,
                             *(["--labels-dir", str(labels_dir)] if labels_dir else []),
                             "--out", str(d / f"eval_{tag}.json"), "--dump-csv", str(d / f"eval_{tag}.csv")])
            runs.append(["pipeline", "--dir", str(corpus), "--decode", decode, *cluster_flags, "--window", "3",
                         "--out", str(d / "pipeline.json"), "--dump-csv", str(d / "pipeline.csv")])
        runs.append(["pipeline", "--dir", str(corpus), "--u-metric", "variance", *cluster_flags,
                     "--out", str(out / name / "pipeline_variance.json")])
        runs += [["train-phi", "--train", str(corpus), "--epochs", "5", "--out", str(out / name / "phi.json")],
                 ["train-phi", "--train", str(corpus), "--epochs", "5", "--lr", "0.5", "--init", "uniform_small",
                  "--theta", "0.2", "--hops", "2", "--window", "3", "--distance", "physical",
                  "--out", str(out / name / "phi_flags.json")]]
    for args in runs:
        assert main(args) == 0, args
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file() and p.parent.name != "wrong"}
    assert got == GOLDEN_CLI
