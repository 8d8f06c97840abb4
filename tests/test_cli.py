"""CLI behavior: every subcommand, file outputs, and exit codes."""

import json
import math

import numpy as np
import pytest

from conftest import make_case, one_hot
from spineid import io
from spineid.cli import main
from spineid.domain import phi_offsets
from spineid.fusion import identity_params


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
        truth = [t.index for t in case.truths]
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

    def test_divergence_is_exit_3(self, tmp_path):
        # one-hot samples put zero mass on a neighbor's truth: infinite loss
        case_dir = tmp_path / "train"
        case_dir.mkdir()
        case = make_case([one_hot(4), one_hot(5)], truths=[5, 6])
        io.save_case(case, case_dir / "case_0000.json")
        assert main(["train-phi", "--train", str(case_dir), "--lr", "0.5",
                     "--epochs", "3", "--out", str(tmp_path / "phi.json"), "--window", "3"]) == 3

    @pytest.mark.parametrize("field, value", [("hops", "x"), ("phi", []), ("theta", "x")],
                             ids=["hops-str", "phi-list", "theta-str"])
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
    ], ids=["vectors-str", "vectors-overflow", "labels-nested", "tau-str"])
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
    ], ids=["case-not-utf8", "detections-not-utf8", "volume-shape-scalar", "volume-shape-str", "cx-str"])
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

    def test_non_integer_score_sequence_is_validation_error(self, capsys):
        assert main(["score", "--seq", "1,a"]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
