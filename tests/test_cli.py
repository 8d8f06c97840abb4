"""CLI behavior: every subcommand, file outputs, and exit codes."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_case, one_hot, unit_vector_batch
from test_acceptance import _child_env
from spineid import io
from spineid.cli import main
from spineid.domain import phi_offsets
from spineid.fusion import identity_params
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
            labels = [t.index for t in case.truths]
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
        assert err.startswith(f"error: field {field!r} has an invalid value") and err.count("\n") == 1

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

    def test_small_tau_is_divergence(self, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(unit_vector_batch()))
        assert main(["supcon", "--in", str(path), "--tau", "0.001"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: supervised contrastive loss is not finite") and err.count("\n") == 1


COLD_PATH = """
import json, sys
from spineid.cli import main

def run(*args):
    assert main(list(args)) == 0, args

run("gen", "--out-dir", "corpus", "--seed", "3", "--n-cases", "1", "--k", "60", "--vmin", "3", "--vmax", "4",
    "--boxes-per-vertebra", "12")
run("score", "--seq", "3,4,6,5")
run("supcon", "--in", "batch.json", "--grad")
run("uncertainty", "--in", "corpus/case_0000.json", "--out", "u.json")
run("fuse", "--case", "u.json", "--out", "labels.json")
run("eval", "--cases-dir", "corpus")
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
run("cluster", "--in", "corpus/case_0000.detections.jsonl", "--out", "centers.json", "--eps-pos", "6",
    "--min-pts", "4", "--eps-dim", "10", "--density-floor", "0.1")
print(json.dumps({"before": before, "after": "scipy.spatial" in sys.modules}))
"""


def test_only_clustering_loads_scipy(tmp_path):
    """A fresh process that never clusters leaves scipy unloaded; clustering loads it on first use."""
    (tmp_path / "batch.json").write_text(json.dumps(unit_vector_batch()))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH], capture_output=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    loaded = json.loads(proc.stdout.decode().splitlines()[-1])
    assert loaded == {"before": [], "after": True}
    assert len(io.load_centers(tmp_path / "centers.json")) == len(io.load_case(tmp_path / "corpus" / "case_0000.json"))



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
    "confused/stored.labels.json": "19257e1f30c57d2baf3abed2573ec69a1c12bbefd1b820afde3be4a64d1939cd",
    "confused/stored.trace.json": "226d0a2efc2cd49aba5cf00b49de62223b65260242d38c6c2a534a4f79d84481",
}


def test_golden_cli_outputs(tmp_path):
    """Byte pins on criterion 10's gen corpus and on a confused one from the same seed.

    Covers ``uncertainty`` (both metrics), ``fuse --trace`` (argmax and
    constrained decoding, computed and stored weights), ``eval --out
    --dump-csv`` on fused, baseline and wrong labels, and ``pipeline``.
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
            truth = [t.index for t in io.load_case(corpus / f"{stem}.json").truths]
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
    for args in runs:
        assert main(args) == 0, args
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file() and p.parent.name != "wrong"}
    assert got == GOLDEN_CLI
