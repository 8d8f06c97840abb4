"""Command line front end.

Subcommands cover every stage: ``gen`` (synthetic corpora), ``cluster``
(detections to centers), ``uncertainty`` (MC statistics into a case),
``fuse`` (confidence refinement), ``train-phi`` (fit fusion matrices),
``score`` / ``supcon`` (losses), ``eval`` (metrics) and ``pipeline``
(cluster -> uncertainty -> fuse -> eval over a directory).

Exit codes: 0 success, 2 rejected input, 3 numeric divergence, 4 I/O error.
All randomness is seeded, so identical invocations produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SpineError, ValidationError

if TYPE_CHECKING:
    from .clustering import ClusterConfig
    from .domain import FusionParams, SpineCase
    from .evaluate import EvalReport


# ---------------------------------------------------------------------------
# subcommand handlers
#
# Each handler imports the stage modules it calls, so a process loads only
# the stages of its command.


def _cmd_gen(args) -> int:
    from . import io
    from .synthetic import ConfusionModel, DetectConfig, GenConfig, McConfig, generate_case

    cfg = GenConfig(
        seed=args.seed,
        n_cases=args.n_cases,
        k_slices=args.k,
        vertebrae_range=(args.vmin, args.vmax),
        confusion=ConfusionModel(args.true_mass, args.adjacent1, args.adjacent2, args.floor),
        mc=McConfig(args.mc_n, args.kappa),
        detect=DetectConfig(args.boxes_per_vertebra, args.count_jitter,
                            args.pos_sigma, args.dim_sigma, args.noise_rate),
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(cfg.n_cases):  # one case in memory at a time
        case, dets = generate_case(cfg, i)
        io.save_case(case, out / f"{case.case_id}.json")
        io.save_detections(dets, out / f"{case.case_id}.detections.jsonl")
    print(f"wrote {cfg.n_cases} cases to {out}")
    return 0


def _cluster_config(args, ds) -> ClusterConfig:
    """The cluster flags given on the command line; defaults derived from ``ds`` only for the flags left out."""
    from .clustering import ClusterConfig

    flags = {"eps_pos": args.eps_pos, "min_pts": args.min_pts, "eps_dim": args.eps_dim,
             "density_floor": args.density_floor}
    given = {name: value for name, value in flags.items() if value is not None}
    if len(given) == len(flags):
        return ClusterConfig(**given)
    return ClusterConfig.defaults_for(ds, **given)


def _cmd_cluster(args) -> int:
    from . import io
    from .clustering import cluster_centers

    ds = io.load_detections(args.infile)
    centers = cluster_centers(ds, _cluster_config(args, ds))
    io.save_centers(centers, args.out)
    print(f"{ds.case_id}: {len(centers)} centers from {len(ds)} boxes")
    return 0


def _cmd_uncertainty(args) -> int:
    from . import io
    from .uncertainty import with_reports

    case = io.load_case(args.infile)
    io.save_case(with_reports(case, args.metric), args.out)
    print(f"{case.case_id}: wrote uncertainty reports for {len(case)} vertebrae")
    return 0


def _fusion_flags(args) -> dict:
    """The fusion flags given on the command line, by ``FusionParams`` field name."""
    flags = {"theta": args.theta, "hops": args.hops, "window": args.window, "distance_mode": args.distance}
    return {name: value for name, value in flags.items() if value is not None}


def _fusion_params(args) -> FusionParams:
    """The ``--params`` file with the fusion flags applied; without a file, identity matrices built from the flags."""
    from dataclasses import replace

    from . import io
    from .domain import phi_offsets
    from .fusion import identity_params

    flags = _fusion_flags(args)
    if not args.params:
        return identity_params(**flags)
    params = io.load_fusion_params(args.params)
    wanted = phi_offsets(flags.get("window", params.window))
    missing = [d for d in wanted if d not in params.phi]
    if missing:
        raise ValidationError(f"parameter file lacks phi matrices for offsets {missing}")
    return replace(params, **flags, phi={d: params.phi[d] for d in wanted})


def _cmd_fuse(args) -> int:
    from . import io
    from .evaluate import decode_states
    from .fusion import fuse
    from .labels import CANONICAL_NAMES

    case = io.load_case(args.case)
    params = _fusion_params(args)
    trace = fuse(case, params)
    labels = decode_states(trace.snapshots[-1], args.decode)
    io.save_labels(case.case_id, labels, args.out)
    if args.trace:
        io.save_json({"case_id": case.case_id, "snapshots": trace.snapshots.tolist(),
                      "final_labels": list(trace.final_labels)}, args.trace)
    print(f"{case.case_id}: {' '.join(CANONICAL_NAMES[i] for i in labels)}")
    return 0


# the per-case outputs spineid writes (labels, reports, fuse traces), never read as cases
_OUTPUT_SUFFIXES = (".labels.json", ".report.json", ".trace.json")


def _is_case_file(p: Path) -> bool:
    return p.name.endswith(".json") and not p.name.endswith(_OUTPUT_SUFFIXES)


def _load_case_dir(path: str, out: str | None) -> list[tuple[Path, SpineCase]]:
    """Every case of directory ``path``, after rejecting an ``out`` that a later run would read as one.

    Two files that hold the same ``case_id`` are rejected: a copy of a case
    (say, one ``uncertainty --out`` wrote next to it) would be counted twice.
    """
    from . import io

    if out is not None and _is_case_file(Path(out)) and Path(out).parent.resolve() == Path(path).resolve():
        raise ValidationError(f"--out {out!r} would be read as a case of {path!r} on the next run; "
                              f"end its name in .report.json or write it outside the directory")
    files = sorted(p for p in Path(path).glob("*.json") if _is_case_file(p))
    if not files:
        raise ValidationError(f"no case files found in {path!r}")
    pairs = [(p, io.load_case(p)) for p in files]
    first: dict[str, Path] = {}
    for p, case in pairs:
        other = first.setdefault(case.case_id, p)
        if other != p:
            raise ValidationError(f"{str(other)!r} and {str(p)!r} both hold case {case.case_id!r}; "
                                  f"keep one of them in {path!r}")
    return pairs


def _cmd_train_phi(args) -> int:
    from . import io
    from .fusion import TrainConfig, identity_params, train_phi

    cases = [case for _, case in _load_case_dir(args.train, args.out)]
    params_init = identity_params(**_fusion_flags(args))
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed, init=args.init)
    trained = train_phi(cases, params_init, cfg)
    io.save_fusion_params(trained, args.out)
    print(f"trained phi on {len(cases)} cases -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    from .labels import sequence_loss

    # only ASCII decimal digits spell an index: int() would also take "1_0", "+3" and "٣"
    entries = [v.strip() for v in args.seq.split(",") if v.strip() != ""]
    if not all(v.isascii() and v.isdigit() for v in entries):
        raise ValidationError(f"--seq must list comma-separated label indices, got {args.seq!r}")
    print(sequence_loss([int(v) for v in entries]))
    return 0


def _cmd_supcon(args) -> int:
    from . import io
    from .losses import supcon_grad, supcon_loss

    batch = io.load_embedding_batch(args.infile, tau_override=args.tau)
    print(f"loss: {supcon_loss(batch)!r}")
    if args.grad:
        for row in supcon_grad(batch):
            print(" ".join(repr(float(v)) for v in row))
    return 0


def _report_dict(rep: EvalReport) -> dict:
    return {
        "id_rate": rep.id_rate,
        "mse": rep.mse,
        "n_vertebrae": rep.n_vertebrae,
        "per_case_id_rate": list(rep.per_case_id_rate),
        "confusion": rep.per_class_confusion.tolist(),
    }


def _dump_csv(rep: EvalReport, path: str) -> None:
    from .labels import CANONICAL_NAMES

    lines = ["class_index,class_name,truth_count,correct,id_rate"]
    conf = rep.per_class_confusion
    for i, name in enumerate(CANONICAL_NAMES):
        total = int(conf[i].sum())
        correct = int(conf[i, i])
        rate = correct / total if total else 0.0
        lines.append(f"{i},{name},{total},{correct},{rate!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_eval(args) -> int:
    import numpy as np

    from . import io
    from .evaluate import evaluate

    pairs = _load_case_dir(args.cases_dir, args.out)
    cases = [case for _, case in pairs]
    if args.labels_dir:
        predictions = [io.load_labels(Path(args.labels_dir) / f"{path.stem}.labels.json") for path, _ in pairs]
    else:
        predictions = [np.array([v.mc.mean_probs for v in case.vertebrae]) for case in cases]
    rep = evaluate(cases, predictions, decode=args.decode)
    if args.out:
        io.save_json(_report_dict(rep), args.out)
    if args.dump_csv:
        _dump_csv(rep, args.dump_csv)
    print(f"id_rate {rep.id_rate:.4f}  mse {rep.mse:.4f}  over {rep.n_vertebrae} vertebrae")
    return 0


def _cmd_pipeline(args) -> int:
    import numpy as np

    from . import io
    from .clustering import cluster_centers
    from .evaluate import evaluate
    from .fusion import fuse
    from .uncertainty import with_reports

    case_files = _load_case_dir(args.dir, args.out)
    params = _fusion_params(args)
    cases, baseline_states, fused_states = [], [], []
    count_match = 0
    center_errors = []
    for path, case in case_files:
        det_path = path.with_name(path.stem + ".detections.jsonl")
        if det_path.exists():
            ds = io.load_detections(det_path)
            centers = cluster_centers(ds, _cluster_config(args, ds))
            count_match += len(centers) == len(case)
            truth_pos = np.array([v.center.position for v in case.vertebrae])
            # a finite distance is below ~1.3e154 (its square is finite), so the mean of any number of them is too
            with np.errstate(over="ignore"):  # a distance past float64 is rejected below
                errors = [float(np.min(np.linalg.norm(truth_pos - np.array(c.position), axis=1))) for c in centers]
            if not all(map(math.isfinite, errors)):
                raise ValidationError(f"the clustered centers of case {case.case_id!r} lie too far from its stored "
                                      "centers: their distance overflows float64")
            center_errors.extend(errors)
        case = with_reports(case, args.u_metric)
        trace = fuse(case, params)
        cases.append(case)
        baseline_states.append(trace.snapshots[0])
        fused_states.append(trace.snapshots[-1])
    baseline = evaluate(cases, baseline_states, decode=args.decode)
    fused = evaluate(cases, fused_states, decode=args.decode)
    out = {
        "cases": len(cases),
        "clustering": {
            "count_match_rate": count_match / len(cases),
            "mean_center_error": float(np.mean(center_errors)) if center_errors else None,
        },
        "baseline": _report_dict(baseline),
        "fused": _report_dict(fused),
    }
    io.save_json(out, args.out)
    if args.dump_csv:
        _dump_csv(fused, args.dump_csv)
    print(
        f"{len(cases)} cases: baseline id_rate {baseline.id_rate:.4f} -> fused {fused.id_rate:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-pos", type=float, default=None, help="position neighborhood radius (voxels)")
    p.add_argument("--min-pts", type=int, default=None, help="minimum cluster size")
    p.add_argument("--eps-dim", type=float, default=None, help="dimension-space radius (voxels)")
    p.add_argument("--density-floor", type=float, default=None, help="minimum box density to keep a box")


def _add_fusion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=None, help="fusion weight")
    p.add_argument("--hops", type=int, default=None, help="number of fusion hops")
    p.add_argument("--window", type=int, default=None, choices=(1, 3, 5, 7), help="neighbor window size")
    p.add_argument("--distance", choices=("index", "physical"), default=None, help="distance mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spineid", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus with planted truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cases", type=int, default=10)
    p.add_argument("--k", type=int, default=200, help="slices per plane")
    p.add_argument("--vmin", type=int, default=4)
    p.add_argument("--vmax", type=int, default=12)
    p.add_argument("--true-mass", type=float, default=0.7)
    p.add_argument("--adjacent1", type=float, default=0.1)
    p.add_argument("--adjacent2", type=float, default=0.02)
    p.add_argument("--floor", type=float, default=0.002)
    p.add_argument("--mc-n", type=int, default=20, help="MC samples per vertebra")
    p.add_argument("--kappa", type=float, default=50.0, help="Dirichlet concentration")
    p.add_argument("--boxes-per-vertebra", type=int, default=30)
    p.add_argument("--count-jitter", type=float, default=0.2)
    p.add_argument("--pos-sigma", type=float, default=1.0)
    p.add_argument("--dim-sigma", type=float, default=1.0)
    p.add_argument("--noise-rate", type=float, default=0.1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cluster", help="cluster a detections file into vertebra centers")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_cluster_flags(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("uncertainty", help="write per-vertebra uncertainty reports into a case")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", choices=("entropy", "variance"), default="entropy")
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("fuse", help="refine a case's confidences by message fusion")
    p.add_argument("--case", required=True)
    p.add_argument("--params", default=None, help="fusion parameter file (default: identity matrices)")
    p.add_argument("--trace", default=None, help="optional per-hop snapshot output")
    p.add_argument("--out", required=True)
    p.add_argument("--decode", choices=("argmax", "constrained"), default="argmax")
    _add_fusion_flags(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("train-phi", help="fit fusion matrices on fully labeled cases")
    p.add_argument("--train", required=True, help="directory of case files")
    p.add_argument("--init", choices=("identity", "uniform_small"), default="identity")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    _add_fusion_flags(p)
    p.set_defaults(func=_cmd_train_phi)

    p = sub.add_parser("score", help="sequence-consistency penalty of a label sequence")
    p.add_argument("--seq", required=True, help="comma-separated label indices")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("supcon", help="supervised contrastive loss of an embedding batch")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau", type=float, default=None, help="temperature (overrides the file)")
    p.add_argument("--grad", action="store_true", help="also print the gradient matrix")
    p.set_defaults(func=_cmd_supcon)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--cases-dir", required=True)
    p.add_argument("--labels-dir", default=None, help="per-case <stem>.labels.json files")
    p.add_argument("--decode", choices=("argmax", "constrained"), default="argmax")
    p.add_argument("--out", default=None)
    p.add_argument("--dump-csv", default=None, help="write a per-class plot-ready table")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pipeline", help="cluster -> uncertainty -> fuse -> eval over a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--decode", choices=("argmax", "constrained"), default="argmax")
    p.add_argument("--dump-csv", default=None)
    p.add_argument("--u-metric", choices=("entropy", "variance"), default="entropy",
                   help="certainty metric of the fusion weights")
    _add_fusion_flags(p)
    _add_cluster_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
