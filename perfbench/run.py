"""spineid benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record]

Workloads (see BENCHMARK.json for why each exists):

- ``cluster_dense``: ``load_detections`` -> ``cluster_centers`` per case.
- ``train_w5``: one ``train_phi`` call per operation. BENCHMARK.json does
  not declare it, because its set-up is too long to fit a fourth declared
  workload in the time all runs may take; the traced run still profiles it.
- ``infer_many``: ``load_case`` -> uncertainty reports -> ``fuse`` per case.
- ``cli_cold``: one fresh ``python -m spineid`` process per operation.

Each run is a closed loop with one client. BLAS runs on one thread. The
untraced run (``--trace 0``) builds the corpus three times in fresh
processes (``setup_s`` is their median time), runs one untimed warm-up pass
over the workload's items, then repeats whole timed passes until
``--seconds`` have passed. Its timings are adjusted to a reference host
speed by the probes in ``hostspeed.py``, run between operations and
set-ups; the raw wall times are printed beside them and saved. The traced run
(``--trace 1``) profiles every layer on all four workloads at the given
seed with a fixed amount of work, whatever ``--workload`` says, and reports
the tracing overhead per workload.

Every run checks its outputs: the corpus must be identical across set-ups,
every repeat of an operation must match the first, the workload's own
checks must hold, and the fingerprints must equal the ones recorded in
``reference.json`` for that seed. For a seed not recorded there, a small
fixed-seed canary of the workload is compared instead. ``--record`` writes
this run's fingerprints and the canary's into ``reference.json``.

The last line of standard output is the JSON result. The lines before it
list every metric with its unit and the environment; the same data, with
the tail percentile and sample counts, goes to ``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# This file only runs as a script. BLAS is pinned to one thread before numpy
# loads, and spineid comes from this checkout's src/, never from an install.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if not (SRC / "spineid" / "__init__.py").is_file():
    sys.exit(f"error: no spineid package at {SRC}")
sys.path.insert(0, str(SRC))

from workloads import FAILURES, WORKLOADS, child_env, corpus_fingerprint, run_child, sha  # noqa: E402
from tracing import Tracer  # noqa: E402
from hostspeed import HostProbe  # noqa: E402

SETUP_REPEATS = 3
TRACE_ROUNDS = 2
IMPORT_PROBES = 3
CANARY_SEED = 271828
CANARY_SIZES = {
    "cluster_dense": {"n_cases": 3},
    "train_w5": {"n_train": 20, "n_held": 10},
    "infer_many": {"n_cases": 8},
    "cli_cold": {"n_cases": 3, "in_process": True},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}
# What each generic metric is called on each workload, printed next to it.
ALIASES = {
    "cluster_dense": {"op_per_s": "cases_per_s", "op_ms_p50": "case_ms_p50",
                      "op_ms_tail": "case_ms_tail", "accuracy": "count_match_rate"},
    "train_w5": {"op_per_s": "fits_per_s", "op_ms_p50": "fit_s x 1000",
                 "op_ms_tail": "fit_ms_tail", "accuracy": "id_rate (held out)"},
    "infer_many": {"op_per_s": "cases_per_s", "op_ms_p50": "case_ms_p50",
                   "op_ms_tail": "case_ms_tail", "accuracy": "id_rate"},
    "cli_cold": {"op_per_s": "calls_per_s", "op_ms_p50": "call_ms_p50",
                 "op_ms_tail": "call_ms_tail", "accuracy": "share of outputs equal to in-process cli.main"},
}
LAYERS = ("synthetic", "io", "clustering", "uncertainty", "fusion", "evaluate", "losses", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--record", action="store_true", help="write this run's fingerprints to reference.json")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


class Loop:
    """Runs operations one after another and checks each against the first pass.

    With a ``probe``, each latency is stored with the index of the host-speed
    probe taken just before its operation.
    """

    def __init__(self, wl, probe: HostProbe | None = None):
        self.wl = wl
        self.probe = probe
        self.latencies_ms: list[float] = []
        self.probe_index: list[int | None] = []
        self.attempted = self.failed = self.mismatched = 0
        self.first: dict[int, str] = {}

    def run(self, i: int, tr) -> None:
        j = i % len(self.wl)
        before = self.probe.tick() if self.probe else None
        t0 = time.perf_counter()
        try:
            with tr.span(f"bench.{self.wl.name}", j):  # parent of the op's layer spans
                out = self.wl.op(j, tr)
        except FAILURES as exc:
            self.failed += 1
            digest = f"failed: {type(exc).__name__}"
            print(f"item {j} failed: {exc}", file=sys.stderr)
        else:
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.probe_index.append(before)
            digest = self.wl.digest(j, out)
        self.attempted += 1
        self.mismatched += self.first.setdefault(j, digest) != digest

    def run_pass(self, tr) -> float:
        t0 = time.perf_counter()
        for i in range(len(self.wl)):
            self.run(i, tr)
        return time.perf_counter() - t0

    def adjusted_ms(self) -> list[float]:
        """Latencies scaled to the reference host speed; closes the last probe interval."""
        self.probe.sample()
        return [self.probe.adjust(ms, k) for ms, k in zip(self.latencies_ms, self.probe_index)]

    def output_fingerprint(self) -> str:
        return sha("\n".join(self.first[j] for j in sorted(self.first)).encode())


def tail(samples: list[float], pct: int) -> tuple[float, int]:
    """The ``pct``-th percentile, interpolated, and the count of samples above it."""
    if len(samples) == 1:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return value, sum(x > value for x in samples)


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def run_canary(name: str, work: Path) -> dict:
    """Fingerprints of a small fixed-seed instance of the workload."""
    wl = WORKLOADS[name](CANARY_SEED, **CANARY_SIZES[name])
    corpus, scratch = work / f"canary.{name}", work / f"canary.{name}.scratch"
    corpus.mkdir()
    scratch.mkdir()
    off = Tracer(False)
    wl.build(corpus, off)
    corpus_fp = corpus_fingerprint(corpus)
    wl.prepare(corpus, scratch, off)
    loop = Loop(wl)
    loop.run_pass(off)
    return {"corpus": corpus_fp, "output": loop.output_fingerprint(), "accuracy": wl.finish(off)["accuracy"]}


def reference_checks(name: str, seed: int, fp: dict, work: Path, ref: dict, record: bool) -> dict:
    """Compare fingerprints with reference.json, or record them with ``record``."""
    entry = ref.setdefault(name, {})
    if record:
        entry[str(seed)] = fp
        entry["canary"] = run_canary(name, work)
        return {}
    if str(seed) in entry:
        return {f"{name}: fingerprints match the reference for seed {seed}": entry[str(seed)] == fp}
    return {f"{name}: canary fingerprints match the reference": run_canary(name, work) == entry.get("canary")}


def run_untraced(args, work: Path, ref: dict) -> dict:
    name, seed = args.workload, args.seed
    setup_probe = HostProbe("spawn")  # each set-up is a fresh process
    setup_raw, setup_s, corpus_fps = [], [], []
    for r in range(SETUP_REPEATS):
        out = work / f"corpus{r}"
        before = setup_probe.sample()
        t0 = time.perf_counter()
        code, _ = run_child([sys.executable, str(HERE / "build_corpus.py"), name, str(seed), str(out)],
                            env=child_env())
        setup_raw.append(time.perf_counter() - t0)
        setup_probe.sample()
        setup_s.append(setup_probe.adjust(setup_raw[-1], before))
        if code != 0:
            raise RuntimeError(f"building the {name} corpus exited with {code}")
        corpus_fps.append(corpus_fingerprint(out))
    corpus, scratch = work / "corpus0", work / "scratch"
    scratch.mkdir()

    off = Tracer(False)
    wl = WORKLOADS[name](seed)
    wl.prepare(corpus, scratch, off)
    loop = Loop(wl, HostProbe(wl.probe_kind))
    loop.run_pass(off)  # warm-up: fills caches and gives the first-pass outputs
    loop.latencies_ms.clear()
    loop.probe_index.clear()
    warm_up = loop.attempted
    deadline = time.perf_counter() + args.seconds
    # Whole passes only, so every run times the same mix of items.
    while loop.attempted == warm_up or time.perf_counter() < deadline:
        loop.run_pass(off)
    if not loop.latencies_ms:
        raise RuntimeError(f"every {name} operation failed")
    adjusted = loop.adjusted_ms()
    rss_kb = wl.peak_rss_kb()
    result = wl.finish(off)

    fp = {"corpus": corpus_fps[0], "output": loop.output_fingerprint(), "accuracy": result["accuracy"]}
    checks = {
        f"corpus is identical across {SETUP_REPEATS} fresh set-ups": len(set(corpus_fps)) == 1,
        "every repeat of an operation matches the first pass": loop.mismatched == 0,
        **result["checks"],
        **reference_checks(name, seed, fp, work, ref, args.record),
    }
    value, above = tail(adjusted, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_per_s": len(adjusted) * 1e3 / sum(adjusted),
        "op_ms_p50": statistics.median(adjusted),
        "op_ms_tail": value,
        "peak_rss_mb": rss_kb / 1024,
        "accuracy": result["accuracy"],
    }
    raw = loop.latencies_ms
    raw_metrics = {
        "setup_s": statistics.median(setup_raw),
        "op_per_s": len(raw) * 1e3 / sum(raw),
        "op_ms_p50": statistics.median(raw),
        "op_ms_tail": tail(raw, wl.tail_pct)[0],
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": loop.attempted,
        "failed": loop.failed,
        "checks": checks,
        "fingerprints": fp,
        "detail": {
            "op": wl.op_unit,
            "ops_completed": len(adjusted),
            "tail": {"percentile": wl.tail_pct, "samples": len(adjusted), "samples_above": above},
            "setup_samples_s": setup_s,
            "raw": raw_metrics,
            "probes": {"op": loop.probe.summary(), "setup": setup_probe.summary()},
        },
    }


def import_seconds() -> float:
    """Median time of ``import spineid`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import spineid; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES)
    )


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def layer_metrics(parts: dict, bytes_written: int, import_s: float, overhead_ms: dict) -> dict:
    """Per-layer metrics, each taken from the workload the layer matters to."""
    cd, tw, im, cc = (parts[n]["tracer"] for n in ("cluster_dense", "train_w5", "infer_many", "cli_cold"))
    load_det_ms = cd.durations_ms("io.load_detections")
    cluster_ms = cd.durations_ms("clustering.cluster_centers")
    epochs = parts["train_w5"]["workload"].epochs
    full = _mean(tw.durations_ms("fusion.train_phi", f"epochs={epochs}"))
    one = _mean(tw.durations_ms("fusion.train_phi", "epochs=1"))
    epoch_ms = (full - one) / (epochs - 1)
    kernel = parts["train_w5"]["workload"].computed_kernel_size()
    m = {
        "synthetic.gen_cases.ms_per_case": (_mean(cd.durations_ms("synthetic.generate_case")), "ms"),
        "synthetic.gen_cases.boxes": (cd.counts["synthetic.boxes"], "count"),
        "io.save_detections.ms": (_mean(cd.durations_ms("io.save_detections")), "ms"),
        "io.save_case.ms": (_mean(im.durations_ms("io.save_case")), "ms"),
        "io.bytes_written": (bytes_written, "B"),
        "io.load_detections.ms": (_mean(load_det_ms), "ms"),
        "io.load_detections.boxes_per_s": (cd.counts["clustering.boxes_in"] / (sum(load_det_ms) / 1e3), "box/s"),
        "io.bytes_read": (cd.counts["io.bytes_read"], "B"),
        "io.load_case.ms": (_mean(im.durations_ms("io.load_case")), "ms"),
        "clustering.cluster_centers.ms": (_mean(cluster_ms), "ms"),
        "clustering.boxes_in": (cd.counts["clustering.boxes_in"], "count"),
        "clustering.centers_out": (cd.counts["clustering.centers_out"], "count"),
        "clustering.empty_cluster_errors": (cd.counts["clustering.empty_cluster_errors"], "count"),
        "clustering.boxes_per_s": (cd.counts["clustering.boxes_in"] / (sum(cluster_ms) / 1e3), "box/s"),
        "uncertainty.report.ms": (_mean(im.durations_ms("uncertainty.report")), "ms"),
        "uncertainty.vertebrae": (im.counts["uncertainty.vertebrae"], "count"),
        "fusion.fuse.ms": (_mean(im.durations_ms("fusion.fuse")), "ms"),
        "fusion.train_phi.fixed_ms": (one - epoch_ms, "ms"),
        "fusion.train_phi.epoch_ms": (epoch_ms, "ms"),
        "fusion.train_phi.rows": (kernel["rows"], "count"),
        "fusion.train_phi.flop_per_epoch": (kernel["flop_per_epoch"], "flop_computed"),
        "fusion.train_phi.bytes_per_epoch": (kernel["bytes_per_epoch"], "B_computed"),
        "evaluate.evaluate.ms": (_mean(im.durations_ms("evaluate.evaluate")), "ms"),
        "evaluate.vertebrae": (im.counts["evaluate.vertebrae"], "count"),
        "losses.supcon.ms": (_mean(cc.durations_ms("losses.supcon")), "ms"),
        "cli.import_s": (import_s, "s"),
    }
    for argv, _ in parts["cli_cold"]["workload"].calls:
        m[f"cli.{argv[0]}.ms"] = (_mean(cc.durations_ms(f"cli.{argv[0]}")), "ms")
    self_ms = [p["tracer"].self_ms() for p in parts.values()]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (sum(s.get(layer, 0.0) for s in self_ms), "ms")
    for name, ms in overhead_ms.items():
        m[f"trace.{name}.overhead_ms"] = (ms, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_traced(args, work: Path, ref: dict) -> dict:
    seed = args.seed
    parts, checks, overhead_ms = {}, {}, {}
    attempted = failed = bytes_written = 0
    off = Tracer(False)
    for name, cls in WORKLOADS.items():
        tr = Tracer(True)
        wl = cls(seed, in_process=True) if name == "cli_cold" else cls(seed)
        corpus, scratch = work / name, work / f"{name}.scratch"
        corpus.mkdir()
        scratch.mkdir()
        with tr.span("bench.build"):
            wl.build(corpus, tr)
        corpus_fp = corpus_fingerprint(corpus)
        bytes_written += sum(p.stat().st_size for p in corpus.rglob("*") if p.is_file())
        wl.prepare(corpus, scratch, tr)
        loop = Loop(wl)
        walls = {False: [], True: []}
        for _ in range(TRACE_ROUNDS):
            for traced in (False, True):
                walls[traced].append(loop.run_pass(tr if traced else off))
        overhead_ms[name] = (min(walls[True]) - min(walls[False])) * 1e3
        if name == "train_w5":
            wl.op(0, tr, epochs=1)
        if name == "cli_cold":
            for _ in range(TRACE_ROUNDS):
                wl.supcon_in_process(tr)
        result = wl.finish(tr)
        fp = {"corpus": corpus_fp, "output": loop.output_fingerprint(), "accuracy": result["accuracy"]}
        checks[f"{name}: every repeat of an operation matches the first pass"] = loop.mismatched == 0
        checks.update({f"{name}: {k}": v for k, v in result["checks"].items()})
        checks.update(reference_checks(name, seed, fp, work, ref, args.record))
        attempted += loop.attempted
        failed += loop.failed
        parts[name] = {"tracer": tr, "workload": wl, "fingerprints": fp}
    metrics = layer_metrics(parts, bytes_written, import_seconds(), overhead_ms)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "fingerprints": {name: p["fingerprints"] for name, p in parts.items()},
        "spans": {name: p["tracer"].records() for name, p in parts.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = load_reference()
    try:
        out = (run_traced if args.trace else run_untraced)(args, work, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    correct = all(out["checks"].values())
    env = environment()
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out.pop("spans", None)
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "env": env, **out}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    aliases = {} if args.trace else ALIASES[args.workload]
    for k, m in out["metrics"].items():
        alias = f"  ({aliases[k]})" if k in aliases else ""
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}{alias}")
    if not args.trace:
        d = out["detail"]
        for k, v in d["raw"].items():
            print(f"  raw {k:36s} {v:>16.6g} {END_TO_END_UNITS[k]}  (unadjusted wall time)")
        for use, pm in d["probes"].items():
            print(f"  {use} timings scaled to a {pm['reference_ms']:g} ms {pm['kind']} probe; it took "
                  f"{pm['median_ms']:.4g} ms median, {pm['min_ms']:.4g} to {pm['max_ms']:.4g}, over {pm['probes']} probes")
        print(f"  tail percentile p{d['tail']['percentile']} over {d['tail']['samples']} {d['op']} samples, "
              f"{d['tail']['samples_above']} above it")
    rate = out["failed"] / out["attempted"]
    print(f"  fail_rate {rate:.6g} ratio ({out['failed']} failed of {out['attempted']} attempted)")
    for desc, ok in out["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {desc}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
