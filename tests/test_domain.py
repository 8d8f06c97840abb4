"""Type invariants and serialization round-trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_case, one_hot, random_case, random_probs
from spineid import io
from spineid.clustering import ClusterConfig
from spineid.domain import (
    DETECTION_COLUMNS,
    PLANES,
    DetectionSet,
    FusionParams,
    McSampleSet,
    SpineCase,
    SpineVertebra,
    VertebraCenter,
    phi_offsets,
)
from spineid.errors import ParseError, ValidationError
from spineid.fusion import TrainConfig, identity_params
from spineid.labels import N_CLASSES
from spineid.losses import EmbeddingBatch, total_loss
from spineid.synthetic import ConfusionModel, DetectConfig, GenConfig, McConfig
from spineid.uncertainty import aggregate_samples, entropy, report, with_reports


def det(plane=0, slice_index=5, cx=10.0, cy=20.0, w=30.0, h=20.0, confidence=0.9,
        volume_shape=(64, 64, 64)):
    """A one-box DetectionSet."""
    return DetectionSet("c", volume_shape, 10, [plane], [slice_index], [cx], [cy], [w], [h], [confidence])


class TestValidation:
    def test_negative_width(self):
        with pytest.raises(ValidationError, match="w must be positive"):
            det(w=-1.0)

    def test_zero_height(self):
        with pytest.raises(ValidationError, match="h must be positive"):
            det(h=0.0)

    def test_nonfinite_center(self):
        with pytest.raises(ValidationError, match="cx"):
            det(cx=float("nan"))

    def test_bad_plane(self, tmp_path):
        for code in (-1, 2):
            with pytest.raises(ValidationError, match="plane"):
                det(plane=code)
        path = tmp_path / "d.jsonl"
        path.write_text('{"case_id": "c", "volume_shape": [64, 64, 64], "k": 5}\n'
                        '{"plane": "axial", "slice_index": 5, "cx": 1, "cy": 1, "w": 1, "h": 1, "confidence": 1}\n')
        with pytest.raises(ValidationError, match=r"plane.*'axial'"):
            io.load_detections(path)

    def test_confidence_range(self):
        with pytest.raises(ValidationError, match="confidence"):
            det(confidence=1.5)

    def test_slice_index_must_fit_volume(self):
        with pytest.raises(ValidationError, match="sagittal extent"):
            det(slice_index=40, volume_shape=(100, 50, 40))
        # same index is fine along the coronal axis (extent 50)
        det(plane=PLANES.index("coronal"), slice_index=40, volume_shape=(100, 50, 40))
        with pytest.raises(ValidationError, match="slice_index must lie inside"):
            det(slice_index=-1)

    def test_error_names_first_bad_row(self):
        cols = _random_detections(np.random.default_rng(3), 5)
        cols["h"][[2, 4]] = 0.0
        with pytest.raises(ValidationError, match=r"detections\[2\]: h must be positive"):
            DetectionSet("c", (64, 64, 64), 64, **cols)

    def test_columns_must_have_equal_lengths(self):
        cols = _random_detections(np.random.default_rng(4), 5)
        cols["cy"] = cols["cy"][:4]
        with pytest.raises(ValidationError, match="equal lengths"):
            DetectionSet("c", (64, 64, 64), 64, **cols)

    def test_columns_are_read_only_copies(self):
        cols = _random_detections(np.random.default_rng(5), 5)
        ds = DetectionSet("c", (64, 64, 64), 64, **cols)
        cols["cx"][0] = -1.0
        assert ds.cx[0] != -1.0
        with pytest.raises(ValueError):
            ds.cx[0] = 0.0

    @staticmethod
    def _vector_checks():
        """Every public way to hand in one probability vector: as itself, or as the one row of a sample set."""
        return entropy, lambda v: McSampleSet(v[None])

    def test_non_normalized_probs(self):
        bad = one_hot(3) * 1.01
        for check in self._vector_checks():
            with pytest.raises(ValidationError, match="sum to 1"):
                check(bad)

    def test_negative_probs(self):
        v = one_hot(0)
        v[0] = 1 + 1e-3
        v[1] = -1e-3  # sum still exactly 1
        for check in self._vector_checks():
            with pytest.raises(ValidationError, match="non-negative"):
                check(v)

    def test_mc_row_tolerance(self):
        rows = np.stack([one_hot(2), one_hot(2) * (1 + 2e-6)])
        with pytest.raises(ValidationError, match="row 1"):
            McSampleSet(rows)
        # within 1e-6 passes
        McSampleSet(np.stack([one_hot(2), one_hot(2) * (1 + 5e-7)]))

    def test_value_above_one_rejected_before_summing(self):
        # summing 24 values of 1e308 would overflow; the range check comes first
        with pytest.raises(ValidationError, match="row 1 must sum to 1.*exceeds 1"):
            McSampleSet(np.stack([one_hot(2), np.full(24, 1e308)]))
        for check in self._vector_checks():
            with pytest.raises(ValidationError, match="sum to 1.*exceeds 1"):
                check(np.full(24, 1e308))

    def test_stored_report_is_the_own_sample_set(self):
        v = make_case([one_hot(3)]).vertebrae[0]
        assert SpineVertebra(v.center, v.mc, uncertainty=v.mc).uncertainty is v.mc
        for other in (McSampleSet(v.mc.samples), McSampleSet(one_hot(4)[None])):
            with pytest.raises(ValidationError, match="uncertainty must be None or the vertebra's own mc"):
                SpineVertebra(v.center, v.mc, uncertainty=other)

    def test_empty_case(self):
        with pytest.raises(ValidationError, match="at least one vertebra"):
            SpineCase("c", ())

    def test_non_consecutive_truths(self):
        with pytest.raises(ValidationError, match="increase by exactly 1"):
            make_case([one_hot(7), one_hot(9)], truths=[7, 9])

    def test_consecutive_truths_ok(self):
        case = make_case([one_hot(7), one_hot(8), one_hot(9)], truths=[7, 8, 9])
        assert case.truths == [7, 8, 9]

    def test_partial_truths_allowed(self):
        rows = [one_hot(7), one_hot(12)]
        verts = make_case(rows, truths=[7, 8]).vertebrae
        SpineCase("c", (verts[0], SpineVertebra(verts[1].center, verts[1].mc, truth=None)))

    def test_z_rank_order_enforced(self):
        verts = make_case([one_hot(1), one_hot(2)]).vertebrae
        with pytest.raises(ValidationError, match="z_rank"):
            SpineCase("c", (verts[1], verts[0]))

    def test_z_must_not_increase(self):
        with pytest.raises(ValidationError, match="must not increase"):
            make_case([one_hot(1), one_hot(2)], positions=[(0, 0, 10.0), (0, 0, 20.0)])

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            FusionParams(0.1, 3, 4, "index", {d: np.eye(24) for d in (-2, -1, 1)})

    def test_window_nine_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            FusionParams(0.1, 3, 9, "index", {})

    def test_negative_phi_rejected(self):
        phi = {d: np.eye(24) for d in phi_offsets(3)}
        phi[1] = phi[1].copy()
        phi[1][0, 0] = -0.5
        with pytest.raises(ValidationError, match="non-negative"):
            FusionParams(0.1, 3, 3, "index", phi)

    def test_phi_offsets_must_match_window(self):
        with pytest.raises(ValidationError, match="offsets"):
            FusionParams(0.1, 3, 5, "index", {d: np.eye(24) for d in phi_offsets(3)})

    def test_hops_cap(self):
        with pytest.raises(ValidationError, match="hops"):
            FusionParams(0.1, 11, 3, "index", {d: np.eye(24) for d in phi_offsets(3)})


def _rule_inputs() -> dict:
    """Library calls that each pass one value of the wrong type, by the field the error must name."""
    center = dict(position=(1.0, 2.0, 3.0), mean_dims=(3.0, 2.0), member_count=2, z_rank=0)
    box = dict(case_id="c", volume_shape=(64, 64, 64), slice_count_per_plane=2,
               **{name: [v] for name, v in zip(DETECTION_COLUMNS, (0, 5, 10.0, 20.0, 30.0, 20.0, 0.9))})
    vertebra = make_case([one_hot(3)]).vertebrae[0]
    stored = io.case_to_dict(with_reports(make_case([one_hot(3)])))
    stored["vertebrae"][0]["uncertainty"]["entropy"] = "0.0"
    phi3 = {d: np.eye(N_CLASSES) for d in phi_offsets(3)}
    return {
        "center-position-str": ("position", lambda: VertebraCenter(**center | {"position": ("1", 2.0, 3.0)})),
        "center-position-bool": ("position", lambda: VertebraCenter(**center | {"position": (1.0, True, 2.0)})),
        "center-position-int": ("position", lambda: VertebraCenter(**center | {"position": 5})),
        "center-member-count-float": ("member_count", lambda: VertebraCenter(**center | {"member_count": 2.5})),
        "center-z-rank-float": ("z_rank", lambda: VertebraCenter(**center | {"z_rank": 0.0})),
        "detections-case-id-int": ("case_id", lambda: DetectionSet(**box | {"case_id": 7})),
        "detections-shape-float": ("volume_shape", lambda: DetectionSet(**box | {"volume_shape": (64.7, 64, 64)})),
        "detections-k-float": ("slice_count_per_plane", lambda: DetectionSet(**box | {"slice_count_per_plane": 2.5})),
        "detections-cx-str": ("cx", lambda: DetectionSet(**box | {"cx": ["10"]})),
        "detections-h-bool": ("h", lambda: DetectionSet(**box | {"h": [True]})),
        "detections-slice-float-array": ("slice_index", lambda: DetectionSet(**box | {"slice_index": np.array([5.0])})),
        "params-theta-str": ("theta", lambda: FusionParams("0.1", 3, 3, "index", phi3)),
        "params-window-bool": ("window", lambda: FusionParams(0.1, 3, True, "index", {})),
        "params-offset-float": ("phi offset", lambda: FusionParams(0.1, 3, 3, "index", {-1.0: phi3[-1], 1: phi3[1]})),
        "vertebra-fusion-weight-str": ("fusion_weight", lambda: SpineVertebra(vertebra.center, vertebra.mc,
                                                                              fusion_weight="0.5")),
        "report-entropy-str": ("entropy", lambda: io.case_from_dict(stored)),
        "case-id-int": ("case_id", lambda: SpineCase(7, (vertebra,))),
        "batch-tau-str": ("tau", lambda: EmbeddingBatch(np.eye(2), [0, 0], "0.5")),
        "train-epochs-float": ("epochs", lambda: TrainConfig(learning_rate=0.1, epochs=2.5)),
        "train-learning-rate-str": ("learning_rate", lambda: TrainConfig(learning_rate="0.1", epochs=2)),
        "cluster-eps-pos-str": ("eps_pos", lambda: ClusterConfig("6", 4, 10.0, 0.1)),
        "gen-n-cases-float": ("n_cases", lambda: GenConfig(n_cases=2.5)),
        "gen-range-float": ("vertebrae_range", lambda: GenConfig(vertebrae_range=(4.0, 12))),
        "gen-range-three": ("vertebrae_range", lambda: GenConfig(vertebrae_range=(4, 8, 12))),
        "mc-n-samples-float": ("n_samples", lambda: McConfig(n_samples=2.5)),
        "detect-noise-rate-str": ("noise_rate", lambda: DetectConfig(noise_rate="0.1")),
        "confusion-floor-bool": ("floor", lambda: ConfusionModel(floor=True)),
        "total-loss-str": ("l_se", lambda: total_loss("1", 0.0, 0.0)),
    }


@pytest.mark.parametrize("case", sorted(_rule_inputs()))
def test_numbers_follow_one_rule(case):
    # each once coerced to the number it spells or casts to, or ended in a TypeError
    field, call = _rule_inputs()[case]
    with pytest.raises(ValidationError, match=re.escape(field)):
        call()


class TestImmutability:
    def test_arrays_read_only(self):
        probs = one_hot(4)[None]
        one = McSampleSet(probs)
        probs[0, 4] = 0.5
        assert one.mean_probs[4] == 1.0
        with pytest.raises(ValueError):
            one.mean_probs[0] = 0.5
        mc = McSampleSet(random_probs(np.random.default_rng(0), 3))
        with pytest.raises(ValueError):
            mc.samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            aggregate_samples(mc)[0] = 1.0

    def test_frozen_fields(self):
        d = det()
        with pytest.raises(AttributeError):
            d.cx = 0.0


class TestIngestTolerance:
    """A stored report is accepted only as its samples' report, bit for bit: a ``mean_probs`` off by less than
    1e-6 is rejected, not renormalized."""

    def test_ingest_preserves_exact_vectors(self, tmp_path):
        case = with_reports(random_case(np.random.default_rng(1)))
        path = tmp_path / "case.json"
        io.save_case(case, path)
        text = path.read_text()
        io.save_case(io.load_case(path), path)
        assert path.read_text() == text

    @staticmethod
    def _load_scaled_mean(scale):
        doc = io.case_to_dict(with_reports(make_case([one_hot(4), one_hot(5)], truths=[4, 5])))
        doc["vertebrae"][1]["uncertainty"]["mean_probs"] = (one_hot(5) * scale).tolist()
        with pytest.raises(ValidationError, match="^vertebra 1: the stored uncertainty report does not match "
                                                  "its MC samples$") as rejected:
            io.case_from_dict(doc)
        assert rejected.value.exit_code == 2

    def test_ingest_rejects_loose_vectors(self):
        self._load_scaled_mean(1 + 5e-7)

    def test_ingest_rejects_worse_than_1e6(self):
        self._load_scaled_mean(1 + 5e-6)


def _random_detections(rng, n: int) -> dict[str, np.ndarray]:
    """Columns of n random boxes that fit a (64, 64, 64) volume."""
    return {
        "plane": rng.integers(0, len(PLANES), size=n),
        "slice_index": rng.integers(0, 64, size=n),
        "cx": rng.uniform(0, 64, size=n),
        "cy": rng.uniform(0, 64, size=n),
        "w": rng.uniform(1, 40, size=n),
        "h": rng.uniform(1, 40, size=n),
        "confidence": rng.uniform(0, 1, size=n),
    }


def _random_center(rng, rank=0) -> VertebraCenter:
    return VertebraCenter(
        position=tuple(rng.uniform(0, 200, size=3)),
        mean_dims=tuple(rng.uniform(5, 40, size=2)),
        member_count=int(rng.integers(1, 100)),
        z_rank=rank,
    )


def _random_params(rng) -> FusionParams:
    window = int(rng.choice([1, 3, 5, 7]))
    return FusionParams(
        theta=float(rng.uniform(0, 1)),
        hops=int(rng.integers(0, 11)),
        window=window,
        distance_mode="index" if rng.uniform() < 0.5 else "physical",
        phi={d: rng.uniform(0, 2, size=(24, 24)) for d in phi_offsets(window)},
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
# every code point, lone surrogates and control characters included; short,
# since drawing long strings is most of what a tree costs
ANY_TEXT = st.text(st.characters(categories=["L", "M", "N", "P", "S", "Z", "C"]) | st.sampled_from('"\\/\x00\x1f\x7f'),
                   max_size=4)
FLOAT_EDGES = [-0.0, 5e-324, 1.7976931348623157e308]
PY_FLOATS = FINITE | st.sampled_from(FLOAT_EDGES)
JSON_FLOATS = PY_FLOATS | PY_FLOATS.map(np.float64)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | ANY_TEXT,
    lambda kids: st.lists(JSON_FLOATS, max_size=8) | st.lists(kids) | st.dictionaries(ANY_TEXT, kids),
    max_leaves=40,
)


@st.composite
def spine_cases(draw) -> SpineCase:
    """Any valid case: 1-8 vertebrae, 1-7 MC samples each, any finite geometry,
    no, some or all truths, and optional reports and fusion weights."""
    k = draw(st.integers(1, 8), label="vertebrae")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="probability seed"))
    zs = sorted(draw(st.lists(FINITE, min_size=k, max_size=k), label="z"), reverse=True)
    truths = draw(st.sampled_from(["none", "some", "all"]), label="truths")
    start = draw(st.integers(0, N_CLASSES - k), label="first truth")
    verts = []
    for i, z in enumerate(zs):
        center = VertebraCenter((draw(FINITE), draw(FINITE), z), (draw(POSITIVE), draw(POSITIVE)),
                                draw(st.integers(1, 10**6)), i)
        mc = McSampleSet(random_probs(rng, draw(st.integers(1, 7), label="mc samples"), sharp=draw(st.floats(0.5, 8.0))))
        known = truths == "all" or (truths == "some" and draw(st.booleans()))
        verts.append(SpineVertebra(center, mc, start + i if known else None,
                                   report(mc) if draw(st.booleans(), label="report") else None,
                                   draw(st.none() | UNIT, label="fusion weight")))
    return SpineCase(draw(st.text(max_size=8), label="case_id"), tuple(verts))


@st.composite
def detection_sets(draw) -> DetectionSet:
    """Any valid detection set of 0-30 boxes with any finite box geometry."""
    shape = draw(st.tuples(*[st.integers(1, 10**6)] * 3), label="volume_shape")
    rows = []
    for _ in range(draw(st.integers(0, 30), label="boxes")):
        plane = draw(st.integers(0, len(PLANES) - 1))
        extent = shape[2] if PLANES[plane] == "sagittal" else shape[1]
        rows.append((plane, draw(st.integers(0, extent - 1)), draw(FINITE), draw(FINITE),
                     draw(POSITIVE), draw(POSITIVE), draw(UNIT)))
    columns = zip(*rows) if rows else ([],) * 7
    return DetectionSet(draw(st.text(max_size=8), label="case_id"), shape, draw(st.integers(1, 10**6)),
                        *(list(c) for c in columns))


class TestRoundTrip:
    """save(load(x)) == x bit exactly, over seeded random instances."""

    @settings(max_examples=40, deadline=None)
    @given(case=spine_cases())
    def test_case_file_roundtrip_property(self, tmp_path_factory, case):
        path = tmp_path_factory.mktemp("case") / "case.json"
        io.save_case(case, path)
        assert io.load_case(path) == case
        assert path.read_bytes() == (json.dumps(io.case_to_dict(case), indent=2, allow_nan=False) + "\n").encode()

    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_TREES)
    @example(obj=[*FLOAT_EDGES, *map(np.float64, FLOAT_EDGES), np.float64(0.1)])
    @example(obj={'"\\/\x00\x1f\x7f\ud800\U0001f600' * 8: [{"": np.float64(-0.0)}, "\udfff" * 40]})
    def test_save_json_is_json_dumps_property(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        io.save_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
    @pytest.mark.parametrize("nest", [lambda v: v, lambda v: {"vertebrae": [{"mc": v}]}], ids=["top", "nested"])
    @pytest.mark.parametrize("bad, error", [
        *[(v, ValueError) for v in (math.nan, math.inf, -math.inf)],
        *[([0.25, v, 0.75], ValueError) for v in (math.nan, math.inf, -math.inf)],
        ({1: 0.5}, TypeError),
        ((0.25, 0.75), TypeError),
        ({0.25}, TypeError),
        (b"case", TypeError),
        (np.int64(3), TypeError),
    ])
    def test_save_json_rejection_writes_nothing(self, tmp_path, bad, error, nest, existing):
        path = tmp_path / "doc.json"
        if existing:
            path.write_bytes(b'{"before": 1}\n')
        with pytest.raises(error):
            io.save_json(nest(bad), path)
        assert (path.read_bytes() == b'{"before": 1}\n') if existing else not path.exists()

    @settings(max_examples=40, deadline=None)
    @given(ds=detection_sets())
    def test_detections_file_roundtrip_property(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("detections") / "d.jsonl"
        io.save_detections(ds, path)
        loaded = io.load_detections(path)
        assert (loaded.case_id, loaded.volume_shape, loaded.slice_count_per_plane) == \
            (ds.case_id, ds.volume_shape, ds.slice_count_per_plane)
        for name in DETECTION_COLUMNS:
            got, want = getattr(loaded, name), getattr(ds, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_detections_1000(self, tmp_path):
        ds = DetectionSet("c", (64, 64, 64), 64, **_random_detections(np.random.default_rng(42), 1000))
        io.save_detections(ds, tmp_path / "d.jsonl")
        assert io.load_detections(tmp_path / "d.jsonl") == ds

    def test_centers_1000(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            c = _random_center(rng, rank=int(rng.integers(0, 24)))
            assert io.center_from_dict(json.loads(json.dumps(io.center_to_dict(c)))) == c

    def test_params_1000(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            p = _random_params(rng)
            assert io.params_from_dict(json.loads(json.dumps(io.params_to_dict(p)))) == p

    def test_cases_1000(self):
        rng = np.random.default_rng(45)
        for i in range(1000):
            case = random_case(rng, k=int(rng.integers(1, 6)), with_truth=bool(rng.uniform() < 0.7))
            if i % 3 == 0:  # exercise the optional report and weight fields
                verts = tuple(
                    SpineVertebra(v.center, v.mc, v.truth, report(v.mc), float(rng.uniform()))
                    for v in case.vertebrae
                )
                case = SpineCase(case.case_id, verts)
            assert io.case_from_dict(json.loads(json.dumps(io.case_to_dict(case)))) == case

    def test_case_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(46)
        for i in range(20):
            case = random_case(rng)
            path = tmp_path / f"case_{i}.json"
            io.save_case(case, path)
            assert io.load_case(path) == case

    @pytest.mark.parametrize("metric", ["entropy", "variance"])
    def test_case_with_reports_file_roundtrip(self, tmp_path, metric):
        # the stored reports are the sample sets, and so are the loaded ones
        rng = np.random.default_rng(49)
        for i in range(20):
            case = with_reports(random_case(rng), metric)
            path = tmp_path / f"case_{i}.json"
            io.save_case(case, path)
            loaded = io.load_case(path)
            assert loaded == case and case == loaded
            assert all(v.uncertainty is v.mc for v in loaded.vertebrae)

    def test_detections_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(47)
        for i in range(20):
            ds = DetectionSet(f"c{i}", (64, 64, 64), 64, **_random_detections(rng, int(rng.integers(1, 30))))
            path = tmp_path / f"d{i}.jsonl"
            io.save_detections(ds, path)
            assert io.load_detections(path) == ds

    def test_params_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(48)
        for i in range(20):
            p = _random_params(rng)
            path = tmp_path / f"p{i}.json"
            io.save_fusion_params(p, path)
            assert io.load_fusion_params(path) == p

    def test_phi_keys_are_signed(self, tmp_path):
        p = _random_params(np.random.default_rng(49))
        while p.window == 1:
            p = _random_params(np.random.default_rng(50))
        io.save_fusion_params(p, tmp_path / "p.json")
        keys = json.loads((tmp_path / "p.json").read_text())["phi"].keys()
        assert all(k[0] in "+-" for k in keys)


class TestParseErrors:
    def test_malformed_jsonl_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "c", "volume_shape": [10, 10, 10], "k": 5}\n{broken\n')
        with pytest.raises(ParseError) as err:
            io.load_detections(path)
        assert err.value.line == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "c", "volume_shape": [10, 10, 10], "k": 5}\n{"plane": "sagittal"}\n')
        with pytest.raises(ParseError, match="slice_index"):
            io.load_detections(path)

    def test_case_invariant_violation_is_validation(self, tmp_path):
        case = make_case([one_hot(7), one_hot(8)], truths=[7, 8])
        data = io.case_to_dict(case)
        data["vertebrae"][1]["truth"] = 9
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="exactly 1"):
            io.load_case(path)

    @pytest.mark.parametrize("first, second", [("+1", "1"), ("-1", "-01"), ("1", "+1")])
    def test_two_phi_keys_for_one_offset(self, tmp_path, first, second):
        # once loaded with no error, the matrix written last winning
        data = io.params_to_dict(identity_params(window=3))
        flat = data["phi"]["+1"]
        data["phi"] = {"-1": flat, first: flat, second: [0.5] * len(flat)}
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=re.escape(f"phi keys {first!r} and {second!r} name the same offset")):
            io.load_fusion_params(path)

    @pytest.mark.parametrize("kind", ["detections", "centers", "params-negative", "params-window", "batch",
                                      "labels", "case"])
    def test_domain_errors_name_the_file(self, tmp_path, kind):
        # detections, centers, params and batch errors once named no file
        path = tmp_path / "input"
        if kind == "detections":
            io.save_detections(det(), path)
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0], json.dumps(json.loads(lines[1]) | {"h": 0})]) + "\n")
            load, message = io.load_detections, "h must be positive"
        elif kind == "centers":
            center = io.center_to_dict(make_case([one_hot(3)]).vertebrae[0].center)
            path.write_text(json.dumps([center | {"member_count": 0}]))
            load, message = io.load_centers, "member_count must be at least 1"
        elif kind.startswith("params"):
            data = io.params_to_dict(identity_params(window=3))
            if kind == "params-window":
                data["window"] = 9
            else:
                data["phi"]["+1"][0] = -0.5
            path.write_text(json.dumps(data))
            load, message = io.load_fusion_params, "window" if kind == "params-window" else "non-negative"
        elif kind == "batch":
            path.write_text(json.dumps({"tau": 0.5, "labels": [0, 0, 1, 2], "vectors": np.eye(4).tolist()}))
            load, message = io.load_embedding_batch, "no positive partner"
        elif kind == "labels":
            path.write_text(json.dumps({"labels": 1.5}))
            load, message = io.load_labels, "field 'labels' has an invalid value 1.5"
        else:
            data = io.case_to_dict(make_case([one_hot(7), one_hot(8)], truths=[7, 8]))
            data["vertebrae"][1]["truth"] = 9
            path.write_text(json.dumps(data))
            load, message = io.load_case, "exactly 1"
        with pytest.raises(ValidationError, match=re.escape(message)) as err:
            load(path)
        assert str(err.value).endswith(f" [{path}]") and err.value.path == str(path)

    def test_detections_header_error_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        io.save_detections(det(), path)
        header, box = path.read_text().splitlines()
        path.write_text("\n".join(["", json.dumps(json.loads(header) | {"volume_shape": [0, 64, 64]}), box]) + "\n")
        with pytest.raises(ValidationError, match="three positive extents") as err:
            io.load_detections(path)
        assert str(err.value).endswith(f" [{path}:2]")

    def test_empty_case_file(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text('{"case_id": "c", "vertebrae": []}')
        with pytest.raises(ValidationError, match="at least one vertebra"):
            io.load_case(path)
