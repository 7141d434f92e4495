import numpy as np
import pytest

from capgest import neighbors
from capgest.config import PipelineConfig, format_config, load_config, parse_config_text
from capgest.errors import (
    CorruptFile,
    DataError,
    EmptyEvalSet,
    EmptySplit,
    FileFormatError,
    NonFiniteInput,
    VersionMismatch,
)
from capgest.pipeline import (
    BUNDLE_FORMAT_VERSION,
    BUNDLE_MAGIC,
    audit_report,
    bench_latency,
    bundle_from_state,
    bundle_state,
    cross_validate,
    evaluate,
    load_bundle,
    save_bundle,
    serialize_bundle,
    train_pipeline,
)
from capgest.signals import DatasetSplit, GestureLabel, feature_matrix, label_array

FAST_CONFIG = PipelineConfig(corrector_kernels=("pca:20", "poly:5:4"))


class TestTraining:
    def test_bundle_structure(self, small_bundle):
        assert small_bundle.base_pca.components.shape == (100, 3)
        assert small_bundle.base_knn.k == 5
        assert len(small_bundle.discovered_group_ids) >= 2
        assert small_bundle.correctors  # at least one corrector trains
        for c in small_bundle.correctors:
            assert c.group.group_id in small_bundle.discovered_group_ids
        # the bundle keeps exactly the kernels some corrector reads
        used = {c.kernel_name for c in small_bundle.correctors}
        assert set(small_bundle.corrector_kernels) == used

    def test_knn_references_come_from_validation(self, small_bundle, small_split):
        assert small_bundle.base_knn.points.shape[0] == len(small_split.validation)

    def test_train_ablation_uses_train_references(self, small_split):
        config = PipelineConfig(
            base_knn_fit="train", corrector_kernels=("pca:9",)
        )
        bundle = train_pipeline(config, small_split)
        assert bundle.base_knn.points.shape[0] == len(small_split.train)

    def test_zero_regression_on_train(self, small_bundle, small_split):
        X = feature_matrix(small_split.train)
        y = label_array(small_split.train)
        base = small_bundle.predict_base_batch(X)
        corrected = small_bundle.predict_batch(X)
        assert (corrected == y).sum() >= (base == y).sum()
        # every override fixed a sample the base model got wrong
        changed = corrected != base
        assert np.all(base[changed] != y[changed])

    def test_zero_fp_on_validation(self, small_bundle, small_split):
        # the validation partition is the holdout sweep of every threshold
        X = feature_matrix(small_split.validation)
        y = label_array(small_split.validation)
        base = small_bundle.predict_base_batch(X)
        right = base == y
        assert right.any()
        assert np.array_equal(small_bundle.predict_batch(X)[right], base[right])

    def test_empty_split_rejected(self):
        with pytest.raises(EmptySplit):
            train_pipeline(PipelineConfig(), DatasetSplit((), (), (), ()))


class TestEvaluate:
    def test_report_consistency(self, small_bundle, small_split):
        report = evaluate(small_bundle, small_split.test)
        assert report.n_samples == len(small_split.test)
        assert report.confusion_base.sum() == report.n_samples
        assert report.confusion_corrected.sum() == report.n_samples
        assert report.base_accuracy == pytest.approx(
            np.trace(report.confusion_base) / report.n_samples
        )
        assert report.corrected_accuracy == pytest.approx(
            np.trace(report.confusion_corrected) / report.n_samples
        )
        assert set(r["group_id"] for r in report.per_group) == set(
            small_bundle.discovered_group_ids
        )
        text = report.format_text()
        assert "overall accuracy" in text
        assert isinstance(report.to_dict()["confusion_base"], list)

    def test_empty_eval_set(self, small_bundle):
        with pytest.raises(EmptyEvalSet):
            evaluate(small_bundle, [])

    def test_predict_single_matches_batch(self, small_bundle, small_split):
        X = feature_matrix(small_split.hold[:40])
        batch = small_bundle.predict_batch(X)
        assert [int(small_bundle.predict(x)) for x in X] == batch.tolist()
        assert isinstance(small_bundle.predict(X[0]), GestureLabel)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, small_bundle, small_split, bad):
        X = feature_matrix(small_split.hold[:5])
        X[3, 17] = bad
        assert issubclass(NonFiniteInput, DataError)
        with pytest.raises(NonFiniteInput, match="row 0"):
            small_bundle.predict(X[3])
        with pytest.raises(NonFiniteInput, match="row 3"):
            small_bundle.predict_batch(X)
        with pytest.raises(NonFiniteInput, match="row 3"):
            small_bundle.predict_base_batch(X)


class TestPersistence:
    def test_round_trip_preserves_predictions(self, small_bundle, small_split, tmp_path):
        path = tmp_path / "m.capgest"
        size = save_bundle(small_bundle, path)
        assert size == path.stat().st_size
        loaded = load_bundle(path)
        X = feature_matrix(small_split.test[:300])
        assert np.array_equal(loaded.predict_batch(X), small_bundle.predict_batch(X))
        assert loaded.config == small_bundle.config
        assert loaded.discovered_group_ids == small_bundle.discovered_group_ids

    def test_knn_derived_fields_rebuilt_not_serialized(self, small_bundle, tmp_path):
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        knn, loaded = small_bundle.base_knn, load_bundle(path).base_knn
        for name in ("sq_norms", "classes", "codes"):
            assert np.array_equal(getattr(loaded, name), getattr(knn, name))
            assert name not in bundle_state(small_bundle)["base_knn"]
        assert np.array_equal(knn.sq_norms, neighbors.sq_norms(knn.points))
        assert np.array_equal(knn.classes[knn.codes], knn.labels)

    def test_state_round_trip(self, small_bundle):
        rebuilt = bundle_from_state(bundle_state(small_bundle))
        assert serialize_bundle(rebuilt) == serialize_bundle(small_bundle)

    def test_corrupt_payload_detected(self, small_bundle, tmp_path):
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile, match="checksum"):
            load_bundle(path)

    def test_bad_magic_and_version(self, small_bundle, tmp_path):
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CorruptFile):
            load_bundle(path)
        path.write_bytes(BUNDLE_MAGIC + bytes([BUNDLE_FORMAT_VERSION + 1, 0, 0, 0]) + blob[8:])
        with pytest.raises(VersionMismatch):
            load_bundle(path)

    def test_format_1_rejected(self, small_bundle, tmp_path):
        # format 1 carried the removed one-vs-rest LDA router fields; format 2
        # every configured corrector kernel and the LDA scatter matrices
        assert BUNDLE_FORMAT_VERSION == 3
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        blob = path.read_bytes()
        for old in (1, 2):
            path.write_bytes(BUNDLE_MAGIC + bytes([old, 0, 0, 0]) + blob[8:])
            with pytest.raises(VersionMismatch, match=f"version {old}"):
                load_bundle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptFile):
            load_bundle(tmp_path / "absent.capgest")


class TestCrossValidate:
    def test_pinned_hold_and_summary(self, small_samples):
        summary = cross_validate(FAST_CONFIG, small_samples, n_combos=2)
        assert summary["n_combos"] == 2
        assert summary["pinned_hold"] == ["u14", "u15"]
        for name in ("train", "validation", "test", "hold"):
            stats = summary["splits"][name]["corrected"]
            assert 0.0 <= stats["min"] <= stats["mean"] <= stats["max"] <= 1.0


class TestBench:
    def test_latency_stats(self, small_bundle, small_split):
        X = feature_matrix(small_split.test[:20])
        stats = bench_latency(small_bundle, X, warmup=5, iters=30)
        assert stats["n_timed"] == 30
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        assert stats["backend"] == neighbors.BACKEND

    def test_empty_probe(self, small_bundle):
        stats = bench_latency(small_bundle, np.empty((0, 100)), iters=0)
        assert stats["n_timed"] == 0
        assert stats["backend"] == neighbors.BACKEND

    def test_audit_report_sorted(self, small_bundle):
        records = audit_report(small_bundle)
        ids = [r["group_id"] for r in records]
        assert ids == sorted(ids)


class TestConfig:
    def test_text_round_trip(self):
        config = PipelineConfig(
            n_pcs=4,
            corrector_kernels=("pca:9", "concat(pca:10,poly:5:4)"),
            pinned_hold=("u02",),
        )
        assert parse_config_text(format_config(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(FileFormatError, match="unknown"):
            parse_config_text("bogus = 1")

    def test_comments_and_blanks(self):
        config = parse_config_text("# note\n\nn_pcs = 7  # trailing\n")
        assert config.n_pcs == 7

    def test_bad_values(self):
        with pytest.raises(FileFormatError):
            parse_config_text("n_pcs = many")
        with pytest.raises(FileFormatError):
            parse_config_text("n_pcs")
        with pytest.raises(FileFormatError):
            parse_config_text("base_knn_fit = maybe")

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("knn_k = 9\nuser_counts = 9; 3; 2; 1\n", encoding="utf-8")
        config = load_config(path)
        assert config.knn_k == 9
        assert config.user_counts == (9, 3, 2, 1)
        with pytest.raises(FileFormatError):
            load_config(tmp_path / "absent.cfg")
