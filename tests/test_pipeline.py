import gc
import hashlib
import json
import pickle
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest import neighbors, pipeline
from capgest.cli import main
from capgest.config import PipelineConfig, format_config, load_config, parse_config_text
from capgest.errors import (
    CapgestError,
    CorruptFile,
    DataError,
    DimensionMismatch,
    EmptyEvalSet,
    EmptyModel,
    EmptySplit,
    FeatureOutOfRange,
    FileFormatError,
    InconsistentBundle,
    NonFiniteInput,
    NonNumericInput,
    VersionMismatch,
)
from capgest.classify import (
    BINARY_FITS,
    CentroidModel,
    KnnModel,
    LdaModel,
    binary_kind,
    binary_scores,
    centroid_fit,
    knn_cell_share,
    knn_fit,
    knn_map_share,
    knn_predict_batch,
)
from capgest.corrector import (
    THRESHOLD_MARGIN,
    Corrector,
    GroupClassifier,
    audit_records,
    discover_groups,
    select_threshold_zero_fp,
)
from capgest.embed import (
    kernel_apply,
    kernel_fit,
    kernel_output_width,
    parse_kernel_spec,
    pca_fit,
    pca_transform,
)
from capgest.pipeline import (
    BUNDLE_FORMAT_VERSION,
    BUNDLE_MAGIC,
    ModelBundle,
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
from capgest.signals import DatasetSplit, GestureLabel, feature_matrix, label_array, split_by_user

FAST_CONFIG = PipelineConfig(corrector_kernels=("pca:20", "poly:5:4"))


def format_4_parts(state):
    """The JSON header and the arrays of a format-4 or format-5 file (the two
    share their layout) of ``state``, a :func:`bundle_state` dict; built here
    from the format's description, not by ``serialize_bundle``, and without
    its dedupe or int narrowing."""
    arrays = []

    def refs(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return {"@array": len(arrays) - 1}
        if isinstance(value, dict):
            return {key: refs(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [refs(v) for v in value]
        return value

    state = refs(state)
    return {"arrays": [[a.dtype.str, list(a.shape)] for a in arrays], "state": state}, arrays


def format_4_blob(header, arrays, version=BUNDLE_FORMAT_VERSION):
    head = json.dumps(header).encode()
    payload = struct.pack("<I", len(head)) + head
    for a in arrays:
        payload += bytes(-len(payload) % 8) + a.tobytes()
    return with_digest(payload, version)


def with_digest(payload, version=BUNDLE_FORMAT_VERSION):
    return BUNDLE_MAGIC + struct.pack("<I", version) + hashlib.sha256(payload).digest() + payload


def array_leaves(value):
    """Every array of a bundle_state dict, in walk order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in array_leaves(v)]
    return []


class TestTraining:
    def test_bundle_structure(self, small_bundle):
        assert small_bundle.base_pca.shape == (100, 3)
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

    def test_each_kernel_applied_once_to_validation(self, small_split, monkeypatch):
        config = PipelineConfig(
            corrector_kernels=("pca:20", "poly:5:4", "concat(pca:10,poly:5:4)")
        )
        x_train, x_val = feature_matrix(small_split.train), feature_matrix(small_split.validation)
        calls = []

        def recording(kernel, X):
            calls.append((kernel.spec.encode(), X.tobytes()))
            return kernel_apply(kernel, X)

        monkeypatch.setattr(pipeline, "kernel_apply", recording)
        bundle = train_pipeline(config, small_split)
        # per kernel in config order, per gated base label, that label's train
        # rows and then its validation rows; kernel_apply builds the concat itself
        gated = dict.fromkeys(g % len(GestureLabel) for g in bundle.discovered_group_ids)
        preds_train = bundle.predict_base_batch(x_train)
        preds_val = bundle.predict_base_batch(x_val)
        want = [
            (name, rows.tobytes())
            for name in config.corrector_kernels
            for label in gated
            for rows in (x_train[preds_train == label], x_val[preds_val == label])
        ]
        assert calls == want
        assert len(gated) > 1


def reference_train_pipeline(
    config: PipelineConfig, split: DatasetSplit, per_label: bool = True
) -> ModelBundle:
    """The group-outer corrector grid that ``train_pipeline`` replaced, kept as
    the oracle: every kernel fitted up front, then per group the kernels in
    config order and the classifiers in order, a later cell kept only on
    strictly more train TP.  A group's candidate features are the kernel
    applied to the rows its base label selects, as the product computes
    them; with ``per_label=False`` they are rows of the kernel applied to
    both whole partitions, as the product computed them before.  The
    router's centroids are the means of the group kernel's features over
    each discovered group's training errors, fitted only where a base label
    gates several groups."""
    x_train, y_train = feature_matrix(split.train), label_array(split.train)
    x_val, y_val = feature_matrix(split.validation), label_array(split.validation)
    base_pca = pca_fit(x_train, config.n_pcs)
    base_knn = knn_fit(pca_transform(base_pca, x_val), y_val, config.knn_k)
    preds_train = knn_predict_batch(base_knn, pca_transform(base_pca, x_train))
    preds_val = knn_predict_batch(base_knn, pca_transform(base_pca, x_val))
    groups = discover_groups(y_train, preds_train, config.min_support)

    names = list(dict.fromkeys(config.corrector_kernels))
    kernels = {
        name: kernel_fit(parse_kernel_spec(name), x_train)
        for name in dict.fromkeys((config.group_kernel, *names))
    }
    group_classifier = None
    if len({int(g.predicted) for g in groups}) < len(groups):
        kernel = kernels[config.group_kernel]
        ids = len(GestureLabel) * y_train + preds_train
        discovered = {g.group_id for g in groups}
        rows = [i for i, gid in enumerate(ids.tolist()) if gid in discovered]
        group_classifier = GroupClassifier(
            kernel=kernel, centroid=centroid_fit(kernel_apply(kernel, x_train[rows]), ids[rows])
        )
    if not per_label:
        feats_train = {name: kernel_apply(kernels[name], x_train) for name in names}
        feats_val = {name: kernel_apply(kernels[name], x_val) for name in names}

    correctors = []
    for group in groups:
        rows, rows_val = preds_train == int(group.predicted), preds_val == int(group.predicted)
        y = (y_train[rows] == int(group.truth)).astype(np.int64)
        y_h = (y_val[rows_val] == int(group.truth)).astype(np.int64)
        if not y.any() or y.all():
            continue
        best = None
        for name in names:
            if per_label:
                f = kernel_apply(kernels[name], x_train[rows])
                f_h = kernel_apply(kernels[name], x_val[rows_val])
            else:
                f, f_h = feats_train[name][rows], feats_val[name][rows_val]
            for fit in BINARY_FITS.values():
                model = fit(f, y)
                s, s_h = binary_scores(model, f), binary_scores(model, f_h)
                threshold = select_threshold_zero_fp(s, y, s_h, y_h)
                if threshold is None:
                    continue
                # the rounding margin, where it stays above every negative
                floor = max(s[y == 0].max(initial=-np.inf), s_h[y_h == 0].max(initial=-np.inf))
                lowered = threshold - 1e-9 * max(1.0, abs(threshold))
                if lowered > floor:
                    threshold = lowered
                tp = int((s >= threshold).sum())
                if best is None or tp > best.train_tp:
                    best = Corrector(
                        group_id=group.group_id,
                        kernel_name=name,
                        model=model,
                        threshold=threshold,
                        train_tp=tp,
                        train_positives=int(y.sum()),
                        holdout_tp=int((s_h >= threshold).sum()),
                        holdout_positives=int(y_h.sum()),
                    )
        if best is not None:
            correctors.append(best)
    used = {c.kernel_name for c in correctors}
    return ModelBundle(
        config=config,
        base_pca=base_pca,
        base_knn=base_knn,
        group_classifier=group_classifier,
        correctors=tuple(correctors),
        corrector_kernels={name: kernels[name] for name in names if name in used},
        discovered_group_ids=tuple(g.group_id for g in groups),
    )


class TestKernelAtATimeGrid:
    @pytest.mark.parametrize("kernel_order", ["config", "reversed"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bundle_bytes_equal_group_outer_grid(self, small_samples, seed, kernel_order):
        names = PipelineConfig().corrector_kernels
        config = PipelineConfig(
            corrector_kernels=names if kernel_order == "config" else names[::-1]
        )
        # both kernel orders, so a tie on train TP between kernels must go
        # to the one earlier in the config either way
        split = split_by_user(small_samples, config.user_counts, seed=seed)
        want = serialize_bundle(reference_train_pipeline(config, split))
        assert serialize_bundle(train_pipeline(config, split)) == want

    def test_label_without_validation_candidates(self, small_bundle, small_split, monkeypatch):
        # the base model gives no validation row the label of a gated group:
        # its kernels are applied to no validation rows, and its correctors
        # are thresholded on the train candidates alone
        n = len(GestureLabel)
        label = small_bundle.correctors[0].group_id % n
        n_val = len(small_split.validation)
        sweep = knn_predict_batch

        def no_label_on_validation(model, X):
            preds = sweep(model, X)
            if len(X) == n_val:
                preds[preds == label] = (label + 1) % n
            return preds

        monkeypatch.setattr(pipeline, "knn_predict_batch", no_label_on_validation)
        monkeypatch.setitem(globals(), "knn_predict_batch", no_label_on_validation)
        bundle = train_pipeline(PipelineConfig(), small_split)
        assert serialize_bundle(bundle) == serialize_bundle(
            reference_train_pipeline(PipelineConfig(), small_split)
        )
        gated = [c for c in bundle.correctors if c.group_id % n == label]
        assert gated and all(c.holdout_positives == c.holdout_tp == 0 for c in gated)


def cell(corrector: Corrector) -> tuple:
    return (
        corrector.group_id,
        corrector.kernel_name,
        binary_kind(corrector.model),
        corrector.train_tp,
    )


class TestPerLabelFeatures:
    """The grid applies a kernel to one base label's rows at a time, where it
    used to take rows of the kernel's output on the whole partition.  A
    product over few rows may round unlike the same rows of a whole-matrix
    product (OpenBLAS picks its code path by the size of the product and the
    thread count), so a threshold may move in its last bits; no cell and no
    label may."""

    @pytest.mark.parametrize("seed", range(5))
    def test_predictions_equal_full_matrix_features(self, small_samples, seed):
        config = PipelineConfig()
        split = split_by_user(small_samples, config.user_counts, seed=seed)
        got = train_pipeline(config, split)
        want = reference_train_pipeline(config, split, per_label=False)
        assert [cell(c) for c in got.correctors] == [cell(c) for c in want.correctors]
        # a threshold may move by a hundredth of the rounding margin that
        # corrector.with_margin puts below it; measured on these seeds, at
        # most 1.6e-12 (seed 3, a concat kernel's LDA), with one BLAS thread
        # or two
        for c, w in zip(got.correctors, want.correctors):
            bound = THRESHOLD_MARGIN / 100 * max(1.0, abs(w.threshold))
            assert abs(c.threshold - w.threshold) <= bound, c.group_id
        for part in (split.train, split.test, split.hold):
            X = feature_matrix(part)
            assert np.array_equal(got.predict_batch(X), want.predict_batch(X))


def heap_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates over what was allocated before it,
    as ``tracemalloc`` sees them: numpy's arrays, not LAPACK's own buffers."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    # the unit is one train-row matrix as wide as the widest default
    # expansion, poly:8:3's 164 monomials; on the small corpus 4,841 rows,
    # 6.35 MB.  Measured: the poly:8:3 fit 1.29 units with the monomials and
    # the variance built in row blocks (2.08 with one full-size gather and
    # X.std's centered copy, 2.18 while it also computed its train output,
    # 3.10 while it held the raw expansion through the whitening); the pca:20
    # fit with the basis 0.69 units with one standardized copy of the train
    # matrix (1.23 with two); kernel_apply of poly:8:3 on the train matrix
    # 2.01 units (3.01 while it subtracted the offset into a copy);
    # train_pipeline 2.42 units with each gated label's candidates applied
    # and searched on their own (3.56 with one kernel's outputs on both whole
    # partitions held at a time, when the search on poly:8:3 set the peak;
    # 4.26 while it cached nested outputs for the concat kernel, 6.16-6.32
    # while it held every kernel's outputs for the whole grid)

    def unit(self, split) -> int:
        return len(split.train) * 164 * 8

    def test_poly_fit_holds_no_raw_copy(self, small_split):
        x = feature_matrix(small_split.train)
        peak = heap_peak(lambda: kernel_fit(parse_kernel_spec("poly:8:3"), x, {}))
        assert peak < 1.75 * self.unit(small_split)

    def test_pca_basis_holds_one_standardized_copy(self, small_split):
        x = feature_matrix(small_split.train)
        peak = heap_peak(lambda: kernel_fit(parse_kernel_spec("pca:20"), x, {}))
        assert peak < 1.0 * self.unit(small_split)

    def test_poly_apply_holds_no_offset_copy(self, small_split):
        x = feature_matrix(small_split.train)
        kernel = kernel_fit(parse_kernel_spec("poly:8:3"), x)
        peak = heap_peak(lambda: kernel_apply(kernel, x))
        assert peak < 2.5 * self.unit(small_split)

    def test_grid_holds_one_kernel_at_a_time(self, small_split):
        peak = heap_peak(lambda: train_pipeline(PipelineConfig(), small_split))
        assert peak < 3.0 * self.unit(small_split)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_single_row_labels_equal_batch_on_train(self, small_samples, seed):
        # a one-row product rounds unlike the batch product; the thresholds'
        # rounding margin keeps every train window's label the same
        config = PipelineConfig()
        split = split_by_user(small_samples, config.user_counts, seed=seed)
        bundle = train_pipeline(config, split)
        X = feature_matrix(split.train)
        single = np.array([int(bundle.predict(x)) for x in X])
        assert np.array_equal(single, bundle.predict_batch(X))

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


class TestPredictInput:
    """``predict`` takes exactly one row of 100 numbers, ``predict_batch`` rows of them."""

    @pytest.mark.parametrize(
        "shape", [(2, 100), (0, 100), (1, 1, 100), (2, 1, 100), (99,), (1, 101), ()]
    )
    def test_predict_rejects_shape(self, small_bundle, shape):
        X = np.full(shape, 0.5)
        with pytest.raises(DimensionMismatch, match=re_shape(shape)) as exc:
            small_bundle.predict(X)
        assert isinstance(exc.value, DataError)

    @pytest.mark.parametrize("shape", [(1, 1, 100), (3, 99), (99,), ()])
    def test_batch_rejects_shape(self, small_bundle, shape):
        with pytest.raises(DimensionMismatch, match=re_shape(shape)):
            small_bundle.predict_batch(np.full(shape, 0.5))
        with pytest.raises(DimensionMismatch, match=re_shape(shape)):
            small_bundle.predict_base_batch(np.full(shape, 0.5))

    def test_one_row_matrix_is_one_sample(self, small_bundle, small_split):
        X = feature_matrix(small_split.hold[:3])
        assert small_bundle.predict(X[1:2]) == small_bundle.predict(X[1])
        assert small_bundle.predict_batch(np.empty((0, 100))).shape == (0,)

    @pytest.mark.parametrize("bad", [["0.5"] * 99 + ["abc"], [0.5] * 50 + [{}] * 50])
    def test_non_numeric_rejected(self, small_bundle, bad):
        assert issubclass(NonNumericInput, DataError)
        expected = "abc" if "abc" in bad else "dict"
        with pytest.raises(NonNumericInput, match=expected):
            small_bundle.predict(bad)
        with pytest.raises(NonNumericInput, match=expected):
            small_bundle.predict_batch([bad, bad])

    def test_ragged_rows_rejected(self, small_bundle):
        with pytest.raises(DimensionMismatch, match=re.escape("row 1 has shape (99,)")):
            small_bundle.predict_batch([[0.5] * 100, [0.5] * 99])
        with pytest.raises(DimensionMismatch, match=re.escape("row 2 has shape (100,)")):
            small_bundle.predict([[0.5] * 99, [0.5] * 99, [0.5] * 100])
        with pytest.raises(DimensionMismatch, match="ragged"):
            small_bundle.predict_batch([[[0.5] * 100, [0.5] * 99]])

    @pytest.mark.parametrize("bad, shown", [(1e6, "1000000.0"), (-5, "-5.0"), (1.001, "1.001")])
    def test_out_of_range_rejected(self, small_bundle, small_split, bad, shown):
        X = feature_matrix(small_split.hold[:5])
        X[3, 17] = bad
        assert issubclass(FeatureOutOfRange, DataError)
        with pytest.raises(FeatureOutOfRange, match=f"row 0: value {shown} outside"):
            small_bundle.predict(X[3])
        with pytest.raises(FeatureOutOfRange, match=f"row 3: value {shown} outside"):
            small_bundle.predict_batch(X)
        # the first bad row decides; a NaN in it makes it non-finite
        X[3, 18] = np.nan
        with pytest.raises(NonFiniteInput, match="row 3"):
            small_bundle.predict_batch(X)

    def test_range_edges_accepted(self, small_bundle):
        for edge in (0.0, 1.0, -1e-9, 1 + 1e-9):
            assert small_bundle.predict([edge] * 100) in GestureLabel

    def test_none_is_not_finite(self, small_bundle):
        # numpy reads None as NaN
        with pytest.raises(NonFiniteInput, match="row 0"):
            small_bundle.predict([0.5] * 99 + [None])

    def test_numeric_strings_accepted(self, small_bundle, small_split):
        x = feature_matrix(small_split.hold[:1])[0]
        assert small_bundle.predict([repr(float(v)) for v in x]) == small_bundle.predict(x)


def re_shape(shape):
    return re.escape(str(tuple(shape)))


# Edits of a bundle_state dict for test_bundle_that_loads_predicts: each
# changes the state of ``bundle`` and returns the message that refuses it.

def set_cell(where, cell, value):
    """An edit that sets ``cell`` of the array at the keys ``where(bundle)``."""

    def edit(state, bundle):
        *keys, name = where(bundle)
        holder = state
        for key in keys:
            holder = holder[key]
        holder[name] = holder[name].copy()
        holder[name][cell] = value
        part = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in [*keys, name])
        problem = "values that are no GestureLabel" if name == "labels" else "non-finite values"
        return f"{part[1:]} holds {problem}"

    return edit


def drop_router(state, bundle):
    # the small bundle has a base label that gates several groups
    state["group_classifier"] = None
    return "group classifier missing: a bundle has one exactly where a base label gates several"


def other_router_ids(state, bundle):
    centroid = state["group_classifier"]["centroid"]
    classes = centroid["classes"] = centroid["classes"].copy()
    n = len(GestureLabel)
    classes[0] = next(
        g for g in range(n * n) if g // n != g % n and g not in bundle.discovered_group_ids
    )
    return "group classifier ids"


def undiscovered_corrector(state, bundle):
    group_id = bundle.correctors[0].group_id
    state["discovered_group_ids"].remove(group_id)
    return "corrector group ids"


def float_group_id(state, bundle):
    ids = state["discovered_group_ids"]
    ids[-1] = float(ids[-1])
    return f"discovered_group_ids {tuple(ids)} are not all ints"


def corrector_twice(state, bundle):
    # routing kept the last corrector of a group id: this one never fires
    state["correctors"].append(dict(state["correctors"][0], threshold=1e300))
    ids = [c.group_id for c in bundle.correctors] + [bundle.correctors[0].group_id]
    return f"corrector group ids {ids} are not distinct"


def pca_1_d(state, bundle):
    state["base_pca"] = state["base_pca"][:, 0]
    return "base_pca is no 2-D array (ndarray, shape (100,))"


class TestBundleConsistency:
    """A bundle whose parts disagree on widths is rejected when it is built."""

    def test_wrong_kernel_matrix_width(self, small_bundle):
        gc = small_bundle.group_classifier
        bad = replace(gc, kernel=replace(gc.kernel, matrix=gc.kernel.matrix[:-1]))
        with pytest.raises(InconsistentBundle, match="matrix"):
            replace(small_bundle, group_classifier=bad)

    def test_wrong_corrector_kernel_width(self, small_bundle):
        name, kernel = next(iter(small_bundle.corrector_kernels.items()))
        kernel = replace(kernel, matrix=kernel.matrix[:, :-1])
        kernels = dict(small_bundle.corrector_kernels, **{name: kernel})
        with pytest.raises(InconsistentBundle, match="offset"):
            replace(small_bundle, corrector_kernels=kernels)

    @pytest.mark.parametrize(
        "part, cut, named",
        [
            ("matrix", lambda a: a[:-1], "matrix"),
            ("matrix", lambda a: a[:, 0], "matrix"),
            ("matrix", lambda a: a[..., None], "matrix"),
            ("offset", lambda a: a[:-1], "offset"),
            ("offset", lambda a: a[:, None], "offset"),
        ],
        ids=["rows", "1-d", "3-d", "offset-short", "offset-2-d"],
    )
    def test_wrong_kernel_map_shape(self, small_bundle, tmp_path, part, cut, named):
        # a matrix short of a column: test_wrong_corrector_kernel_width and
        # test_load_rejects_inconsistent_state
        kernels = small_bundle.corrector_kernels
        name, kernel = next(iter(kernels.items()))
        bad = replace(kernel, **{part: cut(getattr(kernel, part))})
        with pytest.raises(InconsistentBundle, match=f"kernel {re.escape(name)}: {named}"):
            replace(small_bundle, corrector_kernels=dict(kernels, **{name: bad}))
        state = bundle_state(small_bundle)
        stage = state["corrector_kernels"][name]
        stage[part] = cut(stage[part])
        path = tmp_path / "map.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match=f"kernel {re.escape(name)}: {named}"):
            load_bundle(path)

    def test_wrong_group_centroid_width(self, small_bundle):
        gc = small_bundle.group_classifier
        centroid = replace(gc.centroid, centroids=gc.centroid.centroids[:, :-1])
        with pytest.raises(InconsistentBundle, match="group classifier centroids"):
            replace(small_bundle, group_classifier=replace(gc, centroid=centroid))

    def test_router_kernel_must_be_pca(self, small_bundle, small_split, tmp_path):
        # routing folds the router's affine pca map; poly:3:2 gives the 9
        # features of pca:9, so the centroids pass the width check and the
        # kind is what refuses the bundle
        gc = small_bundle.group_classifier
        poly = kernel_fit(parse_kernel_spec("poly:3:2"), feature_matrix(small_split.train))
        assert kernel_output_width(poly, 100) == gc.centroid.centroids.shape[1]
        message = "group classifier kernel kind 'poly' is no pca"
        with pytest.raises(InconsistentBundle, match=message):
            replace(small_bundle, group_classifier=replace(gc, kernel=poly))
        state = bundle_state(small_bundle)
        state["group_classifier"]["kernel"] = pipeline._encode(poly, lambda array: array)
        path = tmp_path / "router.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match=message):
            load_bundle(path)

    def test_wrong_corrector_width_and_missing_kernel(self, small_bundle):
        c = small_bundle.correctors[0]
        if isinstance(c.model, LdaModel):
            bad = replace(c, model=replace(c.model, w=c.model.w[:-1]))
        else:
            bad = replace(c, model=replace(c.model, centroids=c.model.centroids[:, :-1]))
        with pytest.raises(InconsistentBundle, match=f"corrector {c.group_id}"):
            replace(small_bundle, correctors=(bad, *small_bundle.correctors[1:]))
        with pytest.raises(InconsistentBundle, match="lacks"):
            replace(small_bundle, corrector_kernels={})

    def test_wrong_base_widths(self, small_bundle):
        knn = small_bundle.base_knn
        with pytest.raises(InconsistentBundle, match="base_knn.points"):
            replace(small_bundle, base_knn=type(knn)(points=knn.points[:, :2], labels=knn.labels, k=knn.k))
        with pytest.raises(InconsistentBundle, match="group classifier"):
            replace(small_bundle, base_pca=small_bundle.base_pca[:99])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_knn_points(self, small_bundle, bad):
        knn = small_bundle.base_knn
        points = knn.points.copy()
        points[7, 0] = bad
        with pytest.raises(InconsistentBundle, match="base_knn.points holds non-finite"):
            replace(small_bundle, base_knn=replace(knn, points=points))

    def test_load_rejects_inconsistent_state(self, small_bundle, tmp_path):
        state = bundle_state(small_bundle)
        kernel = state["group_classifier"]["kernel"]
        kernel["matrix"] = kernel["matrix"][:, :-1]
        path = tmp_path / "bad.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match="offset"):
            load_bundle(path)

    @pytest.mark.parametrize("k", [5.0, True, "5"])
    def test_knn_k_must_be_int(self, small_bundle, k):
        knn = small_bundle.base_knn
        with pytest.raises(EmptyModel, match="k="):
            KnnModel(points=knn.points, labels=knn.labels, k=k)

    @pytest.mark.parametrize("k", [5.0, "5", None])
    def test_load_rejects_non_int_k(self, small_bundle, tmp_path, k):
        state = bundle_state(small_bundle)
        state["base_knn"]["k"] = k
        path = tmp_path / "k.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile):
            load_bundle(path)

    def test_group_ids_must_be_ints(self, small_bundle):
        ids = small_bundle.discovered_group_ids
        with pytest.raises(InconsistentBundle, match="discovered_group_ids"):
            replace(small_bundle, discovered_group_ids=(*ids[:-1], float(ids[-1])))
        gc = small_bundle.group_classifier
        classes = gc.centroid.classes.astype(np.float64)
        bad = replace(gc, centroid=replace(gc.centroid, classes=classes))
        with pytest.raises(InconsistentBundle, match="group classifier ids"):
            replace(small_bundle, group_classifier=bad)

    @pytest.mark.parametrize("threshold", ["0.5", 1, np.inf, np.nan, None])
    def test_threshold_must_be_finite_float(self, small_bundle, threshold):
        c = small_bundle.correctors[0]
        with pytest.raises(InconsistentBundle, match="threshold"):
            replace(small_bundle, correctors=(replace(c, threshold=threshold),))

    @pytest.mark.parametrize("bias", ["0.5", np.nan, -np.inf])
    def test_lda_bias_must_be_finite_float(self, small_bundle, bias):
        c = next(c for c in small_bundle.correctors if isinstance(c.model, LdaModel))
        with pytest.raises(InconsistentBundle, match="lda.bias"):
            replace(small_bundle, correctors=(replace(c, model=replace(c.model, bias=bias)),))

    def test_model_must_be_binary_classifier(self, small_bundle):
        cen = next(c for c in small_bundle.correctors if isinstance(c.model, CentroidModel))
        for model, match in (
            (None, "model NoneType is no binary classifier"),
            (small_bundle.base_knn, "model KnnModel is no binary classifier"),
            (small_bundle.group_classifier.centroid, "centroid classes"),  # multiclass
            (replace(cen.model, classes=np.array([0, 2])), "centroid classes"),
        ):
            with pytest.raises(InconsistentBundle, match=match):
                replace(small_bundle, correctors=(replace(cen, model=model),))

    def test_group_id_must_be_error_group(self, small_bundle, tmp_path):
        c = small_bundle.correctors[0]
        for group_id in (0, 25, -3, 21.5, "21", None):
            with pytest.raises(InconsistentBundle, match=f"group id {group_id!r}"):
                replace(c, group_id=group_id)
        # an id of an error group, but no int
        for group_id in (float(c.group_id), True):
            with pytest.raises(InconsistentBundle, match="corrector group ids"):
                replace(small_bundle, correctors=(replace(c, group_id=group_id),))
        state = bundle_state(small_bundle)
        state["correctors"][0]["group_id"] = 24
        path = tmp_path / "g.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match="group id 24"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "edit",
        [
            set_cell(lambda b: ["base_knn", "labels"], 0, 9),
            set_cell(lambda b: ["base_knn", "labels"], 0, -1),
            set_cell(lambda b: ["base_pca"], (0, 0), np.nan),
            set_cell(lambda b: ["corrector_kernels", b.correctors[0].kernel_name, "matrix"], (1, 1), np.inf),
            set_cell(lambda b: ["correctors", first_lda(b), "model", "w"], 0, np.nan),
            drop_router,
            other_router_ids,
            undiscovered_corrector,
            float_group_id,
            corrector_twice,
            pca_1_d,
        ],
        ids=[
            "knn-label-9", "knn-label-minus-1", "pca-nan", "kernel-inf", "lda-w-nan",
            "router-missing", "router-ids", "corrector-undiscovered", "float-id",
            "corrector-twice", "pca-1-d",
        ],
    )
    def test_bundle_that_loads_predicts(self, small_bundle, tmp_path, capsys, edit):
        # once loaded, each of the first five bundles predicted a label that
        # is no GestureLabel, raised a bare numpy error, or had a corrector
        # whose NaN scores never fire; the next four break the routing rule,
        # a second corrector of one group replaced the first, and a 1-D
        # base projection made every row a DimensionMismatch
        state = bundle_state(small_bundle)
        match = re.escape(edit(state, small_bundle))
        with pytest.raises(InconsistentBundle, match=match):
            bundle_from_state(state)
        path = tmp_path / "bad.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))  # with a valid digest
        with pytest.raises(CorruptFile, match=match):
            load_bundle(path)
        features = tmp_path / "row.csv"
        features.write_text(",".join(["0.25"] * 100) + "\n", encoding="utf-8")
        assert main(["predict", "--bundle", str(path), "--features", str(features)]) == 2
        captured = capsys.readouterr()
        assert re.search(match, captured.err) and captured.out == ""

    @pytest.mark.parametrize("name, cell", [("base_pca", (0, 0)), ("base_knn", (0, 1))])
    def test_overflowing_base_refused(self, small_bundle, small_split, tmp_path, name, cell):
        # finite, but an in-range row's squared distances overflow: predict
        # raised a bare ValueError from the KNN scan
        state = bundle_state(small_bundle)
        # the base projection is an array; the references are a knn field
        holder, key = (state, name) if name == "base_pca" else (state[name], "points")
        holder[key] = holder[key].copy()
        holder[key][cell] = 1e308
        match = "squared distances beyond the float range"
        path = tmp_path / "huge.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        # refused without a warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentBundle, match=match):
                bundle_from_state(state)
            with pytest.raises(CorruptFile, match=match):
                load_bundle(path)
        # a large value that keeps them finite still loads and predicts
        holder[key][cell] = 1e100
        labels = bundle_from_state(state).predict_batch(feature_matrix(small_split.hold[:20]))
        assert set(labels.tolist()) <= set(GestureLabel)


def first_lda(bundle):
    return next(i for i, c in enumerate(bundle.correctors) if isinstance(c.model, LdaModel))


def file_parts(blob: bytes) -> tuple[dict, list[np.ndarray]]:
    """The JSON header and the arrays, as stored, of a serialized bundle."""
    payload = blob[40:]
    (size,) = struct.unpack_from("<I", payload)
    header = json.loads(payload[4 : 4 + size])
    arrays, offset = [], 4 + size
    for dtype, shape in header["arrays"]:
        offset += -offset % 8
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(payload, dtype, count, offset).reshape(shape).copy())
        offset += count * np.dtype(dtype).itemsize
    return header, arrays


def json_leaves(value, path=()):
    """The path and value of every scalar of a JSON value, in walk order."""
    if isinstance(value, dict):
        return [leaf for key, v in value.items() for leaf in json_leaves(v, (*path, key))]
    if isinstance(value, list):
        return [leaf for i, v in enumerate(value) for leaf in json_leaves(v, (*path, i))]
    return [(path, value)]


def json_value(leaf, strings):
    """Values to put in place of a JSON scalar ``leaf``: near it, of another
    type, or another string of the same bundle."""
    near = st.nothing()
    if type(leaf) is int:
        near = st.integers(leaf - 3, leaf + 3)
    elif isinstance(leaf, float):
        near = st.sampled_from([-leaf, leaf * 1e300, leaf + 1e-9, 0.0])
    return st.one_of(
        near,
        st.none(),
        st.booleans(),
        st.integers(-(2**64), 2**64),
        st.floats(),
        st.sampled_from(strings),
        st.text(max_size=6),
        st.lists(st.integers(-2, 30), max_size=3),
        st.just({}),
    )


def array_value(array):
    """Values for a cell of ``array``: any of its dtype, half of them drawn
    from the edge cases (non-finite, huge, out of the label range)."""
    if array.dtype.kind == "f":
        edges = [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0]
        return st.one_of(st.sampled_from(edges), st.floats(width=64))
    info = np.iinfo(array.dtype)
    edges = [int(info.min), -1, len(GestureLabel), int(info.max)]
    return st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))


class TestEditedBundle:
    """One value of a saved bundle changed, with a valid digest: the file is
    refused, or it maps every in-range row to a GestureLabel."""

    @pytest.fixture(scope="class")
    def saved(self, small_bundle, small_split, tmp_path_factory):
        header, arrays = file_parts(serialize_bundle(small_bundle))
        probe = np.vstack(
            [
                feature_matrix(small_split.hold[:12]),
                np.random.default_rng(2024).uniform(0.0, 1.0, (12, 100)),
                np.zeros((1, 100)),
                np.ones((1, 100)),
            ]
        )
        return header, arrays, probe, tmp_path_factory.mktemp("edited") / "b.capgest"

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_refused_or_predicts(self, saved, data):
        header, arrays, probe, path = saved
        header, arrays = json.loads(json.dumps(header)), list(arrays)
        if data.draw(st.booleans(), label="edit the JSON state"):
            leaves = json_leaves(header["state"])
            strings = sorted({v for _, v in leaves if isinstance(v, str)})
            (*keys, name), leaf = data.draw(st.sampled_from(leaves), label="leaf")
            holder = header["state"]
            for key in keys:
                holder = holder[key]
            holder[name] = data.draw(json_value(leaf, strings), label="value")
        else:
            i = data.draw(st.sampled_from([i for i, a in enumerate(arrays) if a.size]), label="array")
            arrays[i] = arrays[i].copy()
            cell = data.draw(st.integers(0, arrays[i].size - 1), label="cell")
            arrays[i].flat[cell] = data.draw(array_value(arrays[i]), label="value")
        path.write_bytes(format_4_blob(header, arrays))  # with a valid digest
        # a huge finite value overflows in the products: a warning, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                bundle = load_bundle(path)
            except (CorruptFile, VersionMismatch):
                return
            try:
                batch = bundle.predict_batch(probe)
                single = [bundle.predict(x) for x in probe]
            except CapgestError:
                return
        assert batch.shape == (len(probe),) and set(batch.tolist()) <= set(GestureLabel)
        assert all(type(label) is GestureLabel for label in single)


def same_cell_index(a, b):
    return (
        a.side == b.side
        and a.axes == b.axes
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.ids, b.ids)
        and a.max_sq == b.max_sq
        and a.reach == b.reach
        and np.array_equal(a.block_marks, b.block_marks)
        and a.cells.shape == b.cells.shape
    )


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

    def test_unwritable_path_is_a_data_error(self, small_bundle, tmp_path):
        # a directory where the bundle file should go, and a path below a file
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for path in (tmp_path, tmp_path / "file" / "m.capgest"):
            with pytest.raises(DataError, match=re.escape(f"cannot write {path}: ")):
                save_bundle(small_bundle, path)

    def test_knn_derived_fields_rebuilt_not_serialized(
        self, small_bundle, default_bundle, default_split, tmp_path
    ):
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        knn, loaded = small_bundle.base_knn, load_bundle(path).base_knn
        for name in ("sq_norms", "classes", "codes"):
            assert np.array_equal(getattr(loaded, name), getattr(knn, name))
            assert name not in bundle_state(small_bundle)["base_knn"]
        assert np.array_equal(knn.sq_norms, neighbors.sq_norms(knn.points))
        assert np.array_equal(knn.classes[knn.codes], knn.labels)
        # the cell index is rebuilt on load and on replace, and never stored
        assert "cell_index" not in bundle_state(small_bundle)["base_knn"]
        assert knn.cell_index is not None
        for rebuilt in (loaded, replace(knn)):
            assert rebuilt.cell_index is not knn.cell_index
            assert same_cell_index(rebuilt.cell_index, knn.cell_index)
        shifted = replace(knn, points=knn.points + 1.0)
        assert shifted.cell_index.axes[0][0] == knn.cell_index.axes[0][0] + 1.0
        # the index's label map starts empty on load and on replace, one-row
        # predictions fill it, and it changes no byte of the bundle
        for rebuilt in (loaded, replace(knn)):
            assert rebuilt.cell_index.cells is not knn.cell_index.cells
            assert not rebuilt.cell_index.cells.any()
        blob = serialize_bundle(default_bundle)
        for row in feature_matrix(default_split.test[:2000]):
            default_bundle.predict(row)
        assert default_bundle.base_knn.cell_index.cells.any()
        after = serialize_bundle(default_bundle)
        assert hashlib.sha256(after).hexdigest() == hashlib.sha256(blob).hexdigest()
        # the array bytes are fixed by the bundle's shapes; the JSON header
        # varies with the digits of its float thresholds and biases
        assert len(after) == 322_336

    def test_concurrent_callers_share_the_label_map(self, default_bundle, default_split):
        # every write to the map stores the one label its cell can have, so
        # threads filling one empty map need no lock; more threads than
        # cores, switching often
        bundle = replace(default_bundle, base_knn=replace(default_bundle.base_knn))
        X = feature_matrix(default_split.test[:2000])
        got = {}

        def run(name):
            got[name] = [int(bundle.predict(row)) for row in X]

        threads = [threading.Thread(target=run, args=(name,)) for name in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = bundle.predict_batch(X).tolist()
        assert [got[name] == want for name in range(4)] == [True] * 4
        assert knn_map_share(bundle.base_knn, pca_transform(bundle.base_pca, X)) > 0.3

    def test_load_rejects_non_finite_knn_points(self, small_bundle, tmp_path):
        state = bundle_state(small_bundle)
        state["base_knn"]["points"] = state["base_knn"]["points"].copy()
        state["base_knn"]["points"][3, 1] = np.inf
        path = tmp_path / "inf.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match="base_knn.points holds non-finite"):
            load_bundle(path)

    def test_loaded_arrays_keep_dtype_shape_bytes(self, small_bundle, tmp_path):
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        saved = array_leaves(bundle_state(small_bundle))
        loaded = array_leaves(bundle_state(load_bundle(path)))
        assert len(loaded) == len(saved)
        for a, b in zip(saved, loaded):
            assert b.flags.aligned
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes())
        # the loaded bundle encodes to the same bytes
        assert serialize_bundle(load_bundle(path)) == path.read_bytes()

    def test_arrays_stored_once_and_ints_narrowed(self, small_bundle):
        blob = serialize_bundle(small_bundle)
        (size,) = struct.unpack_from("<I", blob, 40)
        table = json.loads(blob[44 : 44 + size])["arrays"]
        distinct = {(a.dtype.str, a.shape, a.tobytes()) for a in array_leaves(bundle_state(small_bundle))}
        assert len(table) == len(distinct) < len(array_leaves(bundle_state(small_bundle)))
        labels = small_bundle.base_knn.labels
        assert labels.dtype == np.int64 and labels.max() < 128
        assert {dtype for dtype, _ in table} == {"<f8", "|i1"}

    def test_state_is_tagged_json_data(self, small_bundle):
        state = bundle_state(small_bundle)
        assert list(state) == [
            "config", "base_pca", "base_knn", "group_classifier", "correctors",
            "corrector_kernels", "discovered_group_ids",
        ]
        assert isinstance(state["base_pca"], np.ndarray)
        corrector = state["correctors"][0]
        assert corrector["group_id"] == small_bundle.correctors[0].group_id
        assert corrector["model"]["@type"] in ("CentroidModel", "LdaModel")
        header = json.dumps(format_4_parts(state)[0])
        for name in (
            "mu0", "GestureLabel", "ErrorGroup", "classifier_kind", '"group"',
            "Standardizer", "WhitenModel", "whiten", "metadata", "PcaModel",
            "corrector_classifiers",
        ):
            assert name not in header
        assert len(pipeline._CODEC_TYPES) == 9

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
        # every configured corrector kernel and the LDA scatter matrices;
        # formats 1-3 were pickles; format 4's config held the removed
        # base_knn_fit; a format-5 corrector held a classifier kind, a
        # centroid and an LDA slot, and its group as two label enums; a
        # format-6 kernel stage held a standardizer, a PCA and a whitening
        # model, and the bundle a metadata section nothing read; a format-7
        # group classifier held its id list beside its centroids' classes,
        # and the config the group_kernel key; format 8 wrapped the base
        # projection in a PCA model with four fields inference never read,
        # and the config held the corrector_classifiers key
        assert BUNDLE_FORMAT_VERSION == 9
        path = tmp_path / "m.capgest"
        save_bundle(small_bundle, path)
        blob = path.read_bytes()
        for old in (1, 2, 4, 5, 6, 7, 8):
            path.write_bytes(BUNDLE_MAGIC + bytes([old, 0, 0, 0]) + blob[8:])
            with pytest.raises(VersionMismatch, match=f"version {old}"):
                load_bundle(path)

    def test_format_3_rejected(self, small_bundle, tmp_path):
        path = tmp_path / "m.capgest"
        path.write_bytes(with_digest(pickle.dumps(bundle_state(small_bundle), protocol=4), 3))
        with pytest.raises(VersionMismatch, match="version 3"):
            load_bundle(path)

    def test_pickle_payload_not_run(self, tmp_path):
        marker = tmp_path / "ran"

        class Payload:
            def __reduce__(self):
                return open, (str(marker), "w")

        payload = pickle.dumps(Payload())
        path = tmp_path / "evil.capgest"
        path.write_bytes(with_digest(payload))
        with pytest.raises(CorruptFile):
            load_bundle(path)
        assert not marker.exists()
        pickle.loads(payload).close()  # the payload is live: unpickling runs it
        assert marker.exists()

    def test_unknown_type_tag_rejected(self, small_bundle, tmp_path):
        state = bundle_state(small_bundle)
        state["base_knn"]["@type"] = "Popen"
        path = tmp_path / "m.capgest"
        path.write_bytes(format_4_blob(*format_4_parts(state)))
        with pytest.raises(CorruptFile, match="unknown type tag 'Popen'"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "row, dtype, shape, match",
        [
            (0, "|O", None, "dtype"),
            (0, ">f8", None, "dtype"),
            (0, "<f4", None, "dtype"),
            (0, None, [-100, 3], "shape"),
            (-1, None, [10**6], "past the payload end"),
        ],
    )
    def test_bad_array_table_rejected(self, small_bundle, tmp_path, row, dtype, shape, match):
        header, arrays = format_4_parts(bundle_state(small_bundle))
        if dtype is not None:
            header["arrays"][row][0] = dtype
        if shape is not None:
            header["arrays"][row][1] = shape
        path = tmp_path / "m.capgest"
        path.write_bytes(format_4_blob(header, arrays))
        with pytest.raises(CorruptFile, match=match):
            load_bundle(path)

    @pytest.mark.parametrize("keep", [0, 3, 100, -8])
    def test_truncated_payload_rejected(self, small_bundle, tmp_path, keep):
        payload = serialize_bundle(small_bundle)[40:]
        path = tmp_path / "m.capgest"
        path.write_bytes(with_digest(payload[:keep]))
        with pytest.raises(CorruptFile):
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

    def test_no_hold_users_pins_none(self, small_samples):
        # users[-0:] would be every user, which no hold of size 0 can take
        config = replace(FAST_CONFIG, user_counts=(8, 3, 2, 0))
        summary = cross_validate(config, small_samples, n_combos=1)
        assert summary["pinned_hold"] == []
        assert summary["splits"]["hold"] == {}
        assert set(summary["splits"]["test"]["corrected"]) == {"mean", "std", "min", "max"}


class TestBench:
    def test_latency_stats(self, small_bundle, small_split):
        X = feature_matrix(small_split.test[:20])
        stats = bench_latency(small_bundle, X)
        assert stats["n_timed"] == 20  # every row once
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        assert stats["backend"] == neighbors.BACKEND
        z = pca_transform(small_bundle.base_pca, X)
        assert stats["knn_cell_share"] == knn_cell_share(small_bundle.base_knn, z)
        assert stats["knn_cell_share"] > 0.5
        # the timed rows proved their cells' labels, which a recount reads
        assert stats["knn_map_share"] == knn_map_share(small_bundle.base_knn, z)
        assert 0 < stats["knn_map_share"] <= 1

    def test_empty_probe(self, small_bundle):
        stats = bench_latency(small_bundle, np.empty((0, 100)))
        assert stats["n_timed"] == 0
        assert stats["backend"] == neighbors.BACKEND

    def test_audit_report_sorted(self, small_bundle):
        records = audit_records(small_bundle.correctors)
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

    def test_repeated_key_rejected(self):
        text = "knn_k = 5\n# a note\nn_pcs = 3\nknn_k = 7\n"
        with pytest.raises(FileFormatError, match=r"line 4: config key 'knn_k' repeats line 1"):
            parse_config_text(text)

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
        # the router's kernel and the corrector classifiers are constants;
        # the config keys of formats 7 and 8 are refused
        with pytest.raises(FileFormatError, match="group_kernel"):
            parse_config_text("group_kernel = pca:9")
        with pytest.raises(FileFormatError, match="corrector_classifiers"):
            parse_config_text("corrector_classifiers = centroid; lda")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("corrector_classifiers = centroid; LDA", "corrector_classifiers"),
            ("group_kernel = pca:2", "group_kernel"),
            ("corrector_kernels = pca:20; poly:5", "corrector_kernels"),
        ],
    )
    def test_unknown_classifier_or_kernel_rejected(self, text, key):
        with pytest.raises(FileFormatError, match=key):
            parse_config_text(text)

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("knn_k = 9\nuser_counts = 9; 3; 2; 1\n", encoding="utf-8")
        config = load_config(path)
        assert config.knn_k == 9
        assert config.user_counts == (9, 3, 2, 1)
        with pytest.raises(FileFormatError):
            load_config(tmp_path / "absent.cfg")
