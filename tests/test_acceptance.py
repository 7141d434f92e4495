"""Acceptance suite: the ten release gates, one test per criterion.

Each test logs a single pass/fail line (shown in the terminal summary) and
asserts.  Criteria 1, 2, 4, 5, 8 and 10 run against the default-scale
synthetic dataset and bundle; criterion 3 uses the small dataset with a
trimmed kernel grid, since the zero-regression guarantee is a property of
the threshold-selection construction, not of the grid.
"""

import json
import math

import numpy as np

from capgest.classify import binary_scores, centroid_fit, centroid_predict_batch, knn_fit, knn_predict_batch, lda_fit
from capgest.config import PipelineConfig
from capgest.corrector import select_threshold_zero_fp
from capgest.embed import dataset_intrinsic_dimension, intrinsic_dimension, kernel_apply, kernel_fit, parse_kernel_spec, pca_fit
from capgest.pipeline import (
    BUNDLE_SIZE_BUDGET,
    bench_latency,
    evaluate,
    load_bundle,
    save_bundle,
    serialize_bundle,
    train_pipeline,
)
from capgest.signals import feature_matrix, label_array, split_by_user


def test_criterion_1_latency(record, default_bundle, default_split):
    X = feature_matrix(default_split.test)
    stats = bench_latency(default_bundle, X)
    p95 = stats["p95_ms"]
    record(
        1,
        p95 < 1.0,
        f"p95 corrected-predict latency {p95:.3f} ms < 1 ms "
        f"(p99 {stats['p99_ms']:.3f} ms over all {len(X)} test windows)",
    )


def test_criterion_2_bundle_size(record, default_bundle, tmp_path):
    size = save_bundle(default_bundle, tmp_path / "m.capgest")
    record(
        2,
        size < BUNDLE_SIZE_BUDGET,
        f"serialized bundle {size / 1048576:.2f} MB < 5 MB",
    )


def test_criterion_3_zero_regression_20_seeds(record, small_samples):
    config = PipelineConfig(corrector_kernels=("pca:20", "poly:5:4"))
    worst = 0
    for seed in range(20):
        split = split_by_user(small_samples, config.user_counts, seed=seed)
        bundle = train_pipeline(config, split)
        X = feature_matrix(split.train)
        y = label_array(split.train)
        base_correct = int((bundle.predict_base_batch(X) == y).sum())
        corrected_correct = int((bundle.predict_batch(X) == y).sum())
        worst = min(worst, corrected_correct - base_correct)
    record(
        3,
        worst >= 0,
        f"train accuracy never regresses across 20 split seeds "
        f"(worst corrected-minus-base: {worst} samples)",
    )


def test_criterion_4_test_split_improvement(record, default_bundle, default_split):
    report = evaluate(default_bundle, default_split.test)
    trained = {c.group.group_id for c in default_bundle.correctors}
    strict_gains = [
        r["group_id"]
        for r in report.per_group
        if r["group_id"] in trained
        and r["n_candidates"] > 0
        and r["corrected_accuracy"] > r["base_accuracy"]
    ]
    ok = (
        report.corrected_accuracy >= report.base_accuracy - 0.005
        and len(strict_gains) >= 1
    )
    record(
        4,
        ok,
        f"test split: corrected {report.corrected_accuracy:.4f} vs base "
        f"{report.base_accuracy:.4f}, strict gain in {len(strict_gains)} group(s)",
    )


def test_criterion_5_pca_variance_concentration(record, default_split):
    # the share of the train matrix's (uncentered) variance that the base
    # projection keeps: ||X C||^2 / ||X||^2, the first 3 ratios' sum
    X = feature_matrix(default_split.train)
    share = float(np.square(X @ pca_fit(X, 3)).sum() / np.square(X).sum())
    record(5, share >= 0.90, f"first 3 PCs explain {share:.4f} >= 0.90 of variance")


def _oracle_knn_predict(refs, labels, k, query):
    d = np.linalg.norm(refs - query, axis=1)
    order = sorted(range(len(refs)), key=lambda i: (d[i], i))[:k]
    votes = {}
    for i in order:
        entry = votes.setdefault(int(labels[i]), [0, 0.0])
        entry[0] += 1
        entry[1] += float(d[i])
    best = max(v[0] for v in votes.values())
    return min((v[1], lab) for lab, v in votes.items() if v[0] == best)[1]


def _oracle_roc(scores, labels):
    points = []
    for t in sorted(set(scores.tolist()), reverse=True):
        tp = int(((scores >= t) & (labels == 1)).sum())
        fp = int(((scores >= t) & (labels == 0)).sum())
        points.append((float(t), tp, fp))
    return points


def _oracle_zero_fp(train_roc, holdout_roc):
    """Highest train TP with no FP on either sweep; strict > keeps the
    highest threshold among equals."""
    best, best_tp = None, 0
    for t, tp, fp in train_roc:
        holdout_fp = max((f for h, _, f in holdout_roc if h >= t), default=0)
        if fp == 0 and holdout_fp == 0 and tp > best_tp:
            best, best_tp = t, tp
    return best


def test_criterion_6_oracle_equivalence(record):
    rng = np.random.default_rng(2024)
    knn_ok = True
    for trial in range(50):
        n = int(rng.integers(10, 501))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(n, 9) + 1))
        if trial % 2 == 0:  # integer lattices force exact distance ties
            refs = rng.integers(0, 4, (n, d)).astype(float)
            queries = rng.integers(0, 4, (8, d)).astype(float)
        else:
            refs = rng.normal(0, 1, (n, d))
            queries = rng.normal(0, 1, (8, d))
        labels = rng.integers(0, 5, n)
        model = knn_fit(refs, labels, k)
        got = knn_predict_batch(model, queries)
        expected = [_oracle_knn_predict(refs, labels, k, q) for q in queries]
        knn_ok = knn_ok and got.tolist() == expected

    threshold_ok = True
    found = 0
    empty = np.empty(0)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        # positives lean to high scores, with a per-set label noise of 1-4
        # lattice steps, so sets with and without a threshold both occur
        spread = int(rng.integers(1, 5))
        scores = rng.integers(-4, 5, n).astype(float)  # repeats guaranteed
        labels = (scores + rng.integers(-spread, spread + 1, n) >= 2).astype(np.int64)
        m = int(rng.integers(0, 60))
        h_scores = rng.integers(-4, 5, m).astype(float)
        h_labels = (h_scores + rng.integers(-spread, spread + 1, m) >= 2).astype(np.int64)
        # with the drawn holdout sweep and with none, so that not every case is None
        for hs, hl in ((h_scores, h_labels), (empty, empty)):
            expected = _oracle_zero_fp(_oracle_roc(scores, labels), _oracle_roc(hs, hl))
            got = select_threshold_zero_fp(scores, labels, hs, hl)
            threshold_ok = threshold_ok and got == expected
            found += expected is not None

    record(
        6,
        knn_ok and threshold_ok and found >= 10,
        "KNN matches brute-force oracle on 50 instances; zero-FP threshold matches "
        f"quadratic ROC oracle on 20 score sets x 2 holdouts ({found} with a threshold)",
    )


WHITEN_GRID = (
    "pca:5", "pca:20", "pca:50",
    "poly:3:2", "poly:5:4", "poly:8:3",
    "knn:5:10", "knn:10:50", "knn:10:100", "knn:20:30",
)


def test_criterion_7_whitened_covariance(record, default_split):
    X = feature_matrix(default_split.train)[:1500]
    worst = 0.0
    for text in WHITEN_GRID:
        Z = kernel_apply(kernel_fit(parse_kernel_spec(text), X), X)
        C = np.cov(Z, rowvar=False, ddof=1)
        worst = max(worst, float(np.abs(C - np.eye(C.shape[0])).max()))
    record(
        7,
        worst < 1e-6,
        f"whitened train covariance within {worst:.2e} of identity "
        f"across {len(WHITEN_GRID)} kernel parameter points",
    )


def test_criterion_8_intrinsic_dimension(record, default_split):
    rng = np.random.default_rng(7)
    sphere_ok = True
    estimates = {}
    for n in (4, 8, 12):
        points = rng.normal(0, 1, (10_000, n + 1))  # uniform on the n-sphere
        est = intrinsic_dimension(points, alpha=0.8)
        estimates[n] = est
        sphere_ok = sphere_ok and 0.8 * n <= est <= 1.2 * n

    X = feature_matrix(default_split.train)
    idx = rng.choice(len(X), 6000, replace=False)
    data_est = dataset_intrinsic_dimension(X[idx], alpha=0.8)
    ok = sphere_ok and math.isfinite(data_est) and data_est <= 12.0
    summary = ", ".join(f"S^{n}: {estimates[n]:.2f}" for n in (4, 8, 12))
    record(
        8,
        ok,
        f"sphere estimates within 20% ({summary}); dataset estimate "
        f"{data_est:.2f} <= 12",
    )


def test_criterion_9_classifier_geometry(record):
    rng = np.random.default_rng(11)
    d = 10
    mu0 = rng.normal(0, 1, d)
    mu1 = mu0 + rng.normal(0, 1, d)
    x0 = rng.normal(0, 1, (4000, d)) + mu0
    x1 = rng.normal(0, 1, (4000, d)) + mu1
    X = np.vstack([x0, x1])
    y = np.r_[np.zeros(4000), np.ones(4000)].astype(int)
    model = lda_fit(X, y)
    w = model.w / np.linalg.norm(model.w)
    # isotropic classes: the Fisher direction is the mean difference
    target = (mu1 - mu0) / np.linalg.norm(mu1 - mu0)
    angle = math.degrees(math.acos(min(1.0, abs(float(w @ target)))))

    cen = centroid_fit(X, y)
    queries = rng.normal(0, 2, (1000, d)) + (mu0 + mu1) / 2
    scores = binary_scores(cen, queries)
    preds = centroid_predict_batch(cen, queries)
    boundary_ok = bool(np.all((scores >= 0.5) == (preds == 1)))

    record(
        9,
        angle < 5.0 and boundary_ok,
        f"LDA within {angle:.2f} deg of Fisher direction; centroid score/"
        f"prediction boundary consistent on 1000 queries",
    )


def test_criterion_10_determinism_and_persistence(
    record, default_bundle, default_split, tmp_path
):
    retrained = train_pipeline(PipelineConfig(), default_split)
    bytes_equal = serialize_bundle(retrained) == serialize_bundle(default_bundle)
    report_equal = json.dumps(
        evaluate(retrained, default_split.test).to_dict(), sort_keys=True
    ) == json.dumps(
        evaluate(default_bundle, default_split.test).to_dict(), sort_keys=True
    )

    path = tmp_path / "m.capgest"
    save_bundle(default_bundle, path)
    loaded = load_bundle(path)
    probe = feature_matrix(default_split.train[:10_000])
    round_trip_ok = bool(
        np.array_equal(loaded.predict_batch(probe), default_bundle.predict_batch(probe))
    )
    record(
        10,
        bytes_equal and report_equal and round_trip_ok,
        f"byte-identical retrain: {bytes_equal}; identical reports: "
        f"{report_equal}; save/load preserves 10k predictions: {round_trip_ok}",
    )
