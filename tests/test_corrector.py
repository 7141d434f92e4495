import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest.corrector import (
    Corrector,
    ErrorGroup,
    RocPoint,
    build_routing_table,
    corrected_predict,
    corrected_predict_batch,
    discover_groups,
    format_audit,
    label_group_binary,
    roc_counts,
    select_threshold_zero_fp,
    train_corrector,
    train_group_classifier,
)
from capgest.embed import kernel_fit, parse_kernel_spec
from capgest.errors import EmptyCandidateSet, NoPositives, TooFewGroups
from capgest.signals import GestureLabel


class TestErrorGroup:
    def test_id_round_trip_all_patterns(self):
        for truth in GestureLabel:
            for pred in GestureLabel:
                if truth == pred:
                    continue
                g = ErrorGroup(truth, pred)
                assert ErrorGroup.from_id(g.group_id) == g

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            ErrorGroup(GestureLabel.SHOOT, GestureLabel.SHOOT)

    def test_describe(self):
        g = ErrorGroup(GestureLabel.NONE, GestureLabel.FLICK_INDEX)
        assert g.describe() == "none->flick_index"


class TestDiscovery:
    def test_min_support_and_order(self):
        truths = np.array([0] * 12 + [1] * 5 + [4] * 20)
        preds = np.array([2] * 12 + [0] * 5 + [3] * 20)
        groups = discover_groups(truths, preds, min_support=10)
        assert [(int(g.truth), int(g.predicted)) for g in groups] == [(0, 2), (4, 3)]
        assert [g.group_id for g in groups] == sorted(g.group_id for g in groups)

    def test_correct_predictions_ignored(self):
        truths = preds = np.zeros(100, dtype=int)
        assert discover_groups(truths, preds, min_support=1) == []

    def test_label_group_binary(self):
        truths = np.array([4, 4, 1, 0])
        preds = np.array([1, 1, 1, 0])
        group = ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        mask, labels = label_group_binary(truths, preds, group)
        assert mask.tolist() == [True, True, True, False]
        assert labels.tolist() == [1, 1, 0]

    def test_empty_candidates(self):
        group = ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        with pytest.raises(EmptyCandidateSet):
            label_group_binary(np.array([0]), np.array([0]), group)


def roc_oracle(scores, labels):
    """Quadratic reference: counts at every distinct threshold."""
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append(RocPoint(float(t), tp, fp))
    return points


class TestRoc:
    def test_hand_example(self):
        scores = np.array([0.9, 0.8, 0.8, 0.1])
        labels = np.array([1, 0, 1, 0])
        points = roc_counts(scores, labels)
        assert points == [RocPoint(0.9, 1, 0), RocPoint(0.8, 2, 1), RocPoint(0.1, 2, 2)]

    def test_needs_positives(self):
        with pytest.raises(NoPositives):
            roc_counts(np.array([0.5, 0.2]), np.array([0, 0]))

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_with_ties(self, raw_scores, rnd):
        scores = np.array(raw_scores, dtype=float)
        labels = np.array([rnd.randint(0, 1) for _ in raw_scores])
        if labels.sum() == 0:
            labels[0] = 1
        assert roc_counts(scores, labels) == roc_oracle(scores, labels)

    def test_counts_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 1, 200)
        labels = rng.integers(0, 2, 200)
        labels[0] = 1
        points = roc_counts(scores, labels)
        thresholds = [p.threshold for p in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert all(a.tp_count <= b.tp_count for a, b in zip(points, points[1:]))
        assert all(a.fp_count <= b.fp_count for a, b in zip(points, points[1:]))


class TestThresholdSelection:
    def test_perfect_separation(self):
        train = [RocPoint(0.9, 2, 0), RocPoint(0.6, 3, 0), RocPoint(0.2, 3, 4)]
        assert select_threshold_zero_fp(train, []) == 0.6

    def test_no_safe_threshold(self):
        train = [RocPoint(0.9, 1, 1), RocPoint(0.2, 3, 4)]
        assert select_threshold_zero_fp(train, []) is None

    def test_holdout_vetoes(self):
        train = [RocPoint(0.9, 2, 0), RocPoint(0.6, 3, 0)]
        holdout = [RocPoint(0.7, 0, 1)]  # a holdout FP fires at 0.6 but not 0.9
        assert select_threshold_zero_fp(train, holdout) == 0.9

    def test_empty_train(self):
        assert select_threshold_zero_fp([], []) is None


def separable_group_data(n=200, seed=0):
    """Candidates where positives sit far from negatives in feature space."""
    rng = np.random.default_rng(seed)
    X = np.clip(rng.normal(0.3, 0.1, (n, 100)), 0, 1)
    y_truth = np.full(n, int(GestureLabel.SHOOT))
    y_truth[: n // 4] = int(GestureLabel.NONE)  # these are base-model errors
    X[: n // 4, :30] += 0.4
    X = np.clip(X, 0, 1)
    preds = np.full(n, int(GestureLabel.SHOOT))
    return X, y_truth, preds


class TestTrainCorrector:
    def test_zero_fp_on_train_candidates(self):
        X, truths, preds = separable_group_data()
        Xh, truths_h, preds_h = separable_group_data(seed=1)
        kernels = {"pca:9": kernel_fit(parse_kernel_spec("pca:9"), X)}
        feats = {"pca:9": kernels["pca:9"].apply(X)}
        feats_h = {"pca:9": kernels["pca:9"].apply(Xh)}
        group = ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        corrector = train_corrector(
            group, kernels, feats, feats_h, truths, preds, truths_h, preds_h
        )
        assert corrector is not None
        scores = corrector.score(feats["pca:9"])
        fires = scores >= corrector.threshold
        negatives = truths != int(GestureLabel.NONE)
        assert not np.any(fires & negatives)  # never fires on a correct sample
        assert corrector.train_tp >= 1

    def test_returns_none_without_candidates(self):
        X, truths, preds = separable_group_data()
        kernels = {"pca:9": kernel_fit(parse_kernel_spec("pca:9"), X)}
        feats = {"pca:9": kernels["pca:9"].apply(X)}
        group = ErrorGroup(GestureLabel.SHOOT, GestureLabel.FLICK_INDEX)
        assert (
            train_corrector(group, kernels, feats, feats, truths, preds, truths, preds)
            is None
        )


def stub_corrector(group_id):
    return Corrector(
        group=ErrorGroup.from_id(group_id),
        kernel_name="pca:9",
        classifier_kind="centroid",
        centroid=None,
        lda=None,
        threshold=0.5,
        enabled=True,
        train_tp=1,
        train_positives=1,
        holdout_tp=0,
        holdout_positives=0,
    )


class TestGroupClassifier:
    def test_needs_two_groups(self):
        X = np.clip(np.random.default_rng(0).normal(0.3, 0.1, (40, 100)), 0, 1)
        kernel = kernel_fit(parse_kernel_spec("pca:9"), X)
        with pytest.raises(TooFewGroups):
            train_group_classifier(X, np.full(40, 21), kernel)

    def test_assign_respects_gate(self):
        rng = np.random.default_rng(2)
        X = np.clip(rng.normal(0.3, 0.1, (60, 100)), 0, 1)
        X[:30, :20] += 0.3
        X = np.clip(X, 0, 1)
        ids = np.array([21] * 30 + [1] * 30)
        kernel = kernel_fit(parse_kernel_spec("pca:9"), X)
        gc = train_group_classifier(X, ids, kernel)
        # groups 1 (index_bend->shoot) and 21 (none->shoot) are gated by
        # base label 1; group 9 (shoot->none) by label 4, but the classifier
        # never learned it, so label 4 has no route
        correctors = [stub_corrector(g) for g in (1, 9, 21)]
        table = build_routing_table(gc, correctors)
        assert sorted(table.routes) == [1]
        route = table.routes[1]
        assert route.gated == route.allowed == (1, 21)
        assert [c.group.group_id for c in route.correctors] == [1, 21]
        picks = gc.assign(X, route.centroids)
        assert picks.tolist() == [1] * 30 + [0] * 30
        # without a classifier a label routes only when it gates one group
        assert sorted(build_routing_table(None, correctors).routes) == [4]


class TestCascade:
    def test_batch_matches_single(self, small_bundle, small_split):
        from capgest.signals import feature_matrix

        X = feature_matrix(small_split.test[:80])
        batch = corrected_predict_batch(small_bundle, X)
        singles = [int(corrected_predict(small_bundle, x)) for x in X]
        assert batch.tolist() == singles

    def test_audit_format_mentions_every_group(self, small_bundle):
        from capgest.corrector import audit_records

        records = audit_records(small_bundle.correctors)
        text = format_audit(records)
        for r in records:
            assert r["pattern"] in text
        assert format_audit([]) == "no correctors trained\n"
