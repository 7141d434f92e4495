from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest.corrector import (
    Corrector,
    ErrorGroup,
    build_routing_table,
    corrected_predict,
    corrected_predict_batch,
    discover_groups,
    format_audit,
    select_threshold_zero_fp,
    train_corrector,
    train_group_classifier,
    with_margin,
)
from capgest.classify import centroid_fit
from capgest.embed import kernel_apply, kernel_fit, parse_kernel_spec
from capgest.signals import GestureLabel, feature_matrix, label_array


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

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=200),
        min_support=st.sampled_from([-1, 0, 1, 2, 3, 10]),
        skew=st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_counter_oracle(self, pairs, min_support, skew):
        # a skewed share of the pairs makes some groups frequent
        pairs = pairs + [(skew, (skew + 1) % 5)] * (len(pairs) // 2)
        truths = np.array([t for t, _ in pairs], dtype=np.int64)
        preds = np.array([p for _, p in pairs], dtype=np.int64)
        want = reference_discover_groups(truths, preds, min_support)
        assert discover_groups(truths, preds, min_support) == want


def reference_discover_groups(truths, base_preds, min_support):
    """The former ``Counter`` body of ``discover_groups``, kept as the oracle."""
    counts = Counter(
        (int(t), int(p)) for t, p in zip(truths, base_preds) if t != p
    )
    groups = [
        ErrorGroup(GestureLabel(t), GestureLabel(p))
        for (t, p), c in counts.items()
        if c >= min_support
    ]
    return sorted(groups, key=lambda g: g.group_id)


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tp_count: int
    fp_count: int


def reference_roc(scores, labels):
    """TP/FP counts at every distinct score, predicting positive at >= threshold."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = np.cumsum(labels[order] == 1)
    neg = np.cumsum(labels[order] == 0)
    # last occurrence of each distinct score carries the cumulative counts
    last = np.nonzero(np.diff(np.append(s, -np.inf)) != 0)[0]
    return [RocPoint(float(s[i]), int(pos[i]), int(neg[i])) for i in last]


def reference_select(train_roc, holdout_roc):
    """The former O(n*m) scan: maximal train TP with zero FP on both sweeps;
    strict > on TP, so the highest threshold wins among equals."""

    def fp_at(roc, threshold):
        worst = 0
        for point in roc:
            if point.threshold >= threshold:
                worst = max(worst, point.fp_count)
        return worst

    best = None
    best_tp = 0
    for point in train_roc:
        if point.fp_count == 0 and point.tp_count >= 1:
            if fp_at(holdout_roc, point.threshold) == 0 and point.tp_count > best_tp:
                best = point.threshold
                best_tp = point.tp_count
    return best


@st.composite
def sweeps(draw):
    """Up to 40 scores, lattice in [-5, 5] (heavy ties) or normal, with labels
    mixed, all positive or all negative."""
    n = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        lattice = st.integers(min_value=-5, max_value=5)
        scores = np.array(draw(st.lists(lattice, min_size=n, max_size=n)), dtype=float)
    else:
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        scores = np.random.default_rng(seed).normal(0, 1, n)
    mix = draw(st.sampled_from(("mixed", "positive", "negative")))
    if mix == "mixed":
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        labels = np.full(n, int(mix == "positive"))
    return scores, labels.astype(np.int64)


class TestThresholdSelection:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.9, 0.6, 0.2, 0.2, 0.2, 0.2])
        labels = np.array([1, 1, 1, 0, 0, 0, 0])
        assert select_threshold_zero_fp(scores, labels, np.empty(0), np.empty(0)) == 0.6

    def test_no_safe_threshold(self):
        scores = np.array([0.9, 0.9, 0.2, 0.2, 0.2, 0.2, 0.2])
        labels = np.array([1, 0, 1, 1, 0, 0, 0])
        assert select_threshold_zero_fp(scores, labels, np.empty(0), np.empty(0)) is None

    def test_holdout_vetoes(self):
        scores = np.array([0.9, 0.9, 0.6])
        labels = np.array([1, 1, 1])
        # a holdout negative at 0.7 fires at 0.6 but not at 0.9
        got = select_threshold_zero_fp(scores, labels, np.array([0.7]), np.array([0]))
        assert got == 0.9

    def test_needs_positives(self):
        empty = np.empty(0)
        scores, labels = np.array([0.5, 0.2]), np.array([0, 0])
        assert select_threshold_zero_fp(scores, labels, empty, empty) is None

    def test_empty_train(self):
        empty = np.empty(0)
        assert select_threshold_zero_fp(empty, empty, empty, empty) is None

    @given(sweeps(), sweeps())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, train, holdout):
        expected = reference_select(reference_roc(*train), reference_roc(*holdout))
        assert select_threshold_zero_fp(*train, *holdout) == expected


class TestThresholdMargin:
    @given(sweeps(), sweeps())
    @settings(max_examples=400, deadline=None)
    def test_margin_keeps_zero_fp_and_train_tp(self, train, holdout):
        threshold = select_threshold_zero_fp(*train, *holdout)
        if threshold is None:
            return
        got = with_margin(threshold, *train, *holdout)
        negatives = np.concatenate((train[0][train[1] == 0], holdout[0][holdout[1] == 0]))
        lowered = threshold - 1e-9 * max(1.0, abs(threshold))
        if not len(negatives) or lowered > negatives.max():
            assert got == lowered
        else:
            assert got == threshold
        assert not np.any(negatives >= got)
        assert int((train[0] >= got).sum()) == int((train[0] >= threshold).sum())

    def test_margin_relative_above_one(self):
        scores, labels = np.array([250.0, 100.0, -3.0]), np.array([1, 1, 0])
        empty = np.empty(0)
        assert with_margin(100.0, scores, labels, empty, empty) == 100.0 - 1e-7

    def test_no_room_keeps_threshold(self):
        # a negative just below the threshold leaves no room for the margin
        scores = np.array([0.6, 0.6 - 1e-12])
        labels = np.array([1, 0])
        empty = np.empty(0)
        threshold = select_threshold_zero_fp(scores, labels, empty, empty)
        assert threshold == 0.6
        assert with_margin(threshold, scores, labels, empty, empty) == 0.6
        # the same negative on the holdout sweep
        assert with_margin(0.6, scores[:1], labels[:1], scores[1:], labels[1:]) == 0.6


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
        kernel = kernel_fit(parse_kernel_spec("pca:9"), X)
        feats = kernel_apply(kernel, X)
        feats_h = kernel_apply(kernel, Xh)
        group = ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        # the base model said shoot on every row, so every row is a candidate
        assert (preds == int(group.predicted)).all() and (preds_h == preds).all()
        corrector = train_corrector(group, "pca:9", feats, truths, feats_h, truths_h)
        assert corrector is not None and corrector.kernel_name == "pca:9"
        scores = corrector.score(feats)
        fires = scores >= corrector.threshold
        negatives = truths != int(GestureLabel.NONE)
        assert not np.any(fires & negatives)  # never fires on a correct sample
        assert corrector.train_tp >= 1

    def test_returns_none_without_candidates(self):
        X, truths, preds = separable_group_data()
        feats = kernel_apply(kernel_fit(parse_kernel_spec("pca:9"), X), X)
        group = ErrorGroup(GestureLabel.SHOOT, GestureLabel.FLICK_INDEX)
        rows = preds == int(group.predicted)
        assert not rows.any()
        assert (
            train_corrector(group, "pca:9", feats[rows], truths[rows], feats[rows], truths[rows])
            is None
        )

    def test_needs_both_classes(self):
        X, truths, preds = separable_group_data()
        feats = kernel_apply(kernel_fit(parse_kernel_spec("pca:9"), X), X)
        # every candidate is an error of the group: no negative to fit against
        truths = np.full(len(X), int(GestureLabel.NONE))
        group = ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        assert train_corrector(group, "pca:9", feats, truths, feats, truths) is None

    @pytest.mark.parametrize("sweep, tp, positives", [
        ("train", "train_tp", "train_positives"),
        ("validation", "holdout_tp", "holdout_positives"),
    ])
    def test_inference_scores_reproduce_training_counts(self, small_bundle, small_split, sweep, tp, positives):
        # Corrector.score on a sweep's candidates gives the scores the
        # threshold was chosen on: its TP count, and no negative at or above it
        X = feature_matrix(small_split.partition(sweep))
        y = label_array(small_split.partition(sweep))
        base = small_bundle.predict_base_batch(X)
        for c in small_bundle.correctors:
            mask = base == int(c.group.predicted)
            feats = kernel_apply(small_bundle.corrector_kernels[c.kernel_name], X)[mask]
            positive = y[mask] == int(c.group.truth)
            fires = c.score(feats) >= c.threshold
            assert int(positive.sum()) == getattr(c, positives)
            assert int(fires.sum()) == getattr(c, tp)
            assert not np.any(fires & ~positive)


class TestCorrectorFields:
    def test_group_derived_from_id_and_not_stored(self):
        c = stub_corrector(21)
        assert c.group == ErrorGroup(GestureLabel.NONE, GestureLabel.SHOOT)
        assert c.group.group_id == c.group_id == 21
        assert [f.name for f in fields(Corrector) if f.init] == [
            "group_id", "kernel_name", "model", "threshold",
            "train_tp", "train_positives", "holdout_tp", "holdout_positives",
        ]


def stub_corrector(group_id):
    return Corrector(
        group_id=group_id,
        kernel_name="pca:9",
        model=centroid_fit(np.eye(2), np.array([0, 1])),
        threshold=0.5,
        train_tp=1,
        train_positives=1,
        holdout_tp=0,
        holdout_positives=0,
    )


class TestGroupClassifier:
    def test_assign_respects_gate(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0.3, 0.1, (90, 100))
        X[:30, :20] += 0.3
        X[60:, 40:60] += 0.3
        X = np.clip(X, 0, 1)
        ids = np.array([21] * 30 + [1] * 30 + [9] * 30)
        kernel = kernel_fit(parse_kernel_spec("pca:9"), X)
        gc = train_group_classifier(X, ids, kernel)
        assert gc.group_ids == (1, 9, 21)
        # groups 1 (index_bend->shoot) and 21 (none->shoot) are gated by
        # base label 1, and group 9 (shoot->none) by label 4; group 9 has no
        # corrector, so label 4 has no route
        routes = build_routing_table(gc.group_ids, gc, [stub_corrector(g) for g in (1, 21)])
        assert sorted(routes) == [1]
        route = routes[1]
        assert route.group_ids == (1, 21)
        assert [c.group.group_id for c in route.correctors] == [1, 21]
        # the router picks only among the label's groups
        assert not hasattr(route, "centroids")  # folded into the router, not kept
        picks = gc.assign(X, route.router)
        assert picks.tolist()[:60] == [1] * 30 + [0] * 30
        # a label that gates one group routes to it without the router
        routes = build_routing_table((9, 21), None, [stub_corrector(g) for g in (9, 21)])
        assert sorted(routes) == [1, 4]
        assert routes[4].group_ids == (9,) and routes[4].router is None


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
