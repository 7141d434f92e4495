"""The one cascade against the per-sample cascade it replaced.

``reference_predict`` is the former single-sample ``corrected_predict``
(with the centroid router inlined): it rebuilds the gating from the bundle
on every call and routes one row at a time.  ``corrected_predict`` and
``corrected_predict_batch`` must give its label on every row.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capgest.classify import knn_predict_batch
from capgest.corrector import N_LABELS, corrected_predict, corrected_predict_batch
from capgest.embed import kernel_apply, pca_transform
from capgest.signals import N_FEATURES, GestureLabel, feature_matrix


def _reference_assign(gc, features, allowed_ids):
    allowed = [g for g in allowed_ids if g in gc.group_ids]
    if not allowed:
        return None
    if len(allowed) == 1:
        return allowed[0]
    features = np.atleast_2d(features)
    cols = [int(np.where(gc.centroid.classes == g)[0][0]) for g in allowed]
    diff = features[:, None, :] - gc.centroid.centroids[cols][None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[0]
    return allowed[int(np.argmin(dist))]


def reference_predict(bundle, feature_vector):
    fv = np.atleast_2d(np.asarray(feature_vector, dtype=np.float64))
    z = pca_transform(bundle.base_pca, fv)
    base = int(knn_predict_batch(bundle.base_knn, z)[0])

    correctors = {c.group.group_id: c for c in bundle.correctors}
    classifier_ids = () if bundle.group_classifier is None else bundle.group_classifier.group_ids
    gated = [g for g in sorted(set(correctors) | set(classifier_ids)) if g % N_LABELS == base]
    if not gated:
        return GestureLabel(base)
    if bundle.group_classifier is not None:
        feats = kernel_apply(bundle.group_classifier.kernel, fv)
        chosen = _reference_assign(bundle.group_classifier, feats[0], gated)
    else:
        chosen = gated[0] if len(gated) == 1 else None
    if chosen is None:
        return GestureLabel(base)
    corrector = correctors.get(chosen)
    if corrector is None or not corrector.enabled:
        return GestureLabel(base)
    kernel = bundle.corrector_kernels[corrector.kernel_name]
    score = float(corrector.score(kernel_apply(kernel, fv))[0])
    if score >= corrector.threshold:
        return GestureLabel(corrector.group.truth)
    return GestureLabel(base)


def assert_matches_reference(bundle, X):
    expected = [int(reference_predict(bundle, x)) for x in X]
    assert corrected_predict_batch(bundle, X).tolist() == expected
    assert [int(corrected_predict(bundle, x)) for x in X] == expected


def eval_rows(split):
    return feature_matrix(split.test + split.hold)


uniform_rows = arrays(
    np.float64, st.tuples(st.integers(1, 12), st.just(N_FEATURES)),
    elements=st.floats(0.0, 1.0),
)
tie_heavy_rows = arrays(
    np.float64, st.tuples(st.integers(1, 12), st.just(N_FEATURES)),
    elements=st.sampled_from([0.0, 0.5, 1.0]),
)


class TestOracle:
    def test_every_eval_window(self, small_bundle, small_split):
        assert_matches_reference(small_bundle, eval_rows(small_split))

    @given(uniform_rows)
    @settings(max_examples=40, deadline=None)
    def test_uniform_rows(self, small_bundle, X):
        assert_matches_reference(small_bundle, X)

    @given(tie_heavy_rows)
    @settings(max_examples=40, deadline=None)
    def test_tie_heavy_rows(self, small_bundle, X):
        assert_matches_reference(small_bundle, X)

    def test_without_group_classifier(self, small_bundle, small_split):
        bundle = replace(small_bundle, group_classifier=None)
        # only labels that gate exactly one group keep a route
        assert bundle.routing.routes
        assert all(len(r.gated) == 1 for r in bundle.routing.routes.values())
        assert_matches_reference(bundle, eval_rows(small_split))

    def test_routed_group_without_corrector(self, small_bundle, small_split):
        label, route = next(
            (label, r) for label, r in small_bundle.routing.routes.items() if len(r.allowed) > 1
        )
        dropped = route.allowed[0]
        bundle = replace(
            small_bundle,
            correctors=tuple(c for c in small_bundle.correctors if c.group.group_id != dropped),
        )
        new_route = bundle.routing.routes[label]
        assert new_route.allowed == route.allowed
        assert new_route.correctors[0] is None
        X = eval_rows(small_split)
        rows = X[small_bundle.predict_base_batch(X) == label]
        picks = bundle.group_classifier.assign(rows, new_route.centroids)
        assert np.any(picks == 0)  # some samples really route to the corrector-less group
        assert_matches_reference(bundle, X)


def no_corrector_fires(bundle, X):
    """Rows where no enabled corrector's score clears its threshold."""
    quiet = np.ones(len(X), dtype=bool)
    for c in bundle.correctors:
        if c.enabled:
            scores = c.score(kernel_apply(bundle.corrector_kernels[c.kernel_name], X))
            quiet &= scores < c.threshold
    return quiet


def assert_quiet_rows_keep_base(bundle, X):
    quiet = no_corrector_fires(bundle, X)
    corrected = corrected_predict_batch(bundle, X)
    base = bundle.predict_base_batch(X)
    assert np.array_equal(corrected[quiet], base[quiet])


class TestKeepsBaseWhenQuiet:
    def test_eval_windows(self, small_bundle, small_split):
        X = eval_rows(small_split)
        assert no_corrector_fires(small_bundle, X).any()
        assert_quiet_rows_keep_base(small_bundle, X)

    @given(uniform_rows)
    @settings(max_examples=30, deadline=None)
    def test_uniform_rows(self, small_bundle, X):
        assert_quiet_rows_keep_base(small_bundle, X)
