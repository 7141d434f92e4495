"""The one cascade against the code it replaced, label by label and score by score.

Every reference here is a former body kept as it was, or, for a kernel, its
stored map written out, and none of them calls the layer of the product it
checks:

- ``reference_batch`` is the former ``corrected_predict_batch``, which ran a
  batch of one through the same label scan, pick masks and per-stage input
  conversions as a batch.  Its layers are ``kernel_apply`` (each stage
  ``x @ matrix - offset``, written here), ``GroupClassifier.assign`` (the
  distance argmin over the router kernel's features, which the router's
  fold replaced), ``Corrector.score`` (with the former ``centroid_score``),
  and the former ``knn_predict_batch`` and ``query_topk``, whose chunk loop
  a single query also ran.
- ``reference_predict`` is the per-sample cascade before that one: it
  gates by the bundle's discovered group ids on every call, without the
  routing table, and routes one row at a time.

``corrected_predict`` and ``corrected_predict_batch`` must give the labels of
both, and every corrector must score the rows routed to it byte for byte as
``reference_batch`` scores them: as a batch, and one row at a time.  A base
label that one row reads from the KNN label map must be the former search
and vote's, also on the faces of the map's cells.
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capgest.classify import (
    CentroidModel,
    knn_cell_share,
    knn_fit,
    knn_map_share,
    knn_predict_batch,
)
from capgest.config import PipelineConfig
from capgest.corrector import (
    N_LABELS,
    Corrector,
    GroupClassifier,
    corrected_predict,
    corrected_predict_batch,
    discover_groups,
)
from capgest.embed import (
    FittedKernel,
    KernelSpec,
    _monomials,
    kernel_apply,
    kernel_fit,
    parse_kernel_spec,
    pca_transform,
)
from capgest.errors import InconsistentBundle
from capgest.neighbors import cell_index, query_topk, sq_norms
from capgest.pipeline import train_pipeline
from capgest.signals import N_FEATURES, GestureLabel, feature_matrix, label_array


# ---------------------------------------------------------------------------
# Former layer bodies
# ---------------------------------------------------------------------------

def reference_query_topk(refs, queries, k, ref_sq=None):
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n = refs.shape[0]
    m = queries.shape[0]
    if ref_sq is None:
        ref_sq = np.einsum("ij,ij->i", refs, refs)
    dist = np.empty((m, k))
    idx = np.empty((m, k), dtype=np.int64)
    for lo in range(0, m, 32):
        q = queries[lo : lo + 32]
        d2 = q @ refs.T
        d2 *= -2.0
        d2 += ref_sq
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        np.maximum(d2, 0.0, out=d2)
        if k < n:
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        else:
            kth = d2.max(axis=1)
        for row in range(q.shape[0]):
            cand = np.nonzero(d2[row] <= kth[row])[0]
            order = cand[np.argsort(d2[row, cand], kind="stable")][:k]
            idx[lo + row] = order
            dist[lo + row] = d2[row, order]
    np.sqrt(dist, out=dist)
    return dist, idx


def reference_knn_predict_batch(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dist, idx = reference_query_topk(model.points, X, model.k, ref_sq=model.sq_norms)
    m, c = idx.shape[0], len(model.classes)
    cells = (np.arange(m)[:, None] * c + model.codes[idx]).ravel()
    counts = np.bincount(cells, minlength=m * c).reshape(m, c)
    sums = np.bincount(cells, weights=dist.ravel(), minlength=m * c).reshape(m, c)
    sums[counts < counts.max(axis=1, keepdims=True)] = np.inf
    return model.classes[np.argmin(sums, axis=1)].astype(np.int64)


def reference_pca_transform(components, X):
    return np.atleast_2d(np.asarray(X, dtype=np.float64)) @ components


def reference_kernel_apply(kernel, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    spec = kernel.spec
    if spec.kind == "pca":
        return X @ kernel.matrix - kernel.offset
    if spec.kind == "poly":
        B = reference_kernel_apply(kernel.base, X)[:, : spec.n_pc]
        return _monomials(B, spec.n_poly) @ kernel.matrix - kernel.offset
    if spec.kind == "knn":
        B = reference_kernel_apply(kernel.base, X)[:, : spec.n_pc]
        D, _ = reference_query_topk(kernel.train_base, B, spec.k_nn)
        return D @ kernel.matrix - kernel.offset
    return np.hstack([reference_kernel_apply(c, X) for c in kernel.children])


def reference_assign(gc, features, group_ids):
    centroids = gc.centroid.centroids[np.searchsorted(gc.centroid.classes, group_ids)]
    feats = reference_kernel_apply(gc.kernel, features)
    diff = feats[:, None, :] - centroids[None, :, :]
    return np.argmin(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), axis=1)


def reference_centroid_score(model, x, positive_class):
    classes = model.classes.tolist()
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = X[:, None, :] - model.centroids[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    pos_col = int(positive_class == classes[1])
    d_pos = dist[:, pos_col]
    d_neg = dist[:, 1 - pos_col]
    total = d_pos + d_neg
    return np.divide(d_neg, total, out=np.full(len(total), 0.5), where=total > 0)


def reference_score(corrector, kernel_features):
    kernel_features = np.atleast_2d(kernel_features)
    if isinstance(corrector.model, CentroidModel):
        return np.atleast_1d(reference_centroid_score(corrector.model, kernel_features, 1))
    x = np.asarray(kernel_features, dtype=np.float64)
    return np.atleast_1d(x @ corrector.model.w - corrector.model.bias)


# ---------------------------------------------------------------------------
# Former cascades
# ---------------------------------------------------------------------------

def reference_batch(bundle, features, log):
    """The former ``corrected_predict_batch``; appends (group id, score bytes)
    to ``log`` per corrector call."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    z = reference_pca_transform(bundle.base_pca, features)
    base = reference_knn_predict_batch(bundle.base_knn, z)
    out = base.copy()
    present = set(base.tolist())
    for label, route in bundle.routing.items():
        if label not in present:
            continue
        rows = np.flatnonzero(base == label)
        if len(route.group_ids) == 1:
            picks = np.zeros(len(rows), dtype=np.int64)
        else:
            picks = reference_assign(bundle.group_classifier, features[rows], route.group_ids)
        for pick, corrector in enumerate(route.correctors):
            if corrector is None:
                continue
            routed = rows[picks == pick]
            if not len(routed):
                continue
            kernel = bundle.corrector_kernels[corrector.kernel_name]
            scores = reference_score(corrector, reference_kernel_apply(kernel, features[routed]))
            log.append((corrector.group.group_id, scores.tobytes()))
            out[routed[scores >= corrector.threshold]] = int(corrector.group.truth)
    return out


def _reference_pick(gc, features, gated):
    cols = [int(np.where(gc.centroid.classes == g)[0][0]) for g in gated]
    diff = features[:, None, :] - gc.centroid.centroids[cols][None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[0]
    return gated[int(np.argmin(dist))]


def reference_predict(bundle, feature_vector):
    """The per-sample cascade: the base label gates the discovered groups
    that predict it, and the group classifier picks where it gates several."""
    fv = np.atleast_2d(np.asarray(feature_vector, dtype=np.float64))
    base = int(reference_knn_predict_batch(bundle.base_knn, reference_pca_transform(bundle.base_pca, fv))[0])
    correctors = {c.group.group_id: c for c in bundle.correctors}
    gated = [g for g in bundle.discovered_group_ids if g % N_LABELS == base]
    if not gated:
        return GestureLabel(base)
    chosen = gated[0]
    if len(gated) > 1:
        feats = reference_kernel_apply(bundle.group_classifier.kernel, fv)
        chosen = _reference_pick(bundle.group_classifier, feats, gated)
    corrector = correctors.get(chosen)
    if corrector is None:
        return GestureLabel(base)
    kernel = bundle.corrector_kernels[corrector.kernel_name]
    score = float(reference_score(corrector, reference_kernel_apply(kernel, fv))[0])
    return GestureLabel(corrector.group.truth) if score >= corrector.threshold else GestureLabel(base)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

@contextmanager
def product_scores():
    """Log (group id, score bytes) of every ``Corrector.score`` call."""
    log = []
    original = Corrector.score

    def recording(self, kernel_features):
        scores = original(self, kernel_features)
        log.append((self.group.group_id, scores.tobytes()))
        return scores

    Corrector.score = recording
    try:
        yield log
    finally:
        Corrector.score = original


def assert_matches_reference(bundle, X):
    want_log = []
    want = reference_batch(bundle, X, want_log)
    with product_scores() as log:
        got = corrected_predict_batch(bundle, X)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert log == want_log

    want_rows_log = []
    want_rows = [int(reference_batch(bundle, x, want_rows_log)[0]) for x in X]
    with product_scores() as rows_log:
        got_rows = [int(corrected_predict(bundle, x)) for x in X]
    assert got_rows == want_rows
    assert rows_log == want_rows_log
    assert [int(reference_predict(bundle, x)) for x in X] == want_rows


def eval_rows(split):
    return feature_matrix(split.test + split.hold)


def uniform_rows(max_rows=12):
    return arrays(
        np.float64, st.tuples(st.integers(1, max_rows), st.just(N_FEATURES)),
        elements=st.floats(0.0, 1.0),
    )


def lattice_rows(max_rows=12, lattices=((0.0, 0.5, 1.0), (0.0, 1.0, 2.0))):
    """Rows on one of ``lattices``, by default the {0, 0.5, 1} lattice, inside
    the feature range, or the {0, 1, 2} lattice: many exact distance ties in
    every layer."""
    return st.sampled_from(lattices).flatmap(
        lambda lattice: arrays(
            np.float64, st.tuples(st.integers(1, max_rows), st.just(N_FEATURES)),
            elements=st.sampled_from(lattice),
        )
    )


def corrector_less_route(bundle):
    """``bundle`` without the corrector of the first id of a multi-id route."""
    label, route = next(
        (label, r) for label, r in bundle.routing.items() if len(r.group_ids) > 1
    )
    dropped = route.group_ids[0]
    out = replace(
        bundle, correctors=tuple(c for c in bundle.correctors if c.group.group_id != dropped)
    )
    assert out.routing[label].group_ids == route.group_ids
    assert out.routing[label].correctors[0] is None
    return out, label


@pytest.fixture(scope="session")
def one_group_bundle(small_bundle, small_split):
    """The small bundle's training with ``min_support`` set so that only the
    largest error group is discovered: no label gates several groups."""
    X, y = feature_matrix(small_split.train), label_array(small_split.train)
    base = small_bundle.predict_base_batch(X)  # min_support does not touch the base model
    counts = sorted(Counter((N_LABELS * y + base)[base != y].tolist()).values(), reverse=True)
    assert counts[0] > counts[1]
    assert len(discover_groups(y, base, counts[0])) == 1
    return train_pipeline(PipelineConfig(min_support=counts[0]), small_split)


@pytest.fixture(scope="session")
def kernel_bundle(small_split):
    """Correctors over the poly, concat and knn kernels, which the default
    small bundle does not choose."""
    config = PipelineConfig(
        corrector_kernels=("poly:5:4", "concat(pca:10,poly:5:4)", "knn:5:20")
    )
    return train_pipeline(config, small_split)


@pytest.fixture(scope="session")
def variants(small_bundle, kernel_bundle, one_group_bundle):
    return {
        "trained": small_bundle,
        "kernels": kernel_bundle,
        "no group classifier": one_group_bundle,
        "route without corrector": corrector_less_route(small_bundle)[0],
    }


VARIANTS = ("trained", "kernels", "no group classifier", "route without corrector")


class TestOracle:
    def test_every_eval_window(self, variants, small_split):
        X = eval_rows(small_split)
        trained = variants["trained"]
        # rows reach a route with one group id, where no router runs
        single = [label for label, r in trained.routing.items() if len(r.group_ids) == 1]
        assert single and np.isin(trained.predict_base_batch(X), single).any()
        # the kernel bundle scores with poly, concat and knn kernels
        assert {"poly:5:4", "concat(pca:10,poly:5:4)", "knn:5:20"} <= {
            c.kernel_name for c in variants["kernels"].correctors
        }
        assert_matches_reference(trained, X)
        assert_matches_reference(variants["kernels"], X)

    def test_one_group_bundle(self, variants, small_split):
        bundle = variants["no group classifier"]
        assert len(bundle.discovered_group_ids) == 1
        assert bundle.group_classifier is None
        with pytest.raises(InconsistentBundle, match="group classifier present"):
            replace(bundle, group_classifier=variants["trained"].group_classifier)
        # the one group has a corrector, so its label routes to it
        assert [r.group_ids for r in bundle.routing.values()] == [
            bundle.discovered_group_ids
        ]
        assert_matches_reference(bundle, eval_rows(small_split))

    def test_routed_group_without_corrector(self, small_bundle, small_split):
        bundle, label = corrector_less_route(small_bundle)
        X = eval_rows(small_split)
        rows = X[small_bundle.predict_base_batch(X) == label]
        picks = bundle.group_classifier.assign(rows, bundle.routing[label].router)
        assert np.any(picks == 0)  # some samples really route to the corrector-less group
        assert_matches_reference(bundle, X)

    # the cascade rejects values outside the feature range [0, 1]
    @given(st.sampled_from(VARIANTS[1:]), lattice_rows(lattices=((0.0, 0.5, 1.0), (0.0, 1.0))))
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_rows(self, variants, name, X):
        # every example on the trained bundle, and on one other variant
        assert_matches_reference(variants["trained"], X)
        assert_matches_reference(variants[name], X)

    @given(st.sampled_from(VARIANTS[1:]), uniform_rows())
    @settings(max_examples=40, deadline=None)
    def test_uniform_rows(self, variants, name, X):
        assert_matches_reference(variants["trained"], X)
        assert_matches_reference(variants[name], X)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_train_windows_where_correctors_fire(self, variants, small_split, name):
        bundle = variants[name]
        X = feature_matrix(small_split.train)
        fired = bundle.predict_batch(X) != bundle.predict_base_batch(X)
        assert fired.sum() >= 10
        # every fired row and a sample of the rest, in their original order
        keep = fired | (np.arange(len(X)) % 10 == 0)
        assert_matches_reference(bundle, X[keep])


_A = [0.0, 0.01, 0.02, 0.03, 0.04]  # five label-0 references


class TestLayers:
    """Each rewritten layer against its former body."""

    @given(lattice_rows(40), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_single_query_topk(self, refs, n_dims, data):
        refs = refs[:, :n_dims]
        k = data.draw(st.integers(1, len(refs)))
        query = data.draw(lattice_rows(1))[:, :n_dims]
        got = query_topk(refs, query, k)
        want = reference_query_topk(refs, query, k)
        assert got[1].tolist() == want[1].tolist()
        assert got[0].tobytes() == want[0].tobytes()

    @given(lattice_rows(40), st.integers(1, 7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cell_search_on_lattices(self, refs, n_dims, data):
        refs = refs[:, :n_dims]
        model = knn_fit(refs, np.zeros(len(refs)), data.draw(st.integers(1, len(refs))))
        for q in data.draw(lattice_rows(8))[:, :n_dims]:
            assert_cell_search_exact(model, q[None])

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 7)),
               elements=st.floats(-10.0, 10.0)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_cell_search_on_floats(self, refs, data):
        # tiny, subnormal and signed-zero spans give grids of odd cell sides
        model = knn_fit(refs, np.zeros(len(refs)), data.draw(st.integers(1, len(refs))))
        Q = data.draw(arrays(np.float64, (4, refs.shape[1]), elements=st.floats(-12.0, 12.0)))
        for q in np.vstack([Q, refs[:4]]):
            assert_cell_search_exact(model, q[None])

    @pytest.mark.parametrize("n_dims", range(1, 8))
    def test_cell_search_by_width(self, n_dims):
        # columns past the third vary less, as PCA scores do; past three
        # columns there is no grid and every query scans
        rng = np.random.default_rng(n_dims)
        scale = np.array([1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1])[:n_dims]
        refs = rng.normal(0.0, 1.0, (600, n_dims)) * scale
        for k in (1, 5, 600):
            model = knn_fit(refs, np.zeros(600), k)
            assert (model.cell_index is None) == (n_dims > 3)
            Q = rng.normal(0.0, 1.2, (60, n_dims)) * scale
            for q in Q:
                assert_cell_search_exact(model, q[None])
            if k < 600 and n_dims <= 3:  # not vacuous: blocks answer most queries
                assert knn_cell_share(model, Q) > 0.5

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_cell_search_far_from_origin(self, offset):
        # the expanded distances round by about 1e-3 at 1e6 and by more than
        # the 0.1 lattice spacing at 1e8, where blocks answer wrongly unless
        # the rounding bound sends the queries to the full scan
        rng = np.random.default_rng(3)
        refs = np.round(rng.normal(0.0, 1.0, (800, 3)), 1) + offset
        model = knn_fit(refs, np.zeros(800), 5)
        Q = refs[rng.integers(0, 800, 200)] + np.round(rng.normal(0.0, 0.3, (200, 3)), 1)
        for q in Q:
            assert_cell_search_exact(model, q[None])
        if offset < 1e8:
            assert knn_cell_share(model, Q) > 0.2

    def test_cell_search_outside_the_grid(self):
        rng = np.random.default_rng(4)
        model = knn_fit(rng.uniform(0.0, 1.0, (500, 3)), np.zeros(500), 5)
        for q in ([1e6, 0.5, 0.5], [-5.0, -5.0, -5.0], [0.5, 0.5, 1e6], [1.02, 0.5, -0.01]):
            assert_cell_search_exact(model, np.array([q]))
        assert knn_cell_share(model, np.array([[1e6, 0.5, 0.5], [-5.0, 0.5, 0.5]])) == 0.0

    def test_cell_search_small_and_flat_sets(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 9, 26):
            refs = rng.uniform(0.0, 1.0, (n, 3))
            for k in sorted({1, (n + 1) // 2, n}):
                model = knn_fit(refs, np.zeros(n), k)
                for q in rng.uniform(-0.2, 1.2, (20, 3)):
                    assert_cell_search_exact(model, q[None])
        # a block of one reference: numpy multiplies by one column as a dot
        # product, which rounds unlike the scan's matrix-vector product
        two = np.array([[1.72728018, 1.96239008], [1.91442036, 0.29752802]])
        assert_cell_search_exact(knn_fit(two, np.zeros(2), 1), two[:1])
        flat = rng.uniform(0.0, 1.0, (300, 3))
        flat[:, 1] = 0.25
        model = knn_fit(flat, np.zeros(300), 5)
        assert model.cell_index is None  # zero volume: every query scans
        for q in rng.uniform(0.0, 1.0, (20, 3)):
            assert_cell_search_exact(model, q[None])

    @given(
        st.sampled_from(["lattice", "offset 1e8", "crossing 0"]),
        st.integers(2, 40),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_cell_margins_against_brute_force(self, kind, n, n_dims, data):
        # the first two rows span the range on every axis, so no axis is flat
        if kind == "crossing 0":  # far below 0 to just above it: fine floats near 0
            lo, hi, values = -1e6, 1.0, st.floats(-1e6, 1.0)
        else:
            lo, hi, values = 0.0, 2.0, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
        refs = data.draw(arrays(np.float64, (n, n_dims), elements=values))
        refs[0], refs[1] = lo, hi
        if kind == "offset 1e8":
            refs += 1e8
        k = data.draw(st.integers(1, n))
        index = cell_index(refs, k, sq_norms(refs), np.zeros(n, dtype=np.int64))
        assert index is not None
        for j, (low, n_cells, _, below, above, _) in enumerate(index.axes):
            coords = refs[:, j].tolist()
            cells = [np.floor((x - low) / index.side) + 1 for x in coords]
            for c in range(n_cells):
                want_below = max((x for x, i in zip(coords, cells) if i <= c - 2), default=-np.inf)
                want_above = min((x for x, i in zip(coords, cells) if i >= c + 2), default=np.inf)
                assert (below[c], above[c]) == (want_below, want_above), (j, c)

    @pytest.mark.parametrize("n_classes", [127, 128])
    def test_index_needs_int8_label_codes(self, n_classes):
        # a fine cell stores its label code plus 1 as int8: codes up to 126.
        # One tight cluster per class, on a lattice of spacing 1
        rng = np.random.default_rng(7)
        centers = np.array(list(itertools.product(range(6), range(6), range(4))), dtype=float)
        centers = centers[:n_classes]
        labels = np.arange(n_classes).repeat(15)
        model = knn_fit(centers[labels] + rng.normal(0.0, 0.05, (len(labels), 3)), labels, 5)
        assert (model.cell_index is None) == (n_classes > 127)
        Q = centers[rng.integers(0, n_classes, 60)] + rng.normal(0.0, 0.05, (60, 3))
        assert_label_map_exact(model, np.vstack([Q, centers[-1:]]))
        if n_classes == 127:  # not vacuous: the top code is stored
            assert model.cell_index.mark(centers[-1].tolist()) == 127
            assert knn_map_share(model, Q) > 0.5

    def test_no_index_past_seven_columns(self):
        refs = np.random.default_rng(6).normal(0.0, 1.0, (100, 8))
        assert knn_fit(refs, np.zeros(100), 5).cell_index is None

    def test_default_test_split_answered_from_blocks(self, default_bundle, default_split):
        z = pca_transform(default_bundle.base_pca, feature_matrix(default_split.test))
        assert knn_cell_share(default_bundle.base_knn, z) >= 0.95

    @given(lattice_rows(40), st.integers(0, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_knn_predict(self, refs, n_labels, data):
        refs = refs[:, :3]
        labels = np.arange(len(refs)) % (n_labels + 1)
        k = data.draw(st.integers(1, len(refs)))
        model = knn_fit(refs, labels, k)
        Q = data.draw(lattice_rows(8))[:, :3]
        assert knn_predict_batch(model, Q).tolist() == reference_knn_predict_batch(model, Q).tolist()
        for q in Q:
            got = knn_predict_batch(model, q[None])
            assert got.tolist() == reference_knn_predict_batch(model, q[None]).tolist()

    @given(lattice_rows(40), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_label_map_on_lattices(self, refs, n_dims, n_labels, data):
        refs = refs[:, :n_dims]
        labels = data.draw(arrays(np.int64, len(refs), elements=st.integers(0, n_labels - 1)))
        model = knn_fit(refs, labels, data.draw(st.integers(1, len(refs))))
        assert_label_map_exact(model, data.draw(lattice_rows(6))[:, :n_dims])

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
               elements=st.floats(-10.0, 10.0)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_label_map_on_floats(self, refs, data):
        labels = data.draw(arrays(np.int64, len(refs), elements=st.integers(0, 2)))
        model = knn_fit(refs, labels, data.draw(st.integers(1, len(refs))))
        Q = data.draw(arrays(np.float64, (3, refs.shape[1]), elements=st.floats(-12.0, 12.0)))
        assert_label_map_exact(model, np.vstack([Q, refs[:3]]))

    @pytest.mark.parametrize("n_dims", range(1, 8))
    def test_label_map_by_width(self, n_dims):
        rng = np.random.default_rng(n_dims)
        scale = np.array([1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1])[:n_dims]
        refs = rng.normal(0.0, 1.0, (600, n_dims)) * scale
        model = knn_fit(refs, (refs[:, 0] > 0.3).astype(np.int64) + (refs[:, -1] > 0), 5)
        Q = rng.normal(0.0, 1.2, (60, n_dims)) * scale
        assert_label_map_exact(model, Q)
        if n_dims > 3:  # no grid: every row searches and votes
            assert model.cell_index is None
            return
        assert knn_map_share(model, Q) > 0.1  # not vacuous: the map answers rows

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_label_map_far_from_origin(self, offset):
        rng = np.random.default_rng(3)
        refs = np.round(rng.normal(0.0, 1.0, (800, 3)), 1)
        model = knn_fit(refs + offset, (refs[:, 0] > 0).astype(np.int64), 5)
        Q = refs[rng.integers(0, 800, 100)] + np.round(rng.normal(0.0, 0.3, (100, 3)), 1)
        assert_label_map_exact(model, Q + offset, like_batch=offset < 1e8)
        if offset < 1e8:
            assert knn_map_share(model, Q + offset) > 0.1

    def test_label_map_outside_the_grid(self):
        rng = np.random.default_rng(4)
        refs = rng.uniform(0.0, 1.0, (500, 3))
        model = knn_fit(refs, (refs.sum(axis=1) > 1.5).astype(np.int64), 5)
        Q = np.array([[1e6, 0.5, 0.5], [-5.0, -5.0, -5.0], [0.5, 0.5, 1e6], [1.02, 0.5, -0.01],
                      [np.nextafter(1.0, 2.0), 0.5, 0.5]])
        assert_label_map_exact(model, np.vstack([Q, rng.uniform(0.0, 1.0, (40, 3))]))
        assert knn_map_share(model, Q[:3]) == 0.0

    @pytest.mark.parametrize(
        "refs, labels, q, other",
        [
            # the block holds every reference: the proof needs the reach term
            (_A + [2.0, 2.01, 2.02, 2.03, 2.04, 3.0], [0] * 5 + [1] * 5 + [0], 0.9, 1.021),
            # the label-1 cluster lies outside q's block: the proof needs the floor test
            (_A + [3.1, 3.11, 3.12, 3.13, 3.14] + np.linspace(5.0, 20.0, 90).tolist(),
             [0] * 5 + [1] * 5 + [0] * 90, 1.51, 1.62),
        ],
        ids=["reach", "floor"],
    )
    def test_label_map_cell_with_two_majorities(self, refs, labels, q, other):
        # q's 5 nearest share label 0 while ``other``, in q's fine cell, has a
        # label-1 majority: no proof may store a label for that cell
        model = knn_fit(np.array(refs)[:, None], np.array(labels), 5)
        assert model.cell_index.locate([q])[1] == model.cell_index.locate([other])[1]
        nearest = reference_query_topk(model.points, np.array([[q]]), 5)[1][0]
        assert model.labels[nearest].tolist() == [0] * 5
        assert reference_knn_predict_batch(model, np.array([[other]])).tolist() == [1]
        assert knn_predict_batch(model, np.array([[q]])).tolist() == [0]
        assert knn_predict_batch(model, np.array([[other]])).tolist() == [1]

    @pytest.mark.parametrize(
        "k, others, proven", [(5, 2, True), (5, 3, False), (4, 1, True), (4, 2, False)]
    )
    def test_label_map_strict_majority(self, k, others, proven):
        # the proof radius of q's fine cell holds the five label-0 references
        # of _A and ``others`` label-1 references just beyond them: a label is
        # proven where at most (k - 1) // 2 of those carry another label
        near = [0.05, 0.06, 0.07][:others]
        refs = _A + near + np.linspace(5.0, 20.0, 90).tolist()
        labels = [0] * 5 + [1] * others + [0] * 90
        model = knn_fit(np.array(refs)[:, None], np.array(labels), k)
        q = 0.02
        fine = model.cell_index.locate([q])[1]
        assert knn_predict_batch(model, np.array([[q]])).tolist() == [0]
        assert model.cell_index.cells[fine] == (1 if proven else 0)
        assert_label_map_exact(model, np.array([[q], *([x] for x in near)]))

    @pytest.mark.parametrize(
        "low, high", [(0.0, 1.0), (-1e8, 1e8), (1e8, 1e8 + 1e4), (-1e6, 3.0), (0.3, 1e6)]
    )
    def test_label_map_reach(self, low, high):
        # every two points of one fine cell lie within ``reach`` of each
        # other: rows at both faces of a fine cell and a few ulps beside
        # them.  Where fl(x - low) rounds, a cell can be wider than a fine
        # side by about an ulp of x - low (the last two cases)
        refs = np.linspace(low, high, 1000)[:, None]
        index = knn_fit(refs, np.zeros(1000, dtype=np.int64), 5).cell_index
        lo_x, n_cells, *_ = index.axes[0]
        fine_side = index.side / 8
        ends = {}
        # every fine cell below ``low`` and every seventh above it
        for g in [*range(8), *range(8, n_cells * 8, 7)]:
            for face in (g, g + 1):
                x = lo_x + (face - 8) * fine_side
                for _ in range(4):
                    x = np.nextafter(x, -np.inf)
                for _ in range(9):
                    located = index.locate([x])
                    if located is not None:
                        key = located[1]
                        least, most = ends.get(key, (x, x))
                        ends[key] = (min(least, x), max(most, x))
                    x = np.nextafter(x, np.inf)
        spans = [Fraction(most) - Fraction(least) for least, most in ends.values()]
        assert max(spans) > Fraction(fine_side) / 2  # not vacuous: whole cells were probed
        assert max(spans) <= Fraction(index.reach)

    def test_default_stream_through_label_map(self, default_bundle, default_split):
        knn = replace(default_bundle.base_knn)  # an empty map of its own
        z = pca_transform(default_bundle.base_pca, feature_matrix(default_split.test))
        want = knn_predict_batch(knn, z).tolist()
        for _ in range(2):
            assert [int(knn_predict_batch(knn, q[None])[0]) for q in z] == want
        assert knn_map_share(knn, z) >= 0.3

    @given(st.sampled_from(["pca:9", "pca:20", "poly:5:4", "poly:4:3", "knn:5:20",
                            "concat(pca:10,poly:5:4)"]), uniform_rows(5))
    @settings(max_examples=40, deadline=None)
    def test_kernel_apply(self, small_split, spec, X):
        kernel = _fitted_kernel(small_split, spec)
        assert kernel_apply(kernel, X).tobytes() == reference_kernel_apply(kernel, X).tobytes()
        for x in X:
            assert kernel_apply(kernel, x).tobytes() == reference_kernel_apply(kernel, x).tobytes()


def fine_cell_faces(model, q):
    """Rows on the faces of the fine label-map cell of ``q`` and one ulp
    below its upper faces, per axis; none where ``q`` has no fine cell."""
    index = model.cell_index
    if index is None or index.locate(q.tolist()) is None:
        return np.empty((0, len(q)))
    axes = []
    for x, (low, *_) in zip(q.tolist(), index.axes):
        g = np.floor(8 * ((x - low) / index.side))
        upper = low + (g + 1) / 8 * index.side
        axes.append([low + g / 8 * index.side, np.nextafter(upper, -np.inf), upper])
    return np.array(list(itertools.product(*axes)))


def assert_label_map_exact(model, Q, like_batch=True):
    """Each row of ``Q`` and the rows on its fine cell's faces, one at a time
    through the model's label map, in two passes: the labels of the former
    search and vote of one row and, with ``like_batch``, of the batch path.

    Far from the origin, a batch's matrix product and one row's
    matrix-vector product round distances apart by more than the lattice
    spacing, so there one-row labels may differ from batch labels."""
    probes = np.vstack([Q, *(fine_cell_faces(model, q) for q in Q)])
    want = [int(reference_knn_predict_batch(model, q[None])[0]) for q in probes]
    batch = knn_predict_batch(model, np.vstack([probes, probes]))[: len(probes)].tolist()
    assert batch == reference_knn_predict_batch(model, probes).tolist()
    if like_batch:
        assert want == batch
    for _ in range(2):
        assert [int(knn_predict_batch(model, q[None])[0]) for q in probes] == want


def assert_cell_search_exact(model, query):
    """One row through the model's cell index: the full scan's indices and
    distance bytes."""
    got = query_topk(model.points, query, model.k, ref_sq=model.sq_norms, index=model.cell_index)
    want = reference_query_topk(model.points, query, model.k)
    assert got[1].tolist() == want[1].tolist()
    assert got[0].tobytes() == want[0].tobytes()


_KERNELS: dict = {}


def _fitted_kernel(split, spec):
    if spec not in _KERNELS:
        _KERNELS[spec] = kernel_fit(parse_kernel_spec(spec), feature_matrix(split.train[:1500]))
    return _KERNELS[spec]


def no_corrector_fires(bundle, X):
    """Rows where no corrector's score clears its threshold."""
    quiet = np.ones(len(X), dtype=bool)
    for c in bundle.correctors:
        scores = reference_score(c, reference_kernel_apply(bundle.corrector_kernels[c.kernel_name], X))
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

    @given(uniform_rows())
    @settings(max_examples=30, deadline=None)
    def test_uniform_rows(self, small_bundle, X):
        assert_quiet_rows_keep_base(small_bundle, X)


# ---------------------------------------------------------------------------
# The router's fold
# ---------------------------------------------------------------------------

# the ids of the groups base label 0 gates, truth 1 to 4
GATED = N_LABELS * np.arange(1, N_LABELS)


def router(kernel, pool, picks):
    """A group classifier over ``kernel`` with the centroids ``pool[picks]``
    for the first ``len(picks)`` ids of GATED, and those ids; a repeated pick
    is a copy of a centroid."""
    ids = GATED[: len(picks)]
    centroid = CentroidModel(classes=ids, centroids=pool[list(picks)])
    return GroupClassifier(kernel=kernel, centroid=centroid), tuple(ids.tolist())


def centroid_picks(n_pool):
    return st.lists(st.integers(0, n_pool - 1), min_size=2, max_size=len(GATED))


def integers(shape, bound):
    return arrays(np.float64, shape, elements=st.integers(-bound, bound).map(float))


class TestRouterFold:
    """``GroupClassifier.assign`` on the router's fold against
    ``reference_assign``, the distance argmin over the kernel's features."""

    @given(
        integers((N_FEATURES, 9), 2),
        integers(9, 4),
        integers((3, 9), 3),
        centroid_picks(3),
        lattice_rows(lattices=((0.0, 0.5, 1.0),)),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_arithmetic(self, matrix, offset, pool, picks, X):
        # integers and halves: both forms compute without rounding, so every
        # distance tie, copies of one centroid included, goes to the smaller id
        kernel = FittedKernel(spec=KernelSpec("pca", n_pc=9), matrix=matrix, offset=offset)
        gc, ids = router(kernel, pool, picks)
        fold = gc.fold(ids)
        want = reference_assign(gc, X, ids).tolist()
        assert gc.assign(X, fold).tolist() == want
        assert [int(gc.assign(x[None], fold)[0]) for x in X] == want

    @given(
        arrays(np.float64, (4, 9), elements=st.floats(-3.0, 3.0)),
        centroid_picks(4),
        uniform_rows(),
    )
    @settings(max_examples=80, deadline=None)
    def test_trained_kernel(self, small_bundle, pool, picks, X):
        # the trained router kernel: the pick is a nearest centroid up to
        # rounding, never a later copy of one, and the reference's pick
        # wherever no other centroid is that near
        gc, ids = router(small_bundle.group_classifier.kernel, pool, picks)
        C = gc.centroid.centroids
        z = reference_kernel_apply(gc.kernel, X)
        d2 = ((z[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        near = d2 <= d2.min(axis=1, keepdims=True) + 1e-9 * (
            1.0 + (z**2).sum(axis=1, keepdims=True) + (C**2).sum(axis=1).max()
        )
        want = reference_assign(gc, X, ids)
        copies = (C[want][:, None, :] == C[None, :, :]).all(axis=2)
        clear = (copies | ~near).all(axis=1)
        fold = gc.fold(ids)
        batch = gc.assign(X, fold)
        for got in (batch, np.array([gc.assign(x[None], fold)[0] for x in X])):
            assert near[np.arange(len(X)), got].all()
            assert not any((C[:g] == C[g]).all(axis=1).any() for g in got)
            assert np.array_equal(got[clear], want[clear])
