import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest import neighbors
from capgest.classify import (
    CentroidModel,
    _centroid_distances,
    binary_kind,
    binary_scores,
    centroid_fit,
    centroid_predict_batch,
    centroid_scores,
    knn_fit,
    knn_predict_batch,
    lda_fit,
    lda_scores,
)
from capgest.errors import DimensionMismatch, EmptyModel, SingleClass

RNG = np.random.default_rng(99)


def reference_vote(labels_k: np.ndarray, dist_k: np.ndarray) -> int:
    """The former per-row KNN vote, kept as the oracle for the batch vote."""
    classes, counts = np.unique(labels_k, return_counts=True)
    best = counts.max()
    tied = classes[counts == best]
    if len(tied) == 1:
        return int(tied[0])
    # nearer tied neighbor set wins: lowest summed distance, then label order
    sums = [dist_k[labels_k == c].sum() for c in tied]
    order = np.lexsort((tied, sums))
    return int(tied[order[0]])


def reference_knn_predict(model, X: np.ndarray) -> list[int]:
    dist, idx = neighbors.query_topk(model.points, X, model.k)
    labels = model.labels[idx]
    return [reference_vote(labels[i], dist[i]) for i in range(len(X))]


@st.composite
def knn_problems(draw):
    """References, labels, queries and k; half of them on a coarse lattice,
    where distance and vote ties are common."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        coord = st.sampled_from([0.0, 0.5, 1.0])
    else:
        coord = st.floats(-10.0, 10.0, allow_nan=False)

    def rows(count):
        return st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=count, max_size=count
        )

    classes = draw(st.sampled_from([(4,), (0, 1), (-3, 2, 7), (0, 1, 2, 3, 4)]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    queries = draw(rows(draw(st.integers(1, 8))))
    # np.sum switches to pairwise summation at 8 terms while the batch vote
    # sums in neighbor order, so k stays below 16: a tied class then never
    # has 8 neighbors and the two distance sums agree to the bit
    k = draw(st.integers(1, min(n, 15)))
    return np.array(draw(rows(n))), np.array(labels), np.array(queries), k


def reference_centroid_score(model, x, positive_class):
    """The former score formula, kept to check the fast path bit for bit."""
    dist = _centroid_distances(model.centroids, x)
    pos_col = int(np.where(model.classes == positive_class)[0][0])
    d_pos = dist[:, pos_col]
    d_neg = dist[:, 1 - pos_col]
    total = d_pos + d_neg
    return np.where(total > 0, d_neg / np.where(total > 0, total, 1.0), 0.5)


@st.composite
def centroid_problems(draw):
    """A two-class centroid model and float rows: one at the first centroid,
    and one at both where the two centroids coincide (a total distance of 0)."""
    d = draw(st.integers(1, 6))
    row = st.lists(st.floats(-1e100, 1e100), min_size=d, max_size=d)
    first = draw(row)
    second = draw(st.one_of(st.just(first), row))
    rows = [*draw(st.lists(row, min_size=1, max_size=5)), first, second]
    return CentroidModel(np.array([0, 1]), np.array([first, second])), np.array(rows)


class TestKnn:
    def test_simple_majority(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [5.1]])
        y = np.array([0, 0, 0, 1, 1])
        model = knn_fit(X, y, k=3)
        assert knn_predict_batch(model, np.array([[0.05], [5.05]])).tolist() == [0, 1]

    def test_distance_tie_prefers_lower_index(self):
        # query equidistant from refs 0 and 1; k=1 must pick ref 0
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = knn_fit(X, np.array([7, 3]), k=1)
        assert knn_predict_batch(model, np.array([[0.0, 2.0]])).tolist() == [7]

    def test_vote_tie_prefers_smaller_summed_distance(self):
        X = np.array([[0.0], [1.0], [10.0], [11.5]])
        y = np.array([0, 0, 1, 1])
        model = knn_fit(X, y, k=4)
        # both classes have 2 votes; class 0 neighbors are nearer
        assert knn_predict_batch(model, np.array([[0.5]])).tolist() == [0]

    def test_vote_tie_label_order_fallback(self):
        # perfectly symmetric: summed distances equal, smaller label wins
        X = np.array([[-1.0], [1.0]])
        model = knn_fit(X, np.array([4, 2]), k=2)
        assert knn_predict_batch(model, np.array([[0.0]])).tolist() == [2]

    @given(knn_problems())
    @settings(max_examples=300, deadline=None)
    def test_batch_vote_matches_reference(self, problem):
        points, labels, queries, k = problem
        model = knn_fit(points, labels, k)
        got = knn_predict_batch(model, queries)
        assert got.dtype == np.int64
        assert got.tolist() == reference_knn_predict(model, queries)

    def test_k1_and_single_class_neighborhoods(self):
        X = np.array([[0.0], [0.0], [1.0], [3.0], [3.0], [3.0]])
        y = np.array([5, 2, 2, 9, 9, 9])
        Q = np.array([[0.0], [0.9], [3.1], [2.0]])
        for k in (1, 2, 3, 6):
            model = knn_fit(X, y, k)
            assert knn_predict_batch(model, Q).tolist() == reference_knn_predict(model, Q)
        # k=1 takes the lower-index reference among equidistant ones
        assert knn_predict_batch(knn_fit(X, y, 1), Q[:1]).tolist() == [5]
        assert knn_predict_batch(knn_fit(X, y, 3), Q[2:3]).tolist() == [9]

    def test_empty_query_batch(self):
        model = knn_fit(np.zeros((3, 2)), np.array([0, 1, 1]), k=2)
        out = knn_predict_batch(model, np.empty((0, 2)))
        assert out.shape == (0,) and out.dtype == np.int64

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_points_keep_the_full_scan(self, bad):
        points = RNG.uniform(0.0, 1.0, (60, 3))
        points[4, 2] = bad
        model = knn_fit(points, np.arange(60) % 3, 5)
        assert model.cell_index is None
        Q = RNG.uniform(0.0, 1.0, (4, 3))
        with np.errstate(invalid="ignore"):
            batch = knn_predict_batch(model, Q)
            assert [int(knn_predict_batch(model, q)[0]) for q in Q] == batch.tolist()

    def test_validation(self):
        with pytest.raises(EmptyModel):
            knn_fit(np.empty((0, 2)), np.empty(0), k=1)
        with pytest.raises(EmptyModel):
            knn_fit(np.zeros((3, 2)), np.zeros(3), k=4)
        with pytest.raises(DimensionMismatch):
            knn_fit(np.zeros((3, 2)), np.zeros(4), k=1)
        model = knn_fit(np.zeros((3, 2)), np.zeros(3), k=1)
        with pytest.raises(DimensionMismatch):
            knn_predict_batch(model, np.zeros((1, 5)))


def reference_lda_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The former ``lda_fit`` body, which centered a second copy of each
    class, kept as the oracle: its ``w`` and ``bias``."""
    x0, x1 = X[y == 0], X[y == 1]
    mu0, mu1 = x0.mean(axis=0), x1.mean(axis=0)
    c0, c1 = x0 - mu0, x1 - mu1
    s_w = c0.T @ c0 + c1.T @ c1
    lam = 1e-6 * np.trace(s_w) / X.shape[1]
    if lam <= 0:
        lam = 1e-12
    w = np.linalg.solve(s_w + lam * np.eye(X.shape[1]), mu1 - mu0)
    return w, float(w @ (mu0 + mu1) / 2.0)


class TestLda:
    @pytest.mark.parametrize("n, d", [(2, 1), (40, 3), (700, 20), (3000, 164)])
    def test_byte_equal_to_two_copy_centering(self, n, d):
        rng = np.random.default_rng(n + d)
        X = rng.normal(0.0, 1.0, (n, d)) * rng.uniform(0.01, 100.0, d) + rng.normal(0.0, 50.0, d)
        y = np.arange(n) % 2
        rng.shuffle(y)
        X[y == 1] += 0.5
        model = lda_fit(X, y)
        w, bias = reference_lda_fit(X, y)
        assert model.w.tobytes() == w.tobytes()
        assert model.bias == bias

    def test_needs_both_classes(self):
        with pytest.raises(SingleClass):
            lda_fit(np.zeros((5, 2)), np.zeros(5))

    def test_midpoint_scores_zero(self):
        x0 = RNG.normal(-2, 1, (500, 4))
        x1 = RNG.normal(2, 1, (500, 4))
        X = np.vstack([x0, x1])
        y = np.r_[np.zeros(500), np.ones(500)].astype(int)
        model = lda_fit(X, y)
        mid = (x0.mean(axis=0) + x1.mean(axis=0)) / 2
        assert lda_scores(model, mid[None])[0] == pytest.approx(0.0, abs=1e-12)
        # positive toward class 1
        assert lda_scores(model, x1.mean(axis=0)[None])[0] > 0
        assert lda_scores(model, x0.mean(axis=0)[None])[0] < 0

    def test_downweights_noisy_direction(self):
        # class separation lives on axis 0; axis 1 is pure loud noise
        rng = np.random.default_rng(5)
        x0 = np.column_stack([rng.normal(-1, 0.3, 800), rng.normal(0, 20, 800)])
        x1 = np.column_stack([rng.normal(1, 0.3, 800), rng.normal(0, 20, 800)])
        model = lda_fit(np.vstack([x0, x1]), np.r_[np.zeros(800), np.ones(800)].astype(int))
        w = model.w / np.linalg.norm(model.w)
        assert abs(w[0]) > 0.999

    def test_score_vectorized(self):
        X = RNG.normal(0, 1, (40, 3))
        y = (X[:, 0] > 0).astype(int)
        model = lda_fit(X, y)
        scores = lda_scores(model, X)
        assert scores.shape == (40,)
        assert scores[0] == pytest.approx(lda_scores(model, X[:1])[0])


class TestBinaryScores:
    def test_class_one_score_of_either_model(self):
        X = RNG.normal(0, 1, (40, 3))
        y = (X[:, 0] > 0).astype(int)
        lda, cen = lda_fit(X, y), centroid_fit(X, y)
        assert binary_scores(lda, X).tobytes() == lda_scores(lda, X).tobytes()
        assert binary_scores(cen, X).tobytes() == reference_centroid_score(cen, X, 1).tobytes()
        assert [binary_kind(lda), binary_kind(cen)] == ["lda", "centroid"]


class TestCentroid:
    def test_predicts_nearest_centroid(self):
        X = np.array([[0.0, 0.0], [0.2, 0.0], [4.0, 4.0], [4.2, 4.0]])
        y = np.array([3, 3, 8, 8])
        model = centroid_fit(X, y)
        Q = np.array([[0.0, 0.1], [4.0, 4.1]])
        assert centroid_predict_batch(model, Q).tolist() == [3, 8]

    def test_tie_prefers_lower_class(self):
        model = centroid_fit(np.array([[-1.0], [1.0]]), np.array([9, 2]))
        assert centroid_predict_batch(model, np.array([[0.0]])).tolist() == [2]

    def test_score_bounds_and_midpoint(self):
        model = centroid_fit(np.array([[-1.0], [1.0]]), np.array([0, 1]))
        assert binary_scores(model, np.array([[0.0], [1.0], [-1.0]])) == pytest.approx(
            [0.5, 1.0, 0.0]
        )
        scores = binary_scores(model, RNG.normal(0, 3, (100, 1)))
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_identical_centroids_score_half(self):
        X = np.array([[2.0, 2.0], [2.0, 2.0]])
        model = centroid_fit(X, np.array([0, 1]))
        assert binary_scores(model, np.array([[2.0, 2.0]]))[0] == pytest.approx(0.5)

    def test_score_bitwise_equal_to_reference(self):
        for _ in range(50):
            d = int(RNG.integers(1, 6))
            model = centroid_fit(RNG.normal(0, 1, (6, d)), np.array([0, 0, 0, 1, 1, 1]))
            Q = np.vstack([RNG.normal(0, 2, (20, d)), model.centroids])
            got = binary_scores(model, Q)
            want = reference_centroid_score(model, Q, 1)
            assert got.tobytes() == want.tobytes()

    @given(centroid_problems(), st.sampled_from([0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_one_row_score_bitwise_equal_to_batch(self, problem, pos_col):
        model, X = problem
        batch = centroid_scores(model, X, pos_col)
        assert batch.tobytes() == reference_centroid_score(model, X, pos_col).tobytes()
        for i in range(len(X)):
            one = centroid_scores(model, X[i : i + 1], pos_col)
            assert one.dtype == np.float64
            assert one.tobytes() == batch[i : i + 1].tobytes()
            assert one.tobytes() == reference_centroid_score(model, X[i : i + 1], pos_col).tobytes()

    def test_score_bitwise_equal_at_zero_distance(self):
        # identical centroids give zero total distance at the centroid itself;
        # a query on one centroid gives one zero distance
        same = centroid_fit(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]))
        apart = centroid_fit(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([0, 1]))
        for model in (same, apart):
            Q = np.vstack([model.centroids, [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]])
            got = binary_scores(model, Q)
            want = reference_centroid_score(model, Q, 1)
            assert got.tobytes() == want.tobytes()
        assert binary_scores(same, np.array([[1.0, 2.0]]))[0] == 0.5
        assert binary_scores(apart, np.array([[3.0, 4.0]]))[0] == 1.0
