import numpy as np
import pytest

from capgest.classify import (
    centroid_fit,
    centroid_predict_batch,
    centroid_score,
    knn_fit,
    knn_predict_batch,
    lda_fit,
    lda_score,
)
from capgest.errors import DimensionMismatch, EmptyModel, SingleClass

RNG = np.random.default_rng(99)


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


class TestLda:
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
        assert lda_score(model, mid) == pytest.approx(0.0, abs=1e-12)
        # positive toward class 1
        assert lda_score(model, x1.mean(axis=0)) > 0
        assert lda_score(model, x0.mean(axis=0)) < 0

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
        scores = lda_score(model, X)
        assert scores.shape == (40,)
        assert scores[0] == pytest.approx(lda_score(model, X[0]))


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
        assert centroid_score(model, np.array([0.0]), 1) == pytest.approx(0.5)
        assert centroid_score(model, np.array([1.0]), 1) == pytest.approx(1.0)
        assert centroid_score(model, np.array([-1.0]), 1) == pytest.approx(0.0)
        scores = centroid_score(model, RNG.normal(0, 3, (100, 1)), 1)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_identical_centroids_score_half(self):
        X = np.array([[2.0, 2.0], [2.0, 2.0]])
        model = centroid_fit(X, np.array([0, 1]))
        assert centroid_score(model, np.array([2.0, 2.0]), 1) == pytest.approx(0.5)

    def test_score_needs_two_classes(self):
        model = centroid_fit(np.eye(3), np.array([0, 1, 2]))
        with pytest.raises(EmptyModel):
            centroid_score(model, np.zeros(3), 0)
        two = centroid_fit(np.eye(2), np.array([0, 1]))
        with pytest.raises(EmptyModel):
            centroid_score(two, np.zeros(2), 5)
