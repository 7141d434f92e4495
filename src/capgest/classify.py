"""Classifier primitives: exact KNN, binary Fisher LDA, centroid classifier.

KNN serves the base model; LDA and the centroid classifier provide the
scored binary decisions the error correctors sweep thresholds over.  All
models are immutable after fit and all predictions are deterministic:
distance ties prefer the lower reference index, vote ties prefer the class
with the smaller summed distance and then the smaller label value.  The one
mutable part is the label map of a KNN model's cell index
(``neighbors.CellIndex``), which one-row searches fill with labels proven for
whole fine cells, so it changes no prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import neighbors
from .embed import as_rows
from .errors import DimensionMismatch, EmptyModel, SingleClass


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnnModel:
    points: np.ndarray   # (n, d) reference points
    labels: np.ndarray   # (n,) numeric labels
    k: int
    # derived from the fields above on every construction, never serialized
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n,)
    classes: np.ndarray = field(init=False, repr=False, compare=False)   # sorted labels
    codes: np.ndarray = field(init=False, repr=False, compare=False)     # (n,) into classes
    # its label map is filled by one-row searches; empty on every construction
    cell_index: neighbors.CellIndex | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (type(self.k) is int and 1 <= self.k <= len(self.points)):
            raise EmptyModel(f"k={self.k!r} is not an int from 1 to {len(self.points)}")
        classes, codes = np.unique(self.labels, return_inverse=True)
        codes = codes.ravel()
        # a huge reference overflows here; the bundle check refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            sq_norms = neighbors.sq_norms(self.points)
            cell_index = neighbors.cell_index(self.points, self.k, sq_norms, codes)
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "cell_index", cell_index)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "codes", codes)


def knn_fit(X: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyModel("knn_fit needs a nonempty 2-D reference matrix")
    if len(y) != X.shape[0]:
        raise DimensionMismatch("labels must match reference count")
    return KnnModel(X, y.copy(), k)


def knn_predict_batch(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Majority vote of the k nearest references per row.

    Among classes tied on votes, the smallest summed neighbor distance wins
    (summed in neighbor order), then the smallest label.  One row whose fine
    cell holds a proven label (``neighbors.CellIndex.mark``) takes it
    without a search or a vote; another one row answered from its cell block
    tries to prove its fine cell's label for the rows that follow.
    """
    X = as_rows(X, model.points.shape[1])
    if not len(X):
        return np.empty(0, dtype=np.int64)
    index = model.cell_index
    if len(X) == 1 and index is not None:
        mark = index.mark(X[0].tolist())
        if mark:
            return model.classes[mark - 1 : mark].astype(np.int64)
    dist, idx = neighbors.query_topk(model.points, X, model.k, ref_sq=model.sq_norms, index=index)
    m, c = idx.shape[0], len(model.classes)
    # one bincount cell per (row, class); a single row needs no row offset
    cells = model.codes[idx] if m == 1 else np.arange(m)[:, None] * c + model.codes[idx]
    cells = cells.ravel()
    counts = np.bincount(cells, minlength=m * c).reshape(m, c)
    sums = np.bincount(cells, weights=dist.ravel(), minlength=m * c).reshape(m, c)
    sums[counts < counts.max(axis=1, keepdims=True)] = np.inf
    # argmin takes the first minimum and classes are sorted: ties follow label order
    return model.classes[sums.argmin(axis=1)].astype(np.int64)


def knn_cell_share(model: KnnModel, X: np.ndarray) -> float:
    """Share of the rows of ``X`` that a one-row search answers from its cell
    block, without scanning all references; 0 where the model has no index.
    Those searches try their fine cells' proofs, so they may fill the label
    map that ``knn_map_share`` reads."""
    X = np.ascontiguousarray(as_rows(X, model.points.shape[1]))
    if model.cell_index is None or not len(X):
        return 0.0
    refs, ref_sq = np.ascontiguousarray(model.points, dtype=np.float64), model.sq_norms
    found = sum(
        neighbors.cell_topk(model.cell_index, refs, ref_sq, X[i : i + 1], model.k) is not None
        for i in range(len(X))
    )
    return found / len(X)


def knn_map_share(model: KnnModel, X: np.ndarray) -> float:
    """Share of the rows of ``X`` whose fine cell holds a proven label, which
    a one-row prediction reads without a search; 0 where the model has no
    index."""
    X = as_rows(X, model.points.shape[1])
    if model.cell_index is None or not len(X):
        return 0.0
    return sum(model.cell_index.mark(row) > 0 for row in X.tolist()) / len(X)


# ---------------------------------------------------------------------------
# Binary Fisher LDA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LdaModel:
    w: np.ndarray
    bias: float


def lda_fit(X: np.ndarray, y: np.ndarray) -> LdaModel:
    """Fisher direction w ~ S_W^-1 (mu1 - mu0), ridge-regularized.

    The score is w.x minus the projected midpoint, positive toward class 1;
    downstream use sweeps a threshold over it rather than cutting at 0.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    if set(np.unique(y)) != {0, 1}:
        raise SingleClass("lda_fit needs both classes 0 and 1 present")
    x0, x1 = X[y == 0], X[y == 1]
    mu0, mu1 = x0.mean(axis=0), x1.mean(axis=0)
    d = X.shape[1]
    # the class rows are copies: center them in place, so each product is
    # numpy's symmetric ``c.T @ c`` (one rank-k update), not a general product
    # of two arrays, and no second copy of X is made
    x0 -= mu0
    x1 -= mu1
    s_w = x0.T @ x0 + x1.T @ x1
    diff = mu1 - mu0
    lam = 1e-6 * np.trace(s_w) / d
    if lam <= 0:
        lam = 1e-12
    w = np.linalg.solve(s_w + lam * np.eye(d), diff)
    bias = float(w @ (mu0 + mu1) / 2.0)
    return LdaModel(w=w, bias=bias)


def lda_scores(model: LdaModel, X: np.ndarray) -> np.ndarray:
    """Scores of the rows of a float (n, d) matrix, unchecked."""
    return X @ model.w - model.bias


# ---------------------------------------------------------------------------
# Centroid classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentroidModel:
    classes: np.ndarray    # sorted ascending (fixed label order)
    centroids: np.ndarray  # (n_classes, d)


def centroid_fit(X: np.ndarray, y: np.ndarray) -> CentroidModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyModel("centroid_fit needs a nonempty 2-D matrix")
    classes = np.unique(y)
    centroids = np.stack([X[y == c].mean(axis=0) for c in classes])
    return CentroidModel(classes=classes, centroids=centroids)


def _centroid_distances(centroids: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Distances of the rows of a float (n, d) matrix to each row of
    ``centroids``, unchecked."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def centroid_predict_batch(model: CentroidModel, X: np.ndarray) -> np.ndarray:
    dist = _centroid_distances(model.centroids, as_rows(X, model.centroids.shape[1]))
    # argmin returns the first minimum; classes are sorted, so ties follow label order
    return model.classes[np.argmin(dist, axis=1)]


def centroid_scores(model: CentroidModel, X: np.ndarray, pos_col: int) -> np.ndarray:
    """Bounded binary score d_neg / (d_neg + d_pos) in [0, 1] of each row of
    a float (n, d) matrix, unchecked; ``pos_col`` is the positive class's row
    of ``model.centroids``.  0.5 means equidistant (both distances zero
    included), values toward 1 mean nearer the positive centroid."""
    dist = _centroid_distances(model.centroids, X)
    if len(dist) == 1:
        # the same IEEE operations on Python floats, without the array tail
        row = dist[0].tolist()
        d_pos, d_neg = row[pos_col], row[1 - pos_col]
        total = d_pos + d_neg
        return np.array([d_neg / total if total > 0 else 0.5])
    d_pos = dist[:, pos_col]
    d_neg = dist[:, 1 - pos_col]
    total = d_pos + d_neg
    return np.divide(d_neg, total, out=np.full(len(total), 0.5), where=total > 0)


# ---------------------------------------------------------------------------
# Binary scores
# ---------------------------------------------------------------------------

# the binary classifiers of the corrector grid by name
BINARY_FITS = {"centroid": centroid_fit, "lda": lda_fit}


def binary_kind(model: CentroidModel | LdaModel) -> str:
    """The :data:`BINARY_FITS` name of the classifier that fitted ``model``."""
    return next(kind for kind in BINARY_FITS if type(model).__name__.lower().startswith(kind))


def binary_scores(model: CentroidModel | LdaModel, X: np.ndarray) -> np.ndarray:
    """Class-1 score of each row of a float (n, d) matrix, unchecked.

    A centroid model's classes are the sorted {0, 1}, so class 1 is its
    second row.
    """
    if isinstance(model, CentroidModel):
        return centroid_scores(model, X, 1)
    return lda_scores(model, X)
