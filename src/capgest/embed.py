"""Dimension reduction and high-dimensional feature kernels.

The base model is one matrix: the uncentered principal components its
windows are projected on.  Three explicit feature constructions (PCA,
polynomial, neighbor-distance) plus whitening feed the error correctors.  A
fitted kernel stage stores its standardizing, centering, projecting and
whitening steps composed into one affine map ``x @ matrix - offset``; the
steps themselves are fit-time intermediates.
The Fisher-separability intrinsic-dimension estimate characterizes the
resulting feature spaces.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import neighbors
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    ParamOutOfRange,
    TooFewSamples,
)

# whitening drops directions whose singular value is below this rather than
# divide by it; _svd_sv returns a null direction's singular value as exactly 0
_SV_DROP = 1e-10
# knn distances below this are a point's distance to itself.  A train row's
# distance to itself comes out as rounding noise (up to 5e-7 in the whitened
# base spaces of the default corpus, where distinct rows lie 5e-3 or more
# apart), which standardizing and whitening would scale to unit variance.
_SAME_POINT = 1e-4
# rows per block of the blocked fit steps (_monomials, standardize_fit): their
# temporaries are this many rows tall, not as tall as the training matrix
_ROW_BLOCK = 1024


def _svd_sv(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values ``s`` (descending) and right singular vectors ``vt``
    of an (m, n) ``X``, shaped as ``np.linalg.svd(X, full_matrices=False)``
    returns them, without U.

    One symmetric eigendecomposition of the n x n Gram matrix ``X.T @ X``,
    whose eigenvalues are ``s**2``; numpy forms it with one symmetric rank-k
    update, without copying ``X``.  Eigenvalues at the Gram's own rounding
    level, ``w <= w_max * n * eps`` (negative ones included), are null
    directions: their ``s`` is exactly 0.  So ``s`` is resolved down to
    about ``sqrt(n * eps)`` of the largest, and a direction's vector is
    accurate to rounding over the squared gap to its neighbours.  (On the
    default corpus every training matrix decomposed here is full rank, with
    ``s_min / s_max`` of 1.3e-3 or more.)  Signs of ``vt`` rows are
    LAPACK's: callers that store them fix them (:func:`_fix_signs`).
    """
    m, n = X.shape
    w, v = np.linalg.eigh(X.T @ X)
    w, vt = w[::-1], v.T[::-1]
    w[w <= w[0] * n * np.finfo(np.float64).eps] = 0.0
    k = min(m, n)
    return np.sqrt(w[:k]), vt[:k]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude coordinate positive (determinism)."""
    out = components.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def pca_fit(X: np.ndarray, n_components: int) -> np.ndarray:
    """The first ``n_components`` uncentered principal components of ``X``,
    as an orthonormal (n_features, n_components) matrix, from the
    eigendecomposition of the Gram matrix (:func:`_svd_sv`).

    The base model projects on them directly: the inputs are already
    normalized to [0, 1], so the second-moment directions are used without
    centering.  A rank-deficient ``X`` is no failure: the components past
    its rank span null directions.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected 2-D sample matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DegenerateInput("sample matrix contains non-finite values")
    if not 1 <= n_components <= min(X.shape):
        raise ParamOutOfRange(
            f"n_components={n_components} out of range for shape {X.shape}"
        )
    _, vt = _svd_sv(X)
    return _fix_signs(vt[:n_components].T)


def as_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    """``X`` as a float (n, n_features) matrix; a 1-D ``X`` is one row.

    The check of a transform's input.  It runs again at each stage that
    takes a matrix (``pca_transform``, ``knn_predict_batch``, each nested
    ``kernel_apply``); on an already checked float matrix it copies nothing.
    """
    X = np.asarray(X, dtype=np.float64)
    shape = X.shape
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(f"model expects {n_features} features, got shape {shape}")
    return X


def pca_transform(components: np.ndarray, X: np.ndarray) -> np.ndarray:
    return as_rows(X, components.shape[0]) @ components


# ---------------------------------------------------------------------------
# Whitening (a fit-time step of the kernels)
# ---------------------------------------------------------------------------

def whiten_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and the (n_features, n_kept) matrix ``R`` that give the
    training output ``(X - mean) @ R`` identity covariance.

    ``R`` is the sign-fixed rotation times the per-direction scale.
    Directions with singular value below ``_SV_DROP`` (1e-10) are dropped
    rather than divided by, so rank-deficient kernel outputs stay finite:
    :func:`_svd_sv` gives every null direction, one whose squared singular
    value is at the rounding level of the centered Gram matrix, a singular
    value of exactly 0.  A float ``X`` is centered in place: the kernel fits
    pass a temporary or a standardized expansion they no longer need, and a
    centered copy of a poly expansion would raise the peak memory of
    training.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DegenerateInput("whitening needs at least 2 samples")
    mean = X.mean(axis=0)
    X -= mean
    s, vt = _svd_sv(X)
    keep = s >= _SV_DROP
    if not np.any(keep):
        raise DegenerateInput("whitening needs at least 2 distinct samples")
    scale = math.sqrt(X.shape[0] - 1) / s[keep]
    return mean, _fix_signs(vt[keep].T) * scale


# ---------------------------------------------------------------------------
# Per-feature standardization (a fit-time step of the kernels)
# ---------------------------------------------------------------------------

def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and scales of a float (n, p) matrix; a scale is the
    column's ``X.std(axis=0)``, or 1 where that is below 1e-12.

    The squared deviations are summed in row blocks, so no centered copy of
    ``X`` is made.  numpy sums axis 0 of a C-ordered matrix of two or more
    columns (every kernel's input) row after row, so carrying the running
    sum into each block as its first row gives ``X.std``'s bits.
    """
    n, p = X.shape
    mean = X.mean(axis=0)
    total = np.zeros(p)
    buf = np.empty((min(n, _ROW_BLOCK) + 1, p))
    for lo in range(0, n, _ROW_BLOCK):
        block = X[lo : lo + _ROW_BLOCK]
        dev = buf[1 : len(block) + 1]
        np.subtract(block, mean, out=dev)
        np.square(dev, out=dev)
        buf[0] = total
        np.add.reduce(buf[: len(block) + 1], axis=0, out=total)
    std = np.sqrt(total / n)
    return mean, np.where(std > 1e-12, std, 1.0)


# ---------------------------------------------------------------------------
# Kernel specifications
# ---------------------------------------------------------------------------

# each kind's parameters in encoding order, with their inclusive ranges;
# concat has two child specs instead
_KIND_PARAMS = {
    "pca": {"n_pc": (3, 100)},
    "poly": {"n_pc": (2, 20), "n_poly": (2, 7)},
    "knn": {"n_pc": (2, 100), "k_nn": (2, 300)},
}


@dataclass(frozen=True)
class KernelSpec:
    """Unfitted description of a feature construction.

    Canonical textual encodings: ``pca:9``, ``poly:5:4``, ``knn:10:150``,
    ``concat(pca:20,poly:5:4)``.
    """

    kind: str
    n_pc: int = 0
    n_poly: int = 0
    k_nn: int = 0
    children: tuple["KernelSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "concat":
            if len(self.children) != 2:
                raise ParamOutOfRange("concat kernel needs exactly 2 children")
            return
        if self.kind not in _KIND_PARAMS:
            raise ParamOutOfRange(f"unknown kernel kind {self.kind!r}")
        for name, (lo, hi) in _KIND_PARAMS[self.kind].items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ParamOutOfRange(
                    f"{self.kind} kernel needs {lo} <= {name} <= {hi}, got {value}"
                )

    def encode(self) -> str:
        if self.kind == "concat":
            return f"concat({self.children[0].encode()},{self.children[1].encode()})"
        return ":".join([self.kind, *(str(getattr(self, n)) for n in _KIND_PARAMS[self.kind])])


def parse_kernel_spec(text: str) -> KernelSpec:
    text = text.strip()
    m = re.fullmatch(r"concat\((.+)\)", text)
    if m:
        inner = m.group(1)
        depth = 0
        for i, c in enumerate(inner):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 0:
                left, right = inner[:i], inner[i + 1 :]
                return KernelSpec(
                    kind="concat",
                    children=(parse_kernel_spec(left), parse_kernel_spec(right)),
                )
        raise ParamOutOfRange(f"cannot parse concat kernel {text!r}")
    kind, *values = text.split(":")
    names = _KIND_PARAMS.get(kind, ())
    try:
        if names and len(values) == len(names):
            return KernelSpec(kind=kind, **dict(zip(names, map(int, values))))
    except ValueError as exc:
        raise ParamOutOfRange(f"cannot parse kernel spec {text!r}") from exc
    raise ParamOutOfRange(f"cannot parse kernel spec {text!r}")


@functools.lru_cache(maxsize=None)
def _monomial_plan(
    n_features: int, degree: int
) -> tuple[np.ndarray, tuple[tuple[slice, np.ndarray], ...]]:
    """Gather plan that builds each degree's monomials from the degree below.

    Returns the variable index of the last factor of every monomial of
    degree 2..degree, and per degree its output columns together with the
    output column of each monomial's parent (the monomial without its last
    factor).  Within a degree, monomials follow
    ``combinations_with_replacement`` order.
    """
    factors, steps = [], []
    column = {(i,): i for i in range(n_features)}
    start = n_features
    for deg in range(2, degree + 1):
        combos = list(combinations_with_replacement(range(n_features), deg))
        factors += [c[-1] for c in combos]
        parent = np.array([column[c[:-1]] for c in combos], dtype=np.intp)
        parent.flags.writeable = False
        steps.append((slice(start, start + len(combos)), parent))
        column = {c: start + j for j, c in enumerate(combos)}
        start += len(combos)
    factor = np.array(factors, dtype=np.intp)
    factor.flags.writeable = False
    return factor, tuple(steps)


def _monomials(B: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree 1..degree over B's columns, no constant.

    Columns are ordered by degree, then by ``combinations_with_replacement``;
    each product equals b_i * b_j * ... taken left to right in index order.
    Rows are built in blocks of ``_ROW_BLOCK``, so the gathers are block
    sized; a matrix of at most that many rows is one block.
    """
    n, p = B.shape
    factor, steps = _monomial_plan(p, degree)
    out = np.empty((n, p + len(factor)))
    for lo in range(0, n, _ROW_BLOCK):
        _monomial_rows(B[lo : lo + _ROW_BLOCK], factor, steps, out[lo : lo + _ROW_BLOCK])
    return out


def _monomial_rows(
    B: np.ndarray,
    factor: np.ndarray,
    steps: tuple[tuple[slice, np.ndarray], ...],
    out: np.ndarray,
) -> None:
    """Write the monomials of B's rows into ``out`` by :func:`_monomial_plan`'s
    gathers."""
    p = B.shape[1]
    out[:, :p] = B
    out[:, p:] = B.take(factor, axis=1)
    # IEEE products commute: last factor * parent is bit-equal to parent * last factor
    for cols, parent in steps:
        out[:, cols] *= out.take(parent, axis=1)


def monomial_count(n_features: int, degree: int) -> int:
    return math.comb(n_features + degree, degree) - 1


# ---------------------------------------------------------------------------
# Fitted kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedKernel:
    spec: KernelSpec
    # the stage's features are ``x @ matrix - offset``, where x is the raw input
    # (pca) or its expansion (poly, knn); standardizing, pca and whitening in one
    matrix: np.ndarray | None = None         # (input width, output width)
    offset: np.ndarray | None = None         # (output width,)
    base: "FittedKernel | None" = None       # inner pca kernel for poly / knn
    train_base: np.ndarray | None = None     # knn reference set in base space
    children: tuple["FittedKernel", ...] = ()

    @property
    def n_input_features(self) -> int:
        if self.spec.kind == "pca":
            return self.matrix.shape[0]
        return (self.base or self.children[0]).n_input_features


_BASIS = "basis"  # memo key of the shared PCA basis; no kernel spec encodes to it


def kernel_fit(
    spec: KernelSpec, X_train: np.ndarray, memo: dict | None = None
) -> FittedKernel:
    """Fit ``spec`` on ``X_train``; the fit computes no output of its own.

    ``memo`` carries work between calls on the same ``X_train``: every fitted
    kernel by its encoding, and the column means and scales, the center and
    the full-rank components of the standardized matrix that every ``pca``
    stage truncates.  So a kernel nested in several specs is fitted once and
    the training matrix is decomposed once.  A ``poly`` or ``knn`` fit reads its
    base pca stage's output on ``X_train`` from :func:`kernel_apply`.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise DegenerateInput("kernel_fit needs a nonempty 2-D training matrix")
    if memo is None:
        memo = {}
    key = spec.encode()
    if key not in memo:
        memo[key] = _fit(spec, X_train, memo)
    return memo[key]


def _fit(spec: KernelSpec, X_train: np.ndarray, memo: dict) -> FittedKernel:
    if spec.kind == "concat":
        return FittedKernel(
            spec=spec, children=tuple(kernel_fit(c, X_train, memo) for c in spec.children)
        )
    base = train_base = None
    if spec.kind == "pca":
        if _BASIS not in memo:
            mean, scale = standardize_fit(X_train)
            # one standardized copy, centered in place
            Z = X_train - mean
            Z /= scale
            center = Z.mean(axis=0)
            Z -= center
            memo[_BASIS] = mean, scale, center, pca_fit(Z, min(Z.shape))
            del Z
        mean, scale, center, full = memo[_BASIS]
        # the decomposition and the per-column sign fix do not depend on the
        # rank kept, so truncated components equal a fresh fit's
        C = full[:, : spec.n_pc]
        # the pca scores are X @ A - a: standardizing, centering and
        # projecting in one map, so X_train is standardized only once, for
        # the basis
        A = C / scale[:, None]
        a = (mean / scale + center) @ C
        w_mean, R = whiten_fit(X_train @ A - a)
        matrix, offset = A @ R, (a + w_mean) @ R
    else:
        if spec.kind == "knn" and spec.k_nn >= X_train.shape[0]:
            raise ParamOutOfRange(
                f"knn kernel needs k_nn < n_train ({spec.k_nn} >= {X_train.shape[0]})"
            )
        n_base = max(spec.n_pc, _KIND_PARAMS["pca"]["n_pc"][0])
        base = kernel_fit(KernelSpec(kind="pca", n_pc=n_base), X_train, memo)
        B = kernel_apply(base, X_train)
        if spec.kind == "knn":
            train_base = B[:, : spec.n_pc]
        # standardize and whiten the expansion in place
        F = _expansion(spec, B, train_base)
        mean, scale = standardize_fit(F)
        F -= mean
        F /= scale  # bit-equal to (F - mean) / scale
        w_mean, R = whiten_fit(F)
        del F
        matrix, offset = R / scale[:, None], (mean / scale + w_mean) @ R
    return FittedKernel(
        spec=spec, matrix=matrix, offset=offset, base=base, train_base=train_base
    )


def _expansion(spec: KernelSpec, B: np.ndarray, train_base: np.ndarray | None) -> np.ndarray:
    """A poly or knn stage's input: the monomials of, or the distances to the
    ``k_nn`` nearest ``train_base`` rows of, the base pca outputs ``B``."""
    B = B[:, : spec.n_pc]
    if spec.kind == "poly":
        return _monomials(B, spec.n_poly)
    D = neighbors.query_topk(train_base, B, spec.k_nn)[0]
    D[D < _SAME_POINT] = 0.0
    return D


def kernel_apply(kernel: FittedKernel, X: np.ndarray) -> np.ndarray:
    """The kernel's features of each row of ``X``.

    Checks ``X`` against the kernel's input width.  Nested kernels are
    applied through this function, so each checks its input again (a poly
    kernel's base, each concat child) and is a span of its own when the name
    is traced.  The stages' array shapes are checked when a bundle is built
    (:func:`kernel_output_width`).
    """
    X = as_rows(X, kernel.n_input_features)
    spec = kernel.spec
    if spec.kind == "concat":
        return np.hstack([kernel_apply(c, X) for c in kernel.children])
    if spec.kind != "pca":
        X = _expansion(spec, kernel_apply(kernel.base, X), kernel.train_base)
    out = X @ kernel.matrix
    out -= kernel.offset  # bit-equal to ``X @ matrix - offset``, without a copy
    return out


def kernel_output_width(kernel: FittedKernel, n_features: int) -> int:
    """Output width of ``kernel`` on ``n_features``-wide input, after checking
    that every stage's arrays fit the width of the stage before.

    Raises DimensionMismatch naming the kernel and the stage that does not
    fit, so that a bundle is rejected when it is built, not at a prediction.
    """
    spec = kernel.spec
    name = spec.encode()

    def expect(stage: str, got: tuple, want: tuple) -> None:
        if got != want:
            raise DimensionMismatch(
                f"kernel {name}: {stage} has shape {got}, expected {want}"
            )

    if spec.kind == "concat":
        return sum(kernel_output_width(c, n_features) for c in kernel.children)
    if spec.kind == "pca":
        width = n_features
    else:
        width = kernel_output_width(kernel.base, n_features)
        if width < spec.n_pc:
            raise DimensionMismatch(
                f"kernel {name}: base gives {width} features, the spec needs {spec.n_pc}"
            )
        if spec.kind == "poly":
            width = monomial_count(spec.n_pc, spec.n_poly)
        else:
            expect("train_base", kernel.train_base.shape[1:], (spec.n_pc,))
            if len(kernel.train_base) < spec.k_nn:
                raise DimensionMismatch(
                    f"kernel {name}: {len(kernel.train_base)} reference points, k_nn {spec.k_nn}"
                )
            width = spec.k_nn
    out = kernel.matrix.shape[-1:]
    expect("matrix", kernel.matrix.shape, (width, *out))
    expect("offset", kernel.offset.shape, out)
    return out[0]


# ---------------------------------------------------------------------------
# Fisher-separability intrinsic dimension
# ---------------------------------------------------------------------------

def separability_probability(alpha: float, n: float) -> float:
    """Closed-form inseparability probability for dimension n at level alpha."""
    return (1.0 - alpha**2) ** ((n + 1.0) / 2.0) / (alpha * math.sqrt(2.0 * math.pi * n))


def intrinsic_dimension(X: np.ndarray, alpha: float = 0.8) -> float:
    """Estimate dimensionality from the fraction of Fisher-inseparable pairs.

    Expects centered, whitened input.  Each point is projected to the unit
    sphere; a pair (x, y) is inseparable when <x, y> > alpha.  The mean
    per-point inseparable fraction is inverted through the closed form by
    bisection.  Returns +inf ("not measurable") when no inseparable pair
    exists at this sample size.
    """
    if not 0.0 < alpha < 1.0:
        raise ParamOutOfRange(f"alpha must be in (0, 1), got {alpha}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got shape {X.shape}")
    norms = np.linalg.norm(X, axis=1)
    X = X[norms > 0]
    n_samples, n_features = X.shape
    if n_samples < 20:
        raise TooFewSamples(f"need >= 20 nonzero samples, got {n_samples}")
    U = X / np.linalg.norm(X, axis=1, keepdims=True)

    insep = 0
    chunk = max(1, int(4e6 // max(n_samples, 1)))
    for lo in range(0, n_samples, chunk):
        G = U[lo : lo + chunk] @ U.T
        # unit diagonal entries always count as inseparable; remove them
        insep += int((G > alpha).sum()) - G.shape[0]
    p_hat = insep / (n_samples * (n_samples - 1))
    if p_hat <= 0.0:
        return math.inf

    lo_n, hi_n = 1.0, 10.0 * n_features
    if p_hat >= separability_probability(alpha, lo_n):
        return lo_n
    if p_hat <= separability_probability(alpha, hi_n):
        return hi_n
    for _ in range(200):
        mid = 0.5 * (lo_n + hi_n)
        if separability_probability(alpha, mid) > p_hat:
            lo_n = mid
        else:
            hi_n = mid
    return 0.5 * (lo_n + hi_n)


def dataset_intrinsic_dimension(
    X: np.ndarray, alpha: float = 0.8, condition_limit: float = 10.0
) -> float:
    """Intrinsic dimension of a raw dataset, with standard preprocessing.

    Centers, keeps principal directions whose singular value is at least
    1/condition_limit of the largest (whitening the full spectrum would
    inflate pure-noise directions to unit variance), whitens the retained
    directions, then estimates.
    """
    X = np.asarray(X, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    s, vt = _svd_sv(Xc)
    keep = s >= s[0] / condition_limit
    W = Xc @ vt[keep].T / s[keep] * math.sqrt(X.shape[0] - 1)
    return intrinsic_dimension(W, alpha)
