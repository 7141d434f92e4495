"""Exact nearest-neighbor search in numpy.

Many queries run in chunks, so the (chunk, n) distance block and its
partitioned copy stay in the L2 cache for reference sets of several
thousand points, whatever the query count.

One query may instead search a cell grid of the first three coordinates
(``cell_index``; Bentley, Stanat & Williams, "The complexity of finding
fixed-radius near neighbors", 1977): only the references in the 3x3x3 block
of cells around the query are measured, and the answer is used when every
reference outside the block is provably farther than the k-th neighbor.
Otherwise the query scans all references.  Both paths return the same bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"

_CHUNK = 32  # against 6,323 references: a 1.6 MB block, 3.2 MB with its copy

_GRID_DIMS = 3  # gridded coordinates; a query's block is 3**_GRID_DIMS cells
_MAX_CELLS = 2**15  # cell keys fit int16, which numpy sorts by radix
# Gathered reference rows give the full scan's distance bytes only while BLAS
# computes each distance the same way whatever its column in ``refs.T``.
# Measured with OpenBLAS 0.3.31 dgemv: it does at widths up to 7, and not at
# widths 8 to 16.
_MAX_DIMS = 7
_U = 2.0**-53  # unit roundoff of float64


def sq_norms(refs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each reference row, as ``query_topk`` uses it."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    return np.einsum("ij,ij->i", refs, refs)


@dataclass(frozen=True, eq=False)
class CellIndex:
    """Uniform cells of side ``side`` over the first coordinates of the references.

    Cell c of an axis holds the points whose ``floor((x - low) / side)`` is
    c - 1: one empty cell pads each end, so a query just outside the
    references' range still has a block.  ``ids[indptr[key]:indptr[key + 1]]``
    lists, ascending, the references in the 3x3x3 block around the cell
    ``key``.  ``axes`` holds per gridded axis ``(low, n_cells, stride, below,
    above)``: a reference outside the block along that axis lies below
    ``below[c]`` or at or above ``above[c]`` (infinite where no reference can).
    """

    side: float
    axes: tuple
    indptr: np.ndarray
    ids: np.ndarray
    max_sq: float  # largest squared reference norm


def cell_index(refs: np.ndarray, k: int, ref_sq: np.ndarray) -> CellIndex | None:
    """The cell grid ``query_topk`` searches for one query, or None where a
    grid would not serve: non-finite or flat references, more than 7 columns,
    or more than 2**15 cells.  ``ref_sq`` is ``sq_norms(refs)``."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    n, d = refs.shape
    p = min(_GRID_DIMS, d)
    if not (1 <= d <= _MAX_DIMS and 1 <= k <= n):
        return None
    pts = refs[:, :p]
    low, high = pts.min(axis=0), pts.max(axis=0)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        return None
    span = high - low
    if not (span > 0).all():
        return None
    # about k references per cell, were they spread evenly over the range
    side = float((np.prod(span) * k / n) ** (1.0 / p))
    if not 0.0 < side < math.inf:
        return None
    last = np.floor(span / side)  # per axis, the highest occupied cell minus 1
    if np.prod(last + 3) > _MAX_CELLS:
        return None
    n_cells = [int(v) + 3 for v in last]
    cells = np.floor((pts - low) / side).astype(np.int64) + 1
    strides = [math.prod(n_cells[j + 1 :]) for j in range(p)]
    # a reference in cell c belongs to the blocks of cells c-1, c, c+1 per axis;
    # laid out point-major, a stable sort keeps each block's ids ascending
    shifts = np.array([0])
    for stride in strides:
        shifts = (shifts[:, None] + np.array([-stride, 0, stride])).ravel()
    keys = ((cells @ np.array(strides)).astype(np.int16)[:, None] + shifts.astype(np.int16)).ravel()
    ids = np.argsort(keys, kind="stable")
    ids //= len(shifts)
    indptr = np.zeros(math.prod(n_cells) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=math.prod(n_cells)), out=indptr[1:])

    axes = []
    for j in range(p):
        lo, top = float(low[j]), n_cells[j] - 2  # occupied cells are 1 .. top
        # edge[i]: the least float whose cell is i, as a query's cell is computed
        edge = {i: _least_in_cell(lo, float(high[j]), side, i) for i in range(2, top + 1)}
        below = [edge[c - 1] if c - 2 >= 1 else -math.inf for c in range(n_cells[j])]
        above = [edge[c + 2] if c + 2 <= top else math.inf for c in range(n_cells[j])]
        axes.append((lo, n_cells[j], strides[j], below, above))
    return CellIndex(side, tuple(axes), indptr, ids, float(ref_sq.max()))


def _least_in_cell(low: float, high: float, side: float, cell: int) -> float:
    """Least float x with floor((x - low) / side) + 1 >= cell, for a cell from
    2 to the one that holds ``high``."""

    def inside(x: float) -> bool:
        return (x - low) / side >= cell - 1

    # the guess is a few ulps off: step to the edge, unless the floats near
    # the guess are much finer than near ``low`` (a guess close to 0)
    x = low + (cell - 1) * side
    for _ in range(8):
        if not inside(x):
            x = math.nextafter(x, math.inf)
        elif inside(prev := math.nextafter(x, -math.inf)):
            x = prev
        else:
            return x
    # bisect over the floats from low (outside) to high (inside), in order
    lo, hi = _ordinal(low), _ordinal(high)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if inside(_from_ordinal(mid)):
            hi = mid
        else:
            lo = mid
    return _from_ordinal(hi)


def _ordinal(x: float) -> int:
    """Position of the float64 ``x`` in the order of all float64 values."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def _from_ordinal(i: int) -> float:
    (x,) = struct.unpack("<d", struct.pack("<Q", i if i >= 0 else -i | 2**63))
    return x


def query_topk(
    refs: np.ndarray,
    queries: np.ndarray,
    k: int,
    ref_sq: np.ndarray | None = None,
    index: CellIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k nearest refs per query, ascending.

    Ties on distance are broken by lower reference index.  ``ref_sq`` is
    ``sq_norms(refs)``, precomputed by callers that query one reference set
    many times; ``index`` is ``cell_index(refs, ...)``, which one query
    searches first.
    """
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n = refs.shape[0]
    m = queries.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} reference points")
    if ref_sq is None:
        ref_sq = sq_norms(refs)
    if m == 1:
        if index is not None:
            found = cell_topk(index, refs, ref_sq, queries, k)
            if found is not None:
                return found
        # one query, as the chunk loop computes it, without its bookkeeping
        d2 = _sq_distances(queries, refs, ref_sq)[0]
        kth = np.partition(d2, k - 1)[k - 1] if k < n else d2.max()
        order = _nearest(d2, kth, k)
        return np.sqrt(d2[order])[None, :], order[None, :]
    dist = np.empty((m, k))
    idx = np.empty((m, k), dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        q = queries[lo : lo + _CHUNK]
        d2 = _sq_distances(q, refs, ref_sq)
        if k < n:
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        else:
            kth = d2.max(axis=1)
        for row in range(q.shape[0]):
            order = _nearest(d2[row], kth[row], k)
            idx[lo + row] = order
            dist[lo + row] = d2[row, order]
    np.sqrt(dist, out=dist)
    return dist, idx


def cell_topk(
    index: CellIndex, refs: np.ndarray, ref_sq: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``query_topk`` of the one row ``query`` from its cell block, or None
    when the block cannot prove that answer.

    ``refs`` and ``ref_sq`` are float64 and C-contiguous, as ``query_topk``
    passes them.
    """
    row = query[0].tolist()
    side = index.side
    key = 0
    margin = math.inf
    for x, (low, n_cells, stride, below, above) in zip(row, index.axes):
        t = (x - low) / side
        if not -1.0 <= t < n_cells - 1:  # also false for NaN
            return None
        c = math.floor(t) + 1
        key += c * stride
        margin = min(margin, x - below[c], above[c] - x)
    ids = index.ids[index.indptr[key] : index.indptr[key + 1]]
    # numpy computes a product with one column as a dot product, which rounds
    # unlike the matrix-vector product of the scan (an index has n >= 2)
    if len(ids) < max(k, 2):
        return None
    d2 = _sq_distances(query, refs.take(ids, axis=0), ref_sq.take(ids))[0]
    kth = np.partition(d2, k - 1)[k - 1] if k < len(ids) else d2.max()
    # Proof that every reference r outside the block has a computed squared
    # distance above kth, so it is neither among the k nearest nor tied with
    # the k-th.  With u = 2**-53 and S = |q|^2 + max |r|^2:
    # - Such an r lies beyond a face of the block along some gridded axis, so
    #   |q - r| >= margin_true, the exact distance from q to the nearest face
    #   with references beyond it.  The float margin is at most
    #   margin_true * (1 + u), and squaring it adds one more rounding, so
    #   margin_true^2 >= fl(margin^2) * (1 - 3u).
    # - _sq_distances computes |r|^2 - 2 q.r + |q|^2.  Its three length-d
    #   dot products err by at most 2 gamma_d S in all, gamma_d ~ d u in any
    #   summation order, and its two additions by u times 2S and 3S; the
    #   clip at 0 only moves toward the true value.  So the computed value
    #   is within (2d + 7) u S of |q - r|^2.
    # Accept when kth < fl(margin^2) - tol.  tol doubles those terms, which
    # also covers the rounding of S, of tol and of the subtraction.  An
    # infinite margin means the block holds every reference.
    if margin < math.inf:
        m2 = margin * margin
        s = sum(v * v for v in row) + index.max_sq
        if not kth < m2 - 2 * _U * (3 * m2 + (2 * len(row) + 7) * s):
            return None
    order = _nearest(d2, kth, k)
    return np.sqrt(d2[order])[None, :], ids[order][None, :]


def _sq_distances(q: np.ndarray, refs: np.ndarray, ref_sq: np.ndarray) -> np.ndarray:
    """Squared distances of each row of ``q`` to each reference, clipped at 0."""
    # built in place; scaling by -2 is exact, so this is bit-equal to
    # ref_sq - 2.0 * (q @ refs.T) + q_sq
    d2 = q @ refs.T
    d2 *= -2.0
    d2 += ref_sq
    d2 += np.einsum("ij,ij->i", q, q)[:, None]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _nearest(d2: np.ndarray, kth: float, k: int) -> np.ndarray:
    """Indices of the k smallest of ``d2`` (1-D), ties to the lower index.

    argpartition alone breaks ties at the k-th boundary arbitrarily, so every
    candidate tied with the boundary ``kth`` is gathered before sorting.
    """
    cand = np.nonzero(d2 <= kth)[0]
    return cand[np.argsort(d2[cand], kind="stable")][:k]
