"""Exact nearest-neighbor search in numpy.

Many queries run in chunks, so the (chunk, n) distance block and its
partitioned copy stay in the L2 cache for reference sets of several
thousand points, whatever the query count.

Given a cell grid of the first three coordinates (``cell_index``; Bentley,
Stanat & Williams, "The complexity of finding fixed-radius near neighbors",
1977), a query first measures only the references in the 3x3x3 block of
cells around it.  Along each gridded axis, a reference outside the block
lies at or below ``below[c]`` or at or above ``above[c]``, coordinates of
references read when the grid is built; the block's answer is used when
every such reference is provably farther than the k-th neighbor
(``_outside_floor``).  Otherwise the query runs through the chunk scan.

One query (``cell_topk``) measures its block with a matrix-vector product
and returns the scan's bytes.  A batch of queries groups its rows by cell
and measures each cell's rows with one matrix product (``_cell_batch``).
BLAS rounds products of different shapes differently, so a batch returns
the scan's indices, and distances that may differ from the scan's in the
last bits, within the bound ``_outside_floor`` states.
"""

from __future__ import annotations

import math
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
    above)``: a reference outside the block along that axis lies at or below
    ``below[c]`` or at or above ``above[c]`` (infinite where none lies beyond).
    """

    side: float
    axes: tuple
    indptr: np.ndarray
    ids: np.ndarray
    max_sq: float  # largest squared reference norm


def cell_index(refs: np.ndarray, k: int, ref_sq: np.ndarray) -> CellIndex | None:
    """The cell grid ``query_topk`` searches first, or None where a
    grid would not serve: non-finite or flat references, more than 7 columns,
    or more than 2**15 cells.  ``ref_sq`` is ``sq_norms(refs)``."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    n, d = refs.shape
    p = min(_GRID_DIMS, d)
    if not 1 <= d <= _MAX_DIMS:
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
        # below[c]: the largest coordinate in cells up to c-2, above[c]: the
        # least in cells from c+2, with each reference in its cell of ``cells``
        top = np.full(n_cells[j], -math.inf)
        np.maximum.at(top, cells[:, j], pts[:, j])
        bottom = np.full(n_cells[j], math.inf)
        np.minimum.at(bottom, cells[:, j], pts[:, j])
        below = [-math.inf, -math.inf, *np.maximum.accumulate(top)[:-2].tolist()]
        above = [*np.minimum.accumulate(bottom[::-1])[::-1][2:].tolist(), math.inf, math.inf]
        axes.append((float(low[j]), n_cells[j], strides[j], below, above))
    return CellIndex(side, tuple(axes), indptr, ids, float(ref_sq.max()))


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
    many times.  ``index`` is ``cell_index(refs, ...)``: each query is then
    answered from its cell block where the block proves the answer, and by
    the chunk scan otherwise.  One query gets the bytes the scan would give;
    a batch gets the scan's indices, with distances that may differ from the
    scan's in the last bits.
    """
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n = refs.shape[0]
    m = queries.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} reference points")
    if ref_sq is None:
        ref_sq = sq_norms(refs)
    if m == 1 and index is not None:
        found = cell_topk(index, refs, ref_sq, queries, k)
        if found is not None:
            return found
    dist = np.empty((m, k))
    idx = np.empty((m, k), dtype=np.int64)
    left = None  # positions of the rows the scan answers; None for all rows
    if m > 1 and index is not None:
        left = _cell_batch(index, refs, ref_sq, queries, k, dist, idx)
        queries = queries[left]
    for lo in range(0, len(queries), _CHUNK):
        q = queries[lo : lo + _CHUNK]
        d2 = _sq_distances(q, refs, ref_sq)
        if k < n:
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        else:
            kth = d2.max(axis=1)
        for row in range(q.shape[0]):
            order = _nearest(d2[row], kth[row], k)
            out = lo + row if left is None else left[lo + row]
            idx[out] = order
            dist[out] = d2[row, order]
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
    # an infinite margin means the block holds every reference
    if margin < math.inf:
        floor = _outside_floor(margin, sum(v * v for v in row), index.max_sq, len(row))
        if not kth < floor:
            return None
    order = _nearest(d2, kth, k)
    return np.sqrt(d2[order])[None, :], ids[order][None, :]


def _cell_batch(
    index: CellIndex,
    refs: np.ndarray,
    ref_sq: np.ndarray,
    queries: np.ndarray,
    k: int,
    dist: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Write the answers the cell blocks prove into ``dist`` (squared
    distances) and ``idx``, and return the positions of the other rows of
    ``queries``, ascending.

    The rows of each occupied cell are measured against the cell's block
    with one matrix product and one partition, in pieces of no more
    distances than a chunk of the scan holds, and accepted as ``cell_topk``
    accepts one row.  An accepted row with exactly k block distances at or
    below its k-th takes those k in one stable sort per piece: a block's ids
    are ascending, so ties go to the lower index.  A row tied at its k-th
    runs ``_nearest``.  Rows outside the grid, rows of a block of fewer than
    k references and rejected rows are left to the scan.
    """
    m, d = queries.shape
    key = np.zeros(m, dtype=np.int64)
    inside = np.ones(m, dtype=bool)
    margin = np.full(m, math.inf)
    # a non-finite or far-out coordinate only marks its row as outside
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (low, n_cells, stride, below, above) in enumerate(index.axes):
            x = queries[:, j]
            t = (x - low) / index.side
            within = (t >= -1.0) & (t < n_cells - 1)  # also false for NaN
            inside &= within
            c = np.floor(np.where(within, t, 0.0)).astype(np.int64) + 1
            key += c * stride
            margin = np.minimum(margin, x - np.asarray(below)[c])
            margin = np.minimum(margin, np.asarray(above)[c] - x)
        q_sq = np.einsum("ij,ij->i", queries, queries)
        floor = _outside_floor(margin, q_sq, index.max_sq, d)
    holds_all = margin == math.inf  # the block holds every reference

    rows = np.flatnonzero(inside)
    rows = rows[np.argsort(key[rows], kind="stable")]
    keys = key[rows]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    left = [np.flatnonzero(~inside)]
    cap = _CHUNK * len(refs)  # distances per block: no more than a chunk of the scan holds
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(rows)]):
        ids = index.ids[index.indptr[keys[lo]] : index.indptr[keys[lo] + 1]]
        if len(ids) < k:
            left.append(rows[lo:hi])
            continue
        block_refs, block_sq = refs.take(ids, axis=0), ref_sq.take(ids)
        step = max(1, cap // len(ids))
        for first in range(lo, hi, step):
            block = rows[first : min(first + step, hi)]
            d2 = _sq_distances(queries[block], block_refs, block_sq)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            accepted = holds_all[block] | (kth < floor[block])
            left.append(block[~accepted])
            block, d2, kth = block[accepted], d2[accepted], kth[accepted]
            within_kth = d2 <= kth[:, None]
            tied = within_kth.sum(axis=1) > k
            for r in np.flatnonzero(tied).tolist():
                order = _nearest(d2[r], kth[r], k)
                idx[block[r]] = ids[order]
                dist[block[r]] = d2[r, order]
            plain = ~tied
            d2 = d2[plain]
            cols = np.nonzero(within_kth[plain])[1].reshape(-1, k)
            vals = np.take_along_axis(d2, cols, axis=1)
            order = np.argsort(vals, axis=1, kind="stable")
            idx[block[plain]] = ids[np.take_along_axis(cols, order, axis=1)]
            dist[block[plain]] = np.take_along_axis(vals, order, axis=1)
    return np.sort(np.concatenate(left))


def _outside_floor(margin, q_sq, max_sq: float, d: int):
    """A value that the computed squared distance of every reference outside
    a query's cell block exceeds, for a finite ``margin``: when the k-th
    squared distance within the block lies below it, the block's k nearest
    are the k nearest of all references.

    ``q_sq`` is the query's squared norm, ``max_sq`` the largest squared
    reference norm and ``d`` the width; floats or arrays of them.
    """
    # Proof that every reference r outside the block has a computed squared
    # distance above the floor, so it is neither among the k nearest nor
    # tied with a k-th below the floor.  With u = 2**-53 and
    # S = |q|^2 + max |r|^2:
    # - Such an r lies at or below below[c] or at or above above[c] along
    #   some gridded axis, and the query's coordinate x lies strictly between
    #   the two, since a coordinate's cell never decreases with it.  So
    #   |q - r| >= margin_true, the exact least of x - below[c] and
    #   above[c] - x over the axes.  The float margin is at most
    #   margin_true * (1 + u), and squaring it adds one more rounding, so
    #   margin_true^2 >= fl(margin^2) * (1 - 3u).
    # - _sq_distances computes |r|^2 - 2 q.r + |q|^2.  Its three length-d
    #   dot products err by at most 2 gamma_d S in all, gamma_d ~ d u in any
    #   summation order, and its two additions by u times 2S and 3S; the
    #   clip at 0 only moves toward the true value.  So the computed value
    #   is within (2d + 7) u S of |q - r|^2.
    # The floor is fl(margin^2) - tol.  tol doubles those terms, which also
    # covers the rounding of S, of tol and of the subtraction.
    m2 = margin * margin
    return m2 - 2 * _U * (3 * m2 + (2 * d + 7) * (q_sq + max_sq))


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
