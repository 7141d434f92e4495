"""Exact nearest-neighbor search in numpy.

Many queries run in chunks, so the (chunk, n) distance block and its
partitioned copy stay in the L2 cache for reference sets of several
thousand points, whatever the query count.

References of one to three coordinates, as the base model's PCA features
are, get a cell grid over every coordinate (``cell_index``; Bentley, Stanat
& Williams, "The complexity of finding fixed-radius near neighbors", 1977);
wider references are scanned.  A query first measures only the references
in the block of 3**d cells around it.  Along each axis, a reference outside
the block lies at or below ``below[c]`` or at or above ``above[c]``,
coordinates of references read when the grid is built; the block's answer
is used when every such reference is provably farther than the k-th
neighbor (``_outside_floor``).  Otherwise the query runs through the chunk
scan.

One query (``cell_topk``) measures its block with a matrix-vector product
and returns the scan's bytes: at these widths BLAS computes each distance
the same way whatever the reference's column.  A batch of queries groups
its rows by cell and measures each cell's rows with one matrix product
(``_cell_batch``).  BLAS rounds products of different shapes differently,
so a batch returns the scan's indices, and distances that may differ from
the scan's in the last bits, within the bound ``_outside_floor`` states.

As a cell bounds every coordinate, the grid also splits each cell into
``_FINE`` fine cells per side and keeps, per fine cell, a label that one
query proved for every point of the cell: of the references that any point
of the cell can take among its k nearest, at most ``(k - 1) // 2`` carry
another label, so any k of them give that label a strict majority of the
vote (``_proves``).  ``cell_topk`` tries the proof from the block it has
just measured, and a one-row caller reads the label without a search
(``CellIndex.mark``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"

_CHUNK = 32  # against 6,323 references: a 1.6 MB block, 3.2 MB with its copy

_GRID_DIMS = 3  # the widest gridded references; a query's block is 3**d cells
_MAX_CELLS = 2**15  # cell keys fit int16, which numpy sorts by radix
_U = 2.0**-53  # unit roundoff of float64
_FINE = 8  # fine cells per side of a grid cell


def sq_norms(refs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each reference row, as ``query_topk`` uses it."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    return np.einsum("ij,ij->i", refs, refs)


@dataclass(frozen=True, eq=False)
class CellIndex:
    """Uniform cells of side ``side`` over the references, and the labels
    proven for the fine cells inside them.

    Cell c of an axis holds the points whose ``floor(t)`` is c - 1, with
    t = ``(x - low) / side``: one empty cell pads each end, so a query just
    outside the references' range still has a block.
    ``ids[indptr[key]:indptr[key + 1]]`` lists, ascending, the references in
    the block around the cell ``key``.  ``axes`` holds per axis ``(low,
    n_cells, stride, below, above, fine_stride)``: a reference outside the
    block along that axis lies at or below ``below[c]`` or at or above
    ``above[c]`` (infinite where none lies beyond).

    Fine cell g of an axis holds the points whose ``floor(_FINE * t)`` is
    g - ``_FINE``: each cell, padding included, splits into ``_FINE`` fine
    cells per side.  ``cells[key]`` is 0 where no label is known and the
    label code plus 1 where the k nearest references of every point of the
    fine cell ``key`` give that label a strict majority of their votes.
    ``cell_topk`` fills it; every write of a cell stores the one label the
    cell can have, so concurrent callers need no lock.
    """

    side: float
    axes: tuple
    indptr: np.ndarray
    ids: np.ndarray
    max_sq: float  # largest squared reference norm
    reach: float  # bounds the distance between two points of one fine cell
    block_marks: np.ndarray  # int8 per entry of ``ids``: its label code plus 1
    cells: np.ndarray  # int8 per fine cell

    def locate(self, row: list) -> tuple[int, int, float] | None:
        """The cell key, the fine key and the margin (the least distance to
        a ``below`` or ``above`` of its cell, over the axes) of the point
        ``row`` (floats), or None outside the grid."""
        key = fine = 0
        margin = math.inf
        for x, (low, n_cells, stride, below, above, fine_stride) in zip(row, self.axes):
            t = (x - low) / self.side
            if not -1.0 <= t < n_cells - 1:  # also false for NaN
                return None
            c = math.floor(t) + 1
            key += c * stride
            fine += (math.floor(_FINE * t) + _FINE) * fine_stride
            margin = min(margin, x - below[c], above[c] - x)
        return key, fine, margin

    def mark(self, row: list) -> int:
        """The label code plus 1 proven for the fine cell of the point
        ``row`` (floats), else 0.  A one-row prediction asks this first, so
        it computes the fine key alone."""
        fine = 0
        for x, (low, n_cells, _, _, _, fine_stride) in zip(row, self.axes):
            t = (x - low) / self.side
            if not -1.0 <= t < n_cells - 1:  # also false for NaN
                return 0
            fine += (math.floor(_FINE * t) + _FINE) * fine_stride
        return int(self.cells[fine])


def cell_index(
    refs: np.ndarray, k: int, ref_sq: np.ndarray, codes: np.ndarray
) -> CellIndex | None:
    """The cell grid ``query_topk`` searches first, with an empty label map
    for the references' label codes ``codes``, or None where a grid would
    not serve: more than 3 columns, non-finite or flat references, more than
    2**15 cells, a fine side below the normal floats, or a code past int8.
    ``ref_sq`` is ``sq_norms(refs)``."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    n, d = refs.shape
    if not 1 <= d <= _GRID_DIMS or codes.max() >= 127:
        return None
    low, high = refs.min(axis=0), refs.max(axis=0)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        return None
    span = high - low
    if not (span > 0).all():
        return None
    # about k references per cell, were they spread evenly over the range
    side = float((np.prod(span) * k / n) ** (1.0 / d))
    fine_side = side / _FINE
    if not np.finfo(np.float64).tiny <= fine_side < math.inf:
        return None
    last = np.floor(span / side)  # per axis, the highest occupied cell minus 1
    if np.prod(last + 3) > _MAX_CELLS:
        return None
    n_cells = [int(v) + 3 for v in last]
    cells = np.floor((refs - low) / side).astype(np.int64) + 1
    strides = [math.prod(n_cells[j + 1 :]) for j in range(d)]
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

    counts = [size * _FINE for size in n_cells]  # fine cells per axis
    axes = []
    for j in range(d):
        # below[c]: the largest coordinate in cells up to c-2, above[c]: the
        # least in cells from c+2, with each reference in its cell of ``cells``
        top = np.full(n_cells[j], -math.inf)
        np.maximum.at(top, cells[:, j], refs[:, j])
        bottom = np.full(n_cells[j], math.inf)
        np.minimum.at(bottom, cells[:, j], refs[:, j])
        below = [-math.inf, -math.inf, *np.maximum.accumulate(top)[:-2].tolist()]
        above = [*np.minimum.accumulate(bottom[::-1])[::-1][2:].tolist(), math.inf, math.inf]
        axes.append(
            (float(low[j]), n_cells[j], strides[j], below, above, math.prod(counts[j + 1 :]))
        )
    # Along an axis, fl(x - low) and the division by the grid's side each err
    # by at most u relative, and the scaling by _FINE is exact, so a
    # coordinate x whose key is fine cell g lies within 2.01 u (|x - low| +
    # side) of [low + (g - _FINE) side, low + (g - _FINE + 1) side], with
    # ``side`` a fine cell's; the ``side`` term also covers a quotient below
    # the normal range.  Two coordinates with one key so differ by at most
    # side + 2.01 u (|x| + |x'| + 2 |low| + 2 side).  A key inside the grid
    # has |x| <= |low| + (n_cells + 1) _FINE side, so that is below each
    # extent here, and the last factor covers the rounding of the extents
    # and of their Euclidean norm.
    extents = [
        fine_side + 16 * _U * (abs(lo) + (size + 3) * _FINE * fine_side)
        for lo, size, *_ in axes
    ]
    reach = math.hypot(*extents) * (1 + 8 * _U)
    block_marks = (codes + 1).astype(np.int8).take(ids)
    # np.zeros maps the pages only as they are written
    labels = np.zeros(math.prod(counts), dtype=np.int8)
    return CellIndex(
        side, tuple(axes), indptr, ids, float(ref_sq.max()), reach, block_marks, labels
    )


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
    the chunk scan otherwise.  One query gets the bytes the scan would give,
    and may fill the index's label map (``cell_topk``); a batch gets the
    scan's indices, with distances that may differ from the scan's in the
    last bits.
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
    index: CellIndex,
    refs: np.ndarray,
    ref_sq: np.ndarray,
    query: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """``query_topk`` of the one row ``query`` from its cell block, or None
    when the block cannot prove that answer.

    ``refs`` and ``ref_sq`` are float64 and C-contiguous, as ``query_topk``
    passes them.  An answered query whose fine cell holds no label stores
    the one its block proves for the whole fine cell, if any.
    """
    row = query[0].tolist()
    located = index.locate(row)
    if located is None:
        return None
    key, fine, margin = located
    first, stop = index.indptr[key], index.indptr[key + 1]
    ids = index.ids[first:stop]
    # numpy computes a product with one column as a dot product, which rounds
    # unlike the matrix-vector product of the scan (an index has n >= 2)
    if len(ids) < max(k, 2):
        return None
    d2 = _sq_distances(query, refs.take(ids, axis=0), ref_sq.take(ids))[0]
    kth = np.partition(d2, k - 1)[k - 1] if k < len(ids) else d2.max()
    q_sq = sum(v * v for v in row)
    # an infinite margin means the block holds every reference
    floor = math.inf
    if margin < math.inf:
        floor = _outside_floor(margin, q_sq, index.max_sq, len(row))
        if not kth < floor:
            return None
    order = _nearest(d2, kth, k)
    if not index.cells[fine]:
        marks = index.block_marks[first:stop]
        mark = _proves(index.reach, q_sq, index.max_sq, len(row), d2, marks, k, float(kth), floor)
        if mark:
            index.cells[fine] = mark
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
        for j, (low, n_cells, stride, below, above, _) in enumerate(index.axes):
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


def _proves(
    reach: float,
    q_sq: float,
    max_sq: float,
    d: int,
    d2: np.ndarray,
    marks: np.ndarray,
    k: int,
    kth: float,
    floor: float,
) -> int:
    """The label code plus 1 that the k nearest references of every point of
    a query's fine cell give by a strict majority, or 0 where the query's
    block cannot prove one.

    The references any point of the cell can take among its k nearest lie
    in one set of block references; a label is proven where at most
    ``(k - 1) // 2`` of that set carry another label.

    ``reach`` is the ``CellIndex``'s, ``q_sq`` the query's squared norm and
    ``d`` its width, ``d2`` its squared distances to its block, ``marks`` the
    block's label marks, ``kth`` the k-th of ``d2`` and ``floor`` the
    query's ``_outside_floor`` (infinite where the block holds every
    reference).
    """
    # Proof that every point q' in the fine cell of the query q, searched on
    # any path and with any tie-break, takes more than k/2 of its k nearest
    # references from the label returned, so its vote gives that label with
    # no count tie and no tie-break read.  With eps(p) = (2d + 7) u S(p)
    # and S(p) = |p|^2 + max |r|^2, _outside_floor's derivation bounds the
    # error of any computed squared distance from p by eps(p).
    # |q - q'| <= reach, so |q'| <= |q| + reach.
    # - The k references r_i with d2 <= kth lie within sqrt(kth + eps(q)) of
    #   q, so within A = sqrt(kth + eps(q)) + reach of q'.
    # - q''s search takes references whose computed distance is at most its
    #   k-th, and the k distinct r_i have computed distances of at most
    #   A^2 + eps(q'), so its k-th is at most that.  (A block search for q'
    #   that leaves some r_i outside its block accepted a k-th below that
    #   r_i's floor, below A^2.)  So a reference r it takes has
    #   |q' - r|^2 <= A^2 + 2 eps(q'), and |q - r| <= R = sqrt(A^2 +
    #   2 eps(q')) + reach.
    # - A reference outside q's block lies at least margin_true from q, and
    #   _outside_floor's floor is below margin_true^2, so R^2 < floor leaves
    #   every such reference out.
    # - A block reference within R of q has d2 <= R^2 + eps(q), so the set N
    #   of block references with d2 at or below that limit holds every
    #   reference that q' can take.  If at most (k - 1) // 2 of N carry
    #   another label than L, any k of N, q''s k nearest among them, hold at
    #   least k - (k - 1) // 2 > k/2 references of L: a strict majority.
    #   For k <= 2 that asks every reference of N to carry L.
    # e below is 2 (2d + 7) u, twice the coefficient of eps: its surplus
    # covers the rounding of kth + e S and of the squared norms; every other
    # step rounds a sum or product of nonnegative terms, so R^2 and the limit
    # fall less than 20 u short of their exact values, which ``grow`` covers.
    e = 2 * (2 * d + 7) * _U
    grow = 1 + 32 * _U
    a = math.sqrt(kth + e * (q_sq + max_sq)) + reach
    far_sq = (math.sqrt(q_sq) + reach) ** 2 + max_sq
    r_sq = (math.sqrt(a * a + e * far_sq) + reach) ** 2 * grow
    if not r_sq < floor:  # also false for NaN
        return 0
    # a few bytes: Python counts them faster than numpy reduces them
    near = marks[d2 <= (r_sq + e * (q_sq + max_sq)) * grow].tobytes()
    others = (k - 1) // 2
    # a label with at most ``others`` other marks holds one of the first others + 1
    for mark in set(near[: others + 1]):
        if len(near) - near.count(mark) <= others:
            return mark
    return 0


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
