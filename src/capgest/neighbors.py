"""Exact nearest-neighbor search in numpy.

Chunked so the (chunk, n) distance block and its partitioned copy stay in
the L2 cache for reference sets of several thousand points, whatever the
query count.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_CHUNK = 32  # against 6,323 references: a 1.6 MB block, 3.2 MB with its copy


def sq_norms(refs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each reference row, as ``query_topk`` uses it."""
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    return np.einsum("ij,ij->i", refs, refs)


def query_topk(
    refs: np.ndarray, queries: np.ndarray, k: int, ref_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k nearest refs per query, ascending.

    Ties on distance are broken by lower reference index.  ``ref_sq`` is
    ``sq_norms(refs)``, precomputed by callers that query one reference set
    many times.
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
