import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest import neighbors
from capgest.neighbors import query_topk


def brute_oracle(refs, queries, k):
    """Full stable sort by (distance, index)."""
    dist = np.sqrt(((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2))
    out_d = np.empty((len(queries), k))
    out_i = np.empty((len(queries), k), dtype=np.int64)
    for row in range(len(queries)):
        order = np.lexsort((np.arange(len(refs)), dist[row]))[:k]
        out_i[row] = order
        out_d[row] = dist[row, order]
    return out_d, out_i


class TestQueryTopk:
    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(5, 400))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            refs = rng.normal(0, 1, (n, d))
            queries = rng.normal(0, 1, (int(rng.integers(1, 50)), d))
            d_got, i_got = query_topk(refs, queries, k)
            d_exp, i_exp = brute_oracle(refs, queries, k)
            assert np.array_equal(i_got, i_exp), (trial, n, d, k)
            assert np.allclose(d_got, d_exp, atol=1e-9)

    def test_tie_break_lower_index(self):
        # integer lattice forces exact distance ties
        rng = np.random.default_rng(1)
        refs = rng.integers(0, 3, (120, 4)).astype(float)
        queries = rng.integers(0, 3, (40, 4)).astype(float)
        for k in (1, 5, 120):
            _, i_got = query_topk(refs, queries, k)
            _, i_exp = brute_oracle(refs, queries, k)
            assert np.array_equal(i_got, i_exp)

    def test_k_out_of_range(self):
        refs = np.zeros((3, 2))
        with pytest.raises(ValueError):
            query_topk(refs, refs, 0)
        with pytest.raises(ValueError):
            query_topk(refs, refs, 4)

    def test_chunk_boundary(self):
        rng = np.random.default_rng(2)
        refs = rng.normal(0, 1, (30, 3))
        queries = rng.normal(0, 1, (300, 3))
        assert len(queries) > neighbors._CHUNK  # spans several chunks
        d_got, i_got = query_topk(refs, queries, 7)
        d_exp, i_exp = brute_oracle(refs, queries, 7)
        assert np.array_equal(i_got, i_exp)
        assert np.allclose(d_got, d_exp)

    @given(
        seed=st.integers(0, 2**32 - 1),
        lattice=st.booleans(),
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        m=st.integers(1, 5 * neighbors._CHUNK),  # up to five chunks
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_single_rows(self, seed, lattice, n, d, m, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n), label="k")
        if lattice:  # {0, 1, 2} coordinates force exact distance ties
            refs = rng.integers(0, 3, (n, d)).astype(float)
            queries = rng.integers(0, 3, (m, d)).astype(float)
        else:
            refs = rng.normal(0, 1, (n, d))
            queries = rng.normal(0, 1, (m, d))
        d_batch, i_batch = query_topk(refs, queries, k)
        for row in range(m):
            d_one, i_one = query_topk(refs, queries[row : row + 1], k)
            assert np.array_equal(i_batch[row], i_one[0]), row
            assert np.allclose(d_batch[row], d_one[0], rtol=0, atol=1e-12)


U = 2.0**-53


def assert_grid_matches_scan(refs, queries, k):
    """The batch answer through the cell grid against the chunk scan: equal
    indices, and squared distances within the rounding bound of the proof in
    ``neighbors._outside_floor``."""
    sq = neighbors.sq_norms(refs)
    index = neighbors.cell_index(refs, k, sq, np.zeros(len(refs), dtype=np.int64))
    d_grid, i_grid = query_topk(refs, queries, k, sq, index=index)
    d_scan, i_scan = query_topk(refs, queries, k, sq)
    assert np.array_equal(i_grid, i_scan)
    a, b = d_grid**2, d_scan**2
    s = np.einsum("ij,ij->i", queries, queries)[:, None] + sq.max()
    d = refs.shape[1]
    # each computed squared distance is within (2d + 7) u S of the true one;
    # the square root and its square add at most 3 u of each side's value
    assert (np.abs(a - b) <= 2 * (2 * d + 7) * U * s + 3 * U * (a + b)).all()
    return index


class TestCellBatch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lattice=st.booleans(),
        n=st.integers(2, 300),
        d=st.integers(1, neighbors._GRID_DIMS),
        m=st.integers(2, 5 * neighbors._CHUNK),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_through_grid_equals_scan(self, seed, lattice, n, d, m, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, min(n, 12)), label="k")
        if lattice:  # {0, 1, 2} coordinates force exact distance ties
            refs = rng.integers(0, 3, (n, d)).astype(float)
            queries = rng.integers(-1, 4, (m, d)).astype(float)
        else:  # a wider spread than the references puts some queries off the grid
            refs = rng.normal(0, 1, (n, d))
            queries = rng.normal(0, 1.5, (m, d))
        assert_grid_matches_scan(refs, queries, k)

    def test_every_query_outside_the_grid(self):
        rng = np.random.default_rng(3)
        refs = rng.uniform(0, 1, (200, 3))
        queries = rng.uniform(0, 1, (40, 3)) + 100.0
        index = assert_grid_matches_scan(refs, queries, 5)
        assert index is not None
        _, i_exp = brute_oracle(refs, queries, 5)
        assert np.array_equal(query_topk(refs, queries, 5, index=index)[1], i_exp)

    def test_block_smaller_than_k(self):
        # a dense cluster sets the cell side; two far points sit alone
        rng = np.random.default_rng(4)
        refs = np.vstack([rng.uniform(0, 1, (300, 3)), [[20.0, 20.0, 20.0], [20.0, 20.1, 20.0]]])
        queries = np.vstack([rng.uniform(0, 1, (30, 3)), [[20.0, 20.05, 20.0]] * 3])
        k = 5
        index = assert_grid_matches_scan(refs, queries, k)
        sq = neighbors.sq_norms(refs)
        dist, idx = np.empty((len(queries), k)), np.empty((len(queries), k), dtype=np.int64)
        left = neighbors._cell_batch(index, refs, sq, queries, k, dist, idx)
        assert set(range(30, 33)) <= set(left.tolist())
        assert len(left) < len(queries)  # the cluster's rows are answered from cells

    def test_k_equal_to_n(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 40):
            refs = rng.normal(0, 1, (n, 3))
            queries = rng.normal(0, 1, (50, 3))
            assert_grid_matches_scan(refs, queries, n)

    def test_queries_at_the_padded_edge(self):
        rng = np.random.default_rng(6)
        refs = rng.uniform(0, 1, (400, 3))
        k = 4
        sq = neighbors.sq_norms(refs)
        index = neighbors.cell_index(refs, k, sq, np.zeros(400, dtype=np.int64))
        low, n_cells, *_ = index.axes[0]
        edges = []
        for t in (-1.0, n_cells - 1.0):  # the first and one past the last cell
            x = low + t * index.side
            edges += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
        queries = np.tile(rng.uniform(0, 1, (1, 3)), (len(edges), 1))
        queries[:, 0] = edges
        assert_grid_matches_scan(refs, queries, k)
        t = (queries[:, 0] - low) / index.side
        outside = np.flatnonzero((t < -1.0) | (t >= n_cells - 1))
        assert 0 < len(outside) < len(queries)
        dist, idx = np.empty((len(queries), k)), np.empty((len(queries), k), dtype=np.int64)
        left = neighbors._cell_batch(index, refs, sq, queries, k, dist, idx)
        assert set(outside.tolist()) <= set(left.tolist())

    def test_distance_blocks_no_larger_than_the_scans(self):
        # 20,000 queries in one cell: one block of them all held 66 MB
        rng = np.random.default_rng(7)
        refs = rng.uniform(0, 1, (2000, 3))
        queries = 0.5 + rng.uniform(-1e-3, 1e-3, (20000, 3))
        sq = neighbors.sq_norms(refs)
        index = neighbors.cell_index(refs, 5, sq, np.zeros(2000, dtype=np.int64))

        def peak(**kwargs):
            tracemalloc.start()
            try:
                query_topk(refs, queries, 5, sq, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(index=index) < 2 * peak()


def test_selected_backend_is_known():
    assert neighbors.BACKEND == "numpy"
