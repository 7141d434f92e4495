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


def test_selected_backend_is_known():
    assert neighbors.BACKEND == "numpy"
