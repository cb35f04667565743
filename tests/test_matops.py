import numpy as np
import pytest
import scipy.sparse as sp

from bharm._matops import EdgeTable, LevelMatrix, stacked_table


def _random_levels(seed):
    """Random level matrices, some with empty rows and empty columns, with
    values over many orders of magnitude, under both index dtypes."""
    rng = np.random.default_rng(seed)
    for m, k in [(1, 1), (1, 7), (6, 1), (3, 3), (12, 40), (40, 12), (64, 65), (200, 201)]:
        for density in (0.0, 0.05, 0.3, 1.0):
            a = np.where(rng.random((m, k)) < density,
                         rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 9, (m, k)), 0.0)
            a[rng.random(m) < 0.2] = 0.0
            a[:, rng.random(k) < 0.2] = 0.0
            rows, cols = np.nonzero(a)
            order = rng.permutation(rows.size)
            coo = sp.coo_matrix((a[rows, cols][order], (rows[order], cols[order])), shape=(m, k))
            c = stacked_table((m, k), [coo]).level(0)
            assert c.indices.dtype == np.int32
            wide = LevelMatrix(c.data, c.indices.astype(np.int64), c.indptr.astype(np.int64),
                               c.shape)
            yield a, c
            yield a, wide


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_level_matrix_products_are_scipys_bit_for_bit(seed):
    # a level's child and parent sums in an edge table are scipy's CSR
    # products C v and C^T u
    rng = np.random.default_rng(100 + seed)
    for a, c in _random_levels(seed):
        ref = sp.csr_matrix((c.data, c.indices, c.indptr), shape=c.shape)
        assert np.array_equal(c.toarray(), a) and np.array_equal(c.toarray(), ref.toarray())
        assert c.nnz == ref.nnz == np.count_nonzero(a)
        m, k = c.shape
        table = EdgeTable((m, k), c.data, c.indices, c.indptr)
        for v, u in ((rng.standard_normal(k) * 10.0 ** rng.integers(-5, 6, k),
                      rng.standard_normal(m) * 10.0 ** rng.integers(-5, 6, m)),
                     (np.ones(k), np.ones(m))):
            child = table.edge_sums(1, np.append(np.zeros(m), v))[0][:m]
            parent = table.edge_sums(1, np.append(u, np.zeros(k)))[1][m:]
            for got, want in ((child, ref @ v), (parent, ref.T @ u)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
