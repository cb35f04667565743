import numpy as np
import pytest
import scipy.sparse as sp

from bharm._matops import LevelMatrix, level_matrix


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
            c = level_matrix((m, k), rows[order], cols[order], a[rows, cols][order])
            assert c.indices.dtype == np.int32
            wide = LevelMatrix(c.data, c.indices.astype(np.int64), c.indptr.astype(np.int64),
                               c.shape)
            yield a, c
            yield a, wide


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_level_matrix_products_are_scipys_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    for a, c in _random_levels(seed):
        ref = sp.csr_matrix((c.data, c.indices, c.indptr), shape=c.shape)
        assert np.array_equal(c.toarray(), a) and np.array_equal(c.toarray(), ref.toarray())
        assert c.nnz == ref.nnz == np.count_nonzero(a)
        for v in (rng.standard_normal(c.shape[1]) * 10.0 ** rng.integers(-5, 6, c.shape[1]),
                  np.ones(c.shape[1])):
            got, want = c @ v, ref @ v
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_level_matrix_product_checks_the_vector_shape():
    c = level_matrix((2, 3), [0, 1], [2, 0], [1.0, 2.0])
    for v in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="cannot multiply"):
            c @ v
