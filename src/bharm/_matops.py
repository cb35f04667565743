"""Dense/sparse dispatch helpers for per-level matrices.

Level matrices are stored dense (numpy) for small levels and CSR for large
ones; these helpers keep the callers agnostic.
"""
import numpy as np
import scipy.sparse as sp

# Level matrices switch to CSR once either dimension exceeds this.
SPARSE_THRESHOLD = 512


def is_sparse(m) -> bool:
    return sp.issparse(m)


def matvec(m, v: np.ndarray) -> np.ndarray:
    """m @ v as a dense 1-d array."""
    out = m @ v
    return np.asarray(out).reshape(-1)


def rmatvec(m, v: np.ndarray) -> np.ndarray:
    """m.T @ v as a dense 1-d array."""
    out = m.T @ v
    return np.asarray(out).reshape(-1)


def row_sums(m) -> np.ndarray:
    return np.asarray(m.sum(axis=1)).reshape(-1)


def col_sums(m) -> np.ndarray:
    return np.asarray(m.sum(axis=0)).reshape(-1)


def scale_rows(m, s: np.ndarray):
    """diag(s) @ m, preserving storage kind."""
    if sp.issparse(m):
        return sp.diags(s) @ m
    return s[:, None] * m


def to_dense(m) -> np.ndarray:
    if sp.issparse(m):
        return m.toarray()
    return np.asarray(m)


def stored_entries(m):
    """(rows, cols, values) of the stored entries in row-major order: every
    stored entry of a canonical CSR matrix (explicit zeros included), the
    nonzeros of a dense array."""
    if sp.issparse(m):
        coo = m.tocoo()
        return coo.row, coo.col, coo.data
    arr = np.asarray(m)
    rows, cols = np.nonzero(arr)
    return rows, cols, arr[rows, cols]


def level_matrix(shape, rows, cols, vals):
    """Level matrix with vals at the distinct positions (rows, cols).

    Dense when neither dimension exceeds SPARSE_THRESHOLD; otherwise the
    canonical CSR that csr_matrix() of the dense array gives (sorted
    indices, zeros dropped), built without the dense array.
    """
    if max(shape) <= SPARSE_THRESHOLD:
        m = np.zeros(shape)
        m[rows, cols] = vals
        return m
    m = sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=float)
    m.eliminate_zeros()
    return m
