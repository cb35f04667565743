"""Per-level matrices: their one storage format and the operations on it.

Every level matrix is a canonical scipy.sparse.csr_matrix (float64 data,
sorted column indices, no duplicates, no stored zeros but those as_level
keeps) whose arrays are read-only, so memory and time grow with the edges,
not with |V_n| |V_{n+1}|.
Only this module reads the CSR arrays; it works on them directly because
scipy's per-call overhead dominates on narrow levels.
"""
import numpy as np
import scipy.sparse as sp


# Attributes that scipy's constructor gives a CSR matrix besides its arrays.
_CSR_ATTRS = vars(sp.csr_matrix((1, 1)))


def _csr(data, indices, indptr, shape):
    """Read-only canonical CSR matrix on arrays this module made canonical
    (float64 data, one index dtype).  It skips scipy's constructor, whose
    checks cost about 30 us a call, hundreds of times for a diagram of
    many narrow levels, and relies on scipy's private instance layout
    (`_shape` and the template's attributes).  That layout is pinned by
    tests/test_diagram.py::test_every_level_is_read_only_canonical_csr,
    which runs check_format(full_check=True) on every kind of level
    matrix: a scipy version is supported only if that test passes on it
    (so far checked on scipy 1.17 only)."""
    for a in (data, indices, indptr):
        a.flags.writeable = False
    m = sp.csr_matrix.__new__(sp.csr_matrix)
    vars(m).update(_CSR_ATTRS, _shape=(int(shape[0]), int(shape[1])),
                   data=data, indices=indices, indptr=indptr)
    m.has_canonical_format = True
    return m


def level_matrix(shape, rows, cols, vals, keep_zeros: bool = False):
    """Level matrix with vals at the distinct positions (rows, cols); zero
    values are dropped unless keep_zeros."""
    vals = np.asarray(vals, dtype=float)
    keep = np.ones(vals.size, dtype=bool) if keep_zeros else vals != 0
    rows, cols = np.asarray(rows, dtype=np.int64)[keep], np.asarray(cols)[keep]
    order = np.lexsort((cols, rows))
    idx = np.int32 if max(*shape, rows.size) < 2 ** 31 else np.int64  # scipy's choice
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return _csr(vals[keep][order], cols[order].astype(idx), indptr, shape)


def as_level(m, keep_zeros: bool = False):
    """A dense array or any scipy sparse matrix as a level matrix, duplicates
    summed (a level matrix is returned as it is).  A sparse input's stored
    zeros are kept only with keep_zeros, so that validate() can report them
    against a given incidence; the only branch on storage kind is here."""
    if isinstance(m, sp.csr_matrix) and not m.data.flags.writeable:
        return m
    coo = sp.coo_matrix(m, dtype=float, copy=True)
    coo.sum_duplicates()
    return level_matrix(coo.shape, coo.row, coo.col, coo.data, keep_zeros)


def incidence_of(m):
    """Ones on the structure of m, which it shares."""
    return _csr(np.ones(m.nnz), m.indices, m.indptr, m.shape)


def stored_entries(m):
    """(rows, cols, values) of the stored entries in row-major order."""
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    return rows, m.indices, m.data


def block_diagonal(mats):
    """The matrices mats (at least one) as one block-diagonal CSR matrix,
    and the row and column offsets of its blocks."""
    row_off = np.concatenate([[0], np.cumsum([m.shape[0] for m in mats])])
    col_off = np.concatenate([[0], np.cumsum([m.shape[1] for m in mats])])
    nnz_off = np.concatenate([[0], np.cumsum([m.nnz for m in mats])])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + z for m, z in zip(mats, nnz_off)])
    indices = np.concatenate([m.indices + c for m, c in zip(mats, col_off)])
    data = np.concatenate([m.data for m in mats])
    stacked = sp.csr_matrix((data, indices, indptr), shape=(row_off[-1], col_off[-1]))
    return stacked, row_off, col_off


def values_at(m, rows, cols) -> np.ndarray:
    """m[rows[k], cols[k]] for each k, 0 where m stores nothing."""
    keys = np.append(stored_entries(m)[0] * m.shape[1] + m.indices, -1)
    want = np.asarray(rows, dtype=np.int64) * m.shape[1] + cols
    pos = np.searchsorted(keys[:-1], want)
    return np.where(keys[pos] == want, np.append(m.data, 0.0)[pos], 0.0)


def rmatvec(m, v: np.ndarray) -> np.ndarray:
    """m.T @ v."""
    return np.bincount(m.indices, m.data * v[stored_entries(m)[0]], minlength=m.shape[1])


def row_sums(m) -> np.ndarray:
    return np.bincount(stored_entries(m)[0], m.data, minlength=m.shape[0])


def col_sums(m) -> np.ndarray:
    return np.bincount(m.indices, m.data, minlength=m.shape[1])

