"""Per-level matrices: their one storage format and the operations on it.

Every level matrix is a LevelMatrix: a read-only canonical CSR matrix
(float64 data, sorted column indices, no duplicates, no stored zeros but
those as_level keeps), so memory and time grow with the edges, not with
|V_n| |V_{n+1}|.  It is bharm's own type and needs numpy only: scipy is
imported only where a caller hands in a scipy sparse matrix (as_level) and
by the solvers that factor or decompose.
"""
import numpy as np


class LevelMatrix:
    """Read-only canonical CSR matrix on arrays that this module made
    canonical (float64 data, one index dtype for indices and indptr).

    `m @ v` for a vector v is one np.bincount over the stored entries in
    row-major order: it forms the same products and adds them in the same
    order as scipy's CSR matrix-vector product, so the two agree bit for
    bit.  The row of each stored entry is computed once, on first use.
    """
    __slots__ = ("data", "indices", "indptr", "shape", "_rows")

    def __init__(self, data, indices, indptr, shape):
        for a in (data, indices, indptr):
            a.flags.writeable = False
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = None

    @property
    def nnz(self) -> int:
        return self.data.size

    def rows(self) -> np.ndarray:
        """Row index of each stored entry (read-only)."""
        if self._rows is None:
            rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
            rows.flags.writeable = False
            self._rows = rows
        return self._rows

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows(), self.indices] = self.data
        return out

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} level matrix "
                             f"by a vector of shape {v.shape}")
        # with no stored entries, bincount's sum would be integer zeros
        return np.bincount(self.rows(), self.data * v.take(self.indices),
                           minlength=self.shape[0]).astype(float, copy=False)


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
    return LevelMatrix(vals[keep][order], cols[order].astype(idx), indptr, shape)


def as_level(m, keep_zeros: bool = False):
    """A dense array or any scipy sparse matrix as a level matrix, duplicates
    summed (a level matrix is returned as it is).  A sparse input's stored
    zeros are kept only with keep_zeros, so that validate() can report them
    against a given incidence; the only branch on storage kind is here."""
    if isinstance(m, LevelMatrix):
        return m
    if not hasattr(m, "tocoo"):
        a = np.asarray(m, dtype=float)
        rows, cols = np.nonzero(a)
        return level_matrix(a.shape, rows, cols, a[rows, cols])
    import scipy.sparse as sp
    coo = sp.coo_matrix(m, dtype=float, copy=True)
    coo.sum_duplicates()
    return level_matrix(coo.shape, coo.row, coo.col, coo.data, keep_zeros)


def incidence_of(m):
    """Ones on the structure of m, which it shares."""
    return LevelMatrix(np.ones(m.nnz), m.indices, m.indptr, m.shape)


def stored_entries(m):
    """(rows, cols, values) of the stored entries in row-major order."""
    return m.rows(), m.indices, m.data


def block_diagonal(mats):
    """The matrices mats (at least one) as one block-diagonal level matrix,
    and the row and column offsets of its blocks."""
    row_off = np.concatenate([[0], np.cumsum([m.shape[0] for m in mats])])
    col_off = np.concatenate([[0], np.cumsum([m.shape[1] for m in mats])])
    nnz_off = np.concatenate([[0], np.cumsum([m.nnz for m in mats])])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + z for m, z in zip(mats, nnz_off)])
    indices = np.concatenate([m.indices + c for m, c in zip(mats, col_off)])
    data = np.concatenate([m.data for m in mats])
    stacked = LevelMatrix(data, indices, indptr, (row_off[-1], col_off[-1]))
    return stacked, row_off, col_off


def values_at(m, rows, cols) -> np.ndarray:
    """m[rows[k], cols[k]] for each k, 0 where m stores nothing."""
    keys = np.append(m.rows() * m.shape[1] + m.indices, -1)
    want = np.asarray(rows, dtype=np.int64) * m.shape[1] + cols
    pos = np.searchsorted(keys[:-1], want)
    return np.where(keys[pos] == want, np.append(m.data, 0.0)[pos], 0.0)


def rmatvec(m, v: np.ndarray) -> np.ndarray:
    """m.T @ v."""
    return np.bincount(m.indices, m.data * v[m.rows()], minlength=m.shape[1])


def row_sums(m) -> np.ndarray:
    return np.bincount(m.rows(), m.data, minlength=m.shape[0])


def col_sums(m) -> np.ndarray:
    return np.bincount(m.indices, m.data, minlength=m.shape[1])
