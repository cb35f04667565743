"""Level matrices: their one storage format and the operations on it.

Every level matrix is a LevelMatrix: a read-only canonical CSR matrix
(float64 data, sorted column indices, no duplicates, no stored zeros), so
memory and time grow with the edges, not with |V_n| |V_{n+1}|.  A diagram
stores all its levels C_0, ..., C_{N-1} once, in one EdgeTable, the
LevelMatrix of their rows stacked in level order, and every table is made
by edge_table from (level, row, col, value) triplets in table order; its
C_n is level(n), a view of the table's slice, and all levels' triplets are
entries(); an entry's two vertices are its tail and head.  Every sum over
the edges of levels 0..last-1 (P, the Laplacian, the degrees) is one
edge_sums on slices of tail and head.  Both types are bharm's own and
need numpy only: scipy is imported only where a caller hands in a scipy
sparse matrix (stacked_table) and by the solvers that factor or decompose.
"""
import numpy as np


class LevelMatrix:
    """Read-only canonical CSR matrix on arrays that this module made
    canonical (float64 data, one index dtype for indices and indptr).
    """
    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        for a in (data, indices, indptr):
            a.flags.writeable = False
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return self.data.size

    def rows(self) -> np.ndarray:
        """Row index of each stored entry (read-only), made anew on each
        call, so that a level view holds no per-entry array beside its own."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows(), self.indices] = self.data
        return out

    def masked(self, keep: np.ndarray) -> "LevelMatrix":
        """The matrix of the entries where keep is True, in their order."""
        kept = np.zeros(self.nnz + 1, dtype=self.indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        return LevelMatrix(self.data[keep], self.indices[keep], kept[self.indptr], self.shape)


def index_dtype(*sizes) -> type:
    """scipy's index dtype for a matrix of these dimensions and entry count."""
    return np.int32 if max(sizes) < 2 ** 31 else np.int64


def _window(a, lo: int, hi: int) -> np.ndarray:
    """a[lo:hi] without a copy, as an array on a buffer rather than a view
    of a: scipy copies a view of an array over twice its size before it
    wraps it, and so would copy each level of a table."""
    return np.frombuffer(memoryview(a)[lo:hi], dtype=a.dtype)


class EdgeTable(LevelMatrix):
    """The level matrices C_0, ..., C_{N-1} of a diagram with level sizes
    `sizes`, stacked: row v is vertex v of levels 0..N-1, numbered level by
    level (level n's first is offsets[n]; offsets[N + 1] counts all), and
    an entry's column is its vertex's index in the next level.  The entries
    run in (level, row, col) order; level n's are starts[n]:starts[n + 1],
    and level(n) is C_n as a view of them.  Entry k of level n joins vertex
    tail[k] of level n to vertex head[k] of level n + 1 (read-only, in the
    index dtype).  edge_sums takes the sums over the entries of levels
    0..last-1 for each row and each column vertex at once.
    """
    __slots__ = ("sizes", "offsets", "starts", "tail", "head")

    def __init__(self, sizes, data, indices, indptr):
        self.sizes = tuple(int(s) for s in sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)
        super().__init__(data, indices, indptr, (self.offsets[-2], max(self.sizes)))
        self.starts = indptr[self.offsets[:-1]].astype(np.int64)
        idx = indices.dtype
        self.tail = np.repeat(np.arange(self.shape[0], dtype=idx), np.diff(indptr))
        self.head = indices + np.repeat(self.offsets[1:-1].astype(idx), np.diff(self.starts))
        for a in (self.offsets, self.tail, self.head):
            a.flags.writeable = False

    def level(self, n: int) -> LevelMatrix:
        a, b = self.offsets[n], self.offsets[n + 1]
        lo, hi = self.starts[n], self.starts[n + 1]
        return LevelMatrix(_window(self.data, lo, hi), _window(self.indices, lo, hi),
                           self.indptr[a:b + 1] - self.indptr[a], self.sizes[n:n + 2])

    def edge_sums(self, last: int, x=None, scale=None):
        """(child, parent) sums over the entries of levels 0..last-1, with x
        and scale on the vertices of levels 0..last and both sums numbered
        as they are: child[v] sums w x[col] over v's row and parent[u] sums
        w x[row] over u's column, w the conductance times scale[v] or
        scale[u] (when given), x 1 when left out.  Each is one np.bincount
        in table order, and a vertex's entries lie in one level, so level
        n's sums are bit for bit scipy's CSR products C_n x and C_n^T x
        (child is 0 on level last, parent on the root)."""
        hi = self.starts[last]
        size = int(self.offsets[last + 1])
        rows, cols, c = self.tail[:hi], self.head[:hi], self.data[:hi]
        down, up = (c, c) if scale is None else (c * scale.take(rows), c * scale.take(cols))
        if x is not None:
            down, up = down * x.take(cols), up * x.take(rows)
        # with no entries, bincount's sums would be integer zeros
        return (np.bincount(rows, down, minlength=size).astype(float, copy=False),
                np.bincount(cols, up, minlength=size).astype(float, copy=False))

    def entries(self):
        """(level, row, col, value) of every entry, row and col within their
        levels."""
        level = np.repeat(np.arange(len(self.sizes) - 1), np.diff(self.starts))
        return level, self.tail - self.offsets[level], self.indices, self.data


def edge_table(sizes, level, rows, cols, vals) -> EdgeTable:
    """The table with vals at (level, rows, cols), given in that order with
    no repeats (rows and cols within their levels)."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    idx = index_dtype(offsets[-1], len(vals))
    indptr = np.zeros(offsets[-2] + 1, dtype=idx)
    np.cumsum(np.bincount(offsets[level] + rows, minlength=offsets[-2]), out=indptr[1:])
    return EdgeTable(sizes, np.asarray(vals, dtype=float), np.asarray(cols).astype(idx), indptr)


def stacked_table(sizes, mats) -> EdgeTable:
    """The table of the level matrices mats: dense arrays, scipy sparse
    matrices (duplicates summed) or LevelMatrix, with every zero dropped
    from their stack, whatever its kind.  The only branch on storage kind;
    each kind gives its entries in row-major order, so their stack is in
    table order."""
    parts = []
    for m in mats:
        if isinstance(m, LevelMatrix):
            parts.append((m.rows(), m.indices, m.data))
        elif hasattr(m, "tocoo"):
            import scipy.sparse as sp
            coo = sp.coo_matrix(m, dtype=float, copy=True)
            coo.sum_duplicates()
            parts.append((coo.row, coo.col, coo.data))
        else:
            a = np.asarray(m, dtype=float)
            rows, cols = np.nonzero(a)
            parts.append((rows, cols, a[rows, cols]))
    level = np.repeat(np.arange(len(mats)), [p[2].size for p in parts])
    rows, cols, vals = (np.concatenate([p[k] for p in parts] + [np.zeros(0, dtype=np.int64)])
                        for k in range(3))
    keep = vals != 0
    return edge_table(sizes, level[keep], rows[keep], cols[keep], vals[keep])

