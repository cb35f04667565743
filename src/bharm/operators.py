"""Level-blocked Laplacian and Markov operators.

A function on the vertex set is one vector numbered as the vertices of the
diagram's edge table, level by level.  The Markov operator splits into
back blocks P<-_n (level n+1 -> n, entries c_xz/c(x)) and forward blocks
P->_{n-1} (level n-1 -> n, entries c_yx/c(x)); the Laplacian acts as
(Df)_n = D_n f_n - C_{n-1}^T f_{n-1} - C_n f_{n+1}.  Both are applied to all
levels at once, as the child and parent sums of the diagram's edge table
(_matops.EdgeTable.edge_sums) and the degrees c(x).

Their values at the last stored level N are not determined: without level
N+1 the operators are truncated there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._matops import LevelMatrix, index_dtype
from .diagram import Diagram


class LevelFunction:
    """A function V -> R on levels 0..N: one float64 vector (flat()) and
    values[n], the read-write view of level n's part of it, which starts at
    offsets[n].  The levels are the views, so a level can be written in
    place (values[n][:] = ...) but not rebound."""

    def __init__(self, values):
        """From the per-level vectors f_0, ..., f_N, copied into one vector."""
        levels = [np.asarray(v, dtype=float).reshape(-1) for v in values]
        self._view(np.concatenate(levels + [np.zeros(0)]),
                   np.cumsum([0] + [v.size for v in levels]))

    def _view(self, flat: np.ndarray, offsets) -> "LevelFunction":
        self._flat, self.offsets = flat, offsets
        self.values = tuple(flat[a:b] for a, b in zip(offsets[:-1], offsets[1:]))
        return self

    def _like(self, flat: np.ndarray) -> "LevelFunction":
        return LevelFunction.__new__(LevelFunction)._view(flat, self.offsets)

    @classmethod
    def from_flat(cls, d: Diagram, flat, levels: Optional[int] = None) -> "LevelFunction":
        """Levels 0..levels-1 (all when None) of flat, numbered as the
        vertices of d.table: a view of flat when it covers them, else a
        copy with 0 past its end."""
        offsets = d.table.offsets[:(d.num_levels + 1 if levels is None else levels) + 1]
        flat, size = np.asarray(flat, dtype=float), offsets[-1]
        if flat.size < size:
            flat = np.concatenate([flat, np.zeros(size - flat.size)])
        return cls.__new__(cls)._view(flat[:size], offsets)

    def flat(self) -> np.ndarray:
        """All levels' values, the vector that values[n] view; a caller
        that writes to it writes to the function."""
        return self._flat

    @classmethod
    def zeros(cls, d: Diagram) -> "LevelFunction":
        return cls.from_flat(d, np.zeros(d.total_vertices))

    @classmethod
    def constant(cls, d: Diagram, value: float) -> "LevelFunction":
        return cls.from_flat(d, np.full(d.total_vertices, float(value)))

    @classmethod
    def delta(cls, d: Diagram, vertex) -> "LevelFunction":
        d.check_vertex(vertex)
        f = cls.zeros(d)
        f.values[vertex.level][vertex.index] = 1.0
        return f

    def check_shape(self, d: Diagram) -> None:
        if len(self.values) != d.num_levels + 1:
            raise ValueError(
                f"function has {len(self.values)} levels, diagram stores {d.num_levels + 1}")
        for n, v in enumerate(self.values):
            if v.shape[0] != d.level_sizes[n]:
                raise ValueError(f"level {n} has length {v.shape[0]}, expected {d.level_sizes[n]}")

    def at(self, vertex) -> float:
        return float(self.values[vertex.level][vertex.index])

    def copy(self) -> "LevelFunction":
        return self._like(self._flat.copy())

    def __add__(self, other):
        return self._like(self._flat + other._flat)

    def __sub__(self, other):
        return self._like(self._flat - other._flat)

    def __mul__(self, t: float):
        return self._like(t * self._flat)

    __rmul__ = __mul__

    def shift(self, t: float) -> "LevelFunction":
        return self._like(self._flat + t)

    def level_extrema(self):
        """(max over V_n, min over V_n) per level, for max/min-principle checks."""
        return ([float(v.max()) for v in self.values],
                [float(v.min()) for v in self.values])


def vertex_at(d: Diagram, v: int) -> tuple:
    """(level, index) of vertex v of d.table."""
    offsets = d.table.offsets
    n = int(np.searchsorted(offsets, v, side="right")) - 1
    return n, int(v - offsets[n])


def build_level_operators(d: Diagram) -> np.ndarray:
    """d.degrees, the c(x) of P and the Laplacian (read-only), after the one
    check of d's numbers, on every stored level: first each conductance,
    which must lie in (0, inf), then each c(x), which must be a finite
    normal double with a finite normal reciprocal; c(x) = 0 is a vertex
    without edges, which could not carry transition probabilities.  Raises
    ValueError at the first fault, in level and row order.  laplacian runs
    it, so every reader of Delta's rows does."""
    t = d.table
    bad = np.flatnonzero(~((t.data > 0) & (t.data < np.inf)))
    if bad.size:
        n, i, j, v = (a[bad[0]] for a in t.entries())
        raise ValueError(f"level {n}, edge ({i},{j}): conductance "
                         f"{v.item()} is not positive and finite")
    c = d.degrees
    tiny = np.finfo(float).tiny
    bad = np.flatnonzero(~((c >= tiny) & (c <= 1.0 / tiny)))
    if bad.size:
        n, x = vertex_at(d, bad[0])
        if c[bad[0]] == 0:
            raise ValueError(f"isolated vertex at level {n}, index {x} (c(x) = 0)")
        raise ValueError(f"vertex at level {n}, index {x}: c(x) = {c[bad[0]]} "
                         f"or 1/c(x) is not a finite normal double")
    return c


def check_finite(d: Diagram, values: np.ndarray, first: int = 0) -> None:
    """Raise ValueError at the first of values that is not finite; they are
    numbered as the vertices of d.table, from level first's first."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        n, i = vertex_at(d, d.table.offsets[first] + bad[0])
        raise ValueError(f"value {values[bad[0]]} at ({n},{i}) is not finite")


def laplacian(d: Diagram, first: int, last: int) -> LevelMatrix:
    """Delta = c(I - P)'s rows of levels first..last-1 as one LevelMatrix of
    shape (offsets[last], offsets[last + 1]), numbered as the vertices of
    d.table (the other rows are empty).  A row holds its parents (-c), its
    c(x) from d.degrees, then its children (-c), so its columns increase;
    the edges up to the parents are grouped by head, the one transposition.
    Raises ValueError where build_level_operators does, on every stored
    level whatever the range.  Built once per system that factors or steps
    them; a sum of P over edges is EdgeTable.edge_sums."""
    c = build_level_operators(d)
    t = d.table
    lo = max(first - 1, 0)
    base, n_rows = t.offsets[first], t.offsets[last]
    up, down = slice(t.starts[lo], t.starts[last - 1]), slice(t.starts[first], t.starts[last])
    by_head = np.argsort(t.head[up], kind="stable")
    parents = np.bincount(t.head[up] - base, minlength=n_rows - base)
    children = np.diff(t.indptr[base:n_rows + 1])
    idx = index_dtype(t.offsets[last + 1], by_head.size + n_rows + down.stop - down.start)
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(parents + 1 + children, out=indptr[base + 1:])
    diag = indptr[base:-1] + parents
    # edge k of a row's run of edges goes k slots past the run's first slot
    at_up = np.repeat(indptr[base:-1] - np.cumsum(parents) + parents, parents)
    at_up += np.arange(by_head.size)
    at_down = np.repeat(diag + 1 - t.indptr[base:n_rows], children)
    at_down += np.arange(down.start, down.stop)
    # in place and in the index dtype: a fresh large array costs its page faults
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=idx)
    data[at_up], indices[at_up] = t.data[up][by_head], t.tail[up][by_head]
    data[at_down], indices[at_down] = t.data[down], t.head[down]
    np.negative(data, out=data)
    data[diag], indices[diag] = c[base:n_rows], np.arange(base, n_rows, dtype=idx)
    return LevelMatrix(data, indices, indptr, (n_rows, t.offsets[last + 1]))


def laplacian_apply(d: Diagram, f: LevelFunction) -> LevelFunction:
    """(Df)_n = D_n f_n - C_{n-1}^T f_{n-1} - C_n f_{n+1}.

    The root is fully determined (no predecessor level exists); level N is
    not.  Raises ValueError where build_level_operators does, and at the
    first value of f that is not finite.
    """
    c = build_level_operators(d)
    f.check_shape(d)
    flat = f.flat()
    check_finite(d, flat)
    child, parent = d.table.edge_sums(0, d.num_levels, flat)
    return LevelFunction.from_flat(d, c * flat - parent - child)


def markov_apply(d: Diagram, f: LevelFunction) -> LevelFunction:
    """(Pf)_n = P->_{n-1} f_{n-1} + P<-_n f_{n+1}, with the same checks;
    level N is not determined."""
    c = build_level_operators(d)
    f.check_shape(d)
    flat = f.flat()
    check_finite(d, flat)
    child, parent = d.table.edge_sums(0, d.num_levels, flat, 1.0 / c)
    return LevelFunction.from_flat(d, parent + child)


def weighted_inner(d: Diagram, u: LevelFunction, v: LevelFunction,
                   up_to_level: Optional[int] = None) -> float:
    """<u, v>_{l2(c)} = sum c(x) u(x) v(x) over levels 0..up_to_level, one
    dot product a level."""
    last = d.num_levels if up_to_level is None else up_to_level
    c, offsets = d.degrees, d.table.offsets
    return float(sum(np.dot(c[offsets[n]:offsets[n + 1]] * u.values[n], v.values[n])
                     for n in range(last + 1)))


@dataclass(frozen=True)
class SpectralBoundReport:
    """Worst observed violations of the P-spectrum bounds and self-adjointness."""
    trials: int
    seed: int
    max_upper_violation: float
    max_lower_violation: float
    max_symmetry_violation: float

    @property
    def max_violation(self) -> float:
        return max(self.max_upper_violation, self.max_lower_violation,
                   self.max_symmetry_violation)


def spectral_bound_check(d: Diagram, trials: int, seed: int) -> SpectralBoundReport:
    """Sample finitely-supported u, v away from the truncation boundary and
    check -|u|^2 <= <u,Pu> <= |u|^2 and <u,Pv> = <Pu,v> in l2(c).

    Violations are normalized: bound violations by |u|^2, symmetry by
    |u| |v|.
    """
    if d.num_levels < 2:
        raise ValueError("need at least two stored levels")
    rng = np.random.Generator(np.random.Philox(key=seed))
    up = low = sym = 0.0
    interior_last = d.num_levels - 1
    for _ in range(trials):
        u = LevelFunction.zeros(d)
        v = LevelFunction.zeros(d)
        for n in range(interior_last + 1):
            u.values[n][:] = rng.standard_normal(d.level_sizes[n])
            v.values[n][:] = rng.standard_normal(d.level_sizes[n])
        pu = markov_apply(d, u)
        pv = markov_apply(d, v)
        nu = weighted_inner(d, u, u, interior_last)
        nv = weighted_inner(d, v, v, interior_last)
        upu = weighted_inner(d, u, pu, interior_last)
        up = max(up, (upu - nu) / nu)
        low = max(low, (-nu - upu) / nu)
        upv = weighted_inner(d, u, pv, interior_last)
        puv = weighted_inner(d, pu, v, interior_last)
        sym = max(sym, abs(upv - puv) / np.sqrt(nu * nv))
    return SpectralBoundReport(trials=trials, seed=seed, max_upper_violation=up,
                               max_lower_violation=low, max_symmetry_violation=sym)
