"""Weighted level-graded diagrams: data model, validation, generators, and
conversion of general graphs to the graded form.

A diagram stores a finite prefix of an infinite graded graph: levels
V_0, ..., V_N with |V_0| = 1 (the root), a conductance matrix C_n between
consecutive levels, and no edges inside a level.  An edge is a stored
conductance, so the 0-1 incidence matrix A_n is the support of C_n.  All
levels' conductances are stored once, in one edge table; validation,
degrees and the generators work on the whole table at once.
Values are immutable after construction and safe to share across threads;
generators are pure functions of their arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from ._matops import EdgeTable, edge_table, stacked_table

# The most edges a generator makes; a larger spec is refused before anything
# is allocated (generating and validating peak at 62-66 bytes an edge).
MAX_EDGES = 2 ** 24


@dataclass(frozen=True, order=True)
class VertexId:
    """Coordinates of a vertex: level n >= 0 and index in [0, |V_n|)."""
    level: int
    index: int

    def __str__(self) -> str:
        return f"({self.level},{self.index})"


@dataclass(frozen=True)
class ExtensionRule:
    """How the stored prefix continues past level N, set by gen_stationary:
    lam and the repeating 0-1 matrix, which closedforms.stationary_formula
    and energy.stationary_energy_criterion read.  A diagram without a known
    rule has extension None.
    """
    lam: float
    matrix: tuple  # rows of A as tuples


@dataclass(frozen=True)
class Violation:
    """A single validation failure: the rule broken, where, and a message."""
    rule: str
    level: int
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] level {self.level}, {self.subject}: {self.message}"


@dataclass(frozen=True)
class Diagram:
    """Finite prefix of an infinite weighted graded diagram.

    The conductances are stored once, in `table` (see _matops.EdgeTable):
    table.level(n) is C_n, of shape |V_n| x |V_{n+1}|, as a LevelMatrix
    view of the table, and the incidence A_n is its structure.
    """
    table: EdgeTable
    extension: Optional[ExtensionRule] = None

    @property
    def level_sizes(self) -> tuple:
        return self.table.sizes

    @property
    def num_levels(self) -> int:
        """Truncation depth N; stored levels are 0..N."""
        return len(self.level_sizes) - 1

    @property
    def total_vertices(self) -> int:
        return int(sum(self.level_sizes))

    @cached_property
    def degrees(self) -> np.ndarray:
        """c(x) of every vertex (read-only), from stored edges only: its
        column sum plus its row sum in the table (EdgeTable.edge_sums), so
        that level n's slice is the column sums of C_{n-1} plus the row sums
        of C_n, bit for bit.  The root has no parents and the last stored
        level no children there, so its c is truncated."""
        out, into = self.table.edge_sums(self.num_levels)
        with np.errstate(over="ignore"):  # build_level_operators refuses an infinite c(x)
            c = into + out
        c.flags.writeable = False
        return c

    def check_vertex(self, v: VertexId) -> None:
        if not (0 <= v.level <= self.num_levels):
            raise ValueError(f"vertex level {v.level} outside stored levels 0..{self.num_levels}")
        if not (0 <= v.index < self.level_sizes[v.level]):
            raise ValueError(f"vertex index {v.index} outside [0, {self.level_sizes[v.level]})")


def make_diagram(level_sizes: Sequence[int], conductance: Sequence, extension=None) -> Diagram:
    """Construct a Diagram from dense or sparse conductance matrices: every
    nonzero conductance is an edge.

    Shapes are checked eagerly; logical invariants are left to validate().
    """
    sizes = tuple(int(s) for s in level_sizes)
    if not sizes or sizes[0] != 1:
        raise ValueError("level_sizes must start with the singleton root level")
    if any(s <= 0 for s in sizes):
        raise ValueError("every level must have at least one vertex")
    if len(conductance) != len(sizes) - 1:
        raise ValueError("need one conductance matrix per consecutive level pair")
    for n, m in enumerate(conductance):
        if np.shape(m) != (sizes[n], sizes[n + 1]):
            raise ValueError(f"conductance[{n}] has shape {np.shape(m)}, "
                             f"expected {(sizes[n], sizes[n + 1])}")
    return Diagram(stacked_table(sizes, conductance), extension)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(d: Diagram) -> list:
    """Check all diagram invariants; returns a list of Violations (empty = valid).

    Reports rather than throws: callers decide how strict to be.  An edge is
    a stored conductance, so there are three rules: every conductance lies in
    (0, inf) (positivity), every vertex above level N has a child (outgoing)
    and every vertex below the root has a parent (incoming).  One pass over
    the edge table; the violations are sorted by level matrix, then rule in
    that order, then entry or vertex.
    """
    t = d.table
    sizes, offsets = t.sizes, t.offsets
    found = []  # (level matrix, rule, index, violation)
    for k in np.flatnonzero(~((t.data > 0) & (t.data < np.inf))):  # levels and rows for these only
        n = int(np.searchsorted(t.starts, k, side="right")) - 1
        found.append((n, 0, k, Violation("positivity", n,
                                         f"edge ({t.tail[k] - offsets[n]},{t.indices[k]})",
                                         f"c={t.data[k]:.12g} on edge (0 < c_xy < inf "
                                         "required exactly on edges)")))
    vertex_level = np.repeat(np.arange(len(sizes)), sizes)
    for v in np.flatnonzero(np.diff(t.indptr) == 0):
        n = int(vertex_level[v])
        found.append((n, 1, v, Violation("outgoing", n, f"vertex {v - offsets[n]}",
                                         "vertex without outgoing edge")))
    parents = np.bincount(t.head, minlength=offsets[-1])
    for v in np.flatnonzero(parents[1:] == 0) + 1:
        n = int(vertex_level[v])
        found.append((n - 1, 2, v, Violation("incoming", n, f"vertex {v - offsets[n]}",
                                             "vertex without incoming edge")))
    found.sort(key=lambda f: f[:3])
    return [f[3] for f in found]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_edges(count: int) -> None:
    if count > MAX_EDGES:
        raise ValueError(f"the spec needs more than MAX_EDGES = {MAX_EDGES} edges")


def _powers(lam: float, depth: int) -> list:
    """lam ** n for n < depth; ValueError unless lam and each power lie in
    (0, inf)."""
    if not 0 < lam < np.inf:
        raise ValueError("lambda must be positive and finite")
    try:
        powers = [lam ** n for n in range(depth)]
    except OverflowError:
        powers = [np.inf]
    if not (0 < min(powers) and max(powers) < np.inf):
        raise ValueError(f"lambda^{depth - 1} is not a positive finite double")
    return powers


def gen_binary_tree(depth: int, lam: float) -> Diagram:
    """Binary tree with level-n edge conductance lam^n.

    Level n has 2^n vertices; row i of C_n carries lam^n at columns 2i, 2i+1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_edges(2 ** (min(depth, 64) + 1) - 2)
    powers = _powers(lam, depth)
    per_level = 2 ** np.arange(1, depth + 1)  # entries of C_n, also |V_{n+1}|
    level = np.repeat(np.arange(depth), per_level)
    cols = np.arange(level.size) - (per_level - 2)[level]
    table = edge_table([1, *per_level], level, cols // 2, cols, np.repeat(powers, per_level))
    return Diagram(table)


def gen_pascal(depth: int, lam: float) -> Diagram:
    """Pascal-lattice diagram: level n has n+1 vertices, bidiagonal incidence,
    C_n = lam^n * A_n."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_edges(depth * (depth + 1))
    powers = _powers(lam, depth)
    per_level = 2 * np.arange(1, depth + 1)
    level = np.repeat(np.arange(depth), per_level)
    k = np.arange(level.size) - level * (level + 1)  # C_n's entries start at n (n + 1)
    table = edge_table(np.arange(1, depth + 2), level, k // 2, k // 2 + k % 2,
                       np.repeat(powers, per_level))
    return Diagram(table)


def gen_stationary(a, depth: int, lam: float) -> Diagram:
    """Repeating diagram: C_n = lam^n * A for n >= 1.

    The repeating structure leaves level 0 unspecified; by convention the
    root connects to every V_1 vertex with unit conductance (C_0 is a row
    of ones).
    """
    a = np.asarray(a, dtype=float)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if ((a != 0) & (a != 1)).any():
        raise ValueError("A must be a 0-1 matrix")
    if (a.sum(axis=1) == 0).any():
        raise ValueError("A has a zero row (vertex without outgoing edge)")
    if (a.sum(axis=0) == 0).any():
        raise ValueError("A has a zero column (unreachable vertex)")
    d = a.shape[0]
    _check_edges(d + (depth - 1) * int(a.sum()))
    sizes = [1] + [d] * depth
    mats = [np.ones((1, d))] + [p * a for p in _powers(lam, depth)[1:]]
    rule = ExtensionRule(lam, tuple(tuple(row) for row in a))
    return make_diagram(sizes, mats, extension=rule)


def gen_bottleneck(profile: Sequence[int], seed: int) -> Diagram:
    """Random 0-1 diagram with the given level sizes and unit conductance.

    Deterministic given (profile, seed).  Every vertex keeps at least one
    outgoing and one incoming edge, so the result always validates.
    """
    profile = [int(s) for s in profile]
    if not profile or profile[0] != 1:
        raise ValueError("profile must start with 1 (the root level)")
    if any(s < 1 for s in profile):
        raise ValueError("all level sizes must be >= 1")
    _check_edges(sum(m * k for m, k in zip(profile, profile[1:])))  # pairs drawn
    rng = np.random.Generator(np.random.Philox(key=seed))
    mats = []
    for n in range(len(profile) - 1):
        m, k = profile[n], profile[n + 1]
        a = (rng.random((m, k)) < 0.5).astype(float)
        # repair empty rows, then the columns left empty, in order, one draw each
        for i in np.flatnonzero(a.sum(axis=1) == 0):
            a[i, rng.integers(k)] = 1.0
        for j in np.flatnonzero(a.sum(axis=0) == 0):
            a[rng.integers(m), j] = 1.0
        mats.append(a)
    return make_diagram(profile, mats)


def gen_ladder(depth: int, c: float = 1.0) -> Diagram:
    """Graded form of the ladder graph rooted at a corner.

    Levels are [1, 2, 2, ...]; within each 2-vertex level, index 0 is the
    rung-side vertex and index 1 the far rail vertex, giving incidence
    [[1,0],[1,1]] between consecutive interior levels.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 < c < np.inf:
        raise ValueError("conductance must be positive and finite")
    _check_edges(3 * depth - 1)
    sizes = [1] + [2] * depth
    mats = [c * np.ones((1, 2))]
    for _ in range(1, depth):
        mats.append(c * np.array([[1.0, 0.0], [1.0, 1.0]]))
    return make_diagram(sizes, mats)


def gen_binary_tree_radial(depth: int, lam: float, split_depth: int) -> Diagram:
    """Exact radial reduction of the deep binary tree.

    Keeps the tree intact through `split_depth`, then collapses each level-
    split_depth vertex's subtree shell by shell: the lumped edge between
    shells m and m+1 carries the summed conductance 2^{m+1-split_depth} *
    lam^m.  Killed-walk quantities among vertices at levels <= split_depth
    agree exactly with the full tree (shell-transitive automorphisms fix
    those vertices and preserve conductances), which the test suite checks
    against the full tree at small depth.
    """
    if not (1 <= split_depth <= depth):
        raise ValueError("need 1 <= split_depth <= depth")
    top = gen_binary_tree(split_depth, lam)
    width = 2 ** split_depth
    _check_edges(top.table.nnz + width * (depth - split_depth))
    powers = _powers(lam, depth)
    sizes = list(top.level_sizes) + [width] * (depth - split_depth)
    level, rows, cols, vals = top.table.entries()
    shells = np.repeat(np.arange(split_depth, depth), width)
    lumped = [2.0 ** (m + 1 - split_depth) * powers[m] for m in range(split_depth, depth)]
    shell = np.tile(np.arange(width), depth - split_depth)  # vertex k to the next shell's k
    table = edge_table(sizes, np.append(level, shells), np.append(rows, shell),
                       np.append(cols, shell), np.append(vals, np.repeat(lumped, width)))
    return Diagram(table)


# ---------------------------------------------------------------------------
# General graphs and conversion
# ---------------------------------------------------------------------------

class GeneralGraph:
    """Undirected locally finite graph with positive edge conductances.

    The edges are the int64 arrays i, j and the float array c, in the order
    given (file order for a parsed graph).  The adjacency is CSR:
    indices[indptr[v]:indptr[v + 1]] are v's neighbours in the order of v's
    incident edges.  No loops or multi-edges; connectivity is checked where
    operations require it.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple]):
        """edges: (i, j) or (i, j, c) tuples; c is 1 when left out."""
        edges = [tuple(e) for e in edges]
        self._build(num_vertices, [int(e[0]) for e in edges], [int(e[1]) for e in edges],
                    [float(e[2]) if len(e) > 2 else 1.0 for e in edges])

    @classmethod
    def from_arrays(cls, num_vertices: int, i, j, c) -> "GeneralGraph":
        """The graph with edges (i[k], j[k]) of conductance c[k]."""
        g = cls.__new__(cls)
        g._build(num_vertices, i, j, c)
        return g

    def _build(self, num_vertices, i, j, c) -> None:
        """Check the edges and store them.  The first bad edge in order
        raises, for the first of: a loop, an end outside the vertex range, a
        conductance outside (0, inf), or a repeat of an earlier edge in
        either orientation."""
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        n = self.num_vertices = int(num_vertices)
        ii, jj = _vertex_ids(i), _vertex_ids(j)
        cc = np.array(c, dtype=float)
        bad = (ii == jj) | (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n) | ~((cc > 0) & (cc < np.inf))
        lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
        order = np.lexsort((hi, lo))    # stable: a pair's edges stay in order
        repeat = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        bad[order[1:][repeat]] = True
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(_edge_error(n, int(i[k]), int(j[k]), float(cc[k])))
        m = ii.size
        ends = np.concatenate([ii, jj])
        order = np.lexsort((np.tile(np.arange(m), 2), ends))
        self.indices = np.concatenate([jj, ii])[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=self.indptr[1:])
        self.i, self.j, self.c = ii, jj, cc
        for a in (self.i, self.j, self.c, self.indices, self.indptr):
            a.flags.writeable = False

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def _gather(self, vs: np.ndarray):
        """The neighbours of the vertices vs, row after row in the order of
        vs, and the bounds of the rows: row k is bounds[k]:bounds[k + 1]."""
        lo = self.indptr[vs]
        count = self.indptr[vs + 1] - lo
        bounds = np.zeros(count.size + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        return self.indices[np.arange(bounds[-1]) + np.repeat(lo - bounds[:-1], count)], bounds

    def bfs_levels(self, root: int) -> list:
        """Vertices grouped by graph distance from root, as int64 arrays in
        discovery order; unreachable vertices are omitted.

        Level by level: the frontier's neighbours in frontier order, less
        the vertices seen before, each at its first occurrence."""
        if not 0 <= root < self.num_vertices:
            raise ValueError(f"root {root} outside vertex range")
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[root] = True
        levels = [np.array([root], dtype=np.int64)]
        while True:
            reached, _ = self._gather(levels[-1])
            reached = reached[~seen[reached]]
            if not reached.size:
                return levels
            _, first = np.unique(reached, return_index=True)
            levels.append(reached[np.sort(first)])
            seen[levels[-1]] = True


def _vertex_ids(values) -> np.ndarray:
    """Vertex ids as int64; one that int64 cannot hold becomes -1, which is
    outside the vertex range as the id itself is."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -2 ** 63 <= v < 2 ** 63 else -1 for v in values], dtype=np.int64)


def _edge_error(n: int, i: int, j: int, c: float) -> str:
    """The message for a bad edge (i, j, c) of a graph on n vertices."""
    if i == j:
        return f"loop at vertex {i}"
    if not (0 <= i < n and 0 <= j < n):
        return f"edge ({i},{j}) outside vertex range"
    if not 0 < c < np.inf:
        return f"edge ({i},{j}) has {'nonpositive' if c <= 0 else 'non-finite'} conductance"
    return f"duplicate edge ({i},{j})"


def _any_in_rows(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether each row bounds[k]:bounds[k + 1] of flags holds a True."""
    total = np.concatenate([[0], np.cumsum(flags)])
    return total[bounds[1:]] > total[bounds[:-1]]


def _level_of(num_vertices: int, levels) -> np.ndarray:
    """Each vertex's level among levels, -1 for a vertex in none."""
    level = np.full(num_vertices, -1, dtype=np.int64)
    level[np.concatenate(levels)] = np.repeat(np.arange(len(levels)), [len(lv) for lv in levels])
    return level


@dataclass(frozen=True)
class LevelingResult:
    """Outcome of the graded-structure test: BFS levels on success, or a
    witness (degree-1 vertex or intra-level edge) on failure."""
    is_graded: bool
    levels: Optional[tuple] = None
    witness: Optional[str] = None


def check_bratteli_structure(g: GeneralGraph, root: int) -> LevelingResult:
    """Decide whether BFS levels from `root` give a graded (diagram) structure.

    Yes requires: no edge joins two vertices at the same distance from the
    root, and every vertex not on the outermost stored sphere has degree >= 2
    (outermost vertices are truncation boundary, their outgoing edges may be
    missing from the stored ball).  The witness of a no is the lowest vertex
    of too small a degree, else the first edge inside a level.
    """
    levels = g.bfs_levels(root)
    if sum(lv.size for lv in levels) != g.num_vertices:
        raise ValueError("graph is disconnected")
    dist = _level_of(g.num_vertices, levels)
    degree = np.diff(g.indptr)
    low = np.flatnonzero((dist < len(levels) - 1) & (degree < 2))
    if low.size:
        return LevelingResult(False, witness=f"vertex {low[0]} has degree {degree[low[0]]}")
    inside = np.flatnonzero(dist[g.i] == dist[g.j])
    if inside.size:
        i, j = g.i[inside[0]], g.j[inside[0]]
        return LevelingResult(False, witness=f"intra-level edge ({i},{j}) at distance {dist[i]}")
    return LevelingResult(True, levels=tuple(tuple(lv.tolist()) for lv in levels))


def diagram_from_graph(g: GeneralGraph, root: int) -> Diagram:
    """Convert a graded general graph into a Diagram using BFS levels."""
    res = check_bratteli_structure(g, root)
    if not res.is_graded:
        raise ValueError(f"graph is not graded from root {root}: {res.witness}")
    return _diagram_from_levels(g, [np.array(lv, dtype=np.int64) for lv in res.levels])


def _diagram_from_levels(g: GeneralGraph, levels: list) -> Diagram:
    """The subgraph of g induced on the given levels (int64 arrays, a
    vertex's index in the diagram is its place in its level), keeping only
    edges between consecutive levels."""
    sizes = [lv.size for lv in levels]
    level = _level_of(g.num_vertices, levels)
    place = np.empty(g.num_vertices, dtype=np.int64)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # of each vertex's level
    place[np.concatenate(levels)] = np.arange(first.size) - first
    li, lj = level[g.i], level[g.j]
    down = (li >= 0) & (lj == li + 1)
    up = (lj >= 0) & (li == lj + 1)
    keep = np.flatnonzero(down | up)
    down = down[keep]
    parent = np.where(down, g.i[keep], g.j[keep])
    child = np.where(down, g.j[keep], g.i[keep])
    order = np.lexsort((place[child], place[parent], level[parent]))
    parent, child = parent[order], child[order]
    table = edge_table(sizes, level[parent], place[parent], place[child], g.c[keep][order])
    return Diagram(table)


@dataclass(frozen=True)
class ExtractionResult:
    """Maximal graded subgraph containing a ray, with certification metadata.

    maximal_within_ball is True when every omitted vertex of the stored ball
    was certified unaddable (an edge into a kept same-distance vertex, or no
    neighbor in the previous kept level); uncertified lists the exceptions.
    """
    diagram: Diagram
    kept: tuple           # kept[n] = tuple of original vertex ids at level n
    maximal_within_ball: bool
    uncertified: tuple


def extract_maximal_bratteli(g: GeneralGraph, ray: Sequence[int]) -> ExtractionResult:
    """Build the maximal graded subgraph of g that contains the given ray.

    Follows the inductive sphere construction: candidates for level n are
    the unused distance-n neighbors of the kept level n-1; candidates with an
    edge to another candidate are dropped, except the ray vertex, which is
    always kept (every candidate adjacent to it is dropped, so the kept set
    stays independent).  Childless non-ray vertices are pruned so the stored
    prefix validates; maximality is certified only within the stored ball.
    Each level is a few masks over the gathered neighbours of its vertices.
    """
    ray = [int(v) for v in ray]
    if not ray:
        raise ValueError("ray must contain at least one vertex")
    if len(set(ray)) != len(ray):
        raise ValueError("ray is not self-avoiding")
    ids = _vertex_ids(ray)
    inside = (ids >= 0) & (ids < g.num_vertices)
    nbrs, bounds = g._gather(np.where(inside, ids, 0)[:-1])
    step = _any_in_rows(nbrs == np.repeat(ids[1:], np.diff(bounds)), bounds)
    bad = np.flatnonzero(~(step & inside[:-1] & inside[1:]))
    if bad.size:
        k = bad[0]
        raise ValueError(f"ray step ({ray[k]},{ray[k + 1]}) is not an edge")

    spheres = g.bfs_levels(ray[0])
    dist = _level_of(g.num_vertices, spheres)
    levels = [spheres[0]]
    in_cand = np.zeros(g.num_vertices, dtype=bool)
    for n in range(1, len(spheres)):
        # a vertex at distance n is in no kept level yet
        reached, _ = g._gather(levels[-1])
        cand = np.unique(reached[dist[reached] == n])
        in_cand[cand] = True
        ray_v = ray[n] if n < len(ray) else -1
        if ray_v >= 0 and not in_cand[ray_v]:
            raise ValueError(f"ray vertex {ray_v} unreachable at level {n}; ray not level-compatible")
        nbrs, bounds = g._gather(cand)
        keep = cand[(cand == ray_v) | ~_any_in_rows(in_cand[nbrs], bounds)]
        in_cand[cand] = False
        if not keep.size:
            break
        levels.append(keep)

    # prune childless interior vertices (ray vertices always have the next
    # ray vertex as a child while the ray lasts); no level empties, since
    # each kept vertex of level n + 1 has a parent in level n
    kept_at = _level_of(g.num_vertices, levels)
    for n in range(len(levels) - 2, 0, -1):
        nbrs, bounds = g._gather(levels[n])
        has_child = _any_in_rows(kept_at[nbrs] == n + 1, bounds)
        kept_at[levels[n][~has_child]] = -1
        levels[n] = levels[n][has_child]

    # an omitted sphere vertex is certified by an edge into its own kept
    # level or by no edge into the level above
    sphere = np.concatenate(spheres[1:len(levels)] or [np.empty(0, dtype=np.int64)])
    at = np.repeat(np.arange(1, len(levels)), [lv.size for lv in spheres[1:len(levels)]])
    omitted = kept_at[sphere] != at
    sphere, at = sphere[omitted], at[omitted]
    nbrs, bounds = g._gather(sphere)
    nbr_at, own = kept_at[nbrs], np.repeat(at, np.diff(bounds))
    uncertified = sphere[~_any_in_rows(nbr_at == own, bounds)
                         & _any_in_rows(nbr_at == own - 1, bounds)]
    d = _diagram_from_levels(g, levels)
    return ExtractionResult(diagram=d, kept=tuple(tuple(lv.tolist()) for lv in levels),
                            maximal_within_ball=not uncertified.size,
                            uncertified=tuple(uncertified.tolist()))
