"""Weighted level-graded diagrams: data model, validation, generators, and
conversion of general graphs to the graded form.

A diagram stores a finite prefix of an infinite graded graph: levels
V_0, ..., V_N with |V_0| = 1 (the root), a 0-1 incidence matrix A_n and a
nonnegative conductance matrix C_n between consecutive levels, and no edges
inside a level.  Values are immutable after construction and safe to share
across threads; generators are pure functions of their arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ._matops import (
    as_level,
    col_sums,
    incidence_of,
    level_matrix,
    row_sums,
    stored_entries,
    values_at,
)


@dataclass(frozen=True, order=True)
class VertexId:
    """Coordinates of a vertex: level n >= 0 and index in [0, |V_n|)."""
    level: int
    index: int

    def __str__(self) -> str:
        return f"({self.level},{self.index})"


@dataclass(frozen=True)
class ExtensionRule:
    """How the stored prefix continues past level N.

    kind is one of "tree", "pascal", "stationary", "explicit"; stationary
    rules carry the repeating 0-1 matrix.  "explicit" means no rule is known
    and the prefix cannot be extended lazily.
    """
    kind: str
    lam: float = 1.0
    matrix: Optional[tuple] = None  # stationary only: rows of A as tuples


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

    incidence[n] / conductance[n] have shape |V_n| x |V_{n+1}| and are
    LevelMatrix values at every width: read-only canonical CSR (see
    _matops), with `nnz`, `toarray()` and `@` on a vector.  A derived
    incidence shares its conductance's structure.
    """
    level_sizes: tuple
    incidence: tuple
    conductance: tuple
    extension: Optional[ExtensionRule] = None

    @property
    def num_levels(self) -> int:
        """Truncation depth N; stored levels are 0..N."""
        return len(self.level_sizes) - 1

    @property
    def total_vertices(self) -> int:
        return int(sum(self.level_sizes))

    def degree_vector(self, n: int) -> np.ndarray:
        """Total conductance c(x) for x in V_n from stored edges only.

        The root has no predecessor level, so c(o) uses outgoing edges; the
        last stored level has no successor edges, so its c is truncated.
        """
        c = np.zeros(self.level_sizes[n])
        if n > 0:
            c += col_sums(self.conductance[n - 1])
        if n < self.num_levels:
            c += row_sums(self.conductance[n])
        return c

    def check_vertex(self, v: VertexId) -> None:
        if not (0 <= v.level <= self.num_levels):
            raise ValueError(f"vertex level {v.level} outside stored levels 0..{self.num_levels}")
        if not (0 <= v.index < self.level_sizes[v.level]):
            raise ValueError(f"vertex index {v.index} outside [0, {self.level_sizes[v.level]})")

    def edges(self) -> Iterable[tuple]:
        """Yield (n, i, j, c) over all stored edges."""
        for n, cm in enumerate(self.conductance):
            rows, cols, vals = stored_entries(cm)
            for i, j, c in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                yield n, i, j, c


def make_diagram(level_sizes: Sequence[int], conductance: Sequence, extension=None,
                 incidence: Sequence = None) -> Diagram:
    """Construct a Diagram from dense or sparse conductance matrices,
    deriving incidence unless it is given: every nonzero conductance is an edge.

    Shapes are checked eagerly; logical invariants are left to validate().
    """
    sizes = tuple(int(s) for s in level_sizes)
    if not sizes or sizes[0] != 1:
        raise ValueError("level_sizes must start with the singleton root level")
    if any(s <= 0 for s in sizes):
        raise ValueError("every level must have at least one vertex")
    if len(conductance) != len(sizes) - 1:
        raise ValueError("need one conductance matrix per consecutive level pair")
    given = () if incidence is None else incidence
    for name, ms in (("conductance", conductance), ("incidence", given)):
        for n, m in enumerate(ms):
            if np.shape(m) != (sizes[n], sizes[n + 1]):
                raise ValueError(f"{name}[{n}] has shape {np.shape(m)}, "
                                 f"expected {(sizes[n], sizes[n + 1])}")
    mats = [as_level(cm, keep_zeros=incidence is not None) for cm in conductance]
    incs = ([incidence_of(cm) for cm in mats] if incidence is None
            else [as_level(a) for a in incidence])
    return Diagram(level_sizes=sizes, incidence=tuple(incs),
                   conductance=tuple(mats), extension=extension)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(d: Diagram) -> list:
    """Check all diagram invariants; returns a list of Violations (empty = valid).

    Reports rather than throws: callers decide how strict to be.
    """
    out = []
    if d.level_sizes[0] != 1:
        out.append(Violation("root", 0, "V_0", f"|V_0| = {d.level_sizes[0]}, expected 1"))
    for n in range(d.num_levels):
        a = d.incidence[n]
        c = d.conductance[n]
        ar, ac, av = stored_entries(a)
        cr, cc, cv = stored_entries(c)
        bad = np.flatnonzero((av != 0) & (av != 1))
        if bad.size and max(a.shape) <= 4096:
            k = bad[0]
            out.append(Violation("zero-one", n, f"edge ({ar[k]},{ac[k]})",
                                 f"incidence entry {av[k].item()} is not 0 or 1"))
        elif bad.size:
            out.append(Violation("zero-one", n, "incidence", "entries outside {0,1}"))
        # conductance support must match incidence exactly and be positive and finite there
        for k in np.flatnonzero(values_at(a, cr, cc) == 0):
            out.append(Violation("support", n, f"edge ({cr[k]},{cc[k]})",
                                 f"conductance {cv[k].item()} on a non-edge"))
        on_edges = values_at(c, ar, ac)
        for k in np.flatnonzero(~((on_edges > 0) & (on_edges < np.inf))):
            out.append(Violation("positivity", n, f"edge ({ar[k]},{ac[k]})",
                                 f"c={on_edges[k]:.12g} on edge (0 < c_xy < inf required "
                                 "exactly on edges)"))
        for i in np.flatnonzero(row_sums(a) == 0):
            out.append(Violation("outgoing", n, f"vertex {int(i)}",
                                 "vertex without outgoing edge"))
        for j in np.flatnonzero(col_sums(a) == 0):
            out.append(Violation("incoming", n + 1, f"vertex {int(j)}",
                                 "vertex without incoming edge"))
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_binary_tree(depth: int, lam: float) -> Diagram:
    """Binary tree with level-n edge conductance lam^n.

    Level n has 2^n vertices; row i of C_n carries lam^n at columns 2i, 2i+1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    sizes = [2 ** n for n in range(depth + 1)]
    mats = []
    for n in range(depth):
        m, k = sizes[n], sizes[n + 1]
        mats.append(level_matrix((m, k), np.repeat(np.arange(m), 2), np.arange(k),
                                 np.full(k, lam ** n)))
    return make_diagram(sizes, mats, extension=ExtensionRule("tree", lam))


def gen_pascal(depth: int, lam: float) -> Diagram:
    """Pascal-lattice diagram: level n has n+1 vertices, bidiagonal incidence,
    C_n = lam^n * A_n."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    sizes = [n + 1 for n in range(depth + 1)]
    mats = []
    for n in range(depth):
        rows = np.repeat(np.arange(n + 1), 2)
        cols = rows + np.tile([0, 1], n + 1)
        mats.append(level_matrix((n + 1, n + 2), rows, cols, np.full(rows.size, lam ** n)))
    return make_diagram(sizes, mats, extension=ExtensionRule("pascal", lam))


def gen_stationary(a, depth: int, lam: float, root_row: Optional[np.ndarray] = None) -> Diagram:
    """Repeating diagram: C_n = lam^n * A for n >= 1.

    The repeating structure leaves level 0 unspecified; by convention the
    root connects to every V_1 vertex with unit conductance (configurable
    via root_row).
    """
    a = np.asarray(a, dtype=float)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if ((a != 0) & (a != 1)).any():
        raise ValueError("A must be a 0-1 matrix")
    if (a.sum(axis=1) == 0).any():
        raise ValueError("A has a zero row (vertex without outgoing edge)")
    if (a.sum(axis=0) == 0).any():
        raise ValueError("A has a zero column (unreachable vertex)")
    d = a.shape[0]
    if root_row is None:
        root_row = np.ones((1, d))
    else:
        root_row = np.asarray(root_row, dtype=float).reshape(1, d)
        if (root_row <= 0).any():
            raise ValueError("root_row must be strictly positive")
    sizes = [1] + [d] * depth
    mats = [root_row] + [lam ** n * a for n in range(1, depth)]
    rule = ExtensionRule("stationary", lam, tuple(tuple(row) for row in a))
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
    rng = np.random.Generator(np.random.Philox(key=seed))
    mats = []
    for n in range(len(profile) - 1):
        m, k = profile[n], profile[n + 1]
        a = (rng.random((m, k)) < 0.5).astype(float)
        # repair empty rows/columns deterministically
        for i in range(m):
            if a[i].sum() == 0:
                a[i, rng.integers(k)] = 1.0
        for j in range(k):
            if a[:, j].sum() == 0:
                a[rng.integers(m), j] = 1.0
        rows, cols = np.nonzero(a)
        mats.append(level_matrix((m, k), rows, cols, a[rows, cols]))
    return make_diagram(profile, mats, extension=ExtensionRule("explicit"))


def gen_ladder(depth: int, c: float = 1.0) -> Diagram:
    """Graded form of the ladder graph rooted at a corner.

    Levels are [1, 2, 2, ...]; within each 2-vertex level, index 0 is the
    rung-side vertex and index 1 the far rail vertex, giving incidence
    [[1,0],[1,1]] between consecutive interior levels.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if c <= 0:
        raise ValueError("conductance must be positive")
    sizes = [1] + [2] * depth
    mats = [c * np.ones((1, 2))]
    for _ in range(1, depth):
        mats.append(c * np.array([[1.0, 0.0], [1.0, 1.0]]))
    return make_diagram(sizes, mats, extension=ExtensionRule("explicit"))


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
    if lam <= 0:
        raise ValueError("lambda must be positive")
    top = gen_binary_tree(split_depth, lam) if split_depth >= 1 else None
    sizes = [2 ** n for n in range(split_depth + 1)]
    mats = [top.conductance[n] for n in range(split_depth)]
    width = 2 ** split_depth
    for m in range(split_depth, depth):
        sizes.append(width)
        lumped = (2.0 ** (m + 1 - split_depth)) * (lam ** m)
        mats.append(level_matrix((width, width), np.arange(width), np.arange(width),
                                 np.full(width, lumped)))
    return make_diagram(sizes, mats, extension=ExtensionRule("explicit"))


def extend_to(d: Diagram, depth: int) -> Diagram:
    """Regenerate a deeper prefix using the diagram's extension rule."""
    if depth <= d.num_levels:
        return d
    rule = d.extension
    if rule is None or rule.kind == "explicit":
        raise ValueError("diagram has no extension rule; cannot extend the stored prefix")
    if rule.kind == "tree":
        return gen_binary_tree(depth, rule.lam)
    if rule.kind == "pascal":
        return gen_pascal(depth, rule.lam)
    if rule.kind == "stationary":
        return gen_stationary(np.array(rule.matrix), depth, rule.lam)
    raise ValueError(f"unknown extension rule {rule.kind!r}")


# ---------------------------------------------------------------------------
# General graphs and conversion
# ---------------------------------------------------------------------------

class GeneralGraph:
    """Undirected locally finite graph with positive edge conductances.

    No loops or multi-edges; connectivity is checked where operations
    require it.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple]):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = int(num_vertices)
        self.adj: list = [dict() for _ in range(self.num_vertices)]
        self.edges = []
        for e in edges:
            if len(e) == 2:
                i, j, c = int(e[0]), int(e[1]), 1.0
            else:
                i, j, c = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < self.num_vertices and 0 <= j < self.num_vertices):
                raise ValueError(f"edge ({i},{j}) outside vertex range")
            if not 0 < c < np.inf:
                kind = "nonpositive" if c <= 0 else "non-finite"
                raise ValueError(f"edge ({i},{j}) has {kind} conductance")
            if j in self.adj[i]:
                raise ValueError(f"duplicate edge ({i},{j})")
            self.adj[i][j] = c
            self.adj[j][i] = c
            self.edges.append((i, j, c))

    def neighbors(self, i: int) -> dict:
        return self.adj[i]

    def bfs_levels(self, root: int) -> list:
        """Vertices grouped by graph distance from root; unreachable vertices
        are omitted."""
        dist = {root: 0}
        order = [[root]]
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            if nxt:
                order.append(nxt)
            frontier = nxt
        return order

    def is_connected(self) -> bool:
        seen = sum(len(lv) for lv in self.bfs_levels(0))
        return seen == self.num_vertices


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
    missing from the stored ball).
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    levels = g.bfs_levels(root)
    dist = {}
    for n, lv in enumerate(levels):
        for v in lv:
            dist[v] = n
    max_d = len(levels) - 1
    for v in range(g.num_vertices):
        if dist[v] < max_d and len(g.adj[v]) < 2:
            return LevelingResult(False, witness=f"vertex {v} has degree {len(g.adj[v])}")
    for i, j, _ in g.edges:
        if dist[i] == dist[j]:
            return LevelingResult(False, witness=f"intra-level edge ({i},{j}) at distance {dist[i]}")
    return LevelingResult(True, levels=tuple(tuple(lv) for lv in levels))


def diagram_from_graph(g: GeneralGraph, root: int) -> Diagram:
    """Convert a graded general graph into a Diagram using BFS levels."""
    res = check_bratteli_structure(g, root)
    if not res.is_graded:
        raise ValueError(f"graph is not graded from root {root}: {res.witness}")
    levels = [list(lv) for lv in res.levels]
    return _diagram_from_levels(g, levels)


def _diagram_from_levels(g: GeneralGraph, levels: list) -> Diagram:
    """The subgraph of g induced on the given levels, keeping only edges
    between consecutive levels."""
    sizes = [len(lv) for lv in levels]
    index = {}
    for n, lv in enumerate(levels):
        for k, v in enumerate(lv):
            index[v] = (n, k)
    entries = [([], [], []) for _ in range(len(sizes) - 1)]
    for i, j, c in g.edges:
        if i in index and j in index:
            (ni, ki), (nj, kj) = index[i], index[j]
            if ni == nj + 1:
                (ni, ki), (nj, kj) = (nj, kj), (ni, ki)
            if ni + 1 == nj:
                rows, cols, vals = entries[ni]
                rows.append(ki)
                cols.append(kj)
                vals.append(c)
    mats = [level_matrix((sizes[n], sizes[n + 1]), *entries[n]) for n in range(len(sizes) - 1)]
    return make_diagram(sizes, mats, extension=ExtensionRule("explicit"))


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
    """
    ray = [int(v) for v in ray]
    if not ray:
        raise ValueError("ray must contain at least one vertex")
    if len(set(ray)) != len(ray):
        raise ValueError("ray is not self-avoiding")
    for a, b in zip(ray, ray[1:]):
        if b not in g.adj[a]:
            raise ValueError(f"ray step ({a},{b}) is not an edge")

    spheres = g.bfs_levels(ray[0])
    dist = {}
    for n, lv in enumerate(spheres):
        for v in lv:
            dist[v] = n

    levels = [[ray[0]]]
    used = {ray[0]}
    for n in range(1, len(spheres)):
        prev = levels[-1]
        cand = set()
        for y in prev:
            for z in g.adj[y]:
                if z not in used and dist.get(z) == n:
                    cand.add(z)
        ray_v = ray[n] if n < len(ray) else None
        if ray_v is not None and ray_v not in cand:
            raise ValueError(f"ray vertex {ray_v} unreachable at level {n}; ray not level-compatible")
        keep = []
        for z in sorted(cand):
            if z == ray_v:
                keep.append(z)
                continue
            if any(w in cand for w in g.adj[z]) or (ray_v is not None and ray_v in g.adj[z]):
                continue
            keep.append(z)
        if not keep:
            break
        levels.append(keep)
        used.update(keep)

    # prune childless interior vertices (ray vertices always have the next
    # ray vertex as a child while the ray lasts)
    for n in range(len(levels) - 2, 0, -1):
        nxt = set(levels[n + 1])
        levels[n] = [v for v in levels[n] if any(u in nxt for u in g.adj[v])]
    levels = [lv for lv in levels if lv]

    kept_at = [set(lv) for lv in levels]
    uncertified = []
    for n in range(1, len(levels)):
        omitted = [v for v in spheres[n] if v not in kept_at[n]] if n < len(spheres) else []
        for v in omitted:
            to_same = any(u in kept_at[n] for u in g.adj[v])
            prev = kept_at[n - 1]
            has_parent = any(u in prev for u in g.adj[v])
            if not to_same and has_parent:
                uncertified.append(v)
    d = _diagram_from_levels(g, levels)
    return ExtractionResult(diagram=d, kept=tuple(tuple(lv) for lv in levels),
                            maximal_within_ball=not uncertified,
                            uncertified=tuple(uncertified))

