"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from the raw edge data with plain
dense numpy, deliberately avoiding the package's own solver paths, so the
library can be checked against an implementation that shares no code with
it beyond the Diagram container.  The replays write out the exact solves'
factorizations and refinement rules, on systems they build themselves.
`broom` builds the one-wide-row diagram that the walk-table and cost tests
share.
"""
import bisect
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bharm.diagram import Diagram, VertexId, make_diagram


def broom(width) -> Diagram:
    """Levels 1, 1, width, width: the level-1 vertex joins every vertex of
    level 2, and each of those has one child."""
    return make_diagram([1, 1, width, width], [np.ones((1, 1)), np.ones((1, width)),
                                               sp.identity(width, format="csr")])


def level_matrices(d: Diagram) -> list:
    """C_0, ..., C_{N-1}, the level views of d's edge table."""
    return [d.table.level(n) for n in range(d.num_levels)]


def flat_offsets(d: Diagram, upto: int):
    sizes = d.level_sizes[: upto + 1]
    off = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return off


def dense_adjacency(d: Diagram, upto: int = None) -> np.ndarray:
    """Symmetric conductance matrix over all vertices of levels 0..upto."""
    upto = d.num_levels if upto is None else upto
    off = flat_offsets(d, upto)
    n = off[-1]
    a = np.zeros((n, n))
    for lvl in range(upto):
        cm = d.table.level(lvl).toarray()
        for i in range(cm.shape[0]):
            for j in range(cm.shape[1]):
                if cm[i, j] > 0:
                    a[off[lvl] + i, off[lvl + 1] + j] = cm[i, j]
                    a[off[lvl + 1] + j, off[lvl] + i] = cm[i, j]
    return a


def dense_laplacian(d: Diagram, upto: int = None) -> np.ndarray:
    a = dense_adjacency(d, upto)
    return np.diag(a.sum(axis=1)) - a


def brute_energy(d: Diagram, f) -> float:
    """Plain loop over edges: sum c (f(x)-f(y))^2."""
    total = 0.0
    for lvl in range(d.num_levels):
        cm = d.table.level(lvl).toarray()
        for i in range(cm.shape[0]):
            for j in range(cm.shape[1]):
                if cm[i, j] > 0:
                    total += cm[i, j] * (f.values[lvl][i] - f.values[lvl + 1][j]) ** 2
    return total


def stacked_constraint_matrix(d: Diagram, upto: int) -> np.ndarray:
    """Constraint system on (f_1, ..., f_upto) with f_0 = 0: the root
    equation plus harmonicity at every vertex of levels 1..upto-1."""
    sizes = d.level_sizes
    nvar = int(sum(sizes[1: upto + 1]))
    off = np.concatenate([[0], np.cumsum(sizes[1: upto + 1])]).astype(int)
    cms = [c.toarray() for c in level_matrices(d)]
    blocks = []
    root = np.zeros((1, nvar))
    root[0, off[0]: off[1]] = cms[0][0]
    blocks.append(root)
    for n in range(1, upto):
        degs = ref_degrees(d, n)
        blk = np.zeros((sizes[n], nvar))
        if n >= 2:
            blk[:, off[n - 2]: off[n - 1]] += cms[n - 1].T
        blk[:, off[n - 1]: off[n]] -= np.diag(degs)
        blk[:, off[n]: off[n + 1]] += cms[n]
        blocks.append(blk)
    return np.vstack(blocks)


def stacked_nullity(d: Diagram, upto: int) -> int:
    m = stacked_constraint_matrix(d, upto)
    return m.shape[1] - int(np.linalg.matrix_rank(m, tol=1e-10))


def brute_green(d: Diagram, boundary: int):
    """G, F, U of the killed chain from dense linear algebra.

    G = (I - P_int)^{-1}; F columns by making the target absorbing and
    solving the dense hitting system; U by the one-step decomposition.
    """
    off = flat_offsets(d, boundary - 1)
    a = dense_adjacency(d, boundary)
    # a covers levels 0..boundary; interior block plus coupling
    n_int = int(off[-1])
    degs = a.sum(axis=1)[:n_int]
    p_int = a[:n_int, :n_int] / degs[:, None]
    g = np.linalg.inv(np.eye(n_int) - p_int)
    f = np.zeros((n_int, n_int))
    for y in range(n_int):
        keep = [k for k in range(n_int) if k != y]
        sub = np.eye(len(keep)) - p_int[np.ix_(keep, keep)]
        rhs = p_int[np.ix_(keep, [y])].ravel()
        h = np.linalg.solve(sub, rhs)
        f[keep, y] = h
        f[y, y] = 1.0
    u = np.array([float(p_int[x] @ f[:, x]) for x in range(n_int)])
    return g, f, u, off


def flat_of(d: Diagram, v: VertexId, off) -> int:
    return int(off[v.level] + v.index)


def walk_tables(d: Diagram, absorb: int):
    """Flat offsets, neighbour lists (parents, then children) and the
    cumulative transition probabilities np.cumsum(w) / w.sum() of every
    vertex above the absorbing level, built edge by edge."""
    off = flat_offsets(d, absorb)
    nbrs = [[] for _ in range(off[-1])]
    wts = [[] for _ in range(off[-1])]
    for lvl in range(absorb):
        cm = d.table.level(lvl).toarray()
        for i, j in zip(*np.nonzero(cm)):
            a, b = off[lvl] + i, off[lvl + 1] + j
            nbrs[a].append(b)
            wts[a].append(cm[i, j])
            if lvl + 1 < absorb:
                nbrs[b].append(a)
                wts[b].append(cm[i, j])
    cum = [list(np.cumsum(w) / np.sum(w)) for w in wts[:off[absorb]]]
    return off, nbrs, cum


def walk_path(tables, start: int, seed: int, walk: int, max_steps: int) -> list:
    """One killed walk, drawing from its own
    Generator(Philox(key=seed mod 2**64, counter=[0, 0, walk, 0])): the
    vertices after each step, up to absorption or the step cap.  The counter
    is a uint64 array: as a Python list, a walk word of 2**63 or more would
    give numpy's Philox another stream."""
    off, nbrs, cum = tables
    rng = np.random.Generator(np.random.Philox(
        key=seed % 2 ** 64, counter=np.array([0, 0, walk, 0], dtype=np.uint64)))
    path, v = [], start
    while len(path) < max_steps and v < off[-2]:
        u = rng.random()
        v = nbrs[v][bisect.bisect_left(cum[v], u)]
        path.append(v)
    return path


def ref_validate(d: Diagram) -> list:
    """validate()'s lines, level matrix by level matrix: each stored entry
    of C_n outside (0, inf) in row-major order, then each vertex of level n
    without a child, then each vertex of level n + 1 without a parent."""
    out = []
    for n in range(d.num_levels):
        m = d.table.level(n)
        has_child, has_parent = [False] * m.shape[0], [False] * m.shape[1]
        for i in range(m.shape[0]):
            for k in range(m.indptr[i], m.indptr[i + 1]):
                j, c = int(m.indices[k]), float(m.data[k])
                has_child[i] = has_parent[j] = True
                if not 0 < c < math.inf:
                    out.append(f"[positivity] level {n}, edge ({i},{j}): c={c:.12g} on edge "
                               "(0 < c_xy < inf required exactly on edges)")
        out += [f"[outgoing] level {n}, vertex {i}: vertex without outgoing edge"
                for i, ok in enumerate(has_child) if not ok]
        out += [f"[incoming] level {n + 1}, vertex {j}: vertex without incoming edge"
                for j, ok in enumerate(has_parent) if not ok]
    return out


def ref_degrees(d: Diagram, n: int) -> np.ndarray:
    """c(x) on level n: the column sums of C_{n-1} plus the row sums of C_n."""
    c = np.zeros(d.level_sizes[n])
    if n > 0:
        m = d.table.level(n - 1)
        c = c + np.bincount(m.indices, m.data, minlength=m.shape[1])
    if n < d.num_levels:
        m = d.table.level(n)
        c = c + np.bincount(m.rows(), m.data, minlength=m.shape[0])
    return c


def ref_p_back(d: Diagram, n: int, g) -> np.ndarray:
    """P<-_n g off the level matrix C_n: sum over x's children z of
    (c_xz / c(x)) g(z)."""
    m = d.table.level(n)
    rows, cols, c = m.rows(), m.indices, m.data
    return np.bincount(rows, c * (1.0 / ref_degrees(d, n))[rows] * g[cols],
                       minlength=m.shape[0])


def ref_p_fwd(d: Diagram, n: int, g) -> np.ndarray:
    """P->_{n-1} g off the level matrix C_{n-1}: sum over y's parents x of
    (c_xy / c(y)) g(x)."""
    m = d.table.level(n - 1)
    rows, cols, c = m.rows(), m.indices, m.data
    return np.bincount(cols, c * (1.0 / ref_degrees(d, n))[cols] * g[rows],
                       minlength=m.shape[1])


def ref_matvec(m, v) -> np.ndarray:
    """m @ v for a level matrix m, in the order of scipy's CSR product."""
    return np.bincount(m.rows(), m.data * v.take(m.indices),
                       minlength=m.shape[0]).astype(float, copy=False)


def ref_rmatvec(m, v) -> np.ndarray:
    """m.T @ v for a level matrix m."""
    return np.bincount(m.indices, m.data * v[m.rows()], minlength=m.shape[1])


def ref_laplacian(d: Diagram, values) -> list:
    """(Df)_n = D_n f_n - C_{n-1}^T f_{n-1} - C_n f_{n+1}, level by level."""
    out = []
    for n in range(d.num_levels + 1):
        v = ref_degrees(d, n) * values[n]
        if n > 0:
            v = v - ref_rmatvec(d.table.level(n - 1), values[n - 1])
        if n < d.num_levels:
            v = v - ref_matvec(d.table.level(n), values[n + 1])
        out.append(v)
    return out


def ref_markov(d: Diagram, values) -> list:
    """(Pf)_n = P->_{n-1} f_{n-1} + P<-_n f_{n+1}, level by level."""
    out = []
    for n in range(d.num_levels + 1):
        v = np.zeros(d.level_sizes[n])
        if n > 0:
            v += ref_p_fwd(d, n, values[n - 1])
        if n < d.num_levels:
            v += ref_p_back(d, n, values[n + 1])
        out.append(v)
    return out


def ref_chain_residuals(d: Diagram, depth: int, rhs, values) -> list:
    """max |P<-_n f_{n+1} - (f_n - P->_{n-1} f_{n-1} - rhs_n / c_n)| for the
    levels 0..depth-1, level by level."""
    out = []
    for n in range(depth):
        g = values[n].copy()
        if n > 0:
            g -= ref_p_fwd(d, n, values[n - 1])
        g -= rhs[n] / ref_degrees(d, n)
        r = ref_p_back(d, n, values[n + 1]) - g
        out.append(float(np.abs(r).max()))
    return out


def ref_p_row(d: Diagram, v: VertexId, values) -> float:
    """(P f)(v), summed exactly rounded from v's column of C_{n-1} and row
    of C_n."""
    n, x = v.level, v.index
    inv, terms = 1.0 / ref_degrees(d, n)[x], []
    if n > 0:
        m = d.table.level(n - 1).toarray()
        terms += [m[i, x] * inv * values[n - 1][i] for i in np.flatnonzero(m[:, x])]
    if n < d.num_levels:
        m = d.table.level(n).toarray()
        terms += [m[x, j] * inv * values[n + 1][j] for j in np.flatnonzero(m[x])]
    return math.fsum(terms)


# --- replay of the solves' arithmetic -------------------------------------------
# The exact solves' bits rest on each caller's refinement rule, which sets
# SuperLU's options, so these write them out step by step, on systems built
# from dense arrays: the Dirichlet solves and the recursion.

def ref_delta_rows(d: Diagram, last: int) -> np.ndarray:
    """Delta's rows of levels 0..last-1 on the vertices of levels 0..last,
    entry by entry: -c to each neighbour, c(x) on the diagonal."""
    off = flat_offsets(d, last)
    a = np.zeros((off[last], off[last + 1]))
    for n in range(last):
        cm = d.table.level(n).toarray()
        for i, j in zip(*np.nonzero(cm)):
            u, v = off[n] + i, off[n + 1] + j
            a[u, v] = -cm[i, j]
            if n + 1 < last:
                a[v, u] = -cm[i, j]
    for n in range(last):
        a[range(off[n], off[n + 1]), range(off[n], off[n + 1])] = ref_degrees(d, n)
    return a


def ref_fixed_system(a, fixed, values, source, dropped=()):
    """The free system of rows a with the columns where `fixed` is True set
    to values: the scipy CSR matrix of the rows left with an unknown on the
    free columns, less the rows `dropped`, and its right-hand side, source
    less each row's fixed terms a[r, c] values[c], children (c > r), c(x),
    then parents, each in column order; source as it is when every value is
    0."""
    b = np.array(source[:a.shape[0]], dtype=float)
    for r in range(a.shape[0]) if np.any(values) else ():
        cols = [int(c) for c in np.flatnonzero(a[r] * fixed)]
        for c in sorted(cols, key=lambda c: (c < r, c == r, c)):
            b[r] -= a[r, c] * values[c]
    live = (a[:, ~fixed] != 0).any(axis=1)
    live[list(dropped)] = False
    return sp.csr_matrix(a[live][:, ~fixed]), b[live]


def replay_dirichlet(a, b) -> np.ndarray:
    """A Dirichlet solve: SuperLU ordered by minimum degree on A + A^T with
    one-column supernode panels, on A^T (A is symmetric, its CSC form), and
    one plain refinement step."""
    lu = spla.splu(a.T, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    x = lu.solve(b)
    return x + lu.solve(b - a @ x)


def exact_residual(a, x, b) -> np.ndarray:
    """b - a x, each row rounded once from rational arithmetic."""
    from fractions import Fraction
    return np.array([float(Fraction(b[r]) - sum(
        Fraction(a.data[k]) * Fraction(x[a.indices[k]]) for k in range(a.indptr[r], a.indptr[r + 1])))
        for r in range(a.shape[0])])


def replay_recursion(a, b):
    """(x, path, refinement steps) of the recursion's solve of a x = b.
    Overdetermined or structurally rank deficient: LSQR from 0.  Square:
    SuperLU with its default ordering, refined on exactly rounded residuals.
    Underdetermined: the x block of SuperLU's solution of [[I, A^T], [A, 0]]
    [x, y] = [0, b], refined on plain ones.  Refinement stops once a step
    falls below 1e-15 max(1, max|x|), or is no smaller than the one before,
    or after 30 steps."""
    m, n = a.shape
    if m > n or (m and sp.csgraph.structural_rank(a) < m):
        return spla.lsqr(a, b, atol=1e-14, btol=1e-14, iter_lim=8 * (m + n))[0], "lsqr", 0
    if m == n:
        path, lu, rhs = "lu", spla.splu(a.tocsc()), b
        residual = lambda x: exact_residual(a, x, b)  # noqa: E731
    else:
        k = sp.bmat([[sp.identity(n), a.T], [a, None]], format="csc")
        path, lu, rhs = "augmented-lu", spla.splu(k), np.concatenate([np.zeros(n), b])
        residual = lambda z: rhs - k @ z  # noqa: E731
    x, prev = lu.solve(rhs), np.inf
    for steps in range(1, 31):
        step = lu.solve(residual(x))
        norm = float(np.abs(step).max())
        x = x + step
        if norm <= 1e-15 * max(1.0, float(np.abs(x).max())) or norm >= prev:
            break
        prev = norm
    return x[:n], path, steps


class DictGraph:
    """A general graph as per-vertex dicts, edge by edge: the reference for
    GeneralGraph's checks and for the conversions below."""

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = int(num_vertices)
        self.adj = [dict() for _ in range(self.num_vertices)]
        self.edges = []
        for e in edges:
            i, j, c = int(e[0]), int(e[1]), float(e[2]) if len(e) > 2 else 1.0
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

    def bfs_levels(self, root: int) -> list:
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


def ref_check_bratteli_structure(g: DictGraph, root: int):
    """(levels, witness): BFS levels when graded, else the witness text."""
    if sum(len(lv) for lv in g.bfs_levels(0)) != g.num_vertices:
        raise ValueError("graph is disconnected")
    levels = g.bfs_levels(root)
    dist = {v: n for n, lv in enumerate(levels) for v in lv}
    max_d = len(levels) - 1
    for v in range(g.num_vertices):
        if dist[v] < max_d and len(g.adj[v]) < 2:
            return None, f"vertex {v} has degree {len(g.adj[v])}"
    for i, j, _ in g.edges:
        if dist[i] == dist[j]:
            return None, f"intra-level edge ({i},{j}) at distance {dist[i]}"
    return tuple(tuple(lv) for lv in levels), None


def ref_diagram_from_levels(g: DictGraph, levels) -> Diagram:
    """The edges of g between consecutive levels, as dense level matrices."""
    sizes = [len(lv) for lv in levels]
    index = {v: (n, k) for n, lv in enumerate(levels) for k, v in enumerate(lv)}
    mats = [np.zeros((sizes[n], sizes[n + 1])) for n in range(len(sizes) - 1)]
    for i, j, c in g.edges:
        if i in index and j in index:
            (ni, ki), (nj, kj) = index[i], index[j]
            if ni == nj + 1:
                (ni, ki), (nj, kj) = (nj, kj), (ni, ki)
            if ni + 1 == nj:
                mats[ni][ki, kj] = c
    return make_diagram(sizes, mats)


def ref_extract_maximal_bratteli(g: DictGraph, ray):
    """(diagram, kept, uncertified) of the inductive sphere construction."""
    ray = [int(v) for v in ray]
    if not ray:
        raise ValueError("ray must contain at least one vertex")
    if len(set(ray)) != len(ray):
        raise ValueError("ray is not self-avoiding")
    for a, b in zip(ray, ray[1:]):
        if b not in g.adj[a]:
            raise ValueError(f"ray step ({a},{b}) is not an edge")
    spheres = g.bfs_levels(ray[0])
    dist = {v: n for n, lv in enumerate(spheres) for v in lv}
    levels = [[ray[0]]]
    used = {ray[0]}
    for n in range(1, len(spheres)):
        cand = {z for y in levels[-1] for z in g.adj[y] if z not in used and dist.get(z) == n}
        ray_v = ray[n] if n < len(ray) else None
        if ray_v is not None and ray_v not in cand:
            raise ValueError(f"ray vertex {ray_v} unreachable at level {n}; "
                             "ray not level-compatible")
        keep = [z for z in sorted(cand) if z == ray_v or not (
            any(w in cand for w in g.adj[z]) or (ray_v is not None and ray_v in g.adj[z]))]
        if not keep:
            break
        levels.append(keep)
        used.update(keep)
    for n in range(len(levels) - 2, 0, -1):
        nxt = set(levels[n + 1])
        levels[n] = [v for v in levels[n] if any(u in nxt for u in g.adj[v])]
    levels = [lv for lv in levels if lv]
    kept_at = [set(lv) for lv in levels]
    uncertified = []
    for n in range(1, len(levels)):
        for v in spheres[n]:
            if v in kept_at[n]:
                continue
            to_same = any(u in kept_at[n] for u in g.adj[v])
            has_parent = any(u in kept_at[n - 1] for u in g.adj[v])
            if not to_same and has_parent:
                uncertified.append(v)
    return (ref_diagram_from_levels(g, levels), tuple(tuple(lv) for lv in levels),
            tuple(uncertified))
