"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from the raw edge data with plain
dense numpy, deliberately avoiding the package's own solver paths, so the
library can be checked against an implementation that shares no code with
it beyond the Diagram container.
"""
import bisect

import numpy as np

from bharm.diagram import Diagram, VertexId


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
        cm = d.conductance[lvl].toarray()
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
        cm = d.conductance[lvl].toarray()
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
    cms = [c.toarray() for c in d.conductance]
    blocks = []
    root = np.zeros((1, nvar))
    root[0, off[0]: off[1]] = cms[0][0]
    blocks.append(root)
    for n in range(1, upto):
        degs = d.degree_vector(n)
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
        cm = d.conductance[lvl].toarray()
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
    vertices after each step, up to absorption or the step cap."""
    off, nbrs, cum = tables
    rng = np.random.Generator(np.random.Philox(key=seed % 2 ** 64, counter=[0, 0, walk, 0]))
    path, v = [], start
    while len(path) < max_steps and v < off[-2]:
        u = rng.random()
        v = nbrs[v][bisect.bisect_left(cum[v], u)]
        path.append(v)
    return path
