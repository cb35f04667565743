"""Level recursion for harmonic functions, monopoles, and dipoles, and the
dimension bookkeeping for the space of harmonic prefixes.

The level recursion is

    P<-_n f_{n+1} = f_n - P->_{n-1} f_{n-1} - rhs_n / c_n

where rhs is a point-source vector (empty for harmonic functions, delta_x
for a monopole at x, delta_x - delta_o for a dipole).  solve_chain stacks
these equations for all levels and returns one representative: the global
minimum-norm solution with the seed and the pins fixed.  Here and in
pathspace's Dirichlet systems, free_matrix and fixed_rhs move fixed values
to the right-hand side and a FactoredSystem factors, solves and refines by
the caller's rule, which alone sets SuperLU's options.  Inconsistent levels
are reported, not thrown.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .diagram import Diagram, VertexId
from .operators import (LevelFunction, LevelMatrix, build_level_operators, laplacian,
                        laplacian_apply, vertex_at)

# Singular values below RANK_RCOND * sigma_max are treated as zero.
RANK_RCOND = 1e-12
DEFAULT_TOL = 1e-9
_UNIT = np.finfo(float).eps / 2  # unit roundoff u
# The square lu path refines with exactly rounded residuals only up to this
# many stored entries (_exact_residual is a Python loop over them); a larger
# system keeps its first solve, with refine_steps 0.
_EXACT_REFINE_ENTRIES = 2_000_000


@dataclass
class SolveReport:
    """Per-level residuals of the recursion (or of a harmonicity check).

    residuals[n] is the max-norm constraint violation at level n; consistent
    is true iff every residual is within the tolerance.  diagnostics says
    how solve_chain got its solution.
    The dimension of each level's solution set is
    harm_dimension(d).solution_set_dims.
    """
    residuals: list
    tol: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return all(r <= self.tol for r in self.residuals)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    def first_inconsistent_level(self) -> Optional[int]:
        for n, r in enumerate(self.residuals):
            if not r <= self.tol:  # a nan residual is inconsistent too
                return n
        return None


def _source_vectors(d: Diagram, source: Optional[Dict[VertexId, float]]) -> np.ndarray:
    """The right-hand side, numbered as the vertices of d.table."""
    rhs = np.zeros(d.total_vertices)
    for v, val in (source or {}).items():
        d.check_vertex(v)
        rhs[d.table.offsets[v.level] + v.index] += val
    return rhs


def harmonicity_check(d: Diagram, f: LevelFunction, tol: float = DEFAULT_TOL,
                      source: Optional[Dict[VertexId, float]] = None) -> SolveReport:
    """Residuals of Delta f = source at the root and all interior levels.

    residuals[n] = max |(Delta f)_n - rhs_n| for 0 <= n <= N-1; level N is
    truncation boundary and is not checked.  Raises ValueError where
    laplacian_apply does.
    """
    gap = np.abs(laplacian_apply(d, f).flat() - _source_vectors(d, source))
    offsets = d.table.offsets  # the levels are not empty, so reduceat's maxima are theirs
    residuals = np.maximum.reduceat(gap[:offsets[-2]], offsets[:-2]).tolist()
    return SolveReport(residuals=residuals, tol=tol)


def _exact_residual(m, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exactly rounded residual b - m x, m CSR, via two-product splitting and fsum.

    Each product a*x is decomposed into an exact hi+lo pair (Dekker split,
    no FMA needed); fsum of all pairs per row then returns the correctly
    rounded sum, which is what lifts iterative refinement past the double
    rounding floor on ill-conditioned stacked systems.
    """
    from math import fsum
    a, xx = m.data, x[m.indices]
    p = a * xx
    split = 134217729.0  # 2^27 + 1
    a_big = a * split
    a_hi = a_big - (a_big - a)
    a_lo = a - a_hi
    x_big = xx * split
    x_hi = x_big - (x_big - xx)
    x_lo = xx - x_hi
    err = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    # row r's terms are those of its entries, indptr[r]:indptr[r + 1]
    terms = (-np.stack([p, err], axis=1)).reshape(-1).tolist()
    ends = (2 * m.indptr).tolist()
    return np.array([fsum([b[r], *terms[ends[r]:ends[r + 1]]]) for r in range(b.size)])


class FactoredSystem:
    """A x = b for a free matrix A (free_matrix's LevelMatrix, whose arrays
    `a`, the one scipy CSR matrix of the solve, wraps without a copy),
    factored once by spla.splu and solved on flat vectors by the caller's
    rule, which alone sets SuperLU's options and so fixes the bits.  counts
    (the caller's dict, which holds factorizations and solves, or a new
    one) counts them and gets the path.  Rule "one-step", the Dirichlet
    systems': a symmetric A factored as A^T, its CSC form, by minimum degree
    on A + A^T with one-column supernode panels; path "direct"; one plain
    refinement step a solve, which makes it componentwise backward stable
    (Skeel, Math. Comp. 35, 1980); and max_residual, the largest
    max|b - A x|, nan once one is nan.  Rule "exact", the recursion's, with
    SuperLU's defaults, by shape, counting refine_steps and fallback (None,
    or why lsqr).  Square, "lu": refined on exactly rounded residuals up to
    _EXACT_REFINE_ENTRIES entries.
    Underdetermined, "augmented-lu": an LU of [[I, A^T], [A, 0]], plainly
    refined, whose x block is the minimum-norm solution (Bjorck; Arioli,
    Duff & de Rijk, Numer. Math. 1989).  Overdetermined, structurally rank
    deficient (Duff, ACM TOMS 1981) or an LU that fails, "lsqr": LSQR from
    x0 = 0, the minimum-norm least-squares solution (Paige & Saunders, ACM
    TOMS 1982), and its itn and istop.
    """

    def __init__(self, a: LevelMatrix, rule: str, counts: Optional[dict] = None):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        a = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        self.a, self.rule, self.lu = a, rule, None
        self.counts = counts = {"factorizations": 0, "solves": 0} if counts is None else counts
        (m, n), exact = a.shape, rule == "exact"
        path, fallback = ("lu" if exact else "direct") if m == n else "augmented-lu", None
        if exact and m > n:
            fallback = f"overdetermined ({m} equations, {n} unknowns)"
        # SuperLU fails on a structurally singular system after OpenBLAS printed to stdout
        elif exact and m and (rank := sp.csgraph.structural_rank(a)) < m:
            fallback = f"structurally rank deficient ({rank} of {m} equations)"
        else:
            if m < n:
                self.k = sp.bmat([[sp.identity(n), a.T], [a, None]], format="csc")
            else:  # a symmetric A's transpose is its CSC form, without a copy
                self.k = a.tocsc() if exact else a.T
            try:
                self.lu = spla.splu(self.k) if exact else spla.splu(
                    self.k, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
                counts["factorizations"] += 1
            except RuntimeError:  # SuperLU's message names its own source file
                if not exact:
                    raise
                fallback = f"{path} factorization failed"
        counts["path"] = "lsqr" if fallback else path
        if exact:
            counts.update(fallback=fallback, refine_steps=0)

    def solve(self, b: np.ndarray, check: Optional[Callable] = None) -> np.ndarray:
        """x for A x = b; check(x), when given, sees the first solution
        before any refinement, which would turn an overflow into nan."""
        import scipy.sparse.linalg as spla
        a, lu, counts, (m, n) = self.a, self.lu, self.counts, self.a.shape
        counts["solves"] += 1
        if lu is None:
            x, counts["istop"], counts["itn"] = spla.lsqr(a, b, atol=1e-14, btol=1e-14,
                                                          iter_lim=8 * (m + n))[:3]
            return x
        rhs = b if m == n else np.concatenate([np.zeros(n), b])
        x, steps, prev = lu.solve(rhs), 0, np.inf
        if check:
            check(x[:n])
        if self.rule == "one-step":
            x += lu.solve(b - a @ x)
            # np.maximum, unlike max, keeps a nan
            counts["max_residual"] = float(np.maximum(counts["max_residual"],
                                                      np.abs(b - a @ x).max(initial=0.0)))
            return x
        # until the step falls to rounding level or stops shrinking; above
        # _EXACT_REFINE_ENTRIES the square path keeps its first solve
        for steps in range(1, 31 if m < n or 0 < a.nnz <= _EXACT_REFINE_ENTRIES else 1):
            step = lu.solve(rhs - self.k @ x if m < n else _exact_residual(a, x, b))
            norm = float(np.abs(step).max())
            x = x + step
            if norm <= 1e-15 * max(1.0, float(np.abs(x).max())) or norm >= prev:
                break
            prev = norm
        counts["refine_steps"] += steps
        return x[:n]


def free_matrix(lap: LevelMatrix, fixed: np.ndarray):
    """The equations of Delta's rows lap (operators.laplacian) on the
    columns where `fixed` is False, the free ones, numbered in order: the
    LevelMatrix of the live rows (those left with an unknown; the others
    go), in lap's index dtype, and the mask of them among lap's rows."""
    free, n_free = lap.masked(~fixed[lap.indices]), np.count_nonzero(~fixed)
    live, indices = np.diff(free.indptr) > 0, free.indices
    if fixed[:n_free].any():  # else the free columns come first and keep their numbers
        indices = (np.cumsum(~fixed, dtype=indices.dtype) - 1)[indices]
    indptr = np.append(free.indptr[:-1][live], free.indptr[-1:])
    return LevelMatrix(free.data, indices, indptr, (indptr.size - 1, n_free)), live


def fixed_rhs(d: Diagram, lap, fixed: np.ndarray, source: np.ndarray,
              values: np.ndarray, live: np.ndarray) -> np.ndarray:
    """source less the terms of lap's rows in the columns where `fixed` is
    True, at `values`: the right-hand side of free_matrix's equations, on
    all of lap's rows.  source is numbered as lap's rows, values as its
    columns; live marks the rows with an unknown (free_matrix's mask).  A
    row's terms go in as children, c(x), parents, each in table order: the
    outputs' bits rest on it.  Raises ValueError at a finite value whose
    terms take a live row out of the doubles, naming the largest term of
    the first such row; a value or a source that is not finite is left to
    the solve."""
    source = source[:lap.shape[0]]
    if not values.any():  # a zero value's terms change no b but a zero's sign
        return source
    at = np.flatnonzero(fixed[lap.indices])
    r, c, b = lap.rows()[at], lap.indices[at], source.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        terms = lap.data[at] * values[c]
        for part in (c > r, c == r, c < r):
            np.subtract.at(b, r[part], terms[part])
    blown = ~np.isfinite(b) & np.isfinite(source)
    if blown.any():  # in a row with an unknown, and from finite values only?
        blown &= live
        blown[r[~np.isfinite(values[c])]] = False
    if blown.any():
        at = np.flatnonzero(r == np.argmax(blown))
        v = c[at[np.argmax(np.abs(terms[at]))]]
        n, i = vertex_at(d, v)
        raise ValueError(f"value {values[v]} at ({n},{i}) times the conductances "
                         f"leaves the doubles")
    return b


def _global_solve(d: Diagram, depth: int, rhs: np.ndarray, prefix: Sequence[np.ndarray],
                  pins: Dict[int, Dict[int, float]], tol: float):
    """Global minimum-norm solution of the stacked constraint system.

    Unknowns f_0..f_depth, equations Delta's rows of levels 0..depth-1
    (operators.laplacian); the prefix f_0..f_k and the pins (level ->
    {index: value}, on levels k+1..depth) are eliminated and equations left
    without unknowns dropped; a FactoredSystem under the "exact" rule, with
    SuperLU's default COLAMD ordering, solves the rest.  Raises ValueError
    for a pin off levels k+1..depth, off its level or not finite, where
    fixed_rhs does, and for an LU solution that leaves the doubles.  Returns
    x, f_0..f_depth numbered as the vertices of d.table (as is rhs), and the
    SolveReport of the rows, as in solve_chain.
    """
    sizes = d.level_sizes
    fixed_levels = len(prefix)
    for lvl in pins:
        if not 1 <= lvl <= depth:
            raise ValueError(f"pin on level {lvl} outside levels 1..{depth}")
        if lvl < fixed_levels:
            raise ValueError(f"pin on level {lvl}, but the prefix (f_0 and any seed) "
                             f"fixes levels 0..{fixed_levels - 1}")
    lap = laplacian(d, depth)
    off = d.table.offsets
    fixed = np.arange(lap.shape[1]) < off[fixed_levels]
    x_full = np.zeros(lap.shape[1])
    x_full[: off[fixed_levels]] = np.concatenate(prefix)
    for lvl, coord_map in pins.items():
        for idx, val in coord_map.items():
            if not (isinstance(idx, (int, np.integer)) and 0 <= idx < sizes[lvl]):
                raise ValueError(f"pinned index {idx} outside level of size {sizes[lvl]}")
            if not np.isfinite(val):
                raise ValueError(f"pinned value {val} at ({lvl},{idx}) is not finite")
            fixed[off[lvl] + idx] = True
            x_full[off[lvl] + idx] = val
    a_free, live = free_matrix(lap, fixed)
    b_live = fixed_rhs(d, lap, fixed, rhs, x_full, live)[live]
    system = FactoredSystem(a_free, "exact")
    counts = system.counts

    def finite(sol):
        bad = np.flatnonzero(~np.isfinite(sol))
        if bad.size and np.isfinite(b_live).all():  # a nan seed is reported, not refused
            raise ValueError(f"the {counts['path']} solution leaves the doubles at level "
                             f"{vertex_at(d, np.flatnonzero(~fixed)[bad[0]])[0]}")

    x_full[~fixed] = system.solve(b_live, finite)
    residuals = _level_residuals(d, x_full, rhs, depth)
    lsqr = {k: counts[k] for k in ("itn", "istop") if k in counts}
    return x_full, SolveReport(residuals=residuals, tol=tol, diagnostics={
        "path": counts["path"], "refine_steps": counts["refine_steps"],
        "max_residual": max(residuals), "fallback": counts["fallback"], **lsqr})


def _level_residuals(d: Diagram, x: np.ndarray, rhs: np.ndarray, depth: int) -> list:
    """max |P<-_n f_{n+1} - (f_n - P->_{n-1} f_{n-1} - rhs_n / c_n)|, f = x,
    per level n of 0..depth-1: the normalized residuals of Delta's rows of
    those levels.  P<- f and P-> f are the child and parent sums of the
    table's entries of levels 0..depth-1 (EdgeTable.edge_sums) with scale
    1/c(x).  x and rhs are numbered as the table's vertices."""
    off = d.table.offsets
    n = off[depth + 1]
    x, rhs, c = x[:n], rhs[:n], d.degrees[:n]
    child, parent = d.table.edge_sums(depth, x, 1.0 / c)
    eq = slice(0, off[depth])
    r = np.abs(child[eq] - (x[eq] - parent[eq] - rhs[eq] / c[eq]))
    return np.maximum.reduceat(r, off[:depth]).tolist()


def solve_chain(d: Diagram, depth: Optional[int] = None,
                source: Optional[Dict[VertexId, float]] = None,
                seed_f1: Optional[np.ndarray] = None,
                pins: Optional[Dict[int, Dict[int, float]]] = None,
                tol: float = DEFAULT_TOL):
    """Run the recursion from the root through `depth`, with point sources.

    Returns the global minimum-norm (least-squares) solution of the stacked
    constraint system on f_1..f_depth, with f_0 = 0, f_1 = seed_f1 when
    given and the pinned coordinates fixed (pins maps level -> {index:
    value} on the levels the seed leaves free).  A given seed is verified
    against the root equation, not enforced: that row has no unknown, so no
    solve can change its residual, which is reported.

    Returns (LevelFunction, SolveReport) with one residual per level (root
    equation first), summed on the edge table.  The report's diagnostics
    hold FactoredSystem's path ("lu", "augmented-lu" or "lsqr"),
    refine_steps and fallback, LSQR's itn and istop on its path, and
    max_residual, the largest residual of the returned solution.
    """
    depth = d.num_levels if depth is None else depth
    if not 1 <= depth <= d.num_levels:
        raise ValueError(f"depth must lie in 1..{d.num_levels}")
    rhs = _source_vectors(d, source)
    prefix = [np.zeros(1)]
    if seed_f1 is not None:
        seed_f1 = np.asarray(seed_f1, dtype=float).reshape(-1)
        if seed_f1.shape[0] != d.level_sizes[1]:
            raise ValueError("seed vector length does not match level 1")
        prefix.append(seed_f1)
    x, report = _global_solve(d, depth, rhs, prefix, pins or {}, tol)
    return LevelFunction.from_flat(d, x), report


def auto_seed(d: Diagram) -> np.ndarray:
    """A deterministic nonzero f_1 for solve_chain (the minimum-norm seed
    would give the zero function): the first basis vector of the root
    equation's null space, from the SVD of C_0 that _propagate starts from,
    scaled so that its first entry above 1e-12 in magnitude is 1.  Raises
    ValueError where build_level_operators does, and when C_0 admits only
    the zero seed."""
    build_level_operators(d)
    basis = _nullspace(d.table.level(0).toarray())
    if basis.shape[1] == 0:
        raise ValueError("root constraint admits only the zero seed")
    seed = basis[:, 0]
    return seed / seed[np.nonzero(np.abs(seed) > 1e-12)[0][0]]


def _pole_depth(d: Diagram, x: VertexId, up_to_level: Optional[int]) -> int:
    """The solve depth of a pole x, d.num_levels unless up_to_level is
    given; raises ValueError unless x is a vertex of d above that depth."""
    d.check_vertex(x)
    n = d.num_levels if up_to_level is None else up_to_level
    if x.level >= n:
        raise ValueError("pole must lie strictly above the solve depth")
    return n


def solve_monopole(d: Diagram, x: VertexId, up_to_level: Optional[int] = None,
                   tol: float = DEFAULT_TOL):
    """Unseeded, unpinned recursion solution of Delta w = delta_x with w(o) = 0.

    Inconsistent levels are reported in the SolveReport, not raised.
    """
    n = _pole_depth(d, x, up_to_level)
    return solve_chain(d, depth=n, source={x: 1.0}, tol=tol)


def solve_dipole(d: Diagram, x: VertexId, up_to_level: Optional[int] = None,
                 tol: float = DEFAULT_TOL):
    """Unseeded, unpinned recursion solution of Delta v = delta_x - delta_o, v(o) = 0.

    The root equation this induces is sum_y c_oy v_1(y) = +1: the definition
    Delta v = delta_x - delta_o is implemented exactly (see module docs for
    the sign convention).
    """
    o = VertexId(0, 0)
    if x == o:
        raise ValueError("dipole pole must differ from the root")
    n = _pole_depth(d, x, up_to_level)
    return solve_chain(d, depth=n, source={x: 1.0, o: -1.0}, tol=tol)


# ---------------------------------------------------------------------------
# Dimension of the space of harmonic prefixes
# ---------------------------------------------------------------------------

@dataclass
class DimensionResult:
    """Dimensions of the spaces of harmonic prefixes with f(o) = 0.

    per_level[k] is the dimension of {(f_1..f_k) : f(o)=0, all constraints
    at levels < k hold}; dimension is per_level at the requested depth.
    solution_set_dims[k] = nullity of C_k (free parameters added at level
    k+1); rank_drops[k] = extendability conditions imposed at level k.
    Dimensions are for truncated prefixes; extendability to the infinite
    diagram is not certified.

    path names the route that gave the counts: "ranks" when every C_n below
    the depth has full row rank, "propagation" otherwise.
    first_rank_deficient_level is the first n with rank C_n < |V_n| (None
    on the rank route).  svd_levels counts the levels of the rank pass whose
    rank took an SVD because the certificate left them undecided (see
    harm_dimension); it is not printed.
    """
    dimension: int
    per_level: dict
    solution_set_dims: dict
    rank_drops: dict
    unique_extension: bool
    path: str
    first_rank_deficient_level: Optional[int]
    svd_levels: int

    def as_table(self) -> str:
        lines = ["level  prefix_dim  new_free  rank_drop"]
        for k in sorted(self.per_level):
            nf = self.solution_set_dims.get(k - 1, "")
            rd = self.rank_drops.get(k - 1, "")
            lines.append(f"{k:>5}  {self.per_level[k]:>10}  {nf!s:>8}  {rd!s:>9}")
        return "\n".join(lines)


def _orth(m: np.ndarray) -> np.ndarray:
    import scipy.linalg
    if m.size == 0:
        return m.reshape(m.shape[0], 0)
    return scipy.linalg.orth(m, rcond=RANK_RCOND)


def _nullspace(m: np.ndarray) -> np.ndarray:
    import scipy.linalg
    return scipy.linalg.null_space(m, rcond=RANK_RCOND)


def _index_within(labels: np.ndarray, n_labels: int):
    """Position of each element among the elements with its label, in
    order, and the number of elements per label."""
    counts = np.bincount(labels, minlength=n_labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    pos = np.empty(labels.size, dtype=np.int64)
    pos[order] = np.arange(labels.size) - starts[labels[order]]
    return pos, counts


def _level_rank(c) -> int:
    """Rank of the level matrix c with the rank test of its full SVD
    (singular values above RANK_RCOND times the largest), from singular
    values only and one connected component of its edge graph at a time.

    Up to permutations c is block diagonal in its components, so its
    singular values are theirs together with zeros.  The components of one
    shape are stacked and take one batched SVD without U and V; a level of
    several components is never densified as a whole.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    m, k = c.shape
    rows, cols, vals = c.rows(), c.indices, c.data
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols + m)), shape=(m + k, m + k))
    n_comp, label = connected_components(graph, directed=False)
    row_pos, comp_rows = _index_within(label[:m], n_comp)
    col_pos, comp_cols = _index_within(label[m:], n_comp)
    # an isolated vertex is a component of shape 1x0 or 0x1, and has no
    # singular value
    shapes, group = np.unique(np.stack([comp_rows, comp_cols], axis=1), axis=0,
                              return_inverse=True)
    group = group.reshape(-1)
    slot, group_size = _index_within(group, len(shapes))
    comp = label[rows]
    by_group = np.argsort(group[comp], kind="stable")
    ends = np.cumsum(np.bincount(group[comp], minlength=len(shapes)))
    s = [np.zeros(0)]
    for (a, b), size, take in zip(shapes, group_size, np.split(by_group, ends[:-1])):
        blocks = np.zeros((size, a, b))
        blocks[slot[comp[take]], row_pos[rows[take]], col_pos[cols[take]]] = vals[take]
        s.append(np.linalg.svd(blocks, compute_uv=False).reshape(-1))
    s = np.concatenate(s)
    return int((s > RANK_RCOND * s.max()).sum()) if s.size else 0


def _gamma(q):
    """Higham's gamma_q = q u / (1 - q u), which bounds the relative
    rounding error of q floating-point operations."""
    return q * _UNIT / (1 - q * _UNIT)


def _certified_full_row_rank(d: Diagram, stop: int) -> np.ndarray:
    """certified[n], n < stop: True only if C_n has full row rank by the
    SVD's own test, that is sigma_m > RANK_RCOND sigma_1 for the singular
    values _level_rank computes; False leaves level n undecided.  Every
    C_n below stop must have |V_n| <= |V_{n+1}| and a stored entry.

    One sparse factorization decides all levels.  Write C = C_n (m x k,
    m <= k), u for the unit roundoff, eps = 2u, gamma_q = q u / (1 - q u),
    and beta^2 = ||C||_1 ||C||_inf >= sigma_1^2 (raised by 1 + gamma_{m+k}
    for the rounding of its sums).  Each level is first
    scaled by a power of two, exactly, so that its largest entry lies in
    [1, 2): the rank test does not depend on scale, and no product
    overflows (an underflow errs by less than 2^-1000, far below
    u beta^2 >= u).

    Target.  A backward stable SVD returns the singular values of C + E
    with ||E||_2 <= p eps ||C||_2, p a mildly growing function of the
    shape; take p = m k, the order of the bound for Householder
    bidiagonalisation (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 19.4).  By Weyl's inequality the SVD then calls C full
    rank whenever sigma_m > t beta, t = RANK_RCOND + (1 + RANK_RCOND) m k
    eps.  As sigma_m^2 = lambda_min(C C^T), it suffices to prove
    lambda_min(C C^T) > tau = t^2 beta^2.

    Test.  With the shift s = tau + sigma, G = fl(C C^T) - s I of all
    levels, stacked block-diagonally, is factored once: P G P^T = L U by
    SuperLU with the diagonal pivot always taken (perm_r == perm_c is
    checked; a block-diagonal matrix gets no fill between blocks).  With
    D = diag(U) > 0 on a level, M = (L D L^T + U^T D^-1 U) / 2 is positive
    definite there.  If eta >= ||C C^T - s I - P^T M P||_2, then
    lambda_min(C C^T) > s - eta, and the level is certified when
    s - eta >= tau, that is when eta <= sigma less the rounding of s.
    This is Rump's verification of positive definiteness (BIT 46, 2006),
    with the factorization's error measured after the fact.

    Residual.  eta adds four bounds, each per level block:
      - forming C C^T: |fl(C C^T) - C C^T| <= gamma_w C C^T entrywise
        (C >= 0; w the most entries in a row of C), so gamma_w beta^2;
      - subtracting s: u max_i |G_ii|;
      - the computed residual R = fl(P G P^T - fl(M)): (1 + u) ||R||;
      - rounding in fl(M): |fl(M) - M| <= gamma_{l+2} (|L| D |L|^T +
        |U|^T D^-1 |U|) / 2 (l the most terms of one inner product), and
        both matrices are positive semidefinite, so their traces bound
        their norms: gamma_{l+2} (sum d_j l_ij^2 + sum u_ij^2 / d_i) / 2.
    Norms of R are bounded by sqrt(||R_n||_1 ||R_n||_inf).  The sums of
    nonnegative terms behind eta are low by at most a factor 1 + gamma_q,
    q the stored entries of L and U, by which eta is raised; that also
    covers the few roundings of the final comparison.  Averaging the two
    factorizations makes R small: if L U = P G P^T + F and E = U - D L^T,
    then P G P^T - M = -(F + F^T) / 2 - E^T D^-1 E / 2, so the asymmetry
    of U against D L^T cancels, and only the LU's own backward error F
    remains, |F| <= gamma_l |L||U| (Higham, Thm 9.3), even where L has
    large entries.

    Shift.  sigma is set before the factorization as the size of the
    factorization terms of eta when G is positive definite: (gamma_w + u)
    beta^2 + 3 gamma_{m+1} ||C||_F^2.  gamma_{m+1} trace(G) with trace(G)
    <= ||C||_F^2 bounds the rounding of a factorization of a positive
    definite matrix (Demmel, LAPACK Working Note 14, 1989; Higham,
    Thm 10.3), and it is counted three times: for F inside R, for the
    rounding of fl(M) inside R, and for the rounding term.  sigma only
    sets how close to singular a level can be and still be certified
    (sigma_m / sigma_1 above about sqrt(sigma) / beta, near 1e-8 m); a
    level with eta > sigma or a pivot <= 0 is left to the SVD.
    An exactly zero pivot column, where SuperLU would leave the diagonal
    or stop, leaves every level to the SVD.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    # C_0..C_{stop-1} block-diagonally, the columns numbered across levels
    table = d.table
    m, k = np.array(table.sizes[:stop]), np.array(table.sizes[1:stop + 1])
    offsets, col_off = table.offsets[:stop], table.offsets[1:stop + 1] - 1
    n_rows, nnz = int(table.offsets[stop]), int(table.starts[stop])
    level = np.repeat(np.arange(stop), m)
    rows, cols, vals = table.tail[:nnz], table.head[:nnz] - 1, table.data[:nnz]
    _, exp = np.frexp(np.maximum.reduceat(vals, table.starts[:stop]))
    vals = np.ldexp(vals, (1 - exp)[level[rows]])
    c = sp.csr_matrix((vals, cols, table.indptr[:n_rows + 1]), shape=(n_rows, int(k.sum())))
    w = np.maximum.reduceat(np.diff(c.indptr), offsets)
    beta2 = (np.maximum.reduceat(np.bincount(cols, vals, minlength=k.sum()), col_off)
             * np.maximum.reduceat(np.bincount(rows, vals, minlength=n_rows), offsets)
             * (1 + _gamma(m + k)))
    t = RANK_RCOND + (1 + RANK_RCOND) * m * k * 2 * _UNIT
    tau = t * t * beta2
    sigma = (_gamma(w) + _UNIT) * beta2 + 3 * _gamma(m + 1) * np.bincount(
        level[rows], vals * vals, minlength=stop)
    shift = tau + sigma
    g = (c @ c.T - sp.diags(shift[level])).tocsc()
    undecided = np.zeros(stop, dtype=bool)
    try:
        lu = spla.splu(g, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, panel_size=1,
                       relax=1, options={"SymmetricMode": True})
    except RuntimeError:
        return undecided
    perm = lu.perm_c  # row a of g is row perm[a] of L and U
    if not np.array_equal(lu.perm_r, perm):
        return undecided
    lower, upper = lu.L, lu.U
    piv = upper.diagonal()
    positive = np.minimum.reduceat(piv[perm] > 0, offsets)
    size = perm.size
    l_col = np.repeat(np.arange(size), np.diff(lower.indptr))
    ld = sp.csc_matrix((lower.data * piv[l_col], lower.indices, lower.indptr), shape=g.shape)
    du = sp.csc_matrix((upper.data / piv[upper.indices], upper.indices, upper.indptr),
                       shape=g.shape)
    gc = g.tocoo()
    r = abs(sp.csr_matrix((gc.data, (perm[gc.row], perm[gc.col])), shape=g.shape)
            - (ld @ lower.T + upper.T @ du) / 2).tocoo()  # P G P^T - M

    def block_max(per_row):
        return np.maximum.reduceat(per_row[perm], offsets)

    norm_r = np.sqrt(block_max(np.bincount(r.row, r.data, minlength=size))
                     * block_max(np.bincount(r.col, r.data, minlength=size)))
    terms = block_max(np.maximum(np.bincount(lower.indices, minlength=size),
                                 np.diff(upper.indptr)))
    trace = np.add.reduceat((np.bincount(l_col, lower.data ** 2 * piv[l_col], minlength=size)
                             + np.bincount(upper.indices, upper.data ** 2 / piv[upper.indices],
                                           minlength=size))[perm], offsets) / 2
    eta = ((_gamma(w) * beta2 + _UNIT * np.maximum.reduceat(np.abs(g.diagonal()), offsets)
            + (1 + _UNIT) * norm_r + _gamma(terms + 2) * trace)
           * (1 + _gamma(lower.nnz + upper.nnz)))
    return positive & (eta + _UNIT * shift <= sigma)


def _first_rank_deficient_level(d: Diagram, depth: int):
    """(n, svd_levels): n is the first n < depth with rank C_n < |V_n|, or
    None; svd_levels counts the levels up to it whose rank took an SVD
    (_level_rank), those that _certified_full_row_rank leaves undecided.
    The certificate runs on the levels before the first that has more
    vertices than the next or no edge; the loop decides that one.  A level
    matrix is made only for a level that takes the SVD."""
    sizes, starts = d.level_sizes, d.table.starts
    stop = next((n for n in range(depth)
                 if sizes[n] > sizes[n + 1] or starts[n] == starts[n + 1]), depth)
    certified = _certified_full_row_rank(d, stop) if stop else []
    svd_levels = 0
    for n in range(depth):
        if n < stop and certified[n]:
            continue
        if sizes[n] > sizes[n + 1]:
            return n, svd_levels
        svd_levels += 1
        if _level_rank(d.table.level(n)) < sizes[n]:
            return n, svd_levels
    return None, svd_levels


def harm_dimension(d: Diagram, up_to_level: Optional[int] = None) -> DimensionResult:
    """Dimension of the space of harmonic prefixes with f(o) = 0.

    The counts come from the ranks of the level matrices.  While C_n has
    full row rank, level n imposes no extendability condition on the
    prefix and adds nullity(C_n) free parameters, so when that holds at
    every level below the depth, per_level[k] = |V_k| - 1 follows from the
    level sizes (path "ranks").  Full row rank is first certified for all
    levels at once without an SVD (_certified_full_row_rank): one sparse
    LDL^T of the block-diagonal sum of C_n C_n^T - s_n I proves
    sigma_min(C_n)^2 > s_n - eta_n, where the shift s_n is derived from
    RANK_RCOND, the SVD's own rounding and the rounding of forming C_n C_n^T,
    and eta_n bounds the factorization's residual after the fact.  A
    certified level is one the SVD's test would also call full rank.  Each
    level the certificate leaves undecided (a zero row, rank deficiency, a
    ratio sigma_min / sigma_max between RANK_RCOND and the certificate's
    margin) takes the SVD of _level_rank, in level order, and
    svd_levels counts those.  The rank pass stops at the first
    rank-deficient level; from there the counts come from the propagation
    (path "propagation", see _propagate).  Both equal the null-space
    dimension of the stacked constraint system (the brute-force oracle) on
    the generator families and on the tested files, but not on every
    diagram: on a file whose conductances span 1e-6 to 5.6e5 the
    propagation, which decides each level's rank drop on its own scale,
    counts 1 at depth 5 where the stacked nullity is 0.  Raises ValueError
    where build_level_operators does, on every stored level whatever the
    depth.
    """
    n_max = d.num_levels if up_to_level is None else up_to_level
    if not 1 <= n_max <= d.num_levels:
        raise ValueError(f"depth must lie in 1..{d.num_levels}")
    build_level_operators(d)
    deficient, svd_levels = _first_rank_deficient_level(d, n_max)
    if deficient is None:
        sizes = d.level_sizes
        new_free = {n: sizes[n + 1] - sizes[n] for n in range(1, n_max)}
        return DimensionResult(
            dimension=sizes[n_max] - 1,
            per_level={k: sizes[k] - 1 for k in range(1, n_max + 1)},
            solution_set_dims=new_free, rank_drops=dict.fromkeys(new_free, 0),
            unique_extension=not any(new_free.values()), path="ranks",
            first_rank_deficient_level=None, svd_levels=svd_levels)
    per_level, sol_dims, drops, unique = _propagate(d, n_max)
    return DimensionResult(
        dimension=per_level[n_max], per_level=per_level, solution_set_dims=sol_dims,
        rank_drops=drops, unique_extension=unique, path="propagation",
        first_rank_deficient_level=deficient, svd_levels=svd_levels)


def _propagate(d: Diagram, n_max: int):
    """Prefix dimensions through n_max by propagating an orthonormal basis
    of the admissible pairs (f_{n-1}, f_n) level by level (impose the
    constraint, project onto the column space, re-orthonormalize) while
    accounting for interior degrees of freedom already forgotten by the
    pair representation.  Returns (per_level, solution_set_dims,
    rank_drops, unique_extension) as in DimensionResult.

    Each C_n is made dense once and decomposed by one SVD, which gives its
    rank, its column space, its kernel and the minimum-norm particular
    solutions.  Only the particular block of the new pair basis is
    re-orthonormalized: its level-(n+1) half lies in the row space of C_n, so
    the orthonormal kernel block (zero on level n) is orthogonal to it and is
    appended as is.
    """
    cn = d.table.level(0).toarray()
    basis1 = _nullspace(cn)
    prev = np.zeros((1, basis1.shape[1]))
    cur = basis1
    dim_p = basis1.shape[1]
    per_level = {1: dim_p}
    sol_dims = {}
    drops = {}
    unique = True
    for n in range(1, n_max):
        cprev, cn = cn, d.table.level(n).toarray()
        degs = d.degrees[d.table.offsets[n]:d.table.offsets[n + 1]]
        g_map = degs[:, None] * cur - cprev.T @ prev
        u, s, vt = np.linalg.svd(cn, full_matrices=True)
        rank_cn = int((s > RANK_RCOND * s[0]).sum()) if s.size else 0
        q = u[:, :rank_cn]
        qt_g = q.T @ g_map
        resid = g_map - q @ qt_g
        # rank decisions on the residual must be relative to the scale of the
        # constraint map, not to the residual's own (possibly noise) spectrum
        scale = max(float(np.linalg.norm(g_map, 2)) if g_map.size else 0.0, 1.0)
        if resid.size:
            u_, sv, vt_r = np.linalg.svd(resid)
            r = int((sv > RANK_RCOND * scale).sum())
            z = vt_r[r:].T
        else:
            r = 0
            z = np.eye(g_map.shape[1])
        nullity = cn.shape[1] - rank_cn
        if nullity > 0:
            unique = False
        dim_p = (dim_p - r) + nullity
        sol_dims[n] = nullity
        drops[n] = r
        per_level[n + 1] = dim_p
        if n + 1 == n_max:  # no level below needs the pair basis
            break
        # minimum-norm particular next-level solutions for the surviving pair
        # basis (the pseudo-inverse of C_n applied to g_map @ z)
        f_next = vt[:rank_cn].T @ ((qt_g @ z) / s[:rank_cn, None])
        kern = vt[rank_cn:].T
        part = _orth(np.vstack([cur @ z, f_next]))
        top, bot = part[: cur.shape[0]], part[cur.shape[0]:]
        prev = np.hstack([top, np.zeros((cur.shape[0], kern.shape[1]))])
        cur = np.hstack([bot, kern])
    return per_level, sol_dims, drops, unique
