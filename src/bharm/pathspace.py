"""Killed random walks and their exact counterparts: Monte Carlo estimates of
reach/return/visit quantities, truncated Green's functions via Dirichlet
solves, monopoles and dipoles from the Green's function, the two-pole
coefficient matrix, and the Poisson-kernel representation of harmonic
functions.

A DirichletSystem takes out its boundary values and pins as the recursion
takes out its fixed values, by harmonic's free_matrix and fixed_rhs, on the
rows of Delta that it built once and factored (operators.laplacian).

Reach and return probabilities come from the Green's function: with L u = e_y,
u / u(y) is harmonic off y, 1 at y and 0 on the boundary level, so it is the
hitting function F(., y).  `green_identity_report` checks it by pinned solves.

Truncation convention: the walk is absorbed on arrival at the boundary level
(Dirichlet).  The infinite-network quantities are the monotone limits over
the boundary level; convergence is assessed empirically and never claimed as
a proof of transience.

Monte Carlo: `simulate_walks` and the Monte Carlo Poisson kernel share one
batched engine.  It steps the walks together in blocks, one per refill of
draws, over vectorized transition tables whose absorbing rows hold a walk,
and visits are counted once per block.  A refill's draws are bounded over
all walks, so few are made for walks that absorb early in it.  Each walk's
numbers come from a vectorized Philox4x64-10 that reproduces numpy's
`Philox` stream for the walk's key and counter, so a result depends only on
the seed, never on the batching or the block boundaries.  Its first two
rounds depend on the walk or on the block alone and run on vectors; the
other eight run on the (blocks x walks) grid.  The last few walks of a run
finish one at a time, each from numpy's own Philox at its counter, since
numpy's per-call overhead would dominate a lockstep step of so few.  The
engine counts the steps the walks take and the draws and refills it makes.
Its transition tables are the rows of operators.laplacian, so the walks
check a diagram's numbers as the exact solves do: every conductance and
every c(x), on every stored level (operators.build_level_operators).
"""
from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagram import Diagram, VertexId
from .harmonic import DEFAULT_TOL, fixed_rhs, free_matrix, harmonicity_check
from .operators import (LevelFunction, build_level_operators, check_finite, laplacian,
                        laplacian_apply)


# ---------------------------------------------------------------------------
# Dirichlet systems on the truncated network
# ---------------------------------------------------------------------------

class DirichletSystem:
    """Conductance Laplacian on levels 0..boundary_level-1 with absorbing
    boundary at `boundary_level`; reusable factorized solver.

    Solves Delta u = source on the interior with u = boundary_values on the
    boundary level and optional pinned interior vertices, all by one path: a
    sparse LU ordered by minimum degree on A + A^T (A is symmetric) with
    one-column supernode panels (a small SuperLU workspace on trees), cached
    for the unpinned matrix, and one step of iterative refinement, which makes
    it componentwise backward stable (Skeel, Math. Comp. 35, 1980).  `lap`
    keeps the interior's rows of Delta (operators.laplacian), built once:
    boundary values' terms are read off them and a pinned solve masks them.
    `diagnostics`: path, factorizations, solves and the largest max|b - A x|
    over all calls that share the system (see `of`).  Raises ValueError
    where operators.build_level_operators does, on every stored level (see
    operators.laplacian), and at a level pair without edges above the
    boundary, which makes the matrix singular.
    """

    def __init__(self, d: Diagram, boundary_level: int):
        if not (1 <= boundary_level <= d.num_levels):
            raise ValueError("boundary level must be within the stored prefix")
        self.diagram = weakref.proxy(d)  # d keeps the system (see `of`), not back
        self.boundary_level = boundary_level
        self.offsets = d.table.offsets[:boundary_level + 1]
        self.n_interior = n = int(self.offsets[-1])
        self.lap = laplacian(d, 0, boundary_level)
        # the boundary level's columns go
        self.matrix = free_matrix(self.lap, np.arange(self.lap.shape[1]) >= n)[0]
        self.degrees = d.degrees[:n]  # its diagonal
        _check_crossable(d, 0, boundary_level)  # else the matrix is singular
        self._lu = None
        self.diagnostics = {"path": "direct", "factorizations": 0, "solves": 0,
                            "max_residual": 0.0}

    @classmethod
    def of(cls, d: Diagram, boundary_level: int) -> "DirichletSystem":
        """d's system for the boundary level.  d keeps the last one built, as
        it keeps `degrees`, and one LU at a time; its table is read-only, so
        the system cannot go stale."""
        sysm = d.__dict__.get("_dirichlet")
        if sysm is None or sysm.boundary_level != boundary_level:
            d.__dict__.pop("_dirichlet", None)
            del sysm  # the old LU is freed before the new one is made
            sysm = d.__dict__["_dirichlet"] = cls(d, boundary_level)
        return sysm

    def flat(self, v: VertexId) -> int:
        self.diagram.check_vertex(v)
        if v.level >= self.boundary_level:
            raise ValueError(f"vertex {v} is not interior to level {self.boundary_level}")
        return int(self.offsets[v.level] + v.index)

    def _factor(self, matrix):
        import scipy.sparse.linalg as spla
        self.diagnostics["factorizations"] += 1
        # symmetric, so the CSR matrix's transpose is its CSC form, no copy
        return spla.splu(matrix.T, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)

    def _solve_flat(self, matrix, lu, b: np.ndarray) -> np.ndarray:
        report = self.diagnostics
        x = lu.solve(b)
        x += lu.solve(b - matrix @ x)
        report["solves"] += 1
        report["max_residual"] = max(report["max_residual"],
                                     float(np.abs(b - matrix @ x).max(initial=0.0)))
        return x

    def solve(self, source: Optional[Dict[VertexId, float]] = None,
              boundary_values: Optional[np.ndarray] = None,
              pinned: Optional[Dict[VertexId, float]] = None) -> LevelFunction:
        """Solve the Dirichlet problem; output has the boundary values at the
        boundary level and zeros at any deeper stored levels."""
        d, level, n = self.diagram, self.boundary_level, self.n_interior
        u = np.zeros(d.table.offsets[level + 1])  # the interior, then the boundary
        b = np.zeros(n)
        if source:
            for v, val in source.items():
                b[self.flat(v)] += val
        if boundary_values is not None:
            bvals = np.asarray(boundary_values, dtype=float).reshape(-1)
            if bvals.shape[0] != d.level_sizes[level]:
                raise ValueError("boundary values have the wrong length")
            u[n:] = bvals
        if pinned:
            at, fixed = [self.flat(v) for v in pinned], np.arange(u.size) >= n
            u[at], fixed[at] = list(pinned.values()), True
            lap = self.lap.masked(~fixed[self.lap.rows()])  # a pinned vertex's equation goes
            matrix, live = free_matrix(lap, fixed)
            b = fixed_rhs(d, lap, fixed, b, u)[live]
            u[~fixed] = self._solve_flat(matrix, self._factor(matrix), b)
        else:
            if u.any():  # the boundary values' terms, in level b-1's equations
                b = fixed_rhs(d, self.lap, np.arange(u.size) >= n, b, u)
            if self._lu is None:
                self._lu = self._factor(self.matrix)
            u[:n] = self._solve_flat(self.matrix, self._lu, b)
        return LevelFunction.from_flat(d, u)


# ---------------------------------------------------------------------------
# Exact killed-chain quantities
# ---------------------------------------------------------------------------

@dataclass
class GreenSolve:
    """Exact killed-chain quantities for a requested vertex list.

    green[i, j] = expected visits to vertices[j] started at vertices[i];
    reach_ratio[i, j] = green[i, j] / green[j, j] = F(vertices[i], vertices[j]);
    return_prob[j] = one-step return probability at vertices[j], read off the
    ratio column; diagnostics is a snapshot of the DirichletSystem's counts.
    """
    boundary_level: int
    vertices: tuple
    degrees: np.ndarray
    green: np.ndarray
    reach_ratio: np.ndarray
    return_prob: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def green_exact(d: Diagram, boundary_level: int,
                vertices: Optional[Sequence[VertexId]] = None) -> GreenSolve:
    """Exact Green's function of the walk killed at the boundary level.

    Column y solves L u = e_y on one shared factorization, giving G(x, y) =
    u(x) c(y).  u / u(y) is harmonic off y, 1 at y and 0 on the boundary
    level, so it is the hitting function: F(x, y) = G(x, y)/G(y, y) and
    U(y) = sum_z p(y, z) F(z, y).  `green_identity_report` checks these
    against independent pinned hitting solves.  Guarded against singular
    systems even though a killed irreducible chain cannot produce one.
    """
    sysm = DirichletSystem.of(d, boundary_level)
    if vertices is None:
        if sysm.n_interior > 4096:
            raise ValueError("interior too large to tabulate all pairs; pass `vertices`")
        vertices = [VertexId(n, i) for n in range(boundary_level)
                    for i in range(d.level_sizes[n])]
    vertices = tuple(vertices)
    # L u = e_y on the interior, one y at a time, and u = 0 on the boundary level
    return _green_solve(sysm, vertices, (sysm.solve(source={y: 1.0}).flat() for y in vertices))


def _green_solve(sysm: DirichletSystem, vertices: tuple, columns) -> GreenSolve:
    """green_exact on a given system, from the solutions of L u = e_y for the
    vertices y in order, flat from the root through at least the boundary
    level (an iterable, so that a generator holds one column at a time)."""
    idx = np.array([sysm.flat(v) for v in vertices], dtype=np.int64)
    degs = sysm.degrees[idx]
    green = np.empty((len(vertices),) * 2)
    step = np.empty(len(vertices))
    for j, u in enumerate(columns):
        green[:, j] = u[idx] * degs[j]
        # steps into the boundary level never return; u is 0 there
        step[j] = _p_row_apply(sysm, idx[j], u) / u[idx[j]]
    gdiag = np.diag(green)
    if np.any(gdiag <= 0):
        raise RuntimeError("singular killed-chain system: nonpositive diagonal Green value")
    return GreenSolve(boundary_level=sysm.boundary_level, vertices=vertices, degrees=degs,
                      green=green, reach_ratio=green / gdiag[None, :], return_prob=step,
                      diagnostics=dict(sysm.diagnostics))


def _p_row_apply(sysm: DirichletSystem, x: int, f: np.ndarray) -> float:
    """(P f)(x), one step of the walk from x (numbered as in sysm's matrix),
    read off x's row, whose entries off the diagonal are -c_xy on x's
    interior neighbours: f must be 0 on the boundary level.  Summed exactly
    rounded, so the value does not depend on how a dot product is split."""
    m = sysm.matrix
    at = slice(m.indptr[x], m.indptr[x + 1])
    cols = m.indices[at]
    off = cols != x
    return math.fsum(-m.data[at][off] * (1.0 / sysm.degrees[x]) * f[cols[off]])


@dataclass(frozen=True)
class GreenIdentityReport:
    """Max violations of the four reach/return/visit identities plus the two
    reversibility identities.  F_hit and U_hit come from independent pinned
    hitting solves, F_ratio and U_ratio from the Green solve, so none of the
    checks is vacuous."""
    diag_product: float      # G(x,x)(1 - U_hit(x,x)) = 1
    ratio_vs_hit: float      # G(x,y) = F_hit(x,y) G(y,y)
    one_step_return: float   # U_hit(x,x) = U_ratio(x,x) = sum_z p(x,z) F_ratio(z,x)
    one_step_reach: float    # F_ratio(x,y) = sum_z p(x,z) F_hit(z,y), x != y
    reversibility_g: float   # c(x) G(x,y) = c(y) G(y,x)
    reversibility_f: float   # c(x) F_hit(x,y) = c(y) F_hit(y,x)

    @property
    def max_violation(self) -> float:
        return max(astuple(self))


def green_identity_report(d: Diagram, gs: GreenSolve) -> GreenIdentityReport:
    """Check gs against the hitting route: for each vertex y, the Dirichlet
    problem harmonic off {y} with value 1 at y, solved with y pinned."""
    sysm = DirichletSystem.of(d, gs.boundary_level)
    hits = [sysm.solve(pinned={y: 1.0}) for y in gs.vertices]
    idx = np.array([sysm.flat(x) for x in gs.vertices], dtype=np.int64)
    f_hit = np.array([h.flat()[idx] for h in hits]).T
    u_hit = np.array([_p_row_apply(sysm, y, h.flat()) for y, h in zip(idx, hits)])
    gdiag = np.diag(gs.green)
    diag = np.abs(gdiag * (1.0 - u_hit) - 1.0).max()
    ratio_hit = np.abs(gs.green - f_hit * gdiag[None, :]).max()
    one_step_return = np.abs(u_hit - gs.return_prob).max()
    one_step_reach = max((abs(gs.reach_ratio[i, j] - _p_row_apply(sysm, x, h.flat()))
                          for j, h in enumerate(hits) for i, x in enumerate(idx)
                          if i != j), default=0.0)
    cg = gs.degrees[:, None] * gs.green
    rev_g = np.abs(cg - cg.T).max()
    cf = gs.degrees[:, None] * f_hit
    rev_f = np.abs(cf - cf.T).max()
    return GreenIdentityReport(diag_product=float(diag), ratio_vs_hit=float(ratio_hit),
                               one_step_return=float(one_step_return),
                               one_step_reach=float(one_step_reach),
                               reversibility_g=float(rev_g), reversibility_f=float(rev_f))


@dataclass(frozen=True)
class TransienceReport:
    """Empirical Green-increment test; a diagnostic, never a proof."""
    vertex: VertexId
    boundary_levels: tuple
    values: tuple
    increments: tuple
    converged: bool
    threshold: float


def transience_report(d: Diagram, x: VertexId, boundary_levels: Sequence[int],
                      threshold: float = 1e-6) -> TransienceReport:
    """G_N(x,x) along increasing boundary levels with relative increments."""
    levels = sorted(boundary_levels)
    vals = [float(green_exact(d, n, vertices=[x]).green[0, 0]) for n in levels]
    incs = [abs(b - a) / max(abs(b), 1.0) for a, b in zip(vals, vals[1:])]
    converged = bool(incs and incs[-1] <= threshold)
    return TransienceReport(vertex=x, boundary_levels=tuple(levels), values=tuple(vals),
                            increments=tuple(incs), converged=converged, threshold=threshold)


# ---------------------------------------------------------------------------
# Monopoles, dipoles, multipoles via the Green's function
# ---------------------------------------------------------------------------

def hitting_function(d: Diagram, x: VertexId, boundary_level: int) -> LevelFunction:
    """h_x(a) = F(a, x) of the killed chain, via the Green ratio G(a,x)/G(x,x).

    Harmonic off {x}, equal to 1 at x, zero at the boundary level.
    """
    u = DirichletSystem.of(d, boundary_level).solve(source={x: 1.0})
    return LevelFunction.from_flat(d, u.flat() / u.at(x))


def monopole_green(d: Diagram, x: VertexId, boundary_level: int) -> LevelFunction:
    """w_x(a) = G(a, x)/c(x), the Dirichlet solution of Delta w = delta_x."""
    return DirichletSystem.of(d, boundary_level).solve(source={x: 1.0})


def dipole_green(d: Diagram, x1: VertexId, x2: VertexId, boundary_level: int) -> LevelFunction:
    """v(a) = G(a,x1)/c(x1) - G(a,x2)/c(x2): Delta v = delta_x1 - delta_x2."""
    if x1 == x2:
        raise ValueError("dipole poles must be distinct")
    return DirichletSystem.of(d, boundary_level).solve(source={x1: 1.0, x2: -1.0})


def multipole(d: Diagram, x0: VertexId, poles: Sequence[Tuple[VertexId, float]],
              boundary_level: int) -> LevelFunction:
    """v = w_{x0} - sum_i alpha_i w_{x_i} with alpha_i >= 0 summing to 1."""
    weights = [float(a) for _, a in poles]
    if any(a < 0 for a in weights):
        raise ValueError("pole weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"pole weights sum to {sum(weights)}, expected 1")
    if len({x0, *(v for v, _ in poles)}) <= len(poles):
        raise ValueError("pole vertices must be distinct")
    source = {x0: 1.0, **{v: -a for (v, _), a in zip(poles, weights)}}
    return DirichletSystem.of(d, boundary_level).solve(source=source)


@dataclass
class DipoleMatrixResult:
    """Two-pole coefficient system built from the pair-hitting functions.

    matrix holds (Delta h_j)(x_i) evaluated from the computed pair-hitting
    functions (the definitional form, which makes the verification of
    Delta vbar = delta_x1 - delta_x2 exact); matrix_factored is the
    diag(c) [[1-U, -F], [-F, 1-U]] diagnostic form and det_closed_form the
    c1 c2 (1 - G12 G21) / (G11 G22) expression, reported for comparison.
    """
    matrix: np.ndarray
    matrix_factored: np.ndarray
    det_closed_form: float
    degenerate: bool
    alpha: Optional[float]
    beta: Optional[float]
    dipole: Optional[LevelFunction]
    pair_hitting: tuple
    residual: Optional[float]


def dipole_matrix_M(d: Diagram, x1: VertexId, x2: VertexId, boundary_level: int,
                    tol: float = DEFAULT_TOL) -> DipoleMatrixResult:
    """Solve M (alpha, beta)^T = (1, -1)^T for the two-pole combination of
    pair-hitting functions; degenerate pairs get the flag and no coefficients."""
    if x1 == x2:
        raise ValueError("poles must be distinct")
    sysm = DirichletSystem.of(d, boundary_level)
    # pair-hitting functions from the Green columns: h_j = sum_i coef[i, j] w_i
    # with coef = W^-1, W[a, i] = w_i(x_a) a principal block of L^-1
    cols = [sysm.solve(source={x: 1.0}) for x in (x1, x2)]
    coef = np.linalg.inv([[w.at(x) for w in cols] for x in (x1, x2)])
    w1, w2 = (w.flat() for w in cols)
    h1, h2 = (LevelFunction.from_flat(d, coef[0, j] * w1 + coef[1, j] * w2) for j in (0, 1))
    lap1, lap2 = (laplacian_apply(d, h) for h in (h1, h2))
    m = np.array([[lap1.at(x1), lap2.at(x1)],
                  [lap1.at(x2), lap2.at(x2)]])
    gs = _green_solve(sysm, (x1, x2), (w1, w2))
    (c1, c2), (u1, u2) = gs.degrees, gs.return_prob
    f12, f21 = gs.reach_ratio[0, 1], gs.reach_ratio[1, 0]
    m_fact = np.diag([c1, c2]) @ np.array([[1.0 - u1, -f12], [-f21, 1.0 - u2]])
    g12, g21 = gs.green[0, 1], gs.green[1, 0]
    det_closed = c1 * c2 * (1.0 - g12 * g21) / (gs.green[0, 0] * gs.green[1, 1])
    degenerate = bool(abs(g12 - np.sqrt(c2 / c1)) <= tol
                      or abs(np.linalg.det(m)) <= tol * max(abs(m).max() ** 2, 1.0))
    alpha = beta = vbar = resid = None
    if not degenerate:
        alpha, beta = (float(t) for t in np.linalg.solve(m, np.array([1.0, -1.0])))
        vbar = LevelFunction.from_flat(d, alpha * h1.flat() + beta * h2.flat())
        lap = laplacian_apply(d, vbar)
        resid = max(abs(lap.at(x1) - 1.0), abs(lap.at(x2) + 1.0))
    return DipoleMatrixResult(matrix=m, matrix_factored=m_fact, det_closed_form=det_closed,
                              degenerate=degenerate, alpha=alpha, beta=beta, dipole=vbar,
                              pair_hitting=(h1, h2), residual=resid)


# ---------------------------------------------------------------------------
# Monte Carlo walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkConfig:
    """Simulation parameters; walks are killed on arrival at absorb_level."""
    max_steps: int
    num_walks: int
    seed: int
    absorb_level: int

    def __post_init__(self):
        if self.max_steps < 1 or self.num_walks < 1:
            raise ValueError("max_steps and num_walks must be >= 1")
        if self.num_walks >= 2 ** 63:  # lanes are int64; a walk's number is a counter word
            raise ValueError(f"num_walks must be below 2**63, not {self.num_walks}")


@dataclass
class PairEstimate:
    target: VertexId
    reach: float            # fraction of completed walks that visit the target
    reach_stderr: float
    visits: float           # mean visit count over completed walks
    visits_stderr: float


@dataclass
class WalkEstimates:
    """Seed-reproducible Monte Carlo estimates for (start, target) pairs.

    Walks that hit the step cap before absorbing are excluded from the
    estimates and counted in n_capped; conditioning on completion slightly
    underweights long excursions (bias note in `notes`).
    forward_fraction[m] is the fraction of completed walks whose first
    visits progressed level by level from level m on.  diagnostics holds
    the engine's counts: `steps` taken over all walks, which depends only on
    the inputs and the seed, and the `draws` and `refills` made.
    """
    start: VertexId
    config: WalkConfig
    pairs: List[PairEstimate]
    return_prob: float
    return_stderr: float
    n_absorbed: int
    n_capped: int
    forward_fraction: Dict[int, float]
    notes: str = ("estimates condition on walks that reached the absorbing level "
                  "within the step cap; capped walks are reported, not resampled")
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Transitions:
    """The killed walk's next-vertex tables on levels 0..absorb_level.

    Vertices are numbered level by level (offsets[n] is level n's first
    number).  Column x of `cum` holds the cumulative transition
    probabilities of vertex x over its neighbours (parents, then children,
    in stored order), padded with +inf; row x of `nbr` holds those
    neighbours, padded with the last one.  A draw u moves x to
    nbr[x, #{entries of cum[:, x] below u}], the bisect_left position.  A
    vertex of the absorbing level, which has no row of Delta here, holds
    the walk: its column of `cum` is all +inf and its row of `nbr` is x.
    """
    offsets: np.ndarray
    level: np.ndarray
    degree: np.ndarray
    cum: np.ndarray
    nbr: np.ndarray


def _transitions(d: Diagram, absorb_level: int) -> _Transitions:
    """The walk's tables; raises ValueError where operators.laplacian does."""
    lap = laplacian(d, 0, absorb_level)
    offsets, n_all = d.table.offsets[:absorb_level + 2], lap.shape[1]
    # each vertex's row off the diagonal, its neighbours: parents, then children
    lap = lap.masked(lap.indices != lap.rows())
    degree = np.zeros(n_all, dtype=np.int64)
    degree[:lap.shape[0]] = np.diff(lap.indptr)
    width = int(degree.max())
    # one row per neighbour slot, so a step gathers whole rows; a vertex of
    # the absorbing level keeps +inf and itself
    cum = np.full((width, n_all), np.inf)
    nbr = np.repeat(np.arange(n_all, dtype=np.int64), width + 1).reshape(n_all, width + 1)
    for k in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == k)
        at = lap.indptr[rows][:, None] + np.arange(k)
        w = -lap.data[at]
        # numpy's pairwise sum of each row, as w.sum() of that row alone gives
        cum[:k, rows] = (np.cumsum(w, axis=1) / w.sum(axis=1)[:, None]).T
        nbr[rows, :k] = lap.indices[at]
        nbr[rows, k:] = nbr[rows, k - 1:k]
    # levels in the smallest signed type that also holds -1, for the bookkeeping
    level = np.repeat(np.arange(absorb_level + 1, dtype=np.min_scalar_type(-absorb_level - 1)),
                      np.diff(offsets))
    return _Transitions(offsets=offsets, level=level, degree=degree, cum=cum, nbr=nbr)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11) as numpy's Philox bit generator computes it.
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_KEYS = tuple((np.uint64(r * 0x9E3779B97F4A7C15 % 2 ** 64),
                      np.uint64(r * 0xBB67AE8584CAA73B % 2 ** 64)) for r in range(10))
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Counters per pass of rounds 3-10.  Passes of 2**13 were slower than
# passes of 2**15 on a 2-core Xeon: 25.7 against 23.5 ms for 19,250 walks x
# 8 blocks, 5.05 against 4.07 ms for 1,000 x 32; per-call overhead, not
# cache misses, decides.
_PHILOX_CHUNK = 1 << 15
_MAX_BLOCKS = 32         # Philox blocks per refill: 128 draws per walk
# Draws per refill over all walks (a 1 MB buffer).  A walk absorbed early in
# a refill is held to its end, so smaller refills draw and step less for
# walks that have ended: for 350 walks from each of pascal:10's 55 starts,
# 853,700 draws for 641,882 steps at 2**17, against 945,024 at 2**20.  In a
# sweep of 2**16 to 2**20, 2**18 and up were slower on that case.
_MAX_DRAWS = 1 << 17
# Walks still running after a refill, at or below which each finishes on
# its own: a lockstep step costs about 6 numpy calls whatever the lanes,
# so for a few lanes a Python step per lane is cheaper.
_SCALAR_LANES = 24
_LANES = 1 << 15         # walks stepped together; bounds the engine's memory


def _mulhi(x: np.ndarray, m) -> np.ndarray:
    """High word of the 128-bit products x * m, from 32-bit limbs.

    With x = 2**32 hi + lo and m likewise, t = hi m_lo + (lo m_lo >> 32) +
    (lo m_hi & 0xFFFFFFFF) is at most (2**32 - 1)**2 + 2 (2**32 - 1) =
    2**64 - 1, so it cannot overflow, and the high word is
    hi m_hi + (lo m_hi >> 32) + (t >> 32)."""
    _, m_lo, m_hi = m
    lo, hi = x & _LO32, x >> _S32
    lh = lo * m_hi
    lo *= m_lo
    lo >>= _S32
    t = hi * m_lo
    t += lo
    np.bitwise_and(lh, _LO32, out=lo)
    t += lo
    t >>= _S32
    hi *= m_hi
    hi += t
    lh >>= _S32
    hi += lh
    return hi


def _philox_doubles(key: np.ndarray, walk: np.ndarray, first_block: int,
                    n_blocks: int) -> np.ndarray:
    """Uniform doubles of many walks' substreams at once.

    Returns u with u[e, b, i] equal to draw 4 * (first_block - 1 + b) + e of
    Generator(Philox(key=key[i], counter=[0, 0, walk[i], 0])).random():
    block c = 1, 2, ... is Philox4x64-10 of counter (c, 0, walk[i], 0) under
    key (key[i], 0), and each of its four words w gives (w >> 11) * 2**-53.

    Round 1 multiplies only the block word c and the walk word, and round 2
    only words that round 1 made of one of them, so both rounds run on
    vectors of blocks and of lanes.  Rounds 3-10 run on the (blocks x
    lanes) grid, which is built by broadcasting, at most _PHILOX_CHUNK
    counters at a time.
    """
    lanes = key.size
    m0, m1 = _PHILOX_M[0][0], _PHILOX_M[1][0]
    key0, key1 = _PHILOX_KEYS[1]     # round 2's key bumps; round 1 adds none
    c = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)
    # round 1: words 0 and 1 depend on the lane only, words 2 and 3 on the block
    lane0, lane1 = _mulhi(walk, _PHILOX_M[1]) ^ key, walk * m1
    block2, block3 = _mulhi(c, _PHILOX_M[0]), c * m0
    # round 2: word 0 is block0 ^ lane0x, 1 is block1, 2 is block3 ^ lane2x, 3 is lane3
    block0, block1 = _mulhi(block2, _PHILOX_M[1]), block2 * m1
    lane0x = lane1 ^ (key + key0)
    lane2x, lane3 = _mulhi(lane0, _PHILOX_M[0]) ^ key1, lane0 * m0
    out = np.empty((4, n_blocks, lanes))
    width = max(1, min(lanes, _PHILOX_CHUNK))
    height = max(1, _PHILOX_CHUNK // width)
    for b in range(0, n_blocks, height):
        rows = slice(b, b + height)
        for i in range(0, lanes, width):
            cols = slice(i, i + width)
            k = key[cols]
            c0 = block0[rows, None] ^ lane0x[cols]
            c1 = block1[rows, None]
            c2 = block3[rows, None] ^ lane2x[cols]
            c3 = lane3[cols]
            for k0, k1 in _PHILOX_KEYS[2:]:
                hi1 = _mulhi(c2, _PHILOX_M[1])
                c2 *= m1
                hi0 = _mulhi(c0, _PHILOX_M[0])
                c0 *= m0
                hi1 ^= c1
                hi1 ^= k + k0
                hi0 ^= c3
                hi0 ^= k1
                c0, c1, c2, c3 = hi1, c2, hi0, c0
            for e, word in enumerate((c0, c1, c2, c3)):
                np.multiply(word >> np.uint64(11), 2.0 ** -53, out=out[e, rows, cols])
    return out


def _walk_blocks(tr: _Transitions, v: np.ndarray, key: np.ndarray, walk: np.ndarray,
                 max_steps: int, counts: Dict[str, int]):
    """Run killed walks, one lane each, until absorption or the cap.

    Lane i starts at vertex v[i] and takes step k with the k-th double of its
    substream (key[i], walk[i]) (see _philox_doubles), moving to the
    neighbour that bisect_left picks in its cumulative row; a draw at or
    above the row's last entry (possible only by rounding) takes the last
    neighbour.  The lanes run in lockstep, one block of steps per refill of
    draws for the lanes still running when it starts.  A refill doubles up
    to _MAX_BLOCKS blocks, fewer when many lanes run, so that it makes at
    most about _MAX_DRAWS draws; the cap ends the last refill.  Each refill
    yields (lane, path): path[s, j] is the vertex of lane lane[j] after the
    refill's step s.  An absorbed lane is held at its absorbing vertex until
    the refill ends, so a lane's last entry is its absorbing vertex, or a
    vertex above the absorbing level if it hit the cap.

    Once a refill leaves at most _SCALAR_LANES lanes running, each of them
    finishes on its own, from its own numpy Philox generator set to the
    same substream and by bisect_left on its vertex's row, and yields its
    own path, which ends where the walk does.  Adds to counts the steps the
    walks take, the draws made and the refills (a lockstep refill or one
    lane's batch of draws).  Every vertex above the absorbing level has a
    neighbour: the tables come from operators.laplacian, which refuses a
    vertex without edges.
    """
    n_int = int(tr.offsets[-2])
    stride = tr.nbr.shape[1]
    nbr = tr.nbr.ravel()
    lane = np.arange(v.size)
    step, grow = 0, 1
    while step < max_steps and lane.size:
        blocks = max(1, min(grow, _MAX_BLOCKS, _MAX_DRAWS // (4 * lane.size)))
        draws = _philox_doubles(key[lane], walk[lane], step // 4 + 1, blocks)
        path = np.empty((min(4 * blocks, max_steps - step), lane.size), dtype=nbr.dtype)
        cum = np.empty((tr.cum.shape[0], lane.size))
        below = np.empty(cum.shape, dtype=bool)
        at, count = np.empty((2, lane.size), dtype=nbr.dtype)
        for s in range(path.shape[0]):
            tr.cum.take(v, axis=1, out=cum)
            np.less(cum, draws[s % 4, s // 4], out=below)
            np.add.reduce(below, axis=0, out=count)
            np.multiply(v, stride, out=at)
            at += count
            v = path[s]
            nbr.take(at, out=v)
        yield lane, path
        running = v < n_int
        # a walk absorbed in this refill took one step onto the absorbing level
        counts["steps"] += int(np.count_nonzero(path < n_int) + lane.size
                               - np.count_nonzero(running))
        counts["draws"] += draws.size
        counts["refills"] += 1
        lane, v = lane[running], v[running]
        step += path.shape[0]
        grow *= 2
        if lane.size <= _SCALAR_LANES:
            break
    if step >= max_steps:
        return
    # a refill ends on a block boundary unless the cap ended it, so each
    # lane left has used blocks 1..step // 4 of its substream
    rows = {}
    for i, x in zip(lane.tolist(), v.tolist()):
        rng = np.random.Generator(np.random.Philox(
            key=int(key[i]), counter=np.array([step // 4, 0, walk[i], 0], dtype=np.uint64)))
        own = []
        while len(own) < max_steps - step and x < n_int:
            draws = rng.random(min(4 * _MAX_BLOCKS, max_steps - step - len(own)))
            counts["draws"] += draws.size
            counts["refills"] += 1
            for u in draws.tolist():
                row = rows.get(x)
                if row is None:
                    k = int(tr.degree[x])
                    row = rows[x] = (tr.cum[:k, x].tolist(), tr.nbr[x, :k + 1].tolist())
                x = row[1][bisect_left(row[0], u)]
                own.append(x)
                if x >= n_int:
                    break
        counts["steps"] += len(own)
        yield np.array([i]), np.array(own, dtype=nbr.dtype)[:, None]


def _check_crossable(d: Diagram, top: int, absorb_level: int) -> None:
    """Raise ValueError if some level pair between level top and the
    absorbing level has no edge, which cuts level top off from it."""
    starts = d.table.starts
    for n in range(top, absorb_level):
        if starts[n] == starts[n + 1]:
            raise ValueError(f"level {n} has no edges to level {n + 1}: levels {top}..{n} "
                             f"are cut off from the absorbing level {absorb_level}")


def simulate_walks(d: Diagram, start: VertexId, cfg: WalkConfig,
                   targets: Sequence[VertexId] = ()) -> WalkEstimates:
    """Simulate killed walks from `start` and estimate reach probabilities,
    visit counts, and the return probability.

    Deterministic for a fixed seed: walk i draws from its own counter-based
    Philox substream (key seed mod 2**64, counter word i), and results are
    reduced in walk-index order.  A target listed twice is reported twice.
    """
    d.check_vertex(start)
    if not (start.level < cfg.absorb_level <= d.num_levels):
        raise ValueError("need start.level < absorb_level <= stored depth")
    _check_crossable(d, start.level, cfg.absorb_level)
    tr = _transitions(d, cfg.absorb_level)
    start_flat = int(tr.offsets[start.level]) + start.index
    targets = list(targets)
    for t in targets:
        d.check_vertex(t)
        if t.level >= cfg.absorb_level:
            raise ValueError(f"target {t} is not interior to the absorbing level")
    # visit-count column per vertex: one per distinct target (tcol[j] is
    # target j's); k counts returns to a start that is not a target, k + 1
    # all other visits, the absorbing ones included
    uniq, tcol = np.unique(np.array([tr.offsets[t.level] + t.index for t in targets],
                                    dtype=np.int64), return_inverse=True)
    k = uniq.size
    col = np.full(tr.level.size, k + 1)
    col[uniq] = np.arange(k)
    initial = int(col[start_flat] < k)  # a start that is a target counts its first visit
    col[start_flat] = min(col[start_flat], k)
    ret = col[start_flat]

    reach_hits = np.zeros(k)
    visit_sum = np.zeros(k)
    visit_sq = np.zeros(k)
    returns = 0
    done = []
    counts = dict(steps=0, draws=0, refills=0)
    for w0 in range(0, cfg.num_walks, _LANES):
        n = min(_LANES, cfg.num_walks - w0)
        visits = np.zeros((n, k + 2), dtype=np.int64)
        visits[:, ret] = initial
        # forward bookkeeping: bad is the deepest level so far at the last
        # step that reached no new level (-1 before any such step); after
        # it the walk first-visits bad + 1, bad + 2, ... on successive
        # steps, so bad is the deepest level where that fails
        deep, bad = np.full(n, start.level, tr.level.dtype), np.full(n, -1, tr.level.dtype)
        for lane, path in _walk_blocks(
                tr, np.full(n, start_flat), np.full(n, cfg.seed % 2 ** 64, dtype=np.uint64),
                np.arange(w0, w0 + n, dtype=np.uint64), cfg.max_steps, counts):
            visits[lane] += np.bincount((col[path] + (k + 2) * np.arange(lane.size)).ravel(),
                                        minlength=lane.size * (k + 2)).reshape(lane.size, k + 2)
            lv = tr.level[path]
            prior = np.maximum.accumulate(np.vstack([deep[lane], lv[:-1]]), axis=0)
            # a held step is at the absorbing level, which a walk reaches only once
            stalled = (lv <= prior) & (lv < cfg.absorb_level)
            bad[lane] = np.maximum(bad[lane], np.where(stalled, prior, -1).max(axis=0))
            deep[lane] = np.maximum(prior[-1], lv[-1])
        absorbed = deep == cfg.absorb_level
        vis = visits[absorbed]
        reach_hits += (vis[:, :k] > 0).sum(axis=0)
        visit_sum += vis[:, :k].sum(axis=0)
        visit_sq += (vis[:, :k] ** 2).sum(axis=0)
        returns += int((vis[:, ret] > initial).sum())
        done.append(bad[absorbed])
    # per absorbed walk, in walk-index order: the worst level whose next
    # level's first visit did not follow its own by one step (-1 if none)
    done = np.concatenate(done)
    n_absorbed = int(done.size)
    n_capped = cfg.num_walks - n_absorbed
    n = max(n_absorbed, 1)
    pairs = []
    for t, j in zip(targets, tcol.tolist()):
        p = reach_hits[j] / n
        pse = float(np.sqrt(max(p * (1 - p), 0.0) / n))
        mean = visit_sum[j] / n
        var = max(visit_sq[j] / n - mean ** 2, 0.0)
        vse = float(np.sqrt(var / n))
        if t == start:
            p, pse = 1.0, 0.0  # tau(start) = 0: reached by definition
        pairs.append(PairEstimate(target=t, reach=float(p), reach_stderr=pse,
                                  visits=float(mean), visits_stderr=vse))
    rp = returns / n
    rse = float(np.sqrt(max(rp * (1 - rp), 0.0) / n))
    fwd = {}
    for m in range(start.level, cfg.absorb_level):
        fwd[m] = float((done < m).sum() / n) if n_absorbed else 0.0
    return WalkEstimates(start=start, config=cfg, pairs=pairs, return_prob=float(rp),
                         return_stderr=rse, n_absorbed=n_absorbed, n_capped=n_capped,
                         forward_fraction=fwd, diagnostics=counts)


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

@dataclass
class PoissonResult:
    """Harmonic extension of boundary data at one level.

    Exact mode solves the Dirichlet problem and keeps a snapshot of its
    DirichletSystem's diagnostics; Monte Carlo mode estimates E_x[f_n at the
    first visit to V_n] per vertex with standard errors (stderr is None in
    exact mode), and its diagnostics are the walk engine's counts (see
    WalkEstimates).  Capped walks are excluded and counted.
    """
    values: LevelFunction
    stderr: Optional[LevelFunction]
    method: str
    n_capped: int = 0
    diagnostics: dict = field(default_factory=dict)


def check_target_level(d: Diagram, target_level: int) -> None:
    """Raise ValueError unless target_level is a boundary level of d's
    stored prefix, 1..N."""
    if not (1 <= target_level <= d.num_levels):
        raise ValueError("target level must be within the stored prefix")


def poisson_kernel(d: Diagram, f_n: np.ndarray, target_level: int,
                   method: str = "exact-dirichlet",
                   cfg: Optional[WalkConfig] = None) -> PoissonResult:
    """Harmonic function on levels 0..target_level with boundary data f_n.

    The value at a boundary vertex is f_n exactly in both modes.  A value
    of f_n that is not finite, or a Monte Carlo cfg whose absorb_level is
    not target_level, raises ValueError.
    """
    f_n = np.asarray(f_n, dtype=float).reshape(-1)
    check_target_level(d, target_level)
    if f_n.shape[0] != d.level_sizes[target_level]:
        raise ValueError("boundary data has the wrong length")
    check_finite(d, f_n, target_level)
    if method == "exact-dirichlet":
        sysm = DirichletSystem.of(d, target_level)
        u = sysm.solve(boundary_values=f_n).flat()
        return PoissonResult(values=LevelFunction.from_flat(d, u, target_level + 1), stderr=None,
                             method=method, diagnostics=dict(sysm.diagnostics))
    if method != "monte-carlo":
        raise ValueError(f"unknown method {method!r}")
    if cfg is None:
        raise ValueError("monte-carlo mode needs a WalkConfig")
    if cfg.absorb_level != target_level:
        raise ValueError(f"absorb_level {cfg.absorb_level} is not the target level {target_level}")
    _check_crossable(d, 0, target_level)
    tr = _transitions(d, target_level)
    n_int, walks = int(tr.offsets[target_level]), cfg.num_walks
    vals, errs = np.zeros(n_int + f_n.size), np.zeros(n_int)
    vals[n_int:] = f_n
    capped, counts = 0, dict(steps=0, draws=0, refills=0)
    # lanes are (start vertex, walk) pairs, at most _LANES stepped together
    # and made a slice at a time; start x's walk w draws from the substream
    # of key seed + 7919 x (mod 2**64) and counter word w
    per = max(1, _LANES // walks)
    for x0 in range(0, n_int, per):
        xs = np.arange(x0, min(x0 + per, n_int))
        keys = np.uint64(cfg.seed % 2 ** 64) + np.uint64(7919) * xs.astype(np.uint64)
        last = np.empty(xs.size * walks, dtype=np.int64)
        for l0 in range(0, last.size, _LANES):
            at = slice(l0, min(l0 + _LANES, last.size))
            i, walk = np.divmod(np.arange(at.start, at.stop), walks)
            for lane, path in _walk_blocks(tr, xs[i], keys[i], walk.astype(np.uint64),
                                           cfg.max_steps, counts):
                last[at][lane] = path[-1]
        exit_ = last.reshape(xs.size, walks)
        ok = exit_ >= n_int
        capped += int(ok.size - ok.sum())
        samples = f_n[np.where(ok, exit_ - tr.offsets[target_level], 0)]
        # the starts without a capped walk reduce row by row in one call,
        # with the same bits as each row's own mean and std
        full = ok.all(axis=1)
        rows = samples[full]
        vals[xs[full]] = rows.mean(axis=1)
        if walks > 1:
            errs[xs[full]] = rows.std(axis=1, ddof=1) / np.sqrt(walks)
        for i in np.flatnonzero(~full):
            arr = samples[i][ok[i]]
            if arr.size:
                vals[xs[i]] = arr.mean()
                errs[xs[i]] = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
    return PoissonResult(values=LevelFunction.from_flat(d, vals, target_level + 1),
                         stderr=LevelFunction.from_flat(d, errs, target_level + 1),
                         method=method, n_capped=capped, diagnostics=counts)


@dataclass
class StabilizationReport:
    """Pointwise behavior of h_n(x) over increasing boundary levels for a
    compatible family (P<-_n f_{n+1} = f_n past n0)."""
    vertex: VertexId
    levels: tuple
    values: tuple
    stabilization_level: Optional[int]
    harmonic_residual: float
    compatibility_residuals: tuple


def poisson_stabilization(d: Diagram, f: LevelFunction, x: VertexId,
                          n0: int = 1, tol: float = DEFAULT_TOL) -> StabilizationReport:
    """Track h_n(x) for n past x's level and report where it stabilizes.

    Raises on the first level >= n0 violating the compatibility hypothesis
    P<-_n f_{n+1} = f_n.
    """
    f.check_shape(d)
    d.check_vertex(x)
    c = build_level_operators(d)
    t, lo = d.table, min(max(n0, 0), d.num_levels)
    base = t.offsets[lo]
    flat = f.flat()[base:]
    # |P<-_n f_{n+1} - f_n| from the table's child sums; level N's is dropped
    gap = np.abs(t.edge_sums(lo, d.num_levels, flat, 1.0 / c[base:])[0] - flat)
    compat = np.maximum.reduceat(gap, t.offsets[lo:-1] - base).tolist()[:-1]
    for n, r in enumerate(compat, start=lo):
        if r > tol:
            raise ValueError(f"compatibility violated at level {n}: residual {r:.3e}")
    first = max(x.level + 1, n0, 1)
    levels = list(range(first, d.num_levels + 1))
    values, solution = [], None
    for n in levels:  # each n > x.level, so x is interior to every solve
        solution = poisson_kernel(d, f.values[n], n).values
        values.append(solution.at(x))
    stab = next((lv for i, lv in enumerate(levels)
                 if all(abs(v - values[-1]) <= tol for v in values[i:])), None)
    # harmonicity of the limit at x, evaluated on the deepest solve
    resid = float("nan")
    if solution is not None:
        rep = harmonicity_check(d, solution)
        resid = rep.residuals[x.level] if x.level < len(rep.residuals) else float("nan")
    return StabilizationReport(vertex=x, levels=tuple(levels), values=tuple(values),
                               stabilization_level=stab, harmonic_residual=resid,
                               compatibility_residuals=tuple(compat))
