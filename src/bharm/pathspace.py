"""Killed random walks and their exact counterparts: Monte Carlo estimates of
reach/return/visit quantities, truncated Green's functions via Dirichlet
solves, monopoles and dipoles from the Green's function, the two-pole
coefficient matrix, and the Poisson-kernel representation of harmonic
functions.

Truncation convention: the walk is absorbed on arrival at the boundary level
(Dirichlet).  The infinite-network quantities are the monotone limits over
the boundary level; convergence is assessed empirically and never claimed as
a proof of transience.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._matops import matvec, stored_entries, to_dense
from .diagram import Diagram, VertexId
from .harmonic import harmonicity_check
from .operators import LevelFunction, build_level_operators

# Direct sparse factorization up to this many interior vertices, CG beyond.
DIRECT_THRESHOLD = 50_000
CG_RTOL = 1e-12
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Dirichlet systems on the truncated network
# ---------------------------------------------------------------------------

class DirichletSystem:
    """Conductance Laplacian on levels 0..boundary_level-1 with absorbing
    boundary at `boundary_level`; reusable factorized solver.

    Solves Delta u = source on the interior with u = boundary_values on the
    boundary level and optional pinned interior vertices.
    """

    def __init__(self, d: Diagram, boundary_level: int):
        if not (1 <= boundary_level <= d.num_levels):
            raise ValueError("boundary level must be within the stored prefix")
        self.diagram = d
        self.boundary_level = boundary_level
        sizes = d.level_sizes[:boundary_level]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.n_interior = int(self.offsets[-1])
        self.degrees = np.concatenate(
            [d.degree_vector(n) for n in range(boundary_level)])
        rows, cols, vals = [], [], []
        for n in range(boundary_level - 1):
            cm = sp.coo_matrix(d.conductance[n])
            rows.append(cm.row + self.offsets[n])
            cols.append(cm.col + self.offsets[n + 1])
            vals.append(-cm.data)
        idx = np.arange(self.n_interior)
        rows.append(idx)
        cols.append(idx)
        vals.append(self.degrees)
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
        upper = sp.coo_matrix((v, (r, c)), shape=(self.n_interior, self.n_interior))
        off = upper.copy()
        off.setdiag(0)
        self.matrix = (upper + off.T).tocsr()
        self._lu = None

    def flat(self, v: VertexId) -> int:
        self.diagram.check_vertex(v)
        if v.level >= self.boundary_level:
            raise ValueError(f"vertex {v} is not interior to level {self.boundary_level}")
        return int(self.offsets[v.level] + v.index)

    def _solve_flat(self, matrix, b: np.ndarray) -> np.ndarray:
        if matrix.shape[0] <= DIRECT_THRESHOLD:
            if matrix is self.matrix:
                if self._lu is None:
                    self._lu = spla.splu(self.matrix.tocsc())
                return self._lu.solve(b)
            return spla.splu(matrix.tocsc()).solve(b)
        diag = matrix.diagonal()
        precond = spla.LinearOperator(matrix.shape, matvec=lambda x: x / diag)
        scale = float(np.linalg.norm(b)) or 1.0
        x, info = spla.cg(matrix, b, rtol=CG_RTOL, atol=1e-14 * scale, M=precond,
                          maxiter=20 * int(np.sqrt(matrix.shape[0]) + 1000))
        if info != 0:
            raise RuntimeError(f"conjugate gradient did not converge (info={info})")
        return x

    def solve(self, source: Optional[Dict[VertexId, float]] = None,
              boundary_values: Optional[np.ndarray] = None,
              pinned: Optional[Dict[VertexId, float]] = None) -> LevelFunction:
        """Solve the Dirichlet problem; output has the boundary values at the
        boundary level and zeros at any deeper stored levels."""
        d = self.diagram
        b = np.zeros(self.n_interior)
        if source:
            for v, val in source.items():
                b[self.flat(v)] += val
        if boundary_values is not None:
            bvals = np.asarray(boundary_values, dtype=float).reshape(-1)
            if bvals.shape[0] != d.level_sizes[self.boundary_level]:
                raise ValueError("boundary values have the wrong length")
            if np.any(bvals != 0.0):
                coupling = d.conductance[self.boundary_level - 1]
                b[self.offsets[-2]:] += matvec(coupling, bvals)
        else:
            bvals = np.zeros(d.level_sizes[self.boundary_level])
        if pinned:
            pin_idx = np.array(sorted(self.flat(v) for v in pinned), dtype=int)
            pin_val = np.array([val for _, val in
                                sorted((self.flat(v), val) for v, val in pinned.items())])
            keep = np.setdiff1d(np.arange(self.n_interior), pin_idx)
            sub = self.matrix[keep][:, keep].tocsr()
            rhs = b[keep] - self.matrix[keep][:, pin_idx] @ pin_val
            u = np.zeros(self.n_interior)
            u[keep] = self._solve_flat(sub, rhs)
            u[pin_idx] = pin_val
        else:
            u = self._solve_flat(self.matrix, b)
        values = [u[self.offsets[n]:self.offsets[n + 1]].copy()
                  for n in range(self.boundary_level)]
        values.append(bvals.copy())
        for n in range(self.boundary_level + 1, d.num_levels + 1):
            values.append(np.zeros(d.level_sizes[n]))
        return LevelFunction(values)


def dirichlet_solve(d: Diagram, boundary_level: int,
                    boundary_values: Optional[np.ndarray] = None,
                    source: Optional[Dict[VertexId, float]] = None,
                    pinned: Optional[Dict[VertexId, float]] = None) -> LevelFunction:
    """One-shot Dirichlet solve; see DirichletSystem for the conventions."""
    return DirichletSystem(d, boundary_level).solve(
        source=source, boundary_values=boundary_values, pinned=pinned)


# ---------------------------------------------------------------------------
# Exact killed-chain quantities
# ---------------------------------------------------------------------------

@dataclass
class GreenSolve:
    """Exact killed-chain quantities for a requested vertex list.

    green[i, j] = expected visits to vertices[j] started at vertices[i];
    reach_ratio[i, j] = green[i, j] / green[j, j] (the Green-ratio route to
    the reach probability); reach_hit[i, j] = the same probability computed
    by an independent Dirichlet hitting solve; return_prob[j] = one-step
    return probability at vertices[j] built from the hitting solves.
    Columns of the underlying solves are kept for full-network functions.
    """
    boundary_level: int
    vertices: tuple
    degrees: np.ndarray
    green: np.ndarray
    reach_ratio: np.ndarray
    reach_hit: np.ndarray
    return_prob: np.ndarray
    green_columns: list = field(default_factory=list)
    hit_columns: list = field(default_factory=list)


def green_exact(d: Diagram, boundary_level: int,
                vertices: Optional[Sequence[VertexId]] = None) -> GreenSolve:
    """Exact Green's function of the walk killed at the boundary level.

    Column y solves the conductance-Laplacian system L u = e_y, giving
    G(x, y) = u(x) c(y); the independent hitting route solves the Dirichlet
    problem harmonic off {y} with value 1 at y.  Guarded against singular
    systems even though a killed irreducible chain cannot produce one.
    """
    sysm = DirichletSystem(d, boundary_level)
    if vertices is None:
        if sysm.n_interior > 4096:
            raise ValueError("interior too large to tabulate all pairs; pass `vertices`")
        vertices = [VertexId(n, i) for n in range(boundary_level)
                    for i in range(d.level_sizes[n])]
    vertices = tuple(vertices)
    flat = [sysm.flat(v) for v in vertices]
    degs = np.array([sysm.degrees[k] for k in flat])
    k = len(vertices)
    g_cols, h_cols = [], []
    for v in vertices:
        u = sysm.solve(source={v: 1.0})
        g_cols.append(u)
        h = sysm.solve(pinned={v: 1.0})
        h_cols.append(h)
    green = np.empty((k, k))
    reach_hit = np.empty((k, k))
    for j, (u, h) in enumerate(zip(g_cols, h_cols)):
        for i, v in enumerate(vertices):
            green[i, j] = u.at(vertices[i]) * degs[j]
            reach_hit[i, j] = h.at(vertices[i])
    gdiag = np.diag(green)
    if np.any(gdiag <= 0):
        raise RuntimeError("singular killed-chain system: nonpositive diagonal Green value")
    reach_ratio = green / gdiag[None, :]
    ops = build_level_operators(d)
    # steps into the boundary level never return; h is 0 there
    return_prob = np.array([_p_row_apply(d, ops, v, h) for v, h in zip(vertices, h_cols)])
    return GreenSolve(boundary_level=boundary_level, vertices=vertices, degrees=degs,
                      green=green, reach_ratio=reach_ratio, reach_hit=reach_hit,
                      return_prob=return_prob, green_columns=g_cols, hit_columns=h_cols)


def _p_row_apply(d: Diagram, ops, v: VertexId, f: LevelFunction) -> float:
    """(P f)(v): one step of the walk from v, read off v's transition rows."""
    total = 0.0
    if v.level > 0:
        total += float(np.dot(to_dense(ops.p_fwd[v.level][[v.index], :]).ravel(),
                              f.values[v.level - 1]))
    if v.level < d.num_levels:
        total += float(np.dot(to_dense(ops.p_back[v.level][[v.index], :]).ravel(),
                              f.values[v.level + 1]))
    return total


@dataclass(frozen=True)
class GreenIdentityReport:
    """Max violations of the four reach/return/visit identities plus the two
    reversibility identities, mixing the Green route and the hitting route so
    none of the checks is vacuous."""
    diag_product: float      # G(x,x)(1 - U(x,x)) = 1
    ratio_vs_hit: float      # G(x,y) = F_hit(x,y) G(y,y)
    one_step_return: float   # U(x,x) = sum_z p(x,z) F_ratio(z,x)
    one_step_reach: float    # F(x,y) = sum_z p(x,z) F(z,y), x != y
    reversibility_g: float   # c(x) G(x,y) = c(y) G(y,x)
    reversibility_f: float   # c(x) F(x,y) = c(y) F(y,x)

    @property
    def max_violation(self) -> float:
        return max(self.diag_product, self.ratio_vs_hit, self.one_step_return,
                   self.one_step_reach, self.reversibility_g, self.reversibility_f)


def green_identity_report(d: Diagram, gs: GreenSolve) -> GreenIdentityReport:
    k = len(gs.vertices)
    diag = np.abs(np.diag(gs.green) * (1.0 - gs.return_prob) - 1.0).max()
    ratio_hit = np.abs(gs.green - gs.reach_hit * np.diag(gs.green)[None, :]).max()
    ops = build_level_operators(d)
    one_step_return = 0.0
    for j, v in enumerate(gs.vertices):
        ratio_col = gs.green_columns[j] * (gs.degrees[j] / gs.green[j, j])
        one_step_return = max(one_step_return,
                              abs(gs.return_prob[j] - _p_row_apply(d, ops, v, ratio_col)))
    one_step_reach = 0.0
    for j, y in enumerate(gs.vertices):
        h = gs.hit_columns[j]
        for i, x in enumerate(gs.vertices):
            if x == y:
                continue
            one_step_reach = max(one_step_reach,
                                 abs(gs.reach_hit[i, j] - _p_row_apply(d, ops, x, h)))
    cg = gs.degrees[:, None] * gs.green
    rev_g = np.abs(cg - cg.T).max()
    cf = gs.degrees[:, None] * gs.reach_hit
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
    vals = []
    for n in levels:
        gs = green_exact(d, n, vertices=[x])
        vals.append(float(gs.green[0, 0]))
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
    sysm = DirichletSystem(d, boundary_level)
    u = sysm.solve(source={x: 1.0})
    hx = u.at(x)
    return LevelFunction([v / hx for v in u.values])


def monopole_green(d: Diagram, x: VertexId, boundary_level: int) -> LevelFunction:
    """w_x(a) = G(a, x)/c(x), the Dirichlet solution of Delta w = delta_x."""
    return dirichlet_solve(d, boundary_level, source={x: 1.0})


def dipole_green(d: Diagram, x1: VertexId, x2: VertexId, boundary_level: int) -> LevelFunction:
    """v(a) = G(a,x1)/c(x1) - G(a,x2)/c(x2): Delta v = delta_x1 - delta_x2."""
    if x1 == x2:
        raise ValueError("dipole poles must be distinct")
    return dirichlet_solve(d, boundary_level, source={x1: 1.0, x2: -1.0})


def multipole(d: Diagram, x0: VertexId, poles: Sequence[Tuple[VertexId, float]],
              boundary_level: int) -> LevelFunction:
    """v = w_{x0} - sum_i alpha_i w_{x_i} with alpha_i >= 0 summing to 1."""
    weights = [float(a) for _, a in poles]
    if any(a < 0 for a in weights):
        raise ValueError("pole weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"pole weights sum to {sum(weights)}, expected 1")
    seen = {x0}
    for v, _ in poles:
        if v in seen:
            raise ValueError("pole vertices must be distinct")
        seen.add(v)
    source = {x0: 1.0}
    for v, a in poles:
        source[v] = source.get(v, 0.0) - a
    return dirichlet_solve(d, boundary_level, source=source)


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
    sysm = DirichletSystem(d, boundary_level)
    h1 = sysm.solve(pinned={x1: 1.0, x2: 0.0})
    h2 = sysm.solve(pinned={x1: 0.0, x2: 1.0})

    def delta_at(f: LevelFunction, v: VertexId) -> float:
        val = d.degree_vector(v.level)[v.index] * f.at(v)
        if v.level > 0:
            col = to_dense(d.conductance[v.level - 1][:, [v.index]]).ravel()
            val -= float(np.dot(col, f.values[v.level - 1]))
        if v.level < d.num_levels:
            row = to_dense(d.conductance[v.level][[v.index], :]).ravel()
            val -= float(np.dot(row, f.values[v.level + 1]))
        return val

    m = np.array([[delta_at(h1, x1), delta_at(h2, x1)],
                  [delta_at(h1, x2), delta_at(h2, x2)]])
    gs = green_exact(d, boundary_level, vertices=[x1, x2])
    c1, c2 = gs.degrees
    u1 = 1.0 - 1.0 / gs.green[0, 0]
    u2 = 1.0 - 1.0 / gs.green[1, 1]
    f12, f21 = gs.reach_hit[0, 1], gs.reach_hit[1, 0]
    m_fact = np.diag([c1, c2]) @ np.array([[1.0 - u1, -f12], [-f21, 1.0 - u2]])
    g12, g21 = gs.green[0, 1], gs.green[1, 0]
    det_closed = c1 * c2 * (1.0 - g12 * g21) / (gs.green[0, 0] * gs.green[1, 1])
    degenerate = (abs(g12 - np.sqrt(c2 / c1)) <= tol
                  or abs(np.linalg.det(m)) <= tol * max(abs(m).max() ** 2, 1.0))
    if degenerate:
        return DipoleMatrixResult(matrix=m, matrix_factored=m_fact,
                                  det_closed_form=det_closed, degenerate=True,
                                  alpha=None, beta=None, dipole=None,
                                  pair_hitting=(h1, h2), residual=None)
    alpha, beta = np.linalg.solve(m, np.array([1.0, -1.0]))
    vbar = LevelFunction([alpha * a + beta * b for a, b in zip(h1.values, h2.values)])
    resid = max(abs(delta_at(vbar, x1) - 1.0), abs(delta_at(vbar, x2) + 1.0))
    return DipoleMatrixResult(matrix=m, matrix_factored=m_fact,
                              det_closed_form=det_closed, degenerate=False,
                              alpha=float(alpha), beta=float(beta), dipole=vbar,
                              pair_hitting=(h1, h2), residual=float(resid))


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
    visits progressed level by level from level m on.
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


def _transition_tables(d: Diagram, absorb_level: int):
    """Flat neighbor lists and cumulative transition probabilities per vertex
    for levels 0..absorb_level-1 (the root is forced into level 1)."""
    offsets = [0]
    for n in range(absorb_level + 1):
        offsets.append(offsets[-1] + d.level_sizes[n])
    nbrs: list = [[] for _ in range(offsets[absorb_level + 1])]
    wts: list = [[] for _ in range(offsets[absorb_level + 1])]
    for n in range(absorb_level):
        rows, cols, vals = stored_entries(d.conductance[n])
        for i, j, c in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            a = offsets[n] + i
            b = offsets[n + 1] + j
            nbrs[a].append(b)
            wts[a].append(c)
            if n + 1 < absorb_level:
                # vertices at the absorbing level never move again
                nbrs[b].append(a)
                wts[b].append(c)
    cum = []
    for k in range(offsets[absorb_level]):
        w = np.array(wts[k])
        total = w.sum()
        cum.append((np.cumsum(w) / total).tolist())
    levels = np.zeros(offsets[absorb_level + 1], dtype=int)
    for n in range(absorb_level + 1):
        levels[offsets[n]:offsets[n + 1]] = n
    return offsets, nbrs, cum, levels


def _walk_rng(seed: int, walk_index: int) -> np.random.Generator:
    """Counter-based substream: one Philox counter block per walk index."""
    bitgen = np.random.Philox(key=seed % (2 ** 64), counter=[0, 0, walk_index, 0])
    return np.random.Generator(bitgen)


def simulate_walks(d: Diagram, start: VertexId, cfg: WalkConfig,
                   targets: Sequence[VertexId] = ()) -> WalkEstimates:
    """Simulate killed walks from `start` and estimate reach probabilities,
    visit counts, and the return probability.

    Deterministic for a fixed seed: walk i draws from its own counter-based
    substream and results are reduced in walk-index order.
    """
    d.check_vertex(start)
    if not (start.level < cfg.absorb_level <= d.num_levels):
        raise ValueError("need start.level < absorb_level <= stored depth")
    offsets, nbrs, cum, levels = _transition_tables(d, cfg.absorb_level)
    start_flat = offsets[start.level] + start.index
    targets = list(targets)
    tflat = {}
    for t in targets:
        d.check_vertex(t)
        if t.level >= cfg.absorb_level:
            raise ValueError(f"target {t} is not interior to the absorbing level")
        tflat[offsets[t.level] + t.index] = targets.index(t)
    k = len(targets)
    reach_hits = np.zeros(k)
    visit_sum = np.zeros(k)
    visit_sq = np.zeros(k)
    returns = 0
    n_absorbed = 0
    n_capped = 0
    # forward-progression bookkeeping: worst level at which the first visit
    # was not one step after the previous level's first visit
    bad_from = np.full(cfg.num_walks, -1, dtype=int)
    absorbed_mask = np.zeros(cfg.num_walks, dtype=bool)
    for w in range(cfg.num_walks):
        rng = _walk_rng(cfg.seed, w)
        buf: list = []
        pos = 0
        v = start_flat
        visits = np.zeros(k)
        seen_return = False
        first_visit = {start.level: 0}
        if v in tflat:
            visits[tflat[v]] += 1
        step = 0
        absorbed = False
        while step < cfg.max_steps:
            if pos == len(buf):
                buf = rng.random(128).tolist()
                pos = 0
            u = buf[pos]
            pos += 1
            row = cum[v]
            v = nbrs[v][bisect_left(row, u)]
            step += 1
            lv = levels[v]
            if lv not in first_visit:
                first_visit[lv] = step
            if lv == cfg.absorb_level:
                absorbed = True
                break
            if v == start_flat:
                seen_return = True
            if v in tflat:
                visits[tflat[v]] += 1
        if absorbed:
            n_absorbed += 1
            absorbed_mask[w] = True
            reach_hits += (visits > 0)
            visit_sum += visits
            visit_sq += visits ** 2
            if seen_return:
                returns += 1
            worst = -1
            for lv in range(start.level, cfg.absorb_level):
                if first_visit.get(lv + 1, -1) != first_visit.get(lv, -2) + 1:
                    worst = lv
            bad_from[w] = worst
        else:
            n_capped += 1
    n = max(n_absorbed, 1)
    pairs = []
    for j, t in enumerate(targets):
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
    done = bad_from[absorbed_mask]
    for m in range(start.level, cfg.absorb_level):
        fwd[m] = float((done < m).sum() / n) if n_absorbed else 0.0
    return WalkEstimates(start=start, config=cfg, pairs=pairs, return_prob=float(rp),
                         return_stderr=rse, n_absorbed=n_absorbed, n_capped=n_capped,
                         forward_fraction=fwd)


# ---------------------------------------------------------------------------
# Poisson kernel
# ---------------------------------------------------------------------------

@dataclass
class PoissonResult:
    """Harmonic extension of boundary data at one level.

    Exact mode solves the Dirichlet problem; Monte Carlo mode estimates
    E_x[f_n at the first visit to V_n] per vertex with standard errors
    (zero stderr array in exact mode).  Capped walks are excluded and
    counted.
    """
    values: LevelFunction
    stderr: Optional[LevelFunction]
    method: str
    n_capped: int = 0


def poisson_kernel(d: Diagram, f_n: np.ndarray, target_level: int,
                   method: str = "exact-dirichlet",
                   cfg: Optional[WalkConfig] = None) -> PoissonResult:
    """Harmonic function on levels 0..target_level with boundary data f_n.

    The value at a boundary vertex is f_n exactly in both modes.
    """
    f_n = np.asarray(f_n, dtype=float).reshape(-1)
    if not (1 <= target_level <= d.num_levels):
        raise ValueError("target level must be within the stored prefix")
    if f_n.shape[0] != d.level_sizes[target_level]:
        raise ValueError("boundary data has the wrong length")
    if method == "exact-dirichlet":
        u = dirichlet_solve(d, target_level, boundary_values=f_n)
        vals = LevelFunction([u.values[n] for n in range(target_level + 1)])
        return PoissonResult(values=vals, stderr=None, method=method)
    if method != "monte-carlo":
        raise ValueError(f"unknown method {method!r}")
    if cfg is None:
        raise ValueError("monte-carlo mode needs a WalkConfig")
    offsets, nbrs, cum, levels = _transition_tables(d, target_level)
    vals = []
    errs = []
    capped = 0
    for n in range(target_level):
        level_vals = np.zeros(d.level_sizes[n])
        level_errs = np.zeros(d.level_sizes[n])
        for i in range(d.level_sizes[n]):
            samples = []
            for w in range(cfg.num_walks):
                rng = _walk_rng(cfg.seed + 7919 * (offsets[n] + i), w)
                v = offsets[n] + i
                buf, pos = [], 0
                for _ in range(cfg.max_steps):
                    if pos == len(buf):
                        buf = rng.random(128).tolist()
                        pos = 0
                    u = buf[pos]
                    pos += 1
                    v = nbrs[v][bisect_left(cum[v], u)]
                    if levels[v] == target_level:
                        samples.append(f_n[v - offsets[target_level]])
                        break
                else:
                    capped += 1
            if samples:
                arr = np.array(samples)
                level_vals[i] = arr.mean()
                level_errs[i] = arr.std(ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
        vals.append(level_vals)
        errs.append(level_errs)
    vals.append(f_n.copy())
    errs.append(np.zeros_like(f_n))
    return PoissonResult(values=LevelFunction(vals), stderr=LevelFunction(errs),
                         method=method, n_capped=capped)


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
    ops = build_level_operators(d)
    compat = []
    for n in range(n0, d.num_levels):
        r = float(np.abs(matvec(ops.p_back[n], f.values[n + 1]) - f.values[n]).max())
        compat.append(r)
        if r > tol:
            raise ValueError(f"compatibility violated at level {n}: residual {r:.3e}")
    first = max(x.level + 1, n0, 1)
    levels = list(range(first, d.num_levels + 1))
    values = []
    last_solution = None
    for n in levels:
        res = poisson_kernel(d, f.values[n], n)
        values.append(res.values.at(x) if x.level < n else float(f.values[x.level][x.index]))
        last_solution = res.values
    stab = None
    if values:
        target = values[-1]
        for idx, lv in enumerate(levels):
            if all(abs(v - target) <= tol for v in values[idx:]):
                stab = lv
                break
    # harmonicity of the limit at x, evaluated on the deepest solve
    resid = float("nan")
    if last_solution is not None and x.level < levels[-1]:
        fr = LevelFunction(list(last_solution.values)
                           + [np.zeros(s) for s in d.level_sizes[levels[-1] + 1:]])
        rep = harmonicity_check(d, fr)
        resid = rep.residuals[x.level] if x.level < len(rep.residuals) else float("nan")
    return StabilizationReport(vertex=x, levels=tuple(levels), values=tuple(values),
                               stabilization_level=stab, harmonic_residual=resid,
                               compatibility_residuals=tuple(compat))
