"""Energy norms, currents, the per-level lower bound for harmonic
functions, resistance distance, and the dissipation isometry.

All sums run over the stored prefix in a fixed order (level by level), so
results are bit-stable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .diagram import Diagram, VertexId
from .operators import LevelFunction, build_level_operators, check_finite


def _drops(d: Diagram, flat: np.ndarray) -> np.ndarray:
    """f(x) - f(y) on each edge x -> y in table order, for f = flat."""
    return flat[d.table.tail] - flat[d.table.head]


def _increments(d: Diagram, flat: np.ndarray) -> list:
    """sum c_xy (f(x) - f(y))^2 over each level's edges, one np.dot a level,
    from per-edge differences: the quadratic expansion cancels
    catastrophically when the differences are small against the values."""
    t, drops = d.table, _drops(d, flat)
    sq = drops * drops
    return [float(np.dot(t.data[a:b], sq[a:b])) for a, b in zip(t.starts[:-1], t.starts[1:])]


def _flows(d: Diagram, flat: np.ndarray):
    """(I_in, I_out) at every vertex, numbered as in the edge table: the
    current into x from its parents and out of x to its children, from the
    table's child and parent sums (EdgeTable.edge_sums)."""
    t = d.table
    out_c, in_c = t.edge_sums(d.num_levels)
    out_f, in_f = t.edge_sums(d.num_levels, flat)
    return in_c * flat - in_f, out_f - out_c * flat


@dataclass
class EnergyReport:
    """Energy and current diagnostics over the stored prefix.

    level_increments[n] is the edge energy between levels n and n+1;
    energy_partial is its running sum.  currents[n] (n >= 1) holds
    I_n(x), the conductance-weighted flux into x from level n-1, and
    level_currents[n] their sum I_n (equal to the root flux I_1 for harmonic
    functions).  beta[n] = max c(x) on V_n; the entry at the last stored
    level uses truncated c(x) (no outgoing edges are stored there).
    bound_partial[m] = sum_{n<=m} I_1^2 / (beta_n |V_n|) is the harmonic
    lower bound; divergence_flag marks empirically unbounded partial sums of
    sum 1/(beta_n |V_n|), reported as a flag, never as a theorem.
    """
    energy: float
    level_increments: list
    energy_partial: list
    currents: list
    level_currents: list
    root_flux: float
    beta: list
    bound_terms: list
    bound_partial: list
    divergence_terms: list
    divergence_flag: bool
    beta_footnote: str = "beta at the last stored level uses truncated c(x)"


def _divergence_heuristic(terms: list, tail: int = 10, eps: float = 1e-6) -> bool:
    """Empirical non-summability flag, never a theorem.

    Fails the Cauchy test (tail still contributes more than eps) and the
    terms do not decay faster than 1/n: either the tail is non-decreasing or
    n*a_n at the deepest level stays comparable to its running maximum
    (constant n*a_n is the harmonic borderline, which diverges).
    """
    if len(terms) < 3:
        return False
    tail_terms = terms[-tail:]
    if float(sum(tail_terms)) <= eps:
        return False
    nondecreasing = all(b >= a * (1 - 1e-9) for a, b in zip(tail_terms, tail_terms[1:]))
    weighted = [(k + 1) * t for k, t in enumerate(terms)]
    slow_decay = weighted[-1] >= 0.4 * max(weighted)
    return nondecreasing or slow_decay


def energy_norm(d: Diagram, f: LevelFunction) -> EnergyReport:
    """Edge-sum energy (1/2) sum_{x,y} c_xy (f(x)-f(y))^2 with per-level
    partial sums, per-vertex currents, and the lower-bound ingredients.
    Raises ValueError where build_level_operators does, so no beta_n is 0,
    and on a value of f that is not finite."""
    f.check_shape(d)
    c = build_level_operators(d)
    flat = f.flat()
    check_finite(d, flat)
    incs = _increments(d, flat)
    partial = np.cumsum(incs).tolist() if incs else []
    currents = [np.zeros(0)] + list(LevelFunction.from_flat(d, _flows(d, flat)[0]).values[1:])
    level_currents = [0.0] + [float(i_n.sum()) for i_n in currents[1:]]
    root_flux = level_currents[1] if d.num_levels >= 1 else 0.0
    beta = np.maximum.reduceat(c, d.table.offsets[:-1]).tolist()
    bound_terms = [root_flux ** 2 / (beta[n] * d.level_sizes[n])
                   for n in range(d.num_levels + 1)]
    div_terms = [1.0 / (beta[n] * d.level_sizes[n]) for n in range(d.num_levels + 1)]
    return EnergyReport(
        energy=float(sum(incs)),
        level_increments=incs,
        energy_partial=partial,
        currents=currents,
        level_currents=level_currents,
        root_flux=float(root_flux),
        beta=beta,
        bound_terms=bound_terms,
        bound_partial=np.cumsum(bound_terms).tolist(),
        divergence_terms=div_terms,
        divergence_flag=_divergence_heuristic(div_terms),
    )


def energy_lower_bound(report: EnergyReport) -> Tuple[float, bool]:
    """Evaluate the harmonic lower bound against the energy partial sums.

    Returns (deepest comparable bound partial sum, holds).  holds is true
    when bound_partial[m] <= energy_partial[m] + 1e-12 at every depth m for
    which the edge energy through level m+1 is stored: the bound term at
    level n is dominated by the vertex-centered energy at level n, whose
    edges are all stored up to m = N-1.
    """
    holds = True
    last = len(report.energy_partial)
    for m in range(last):
        if report.bound_partial[m] > report.energy_partial[m] + 1e-12:
            holds = False
    bound = report.bound_partial[last - 1] if last else 0.0
    return bound, holds


@dataclass(frozen=True)
class CurrentBalanceReport:
    """Per-level worst |I_in(x) - I_out(x)|; zero exactly on harmonic input."""
    per_level: tuple
    max_imbalance: float


def current_balance(d: Diagram, f: LevelFunction) -> CurrentBalanceReport:
    """Kirchhoff check: incoming equals outgoing current at every interior
    vertex iff f is harmonic.  Raises ValueError on a value of f that is not
    finite, as energy_norm does."""
    f.check_shape(d)
    flat = f.flat()
    check_finite(d, flat)
    i_in, i_out = _flows(d, flat)
    gap = np.abs(i_in - i_out)
    per_level = np.maximum.reduceat(gap, d.table.offsets[:-1])[1:d.num_levels].tolist()
    worst = max(per_level) if per_level else 0.0
    return CurrentBalanceReport(per_level=tuple(per_level), max_imbalance=worst)


@dataclass(frozen=True)
class DissipationReport:
    """Both sides of the dissipation isometry |d(u)|^2_Diss = |u|^2_E."""
    dissipation: float
    energy: float
    relative_gap: float


def dissipation_check(d: Diagram, f: LevelFunction) -> DissipationReport:
    """Compute the edge current I = du and verify sum I(e)^2 / c_e equals the
    energy norm (algebraic identity; checked to numerical precision)."""
    f.check_shape(d)
    t = d.table
    currents = t.data * _drops(d, f.flat())
    terms = currents ** 2 / t.data
    diss = 0.0
    for a, b in zip(t.starts[:-1], t.starts[1:]):
        diss += float(np.sum(terms[a:b]))
    energy = energy_norm(d, f).energy
    gap = abs(diss - energy) / max(abs(energy), 1.0)
    return DissipationReport(dissipation=float(diss), energy=energy, relative_gap=float(gap))


def resistance_distance(d: Diagram, x: VertexId, y: VertexId, boundary_level: int) -> float:
    """Energy of the Green dipole between x and y; zero on equal input.

    Symmetric and a metric on the truncated network (effective resistance
    with the boundary level grounded).  The boundary level and both vertices
    are checked first, as DirichletSystem checks them.
    """
    from .pathspace import DirichletSystem
    sysm = DirichletSystem.of(d, boundary_level)
    if sysm.flat(x) == sysm.flat(y):  # each raises on a vertex off the interior
        return 0.0
    return energy_norm(d, sysm.solve(source={x: 1.0, y: -1.0})).energy


@dataclass(frozen=True)
class StationaryEnergyResult:
    """Finite-energy criterion for the repeating-diagram formula family."""
    finite: bool
    f1_spread: float
    energy_partial: list
    function: LevelFunction


def stationary_energy_criterion(d: Diagram, f_1: np.ndarray,
                                tol: float = 1e-9) -> StationaryEnergyResult:
    """Build f by the repeating-diagram formula f_n = f_1 * sum_{i<n} lam^-i
    and report whether the energy partial sums are bounded.

    The stated criterion: finite energy iff f_1 is constant (within tol).
    Requires a stationary diagram with symmetric invertible A and lam > 1.
    """
    rule = d.extension
    if rule is None:
        raise ValueError("diagram was not built by the stationary generator")
    a = np.array(rule.matrix, dtype=float)
    if not np.array_equal(a, a.T):
        raise ValueError("stationary matrix A must be symmetric")
    if abs(np.linalg.det(a)) < 1e-12:
        raise ValueError("stationary matrix A must be invertible")
    if rule.lam <= 1.0:
        raise ValueError("criterion requires lam > 1")
    f_1 = np.asarray(f_1, dtype=float).reshape(-1)
    if f_1.shape[0] != d.level_sizes[1]:
        raise ValueError("f_1 has the wrong length")
    from .closedforms import stationary_formula
    f = stationary_formula(d, f_1)
    report = energy_norm(d, f)
    spread = float(f_1.max() - f_1.min())
    return StationaryEnergyResult(finite=spread <= tol, f1_spread=spread,
                                  energy_partial=report.energy_partial, function=f)
