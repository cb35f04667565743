"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s` to see the table, or `-v` for per-test verdicts).

Every tolerance is pinned here.  Two sub-criteria are expected to fail and
are left red on purpose; their docstrings summarize why, and the decisions
notes carry the full analysis:

* criterion 4a: the repeating-diagram closed form conflicts with
  harmonicity for nonconstant seeds, so no honest solver can reproduce it;
* criterion 5b: reach-probability reversibility c(x)F(x,y) = c(y)F(y,x)
  is false on cross-level pairs (it would force constant diagonal Green
  values).
"""
import time

import numpy as np

from bharm import (
    LevelFunction,
    VertexId,
    WalkConfig,
    current_balance,
    dipole_green,
    dipole_matrix_M,
    dissipation_check,
    energy_lower_bound,
    energy_norm,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    green_exact,
    green_identity_report,
    harm_dimension,
    harmonicity_check,
    markov_apply,
    monopole_green,
    poisson_kernel,
    resistance_distance,
    simulate_walks,
    solve_chain,
    solve_monopole,
    spectral_bound_check,
    stationary_energy_criterion,
    transience_report,
)
from bharm.closedforms import (
    pascal_harmonic,
    pascal_pins,
    stationary_formula,
    tree_energy_increments,
    tree_energy_series,
    tree_path_value,
    tree_pins,
    tree_symmetric_harmonic,
)
from bruteforce import stacked_nullity


def report(num: str, name: str, ok: bool) -> None:
    print(f"criterion {num:>3} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


# -----------------------------------------------------------------------------
# 1. Pascal closed form
# -----------------------------------------------------------------------------

def test_criterion_01_pascal_closed_form():
    ok = True
    # depth 40 as well: its square pinned system is far worse conditioned
    for depth in (20, 40):
        t0 = time.time()
        d = gen_pascal(depth, 1.0)
        f, rep = solve_chain(d, seed_f1=[1.0, -1.0], pins=pascal_pins(depth))
        h = pascal_harmonic(depth)
        err = max(np.abs(f.values[n] - h.values[n]).max() for n in range(depth))
        elapsed = time.time() - t0
        ok = ok and err <= 1e-8 and elapsed <= 5.0 and rep.consistent
        print(f"    depth {depth}: max abs error {err:.3e}, runtime {elapsed:.2f}s")
    report("1", "pascal closed form", ok)


# -----------------------------------------------------------------------------
# 2. Binary-tree closed form
# -----------------------------------------------------------------------------

def test_criterion_02_tree_closed_form():
    ok = True
    for lam in (1.0, 2.0, 3.0):
        d = gen_binary_tree(15, lam)
        f, rep = solve_chain(d, seed_f1=[lam, -lam], pins=tree_pins(15, lam))
        ok = ok and rep.consistent
        for n in range(2, 15):
            expect = tree_path_value(n, lam)
            ok = ok and abs(f.values[n][0] - expect) <= 1e-8 * abs(expect)
        # constant on the hanging subtrees: every non-extreme vertex equals
        # its parent
        for n in range(1, 15):
            child = f.values[n + 1] if n + 1 <= 15 else None
            if child is None:
                break
            inherited = np.repeat(f.values[n], 2)
            interior = slice(1, len(child) - 1)
            ok = ok and np.abs(child[interior] - inherited[interior]).max() <= 1e-10
    report("2", "tree closed form", ok)


# -----------------------------------------------------------------------------
# 3. Tree energy dichotomy
# -----------------------------------------------------------------------------

def test_criterion_03_tree_energy_dichotomy():
    # reduction cross-check: full edge sum on tree:14 equals the exact
    # two-extreme-path increments
    d = gen_binary_tree(14, 2.0)
    full = energy_norm(d, tree_symmetric_harmonic(14, 2.0)).level_increments
    reduced = tree_energy_increments(2.0, 14)
    ok = np.allclose(full, reduced, rtol=1e-10)
    # 30-level partial sums
    incs2 = tree_energy_increments(2.0, 30)
    partial2 = np.cumsum(incs2)
    ok = ok and incs2[-1] < 1e-6
    # recorded reconciliation: edge sum = two-path series + lam^2
    series = tree_energy_series(2.0, 500)
    ok = ok and abs(partial2[-1] - (series + 4.0)) <= 1e-6
    incs1 = tree_energy_increments(1.0, 30)
    ok = ok and min(incs1) >= 2.0  # non-Cauchy: increments bounded below
    print(f"    E_30(lam=2) = {partial2[-1]:.9f}, series {series:.6f} + lam^2")
    report("3", "tree energy dichotomy", ok)


# -----------------------------------------------------------------------------
# 4. Stationary closed form
# -----------------------------------------------------------------------------

def test_criterion_04a_stationary_closed_form_vs_solver():
    """Faithful to the criterion as stated; expected red.

    The formula family f_{n+1} = f_1 sum 2^-i is harmonic only for constant
    f_1 on a connected repeating matrix; with f_1 = (1,-1) the (unique)
    harmonic recursion output differs from it at level 2 already.  See the
    decisions notes for the derivation and the numeric counterexample.
    """
    d = gen_stationary([[1, 1], [1, 0]], 20, 2.0)
    f1 = np.array([1.0, -1.0])
    f, _ = solve_chain(d, seed_f1=f1)
    formula = stationary_formula(d, f1)
    err = max(np.abs(f.values[n] - formula.values[n]).max() for n in range(1, 21))
    report("4a", "stationary closed form (solver vs formula)", err <= 1e-9)


def test_criterion_04b_stationary_energy_unbounded():
    d = gen_stationary([[1, 1], [1, 0]], 20, 2.0)
    res = stationary_energy_criterion(d, [1.0, -1.0])
    ok = (not res.finite) and res.energy_partial[-1] > 1e3 * res.energy_partial[2]
    # companion facts documenting the 4a defect: the solver output is
    # harmonic to rounding (its values grow geometrically, so the residual
    # check must be relative to scale), while the formula's relative
    # residual is order one
    f, rep = solve_chain(d, seed_f1=[1.0, -1.0])
    scale = max(np.abs(v).max() for v in f.values)
    ok = ok and rep.max_residual <= 1e-12 * scale
    formula = stationary_formula(d, np.array([1.0, -1.0]))
    fscale = max(np.abs(v).max() for v in formula.values)
    ok = ok and harmonicity_check(d, formula).max_residual > 0.1 * fscale
    report("4b", "stationary energy criterion", ok)


# -----------------------------------------------------------------------------
# 5. Green identities at depth 25
# -----------------------------------------------------------------------------

VERTS25 = [VertexId(0, 0), VertexId(1, 0), VertexId(2, 1), VertexId(2, 3),
           VertexId(3, 0), VertexId(3, 5)]


def test_criterion_05a_green_identities_tree25():
    # exact radial reduction of tree:25:2 (validated against the full tree
    # at depth 8 in the pathspace suite); targets live at levels <= 3
    d = gen_binary_tree_radial(25, 2.0, 4)
    gs = green_exact(d, 25, vertices=VERTS25)
    worst = green_identity_report(d, gs).max_violation
    conv = transience_report(d, VertexId(0, 0), [20, 25])
    inc = abs(conv.values[1] - conv.values[0])
    ok = worst <= 1e-9 and inc <= 1e-6
    print(f"    worst identity violation {worst:.3e}, G increment {inc:.3e}")
    report("5a", "green identities + convergence", ok)


def test_criterion_05b_reach_reversibility_as_stated():
    """Faithful to the criterion as stated; expected red.

    c(x)F(x,y) = c(y)F(y,x) combined with the true identities forces
    G(x,x) = G(y,y) for every pair, which fails across levels; the relation
    that actually holds is c(x)F(x,y)G(y,y) = c(y)F(y,x)G(x,x).  See the
    decisions notes.
    """
    d = gen_binary_tree_radial(25, 2.0, 4)
    gs = green_exact(d, 25, vertices=VERTS25)
    cf = gs.degrees[:, None] * gs.reach_ratio
    report("5b", "reach reversibility (literal)", float(np.abs(cf - cf.T).max()) <= 1e-9)


# -----------------------------------------------------------------------------
# 6. Monopole/dipole dual construction
# -----------------------------------------------------------------------------

def test_criterion_06_dual_construction():
    d = gen_binary_tree(12, 2.0)
    o = VertexId(0, 0)
    w_g = monopole_green(d, o, 12)
    w_r, _ = solve_monopole(d, o, 12)
    shift = w_g.values[0][0] - w_r.values[0][0]
    sup = max(np.abs(a - b - shift).max() for a, b in zip(w_g.values, w_r.values))
    ok = sup <= 1e-6
    ok = ok and harmonicity_check(d, w_g, source={o: 1.0}).max_residual <= 1e-9
    ok = ok and harmonicity_check(d, w_r, source={o: 1.0}).max_residual <= 1e-9
    # interior pole: both routes satisfy the source equation; their
    # difference is harmonic (the recursion representative is free up to a
    # harmonic function there, see the decisions notes)
    x = VertexId(1, 0)
    wi_g = monopole_green(d, x, 12)
    wi_r, _ = solve_monopole(d, x, 12)
    ok = ok and harmonicity_check(d, wi_g, source={x: 1.0}).max_residual <= 1e-9
    ok = ok and harmonicity_check(d, wi_r, source={x: 1.0}).max_residual <= 1e-9
    ok = ok and harmonicity_check(d, wi_g - wi_r).max_residual <= 1e-9
    # dipoles: Green-difference construction vs the coefficient-matrix
    # construction; the difference must be harmonic everywhere interior
    for x1, x2 in ((VertexId(1, 0), VertexId(1, 1)), (VertexId(2, 1), VertexId(1, 0))):
        v_direct = dipole_green(d, x1, x2, 12)
        res = dipole_matrix_M(d, x1, x2, 12)
        ok = ok and not res.degenerate
        ok = ok and harmonicity_check(d, v_direct,
                                      source={x1: 1.0, x2: -1.0}).max_residual <= 1e-9
        ok = ok and res.residual <= 1e-9
        ok = ok and harmonicity_check(d, res.dipole - v_direct).max_residual <= 1e-9
    print(f"    root monopole dual-route sup difference {sup:.3e}")
    report("6", "monopole/dipole dual construction", ok)


# -----------------------------------------------------------------------------
# 7. Monte Carlo consistency
# -----------------------------------------------------------------------------

def mc_targets():
    t = [VertexId(1, i) for i in range(2)]
    t += [VertexId(2, i) for i in range(4)]
    t += [VertexId(3, i) for i in (0, 2, 3, 5, 6, 7)]
    t += [VertexId(4, i) for i in (1, 5, 9, 13)]
    t += [VertexId(5, i) for i in (3, 17)]
    t += [VertexId(6, i) for i in (0, 33)]
    return t


def test_criterion_07_monte_carlo_consistency():
    d = gen_binary_tree(12, 2.0)
    targets = mc_targets()
    assert len(targets) == 20
    gs = green_exact(d, 12, vertices=[VertexId(0, 0)] + targets)
    f_exact = gs.reach_ratio[0, 1:]
    g_exact = gs.green[0, 1:]
    est = simulate_walks(d, VertexId(0, 0),
                         WalkConfig(max_steps=4000, num_walks=100_000, seed=20260810,
                                    absorb_level=12), targets)
    inside = 0
    for j, p in enumerate(est.pairs):
        okf = abs(p.reach - f_exact[j]) <= 3 * max(p.reach_stderr, 1e-9)
        okg = abs(p.visits - g_exact[j]) <= 3 * max(p.visits_stderr, 1e-9)
        inside += int(okf and okg)
    ok = inside >= 19  # >= 95% of 20 pairs
    # error-scaling slope on standardized reach errors
    sizes = [1000, 10000, 100000]
    rms = []
    for k, n in enumerate(sizes):
        e = simulate_walks(d, VertexId(0, 0),
                           WalkConfig(max_steps=4000, num_walks=n, seed=77 + k,
                                      absorb_level=12), targets)
        z2 = [((p.reach - f_exact[j]) ** 2) / max(f_exact[j] * (1 - f_exact[j]), 1e-12)
              for j, p in enumerate(e.pairs)]
        rms.append(np.sqrt(np.mean(z2)))
    slope = np.polyfit(np.log10(sizes), np.log10(rms), 1)[0]
    ok = ok and abs(slope + 0.5) <= 0.15
    print(f"    {inside}/20 pairs within 3 sigma, error-scaling slope {slope:.3f}")
    report("7", "Monte Carlo consistency", ok)


# -----------------------------------------------------------------------------
# 8. Harmonic energy lower bound
# -----------------------------------------------------------------------------

def test_criterion_08_energy_lower_bound():
    cases = []
    cases.append((gen_pascal(20, 1.0), pascal_harmonic(20)))
    for lam in (1.0, 2.0, 3.0):
        cases.append((gen_binary_tree(15, lam), tree_symmetric_harmonic(15, lam)))
    ds = gen_stationary([[1, 1], [1, 0]], 20, 2.0)
    f_st, _ = solve_chain(ds, seed_f1=[1.0, -1.0])
    cases.append((ds, f_st))
    ok = True
    for d, f in cases:
        rep = energy_norm(d, f)
        _, holds = energy_lower_bound(rep)
        ok = ok and holds
        for m in range(len(rep.energy_partial)):
            ok = ok and rep.bound_partial[m] <= rep.energy_partial[m] + 1e-12
    # contentful variant: root monopole has nonzero level currents
    d = gen_binary_tree(14, 2.0)
    rep = energy_norm(d, monopole_green(d, VertexId(0, 0), 14))
    _, holds = energy_lower_bound(rep)
    ok = ok and holds and rep.bound_partial[-1] > 0.6
    report("8", "harmonic energy lower bound", ok)


# -----------------------------------------------------------------------------
# 9. Dimension oracle
# -----------------------------------------------------------------------------

def test_criterion_09_dimension_oracle():
    diagrams = [
        ("tree:5", gen_binary_tree(5, 2.0)),
        ("pascal:6", gen_pascal(6, 1.0)),
        ("ladder:8", gen_ladder(8)),
        ("bottleneck-a", gen_bottleneck([1, 3, 3, 1, 3, 3], 11)),
        ("bottleneck-b", gen_bottleneck([1, 4, 4, 1, 4, 4], 29)),
    ]
    ok = True
    for name, d in diagrams:
        assert d.total_vertices <= 200
        res = harm_dimension(d)
        for k, dim in res.per_level.items():
            bf = stacked_nullity(d, k)
            ok = ok and dim == bf
    for name, d in diagrams[3:]:
        res = harm_dimension(d)
        # the first inconsistent level is the one entering the bottleneck
        ok = ok and res.per_level[3] == 0
    report("9", "dimension oracle", ok)


# -----------------------------------------------------------------------------
# 10. Poisson kernel
# -----------------------------------------------------------------------------

def test_criterion_10_poisson_kernel():
    d = gen_pascal(10, 1.0)
    h = pascal_harmonic(10)
    exact = poisson_kernel(d, h.values[10], 10)
    ok = all(np.abs(exact.values.values[n] - h.values[n]).max() <= 1e-9
             for n in range(11))
    mc = poisson_kernel(d, h.values[10], 10, method="monte-carlo",
                        cfg=WalkConfig(max_steps=20000, num_walks=800, seed=13,
                                       absorb_level=10))
    outside = 0
    total = 0
    for n in range(10):
        z = np.abs(mc.values.values[n] - exact.values.values[n]) \
            / np.maximum(mc.stderr.values[n], 1e-9)
        outside += int((z > 3).sum())
        total += z.size
    ok = ok and outside <= max(1, int(0.05 * total)) and mc.n_capped == 0
    # stabilization: globally harmonic boundary data gives h_n(x) = h(x)
    # for every n >= x.level + 1
    for x in (VertexId(1, 0), VertexId(2, 1), VertexId(3, 3)):
        vals = [poisson_kernel(d, h.values[n], n).values.at(x)
                for n in range(x.level + 1, 11)]
        ok = ok and max(abs(v - h.at(x)) for v in vals) <= 1e-9
    print(f"    MC: {outside}/{total} vertices outside 3 sigma")
    report("10", "poisson kernel", ok)


# -----------------------------------------------------------------------------
# 11. Property suites
# -----------------------------------------------------------------------------

def shapes_for(seed: int):
    lam = [0.5, 1.0, 1.5, 2.0, 3.0][seed % 5]
    yield gen_bottleneck([1, 3, 4, 5, 6, 7], 100 + seed)
    yield gen_pascal(6, lam)
    yield gen_binary_tree(6, lam)


def random_harmonic(d, seed):
    rng = np.random.default_rng(seed)
    c0 = d.table.level(0).toarray().reshape(-1)
    f1 = rng.standard_normal(d.level_sizes[1])
    f1 -= c0 * (c0 @ f1) / (c0 @ c0)
    if np.abs(f1).max() < 1e-9:
        f1 = np.zeros_like(f1)
        f1[0] = 1.0
        f1 -= c0 * (c0 @ f1) / (c0 @ c0)
    f, rep = solve_chain(d, seed_f1=f1)
    return f if rep.consistent else None


def test_criterion_11_property_suites():
    t0 = time.time()
    ok = True
    rng_master = np.random.default_rng(0)
    for seed in range(5):
        for d in shapes_for(seed):
            # Markov identities
            ones = markov_apply(d, LevelFunction.constant(d, 1.0))
            ok = ok and all(np.allclose(ones.values[n], 1.0)
                            for n in range(d.num_levels))
            f = LevelFunction([rng_master.standard_normal(s) for s in d.level_sizes])
            pf = markov_apply(d, f)
            pf2 = markov_apply(d, LevelFunction([v ** 2 for v in f.values]))
            ok = ok and all(np.all(pf2.values[n] >= pf.values[n] ** 2 - 1e-12)
                            for n in range(d.num_levels))
            # spectrum bounds and self-adjointness
            rep = spectral_bound_check(d, trials=40, seed=1000 + seed)
            ok = ok and rep.max_violation <= 1e-12
            # dissipation isometry
            ok = ok and dissipation_check(d, f).relative_gap <= 1e-12
            # harmonic prefix: fixed point of P, Kirchhoff balance, max/min
            h = random_harmonic(d, 300 + seed)
            if h is not None:
                ph = markov_apply(d, h)
                scale = max(np.abs(v).max() for v in h.values) or 1.0
                ok = ok and all(np.abs(ph.values[n] - h.values[n]).max() <= 1e-9 * scale
                                for n in range(d.num_levels))
                ok = ok and current_balance(d, h).max_imbalance <= 1e-8 * scale
                maxima, minima = h.level_extrema()
                ok = ok and all(b > a for a, b in zip(maxima, maxima[1:]))
                ok = ok and all(b < a for a, b in zip(minima, minima[1:]))
                bad = h.copy()
                bad.values[2][0] += 1.0
                ok = ok and current_balance(d, bad).max_imbalance > 1e-3
            # resistance distance spot checks
            x, y, z = VertexId(1, 0), VertexId(2, 1), VertexId(3, 2)
            dxy = resistance_distance(d, x, y, d.num_levels)
            dyx = resistance_distance(d, y, x, d.num_levels)
            ok = ok and abs(dxy - dyx) <= 1e-9
            dxz = resistance_distance(d, x, z, d.num_levels)
            dzy = resistance_distance(d, z, y, d.num_levels)
            ok = ok and dxy <= dxz + dzy + 1e-9
    elapsed = time.time() - t0
    ok = ok and elapsed <= 60.0
    print(f"    property sweep runtime {elapsed:.1f}s")
    report("11", "property suites", ok)