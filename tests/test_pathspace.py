import dataclasses
import gc
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bharm import (
    LevelFunction,
    VertexId,
    WalkConfig,
    dipole_green,
    dipole_matrix_M,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_pascal,
    green_exact,
    green_identity_report,
    harmonicity_check,
    hitting_function,
    make_diagram,
    monopole_green,
    multipole,
    poisson_kernel,
    poisson_stabilization,
    simulate_walks,
    solve_monopole,
    transience_report,
)
from bharm.closedforms import pascal_harmonic, tree_symmetric_harmonic
from bharm.energy import resistance_distance
from bharm import pathspace
from bharm.fileio import parse_diagram
from bharm.operators import markov_apply
from bharm.pathspace import _philox_doubles, _transitions
from bruteforce import brute_green, flat_of, walk_path, walk_tables


TREE8 = gen_binary_tree(8, 2.0)
WALK_GOLDENS = json.loads((pathlib.Path(__file__).parent / "walk_goldens.json").read_text())
# irregular conductances: rows of up to 18 weights, some of whose pairwise
# sums differ from their last cumulative sums
IRREGULAR = parse_diagram(WALK_GOLDENS["diagram"])
VERTS = [VertexId(0, 0), VertexId(1, 0), VertexId(2, 1), VertexId(3, 5)]


def _reweighted(d, seed):
    """d with each conductance times its own uniform draw from [0.1, 10)."""
    rng = np.random.default_rng(seed)
    return make_diagram(d.level_sizes, [d.table.level(n).toarray() * rng.uniform(0.1, 10.0, (
        d.level_sizes[n], d.level_sizes[n + 1])) for n in range(d.num_levels)])


def _broom(width):
    """Levels 1, 1, width, width: the level-1 vertex joins every vertex of
    level 2, and each of those has one child."""
    return make_diagram([1, 1, width, width], [np.ones((1, 1)), np.ones((1, width)),
                                               sp.identity(width, format="csr")])


# --- exact killed-chain quantities -------------------------------------------

def test_green_matches_dense_inverse_oracle():
    d = gen_binary_tree(5, 2.0)
    gs = green_exact(d, 5, vertices=VERTS)
    g_bf, f_bf, u_bf, off = brute_green(d, 5)
    for i, x in enumerate(VERTS):
        for j, y in enumerate(VERTS):
            assert np.isclose(gs.green[i, j], g_bf[flat_of(d, x, off), flat_of(d, y, off)],
                              atol=1e-11)
            assert np.isclose(gs.reach_ratio[i, j],
                              f_bf[flat_of(d, x, off), flat_of(d, y, off)], atol=1e-11)
        assert np.isclose(gs.return_prob[i], u_bf[flat_of(d, x, off)], atol=1e-11)


def test_identity_battery_small():
    for d in (TREE8, gen_pascal(6, 1.0)):
        verts = [VertexId(0, 0), VertexId(1, 0), VertexId(2, 1), VertexId(3, 2)]
        gs = green_exact(d, d.num_levels, vertices=verts)
        rep = green_identity_report(d, gs)
        assert rep.diag_product <= 1e-9
        assert rep.ratio_vs_hit <= 1e-9
        assert rep.one_step_return <= 1e-9
        assert rep.one_step_reach <= 1e-9
        assert rep.reversibility_g <= 1e-9


def test_identity_report_detects_a_perturbed_green_function():
    # same-level automorphic pair: every identity, reversibility of F too,
    # holds, so max_violation is small before and large after the scaling
    gs = green_exact(TREE8, 8, vertices=[VertexId(2, 0), VertexId(2, 3)])
    assert green_identity_report(TREE8, gs).max_violation <= 1e-9
    bad = dataclasses.replace(gs, green=gs.green * (1.0 + 1e-6))
    assert green_identity_report(TREE8, bad).max_violation > 1e-9


def test_green_exact_factors_once(splu_calls):
    # a fresh diagram: the counts run across the calls that share its system
    verts = [VertexId(0, 0), VertexId(1, 1), VertexId(3, 2), VertexId(5, 20), VertexId(7, 100)]
    gs = green_exact(gen_binary_tree(8, 2.0), 8, vertices=verts)
    assert len(splu_calls) == 1
    assert gs.diagnostics["path"] == "direct"
    assert (gs.diagnostics["factorizations"], gs.diagnostics["solves"]) == (1, 5)
    assert gs.diagnostics["max_residual"] <= 1e-12


def test_poisson_diagnostics_name_the_direct_path():
    res = poisson_kernel(gen_binary_tree(8, 2.0), np.ones(256), 8)
    diag = res.diagnostics
    assert (diag["path"], diag["factorizations"], diag["solves"]) == ("direct", 1, 1)
    assert diag["max_residual"] <= 1e-12


def test_green_above_the_old_cg_size_is_one_direct_factorization():
    # tree:16 has 65,535 unknowns; F(x, y) = u_y(x) / u_y(y) for L u_y = e_y,
    # compared with u_y refined on a COLAMD factor against long-double residuals
    d = gen_binary_tree(16, 2.0)
    x, y = VertexId(10, 500), VertexId(14, 9000)
    gs = green_exact(d, 16, vertices=[VertexId(0, 0), x, y])
    assert gs.diagnostics["path"] == "direct"
    assert gs.diagnostics["factorizations"] == 1
    sysm = pathspace.DirichletSystem(d, 16)
    a = sysm.matrix.astype(np.longdouble)
    b = np.zeros(sysm.n_interior, dtype=np.longdouble)
    b[sysm.flat(y)] = 1
    lu = spla.splu(sysm.matrix.tocsc())
    u = np.zeros_like(b)
    for _ in range(3):
        u += lu.solve(np.asarray(b - a @ u, dtype=float))
    ref = float(u[sysm.flat(x)] / u[sysm.flat(y)])
    assert abs(gs.reach_ratio[1, 2] - ref) <= 1e-10 * ref


def test_every_dirichlet_solve_on_one_diagram_and_level_shares_one_factorization(splu_calls):
    # the pinned solves of green_identity_report factor their own smaller
    # matrices, so that the check stays independent of the Green columns
    d, level = gen_binary_tree(8, 2.0), 8
    x, y, z = VertexId(2, 1), VertexId(5, 17), VertexId(7, 100)
    for v in (x, y, z):
        monopole_green(d, v, level)
    hitting_function(d, x, level)
    dipole_green(d, x, y, level)
    multipole(d, x, [(y, 0.25), (z, 0.75)], level)
    gs = green_exact(d, level, vertices=[x, y, z])
    assert green_identity_report(d, gs).ratio_vs_hit <= 1e-12
    dipole_matrix_M(d, x, y, level)
    poisson_kernel(d, np.ones(d.level_sizes[level]), level)
    resistance_distance(d, x, z, level)
    n = d.table.offsets[level]
    assert splu_calls.count((n, n)) == 1
    assert len(splu_calls) == 1 + len(gs.vertices)


def test_results_hold_a_snapshot_of_the_shared_counts():
    d = gen_binary_tree(6, 2.0)
    first = poisson_kernel(d, np.ones(64), 6).diagnostics
    gs = green_exact(d, 6, vertices=[VertexId(1, 0), VertexId(4, 3)])
    assert (first["factorizations"], first["solves"]) == (1, 1)
    assert (gs.diagnostics["factorizations"], gs.diagnostics["solves"]) == (1, 3)


def test_a_kept_system_does_not_keep_its_diagram_alive():
    # the diagram holds its system, and the system only a weak proxy of the
    # diagram, so the LU goes with the last reference and not at a later
    # collection
    gc.disable()
    try:
        d = gen_binary_tree(8, 2.0)
        monopole_green(d, VertexId(3, 2), 8)
        kept, ref = weakref.ref(pathspace.DirichletSystem.of(d, 8)), weakref.ref(d)
        assert kept().diagnostics["solves"] == 1
        del d
        assert ref() is None and kept() is None
    finally:
        gc.enable()


def test_dipole_matrix_factors_once(splu_calls):
    d = gen_binary_tree(10, 2.0)
    res = dipole_matrix_M(d, VertexId(2, 1), VertexId(5, 17), 10)
    assert len(splu_calls) == 1
    assert not res.degenerate and res.residual <= 1e-9


def test_f_reversibility_holds_only_for_symmetric_pairs():
    # same-level, automorphism-related pairs satisfy c(x)F(x,y) = c(y)F(y,x);
    # cross-level pairs do not (F is not reversible-symmetric in general)
    gs = green_exact(TREE8, 8, vertices=[VertexId(2, 0), VertexId(2, 3)])
    cf = gs.degrees[:, None] * gs.reach_ratio
    assert np.abs(cf - cf.T).max() <= 1e-9
    gs2 = green_exact(TREE8, 8, vertices=[VertexId(0, 0), VertexId(2, 3)])
    cf2 = gs2.degrees[:, None] * gs2.reach_ratio
    assert np.abs(cf2 - cf2.T).max() > 1e-3


def test_green_monotone_in_boundary_level():
    d = gen_binary_tree(10, 2.0)
    gs8 = green_exact(d, 8, vertices=VERTS)
    gs10 = green_exact(d, 10, vertices=VERTS)
    assert np.all(gs10.green >= gs8.green - 1e-12)


def test_radial_reduction_matches_full_tree():
    d_red = gen_binary_tree_radial(8, 2.0, 3)
    verts = [VertexId(0, 0), VertexId(1, 0), VertexId(1, 1), VertexId(2, 1),
             VertexId(3, 5)]
    gs_full = green_exact(TREE8, 8, vertices=verts)
    gs_red = green_exact(d_red, 8, vertices=verts)
    assert np.abs(gs_full.green - gs_red.green).max() <= 1e-12
    assert np.abs(gs_full.reach_ratio - gs_red.reach_ratio).max() <= 1e-12
    assert np.abs(gs_full.return_prob - gs_red.return_prob).max() <= 1e-12


def test_transience_classification_is_empirical():
    conv = transience_report(gen_binary_tree_radial(45, 2.0, 2), VertexId(0, 0),
                             [20, 30, 40, 45])
    assert conv.converged
    assert np.isclose(conv.values[-1], 4.0 / 3.0, atol=1e-9)
    div = transience_report(gen_binary_tree_radial(45, 0.5, 2), VertexId(0, 0),
                            [20, 30, 40, 45])
    assert not div.converged
    assert div.values[-1] > div.values[0] + 10


# --- hitting functions ----------------------------------------------------------

def test_hitting_function_basics():
    x = VertexId(2, 1)
    h = hitting_function(TREE8, x, 8)
    assert np.isclose(h.at(x), 1.0)
    for v in h.values[:-1]:
        assert np.all(v >= -1e-12) and np.all(v <= 1 + 1e-12)
    rep = harmonicity_check(TREE8, h)
    bad = [r for n, r in enumerate(rep.residuals) if n != x.level]
    assert max(bad) <= 1e-9
    assert rep.residuals[x.level] > 1e-3  # the pole itself carries the source


def test_hitting_energy_upper_bound():
    # strict bound: |h_x|^2 < (1/2) c(x) sum_a F(x,a)(1 - F(a,x))
    d = gen_binary_tree(6, 2.0)
    x = VertexId(1, 0)
    gs = green_exact(d, 6)  # all interior pairs
    i = gs.vertices.index(x)
    from bharm.energy import energy_norm
    h = hitting_function(d, x, 6)
    lhs = energy_norm(d, h).energy
    cx = gs.degrees[i]
    rhs = 0.5 * cx * float(np.sum(gs.reach_ratio[i, :] * (1.0 - gs.reach_ratio[:, i])))
    assert lhs < rhs


# --- monopoles / dipoles via the Green route -------------------------------------

def test_monopole_green_unit_source():
    x = VertexId(2, 1)
    w = monopole_green(TREE8, x, 8)
    rep = harmonicity_check(TREE8, w, source={x: 1.0})
    assert rep.max_residual <= 1e-9


def test_monopole_is_scaled_hitting_function():
    x = VertexId(2, 1)
    w = monopole_green(TREE8, x, 8)
    h = hitting_function(TREE8, x, 8)
    gs = green_exact(TREE8, 8, vertices=[x])
    scale = gs.green[0, 0] / gs.degrees[0]
    for a, b in zip(w.values, h.values):
        assert np.allclose(a, scale * b, atol=1e-11)


def test_monopole_dual_route_at_root():
    d = gen_binary_tree(12, 2.0)
    w_g = monopole_green(d, VertexId(0, 0), 12)
    w_r, _ = solve_monopole(d, VertexId(0, 0), 12)
    shift = w_g.values[0][0] - w_r.values[0][0]
    sup = max(np.abs(a - b - shift).max() for a, b in zip(w_g.values, w_r.values))
    assert sup <= 1e-6


def test_monopole_dual_route_interior_pole_difference_harmonic():
    d = gen_binary_tree(12, 2.0)
    x = VertexId(1, 0)
    w_g = monopole_green(d, x, 12)
    w_r, _ = solve_monopole(d, x, 12)
    for w in (w_g, w_r):
        assert harmonicity_check(d, w, source={x: 1.0}).max_residual <= 1e-9
    diff = w_g - w_r
    assert harmonicity_check(d, diff).max_residual <= 1e-9


def test_dipole_green_properties():
    x1, x2 = VertexId(2, 1), VertexId(3, 6)
    v = dipole_green(TREE8, x1, x2, 8)
    w1 = monopole_green(TREE8, x1, 8)
    w2 = monopole_green(TREE8, x2, 8)
    for a, b, c in zip(v.values, w1.values, w2.values):
        assert np.allclose(a, b - c, atol=1e-11)
    v_rev = dipole_green(TREE8, x2, x1, 8)
    for a, b in zip(v.values, v_rev.values):
        assert np.allclose(a, -b, atol=1e-12)
    rep = harmonicity_check(TREE8, v, source={x1: 1.0, x2: -1.0})
    assert rep.max_residual <= 1e-9


def test_multipole_reductions():
    x0 = VertexId(1, 0)
    single = multipole(TREE8, x0, [(VertexId(2, 2), 1.0)], 8)
    pair_dip = dipole_green(TREE8, x0, VertexId(2, 2), 8)
    for a, b in zip(single.values, pair_dip.values):
        assert np.allclose(a, b, atol=1e-12)
    halves = multipole(TREE8, x0, [(VertexId(2, 2), 0.5), (VertexId(3, 1), 0.5)], 8)
    rep = harmonicity_check(TREE8, halves,
                            source={x0: 1.0, VertexId(2, 2): -0.5, VertexId(3, 1): -0.5})
    assert rep.max_residual <= 1e-9
    with pytest.raises(ValueError):
        multipole(TREE8, x0, [(VertexId(2, 2), 0.7)], 8)
    for poles in ([(x0, 1.0)], [(VertexId(2, 2), 0.5), (VertexId(2, 2), 0.5)]):
        with pytest.raises(ValueError, match="pole vertices must be distinct"):
            multipole(TREE8, x0, poles, 8)


def test_dipole_matrix_checks():
    x1, x2 = VertexId(1, 0), VertexId(1, 1)
    res = dipole_matrix_M(TREE8, x1, x2, 8)
    assert not res.degenerate
    # symmetric pair: alpha = -beta
    assert np.isclose(res.alpha, -res.beta, atol=1e-10)
    # determinant of the factored form vs the closed form
    assert np.isclose(np.linalg.det(res.matrix_factored), res.det_closed_form, atol=1e-9)
    assert res.residual <= 1e-9
    # the combination equals the Green dipole on the truncated network
    v = dipole_green(TREE8, x1, x2, 8)
    diff = res.dipole - v
    assert harmonicity_check(TREE8, diff).max_residual <= 1e-9


def test_dipole_matrix_asymmetric_pair():
    x1, x2 = VertexId(1, 0), VertexId(3, 6)
    res = dipole_matrix_M(TREE8, x1, x2, 8)
    assert not res.degenerate
    rep = harmonicity_check(TREE8, res.dipole, source={x1: 1.0, x2: -1.0})
    assert rep.max_residual <= 1e-9


def test_dipole_matrix_solves_each_green_column_once(monkeypatch):
    # the pair-hitting functions and the Green solve share the two columns
    solves = []
    solve_flat = pathspace.DirichletSystem._solve_flat

    def counted(self, matrix, lu, b):
        solves.append(b)
        return solve_flat(self, matrix, lu, b)

    monkeypatch.setattr(pathspace.DirichletSystem, "_solve_flat", counted)
    res = dipole_matrix_M(gen_binary_tree(10, 2.0), VertexId(2, 1), VertexId(3, 4), 10)
    assert len(solves) == 2 and not res.degenerate


# --- Monte Carlo -----------------------------------------------------------------

def test_walks_deterministic_and_bounded():
    cfg = WalkConfig(max_steps=2000, num_walks=3000, seed=11, absorb_level=8)
    t = [VertexId(1, 0), VertexId(2, 1), VertexId(0, 0)]
    e1 = simulate_walks(TREE8, VertexId(0, 0), cfg, t)
    e2 = simulate_walks(TREE8, VertexId(0, 0), cfg, t)
    for p1, p2 in zip(e1.pairs, e2.pairs):
        assert p1.reach == p2.reach and p1.visits == p2.visits
    for p in e1.pairs:
        assert 0.0 <= p.reach <= 1.0
    assert e1.pairs[2].visits >= 1.0  # start vertex counts its initial visit
    assert 0.0 <= e1.return_prob <= 1.0


def test_walk_estimates_match_exact_within_three_sigma():
    cfg = WalkConfig(max_steps=4000, num_walks=20000, seed=42, absorb_level=8)
    targets = [VertexId(1, 0), VertexId(2, 1), VertexId(3, 5)]
    est = simulate_walks(TREE8, VertexId(0, 0), cfg, targets)
    gs = green_exact(TREE8, 8, vertices=[VertexId(0, 0)] + targets)
    for j, p in enumerate(est.pairs, start=1):
        f_exact = gs.reach_ratio[0, j]
        g_exact = gs.green[0, j]
        assert abs(p.reach - f_exact) <= 3 * max(p.reach_stderr, 1e-6)
        assert abs(p.visits - g_exact) <= 3 * max(p.visits_stderr, 1e-6)
    u_exact = 1.0 - 1.0 / gs.green[0, 0]
    assert abs(est.return_prob - u_exact) <= 3 * max(est.return_stderr, 1e-6)


def test_step_cap_counting():
    cfg = WalkConfig(max_steps=3, num_walks=500, seed=5, absorb_level=8)
    est = simulate_walks(TREE8, VertexId(0, 0), cfg, [])
    assert est.n_capped > 0
    assert est.n_absorbed + est.n_capped == 500
    assert "capped" in est.notes


def test_absorbed_fraction_grows_with_step_cap():
    fractions = []
    for cap in (5, 20, 2000):
        est = simulate_walks(TREE8, VertexId(0, 0),
                             WalkConfig(max_steps=cap, num_walks=2000, seed=4,
                                        absorb_level=8), [])
        fractions.append(est.n_absorbed / 2000)
    assert fractions[0] < fractions[1] < fractions[2]
    assert fractions[2] == 1.0


def test_forward_fraction_table():
    cfg = WalkConfig(max_steps=4000, num_walks=5000, seed=9, absorb_level=8)
    est = simulate_walks(TREE8, VertexId(0, 0), cfg, [])
    ms = sorted(est.forward_fraction)
    vals = [est.forward_fraction[m] for m in ms]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # last entry: single forward step from level N-1, probability 2*lam/c = 4/5
    assert abs(vals[-1] - 0.8) < 0.05


def test_walk_validation():
    with pytest.raises(ValueError):
        simulate_walks(TREE8, VertexId(8, 0),
                       WalkConfig(max_steps=10, num_walks=1, seed=0, absorb_level=8))
    with pytest.raises(ValueError):
        WalkConfig(max_steps=0, num_walks=1, seed=0, absorb_level=2)


@pytest.mark.parametrize("seed", [2 ** 63 + 12345, -7])
def test_vectorized_philox_matches_numpy_philox(seed):
    walks = np.array([0, 3, 2 ** 32 + 5], dtype=np.uint64)
    key = np.full(walks.size, seed % 2 ** 64, dtype=np.uint64)
    u = _philox_doubles(key, walks, 1, 40)
    for i, w in enumerate(walks.tolist()):
        ref = np.random.Generator(np.random.Philox(key=seed % 2 ** 64,
                                                   counter=[0, 0, w, 0])).random(160)
        assert np.array_equal(u[:, :, i].T.reshape(-1), ref)
    # a refill that starts at a later block continues the same streams
    assert np.array_equal(_philox_doubles(key, walks, 11, 2), u[:, 10:12])


def _philox_reference(key: int, walk: int, first_block: int, n_blocks: int) -> np.ndarray:
    # the counter as a uint64 array: given as a Python list, a word of 2**63
    # or more gives numpy's Philox another stream
    counter = np.array([0, 0, walk, 0], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(
        4 * (first_block - 1 + n_blocks))
    return draws[4 * (first_block - 1):].reshape(n_blocks, 4).T


@pytest.mark.parametrize("lanes, first_block, n_blocks, chunk", [
    (pathspace._PHILOX_CHUNK + 37, 1, 1, None),     # lanes past one chunk
    (1, 1, 300, None),                              # one lane, many blocks
    (1, 1, 300, 7),
    (11, 3, 5, 3),                                  # chunks of parts of rows
    (5, 2, 9, 7),
    (4, 1000, 3, None),                             # a late first block
])
def test_vectorized_philox_matches_numpy_philox_in_every_shape(lanes, first_block, n_blocks,
                                                               chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(pathspace, "_PHILOX_CHUNK", chunk)
    rng = np.random.default_rng(lanes + n_blocks)
    # per-lane keys as Monte Carlo poisson makes them, and walk words past 2**63
    seed = int(rng.integers(2 ** 63)) * 2 + 1
    key = np.uint64(seed) + np.uint64(7919) * np.arange(lanes, dtype=np.uint64)
    walks = np.arange(lanes, dtype=np.uint64) + np.uint64(2 ** 63 - lanes // 2)
    u = _philox_doubles(key, walks, first_block, n_blocks)
    assert u.shape == (4, n_blocks, lanes)
    for i in sorted({0, lanes // 2, lanes - 1}):
        want = _philox_reference(int(key[i]), int(walks[i]), first_block, n_blocks)
        assert np.array_equal(u[:, :, i], want)


@pytest.mark.parametrize("d", [
    IRREGULAR,
    # 30 degree classes, of rows of up to 80 weights
    _reweighted(gen_bottleneck([1, 30, 60, 5, 80, 40], 3), 7),
    # one row of 301 weights, the others of 1 or 2
    _reweighted(_broom(300), 11),
], ids=["irregular", "bottleneck-random-weights", "broom300-random-weights"])
def test_transition_tables_match_per_vertex_cumsum(d):
    """Each vertex's neighbours and np.cumsum(w) / w.sum() of its weights,
    built edge by edge."""
    tr = _transitions(d, d.num_levels)
    _, nbrs, cum = walk_tables(d, d.num_levels)
    uneven = 0
    for x, row in enumerate(cum):
        k = len(row)
        assert tr.degree[x] == k
        assert tr.nbr[x, :k].tolist() == nbrs[x]
        assert np.all(tr.nbr[x, k:] == nbrs[x][-1])
        assert tr.cum[:k, x].tolist() == row
        assert np.all(tr.cum[k:, x] == np.inf)
        uneven += int(row[-1] != 1.0)
    assert uneven > 0


def test_transition_tables_take_no_more_memory_than_they_keep():
    """On a broom of width 2,000, whose one wide row sets the width of every
    vertex's slots, building the tables allocates little beyond them: no
    dense weight matrix and no transposed copy of the same size."""
    d = _broom(2000)
    tracemalloc.start()
    try:
        tr = _transitions(d, d.num_levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.cum.shape == (2001, 4002)
    assert peak <= 1.1 * (tr.cum.nbytes + tr.nbr.nbytes)


def test_monte_carlo_poisson_makes_its_lanes_a_slice_at_a_time():
    """A start's walks are made _LANES at a time, so the memory that grows
    with the walks is the samples' rows (each start's mean and std need its
    whole row), not a start, key and walk number per walk as well."""
    d = gen_pascal(2, 1.0)

    def peak(walks):
        cfg = WalkConfig(max_steps=100, num_walks=walks, seed=5, absorb_level=2)
        tracemalloc.start()
        try:
            poisson_kernel(d, np.array([1.0, 2.0, 3.0]), 2, "monte-carlo", cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(2 ** 19) - peak(2 ** 17)) / (2 ** 19 - 2 ** 17) <= 40


@pytest.mark.parametrize("absorb", [3, 5])
def test_absorbing_rows_hold_the_walk(absorb):
    """Every vertex of the absorbing level keeps a walk where it is, also
    when the diagram goes on below it."""
    tr = _transitions(IRREGULAR, absorb)
    held = np.arange(tr.offsets[absorb], tr.offsets[absorb + 1])
    assert held.size == IRREGULAR.level_sizes[absorb]
    assert tr.cum.shape[1] == tr.nbr.shape[0] == tr.offsets[-1]
    assert np.all(tr.cum[:, held] == np.inf)
    assert np.array_equal(tr.nbr[held], np.repeat(held[:, None], tr.nbr.shape[1], axis=1))
    assert np.all(tr.degree[held] == 0) and np.all(tr.degree[:held[0]] > 0)


@pytest.mark.parametrize("start, targets, distinct", [
    (VertexId(0, 0), [VertexId(1, 0), VertexId(1, 0), VertexId(2, 1)], [0, 0, 1]),
    (VertexId(0, 0), [VertexId(1, 0), VertexId(0, 0), VertexId(0, 0)], [0, 1, 1]),
    (VertexId(1, 1), [VertexId(2, 3), VertexId(1, 1), VertexId(2, 3), VertexId(1, 1)],
     [0, 1, 0, 1]),
], ids=["target-twice", "start-twice", "both-twice"])
def test_a_target_listed_twice_is_estimated_each_time(start, targets, distinct):
    d = gen_binary_tree(6, 2.0)
    cfg = WalkConfig(max_steps=500, num_walks=2000, seed=3, absorb_level=6)
    once = simulate_walks(d, start, cfg, list(dict.fromkeys(targets)))
    twice = simulate_walks(d, start, cfg, targets)
    assert twice.pairs == [once.pairs[j] for j in distinct]
    assert (twice.return_prob, twice.forward_fraction) == (once.return_prob,
                                                           once.forward_fraction)
    assert all(p.visits > 0 for p in twice.pairs)


@pytest.mark.parametrize("d, start, cfg, targets", [
    (gen_binary_tree(6, 2.0), VertexId(2, 1), WalkConfig(12, 203, -3, 6),
     [VertexId(2, 1), VertexId(1, 0), VertexId(3, 2)]),
    (gen_pascal(8, 1.0), VertexId(0, 0), WalkConfig(100_000, 101, 2 ** 63 + 1, 8),
     [VertexId(2, 1)]),
    (IRREGULAR, VertexId(2, 4), WalkConfig(5000, 150, 8, 5), [VertexId(3, 1), VertexId(0, 0)]),
], ids=["tree6-mid-capped", "pascal8-long", "irregular"])
def test_walk_estimates_match_per_walk_reference(d, start, cfg, targets):
    est = simulate_walks(d, start, cfg, targets)
    tables = walk_tables(d, cfg.absorb_level)
    off = tables[0]
    level = np.repeat(np.arange(cfg.absorb_level + 1), d.level_sizes[:cfg.absorb_level + 1])
    s = off[start.level] + start.index
    tflat = [off[t.level] + t.index for t in targets]
    visits, returned, bad, steps = [], [], [], 0
    for w in range(cfg.num_walks):
        path = walk_path(tables, s, cfg.seed, w, cfg.max_steps)
        steps += len(path)
        if path[-1] < off[-2]:
            continue  # capped
        visits.append([path[:-1].count(f) + (f == s) for f in tflat])
        returned.append(s in path)
        first = {start.level: 0}
        for step, v in enumerate(path, start=1):
            first.setdefault(int(level[v]), step)
        bad.append(max([m for m in range(start.level, cfg.absorb_level)
                        if first[m + 1] != first[m] + 1], default=-1))
    n = len(visits)
    assert (est.n_absorbed, est.n_capped) == (n, cfg.num_walks - n)
    assert 0 < n
    assert est.diagnostics["steps"] == steps
    assert est.diagnostics["draws"] >= steps and est.diagnostics["refills"] > 0
    for j, (p, t) in enumerate(zip(est.pairs, targets)):
        reach = 1.0 if t == start else sum(v[j] > 0 for v in visits) / n
        assert (p.reach, p.visits) == (reach, sum(v[j] for v in visits) / n)
    assert est.return_prob == sum(returned) / n
    assert est.forward_fraction == {m: sum(b < m for b in bad) / n
                                    for m in range(start.level, cfg.absorb_level)}


def _batching_cases():
    """Walk and Monte Carlo Poisson results, and their engine counts, on
    cases whose caps of 11 and 41 steps end a refill inside a Philox block.
    The steps taken depend only on the inputs and the seed; the draws and
    refills made are returned apart, as they depend on the batching."""
    targets = [VertexId(2, 1), VertexId(3, 3)]
    ests = [simulate_walks(TREE8, VertexId(1, 1), WalkConfig(cap, 103, 17, 8), targets)
            for cap in (300, 11)]
    res = [poisson_kernel(gen_pascal(6, 1.0), np.arange(7.0), 6, method="monte-carlo",
                          cfg=WalkConfig(cap, 11, 5, 6)) for cap in (40, 41)]
    made = [(r.diagnostics.pop("draws"), r.diagnostics.pop("refills")) for r in ests + res]
    return (ests, [([v.tolist() for v in r.values.values + r.stderr.values], r.n_capped,
                    r.diagnostics) for r in res]), made


def test_walk_results_do_not_depend_on_batching(monkeypatch):
    whole, _ = _batching_cases()
    assert whole[0][1].n_capped > 0 and whole[1][1][1] > 0
    lanes = []
    walk_blocks = pathspace._walk_blocks

    def counted(tr, v, *args):
        lanes.append(v.size)
        return walk_blocks(tr, v, *args)
    monkeypatch.setattr(pathspace, "_walk_blocks", counted)
    # fewer lanes than one start's 11 Monte Carlo walks: they go 5, 5 and 1,
    # for each of the 21 starts above level 6 in each of the two runs
    monkeypatch.setattr(pathspace, "_LANES", 5)
    monkeypatch.setattr(pathspace, "_PHILOX_CHUNK", 3)
    assert _batching_cases()[0] == whole
    assert max(lanes) == 5 and lanes.count(1) == 2 * 21
    # every refill one Philox block of 4 steps: visit counts and the forward
    # bookkeeping carry across every block, and absorbed lanes are held
    monkeypatch.setattr(pathspace, "_MAX_BLOCKS", 1)
    monkeypatch.setattr(pathspace, "_MAX_DRAWS", 4)
    assert _batching_cases()[0] == whole


@pytest.mark.parametrize("lanes", [None, 5], ids=["all-lanes", "5-lane-batches"])
def test_walk_results_do_not_depend_on_the_scalar_finish(lanes, monkeypatch):
    """The same results with the scalar finish off (threshold 0) and with
    every lane finishing on its own after the first refill."""
    whole, _ = _batching_cases()
    if lanes is not None:
        monkeypatch.setattr(pathspace, "_LANES", lanes)
    monkeypatch.setattr(pathspace, "_SCALAR_LANES", 0)
    lockstep, lockstep_made = _batching_cases()
    monkeypatch.setattr(pathspace, "_SCALAR_LANES", 10 ** 6)
    scalar, scalar_made = _batching_cases()
    assert lockstep == scalar == whole
    # each lane that finishes on its own makes at least one batch of draws
    assert all(s[1] > w[1] for s, w in zip(scalar_made, lockstep_made))


def _lane_paths(tr, v, key, walk, max_steps):
    """Each lane's own path as _walk_blocks steps it, without the steps for
    which a lane absorbed inside a refill is held; and the engine's counts."""
    counts = dict(steps=0, draws=0, refills=0)
    paths = [[] for _ in range(v.size)]
    for lane, path in pathspace._walk_blocks(tr, v, key, walk, max_steps, counts):
        for j, i in enumerate(lane.tolist()):
            paths[i] += path[:, j].tolist()
    n_int = tr.offsets[-2]
    paths = [p[:next((s + 1 for s, x in enumerate(p) if x >= n_int), len(p))] for p in paths]
    assert counts["steps"] == sum(map(len, paths)) and counts["draws"] >= counts["steps"]
    return paths, counts


@pytest.mark.parametrize("threshold", [0, 24, 10 ** 6], ids=["off", "default", "every-lane"])
def test_scalar_finish_follows_substreams_with_walk_words_past_2_63(threshold, monkeypatch):
    """Walk words of 2**63 and more, with Monte Carlo Poisson's keys: each
    lane's path is the per-walk reference's, whichever lanes finish on
    their own."""
    monkeypatch.setattr(pathspace, "_SCALAR_LANES", threshold)
    absorb, lanes, cap = 5, 40, 37  # a cap inside a Philox block
    tr = _transitions(IRREGULAR, absorb)
    tables = walk_tables(IRREGULAR, absorb)
    v = np.arange(lanes) % int(tr.offsets[absorb])
    key = np.uint64(2 ** 64 - 3) + np.uint64(7919) * v.astype(np.uint64)
    walk = np.uint64(2 ** 63 - lanes // 2) + np.arange(lanes, dtype=np.uint64)
    paths, counts = _lane_paths(tr, v, key, walk, cap)
    for i in range(lanes):
        assert paths[i] == walk_path(tables, int(v[i]), int(key[i]), int(walk[i]), cap)
    assert any(len(p) == cap for p in paths) and any(len(p) < 8 for p in paths)


@pytest.mark.parametrize("d, level, cfg", [
    (gen_pascal(5, 1.0), 5, WalkConfig(80, 1000, 4, 5)),
    (gen_pascal(5, 1.0), 5, WalkConfig(9, 2, 4, 5)),
    (gen_binary_tree(6, 2.0), 6, WalkConfig(5000, 999, -2, 6)),
], ids=["pascal5-capped", "pascal5-capped-2-walks", "tree6-uncapped"])
def test_monte_carlo_poisson_reduces_each_start_as_its_own_row(d, level, cfg):
    """The starts without a capped walk reduce in one call; their means and
    standard errors have the bits of each start's own arr.mean() and
    arr.std(ddof=1), as do those of the starts with a capped walk.  A capped
    case has starts of both kinds."""
    f = np.cos(np.arange(d.level_sizes[level]) + 0.5)
    res = poisson_kernel(d, f, level, method="monte-carlo", cfg=cfg)
    tr = _transitions(d, level)
    n_int = int(tr.offsets[level])
    x = np.repeat(np.arange(n_int), cfg.num_walks)
    key = np.uint64(cfg.seed % 2 ** 64) + np.uint64(7919) * x.astype(np.uint64)
    walk = np.tile(np.arange(cfg.num_walks, dtype=np.uint64), n_int)
    paths, _ = _lane_paths(tr, x, key, walk, cfg.max_steps)
    full = capped = 0
    for x0 in range(n_int):
        ends = [p[-1] for p in paths[x0 * cfg.num_walks:(x0 + 1) * cfg.num_walks]]
        arr = np.array([f[e - n_int] for e in ends if e >= n_int])
        full += arr.size == cfg.num_walks
        capped += cfg.num_walks - arr.size
        assert res.values.flat()[x0] == (arr.mean() if arr.size else 0.0)
        assert res.stderr.flat()[x0] == (
            arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0)
    assert res.n_capped == capped
    assert 0 < full < n_int if cfg.max_steps < 100 else full == n_int


@pytest.mark.parametrize("d, level, cfg, some_capped", [
    (gen_pascal(5, 1.0), 5, WalkConfig(15, 23, 4, 5), True),
    (IRREGULAR, 4, WalkConfig(5000, 9, -1, 4), False),
], ids=["pascal5-capped", "irregular"])
def test_monte_carlo_poisson_matches_per_walk_reference(d, level, cfg, some_capped):
    f = np.cos(np.arange(d.level_sizes[level]) + 0.5)
    res = poisson_kernel(d, f, level, method="monte-carlo", cfg=cfg)
    tables = walk_tables(d, level)
    off = tables[0]
    capped = 0
    for n in range(level):
        for i in range(d.level_sizes[n]):
            x = int(off[n]) + i
            samples = []
            for w in range(cfg.num_walks):
                path = walk_path(tables, x, cfg.seed + 7919 * x, w, cfg.max_steps)
                if path[-1] >= off[level]:
                    samples.append(f[path[-1] - off[level]])
                else:
                    capped += 1
            arr = np.array(samples)
            assert res.values.values[n][i] == (arr.mean() if arr.size else 0.0)
            assert res.stderr.values[n][i] == (
                arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0)
    assert res.n_capped == capped
    assert (capped > 0) == some_capped


# --- Poisson kernel -----------------------------------------------------------

def test_poisson_constant_boundary_data():
    res = poisson_kernel(TREE8, np.ones(256), 8)
    for v in res.values.values:
        assert np.allclose(v, 1.0, atol=1e-12)


def test_poisson_reproduces_interior_restriction():
    d = gen_pascal(10, 1.0)
    h = pascal_harmonic(10)
    res = poisson_kernel(d, h.values[10], 10)
    for n in range(11):
        assert np.allclose(res.values.values[n], h.values[n], atol=1e-9)


def test_poisson_boundary_values_exact_in_both_modes():
    f6 = tree_symmetric_harmonic(6, 2.0).values[6]
    d6 = gen_binary_tree(6, 2.0)
    exact = poisson_kernel(d6, f6, 6)
    assert np.array_equal(exact.values.values[6], f6)
    mc = poisson_kernel(d6, f6, 6, method="monte-carlo",
                        cfg=WalkConfig(max_steps=2000, num_walks=50, seed=1,
                                       absorb_level=6))
    assert np.array_equal(mc.values.values[6], f6)
    assert np.all(mc.stderr.values[6] == 0.0)


@pytest.mark.parametrize("method", ["exact-dirichlet", "monte-carlo"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_poisson_names_boundary_data_that_is_not_finite(method, value):
    # nan data once gave nan at every vertex, and inf a RuntimeWarning
    d = gen_binary_tree(3, 2.0)
    f3 = np.ones(8)
    f3[5] = value
    with pytest.raises(ValueError, match=rf"^value {value} at \(3,5\) is not finite$"):
        poisson_kernel(d, f3, 3, method=method,
                       cfg=WalkConfig(max_steps=100, num_walks=5, seed=1, absorb_level=3))


def test_poisson_mc_refuses_a_config_absorbing_off_the_target_level():
    # walks are absorbed at the target level, so a config naming another is refused
    d = gen_binary_tree(4, 2.0)
    cfg = WalkConfig(max_steps=100, num_walks=5, seed=1, absorb_level=1)
    with pytest.raises(ValueError, match="^absorb_level 1 is not the target level 3$"):
        poisson_kernel(d, np.ones(8), 3, method="monte-carlo", cfg=cfg)
    res = poisson_kernel(d, np.ones(8), 3, method="monte-carlo",
                         cfg=dataclasses.replace(cfg, absorb_level=3))
    assert np.all(res.values.flat() == 1.0)


def test_poisson_mc_three_sigma_agreement():
    d6 = gen_binary_tree(6, 2.0)
    f6 = tree_symmetric_harmonic(6, 2.0).values[6]
    mc = poisson_kernel(d6, f6, 6, method="monte-carlo",
                        cfg=WalkConfig(max_steps=4000, num_walks=600, seed=3,
                                       absorb_level=6))
    ex = poisson_kernel(d6, f6, 6)
    n_out = 0
    total = 0
    for n in range(6):
        z = np.abs(mc.values.values[n] - ex.values.values[n]) \
            / np.maximum(mc.stderr.values[n], 1e-9)
        n_out += int((z > 3).sum())
        total += z.size
    assert n_out <= max(1, int(0.05 * total))


# --- stabilization ----------------------------------------------------------------

def compatible_family(d, top):
    """f_N = top and f_n = P<-_n f_{n+1} below, each level of P applied to
    the function that is f_{n+1} on level n+1 and 0 elsewhere."""
    vals = [None] * (d.num_levels + 1)
    vals[d.num_levels] = np.asarray(top, dtype=float)
    for n in range(d.num_levels - 1, -1, -1):
        f = LevelFunction.zeros(d)
        f.values[n + 1][:] = vals[n + 1]
        vals[n] = markov_apply(d, f).values[n]
    return LevelFunction(vals)


def test_stabilization_compatible_family_is_monotone():
    d = gen_binary_tree(7, 2.0)
    f = compatible_family(d, np.abs(np.random.default_rng(5).standard_normal(128)) + 0.25)
    rep = poisson_stabilization(d, f, VertexId(1, 0))
    diffs = np.diff(rep.values)
    assert np.all(diffs >= -1e-12)
    assert max(rep.compatibility_residuals) <= 1e-12


def test_stabilization_zero_family_trivial():
    d = gen_binary_tree(6, 2.0)
    f = LevelFunction.zeros(d)
    rep = poisson_stabilization(d, f, VertexId(1, 0))
    assert rep.stabilization_level == rep.levels[0]
    assert all(v == 0.0 for v in rep.values)


def test_stabilization_rejects_incompatible_family():
    # the level-1 edge rows of the closed form coincide with compatibility,
    # so the first genuine violation is at level 2 and must be named
    d = gen_pascal(8, 1.0)
    with pytest.raises(ValueError, match="level 2"):
        poisson_stabilization(d, pascal_harmonic(8), VertexId(1, 0))


def test_harmonic_family_stabilizes_at_level_plus_one():
    # globally harmonic boundary data: successive Dirichlet solves return the
    # same interior values at every depth past the vertex level
    d = gen_pascal(9, 1.0)
    h = pascal_harmonic(9)
    for x in (VertexId(1, 0), VertexId(2, 1)):
        vals = [poisson_kernel(d, h.values[n], n).values.at(x)
                for n in range(x.level + 1, 10)]
        assert max(abs(v - h.at(x)) for v in vals) <= 1e-10

