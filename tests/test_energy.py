import numpy as np
import pytest

from bharm import (
    LevelFunction,
    VertexId,
    current_balance,
    dissipation_check,
    energy_lower_bound,
    energy_norm,
    gen_binary_tree,
    gen_pascal,
    gen_stationary,
    harmonicity_check,
    laplacian_apply,
    make_diagram,
    markov_apply,
    monopole_green,
    resistance_distance,
    solve_chain,
    stationary_energy_criterion,
)
from bharm.closedforms import (
    pascal_harmonic,
    tree_energy_increments,
    tree_energy_series,
    tree_symmetric_harmonic,
)
from bruteforce import brute_energy, level_matrices


def test_constant_function_zero_energy_and_currents():
    d = gen_binary_tree(6, 2.0)
    rep = energy_norm(d, LevelFunction.constant(d, 5.0))
    assert rep.energy == 0.0
    for i in rep.currents[1:]:
        assert np.allclose(i, 0.0)


def test_energy_matches_brute_force_edge_loop():
    d = gen_pascal(7, 1.5)
    rng = np.random.default_rng(3)
    f = LevelFunction([rng.standard_normal(s) for s in d.level_sizes])
    rep = energy_norm(d, f)
    assert np.isclose(rep.energy, brute_energy(d, f), rtol=1e-12)


def test_tree_energy_increments_match_two_path_reduction():
    for lam in (1.0, 2.0, 3.0):
        d = gen_binary_tree(12, lam)
        f = tree_symmetric_harmonic(12, lam)
        rep = energy_norm(d, f)
        closed = tree_energy_increments(lam, 12)
        assert np.allclose(rep.level_increments, closed, rtol=1e-10)


def test_tree_energy_dichotomy_and_series_offset():
    # lam = 2: Cauchy tail and the recorded relation (edge sum = series + lam^2)
    incs = tree_energy_increments(2.0, 30)
    partial = np.cumsum(incs)
    assert max(incs[-3:]) < 1e-6
    assert abs(partial[-1] - (tree_energy_series(2.0, 400) + 4.0)) < 1e-6
    # lam = 1: increments bounded below
    incs1 = tree_energy_increments(1.0, 30)
    assert min(incs1) >= 2.0


def test_level_currents_constant_for_harmonic():
    d = gen_pascal(9, 1.0)
    h = pascal_harmonic(9)
    rep = energy_norm(d, h)
    for i_n in rep.level_currents[1:]:
        assert np.isclose(i_n, rep.root_flux, atol=1e-10)


def test_energy_shift_scale_and_conductance_rescale():
    from bharm import make_diagram
    d = gen_pascal(6, 1.0)
    rng = np.random.default_rng(8)
    f = LevelFunction([rng.standard_normal(s) for s in d.level_sizes])
    base = energy_norm(d, f).energy
    shifted = energy_norm(d, f.shift(17.0)).energy
    assert np.isclose(base, shifted, rtol=1e-9)
    scaled_f = energy_norm(d, 3.0 * f).energy
    assert np.isclose(scaled_f, 9.0 * base, rtol=1e-12)
    d_scaled = make_diagram(d.level_sizes, [2.5 * c.toarray() for c in level_matrices(d)])
    assert np.isclose(energy_norm(d_scaled, f).energy, 2.5 * base, rtol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_energy_norm_names_a_value_that_is_not_finite(value):
    # a nan once gave nan energy with the bound reported as holding
    d = gen_pascal(4, 1.0)
    f = pascal_harmonic(4)
    f.values[2][1] = value
    with pytest.raises(ValueError, match=rf"^value {value} at \(2,1\) is not finite$"):
        energy_norm(d, f)


def test_current_balance_names_a_value_that_is_not_finite():
    # a nan once gave nan imbalances on three levels and max_imbalance 0.0
    d = gen_pascal(6, 1.0)
    f = pascal_harmonic(6)
    f.values[4][1] = np.nan
    with pytest.raises(ValueError, match=r"^value nan at \(4,1\) is not finite$"):
        current_balance(d, f)


def test_energy_makes_no_level_views():
    # the energies read per-edge differences off the edge table; they once
    # made all the diagram's level matrices
    d = gen_pascal(10, 1.0)
    f = pascal_harmonic(10)
    energy_norm(d, f)
    dissipation_check(d, f)
    current_balance(d, f)
    assert "conductance" not in d.__dict__


# --- harmonic energy identities ----------------------------------------------

def _harmonic_cases():
    ds = gen_stationary([[1, 1], [1, 0]], 8, 2.0)
    tree = gen_binary_tree(6, 2.0)
    return [
        pytest.param(gen_pascal(10, 1.0), pascal_harmonic(10), 1e-9, id="pascal"),
        pytest.param(tree, tree_symmetric_harmonic(6, 2.0), 1e-9, id="tree-symmetric"),
        pytest.param(ds, solve_chain(ds, seed_f1=[1.0, -1.0])[0], 1e-6, id="stationary"),
        pytest.param(tree, LevelFunction.constant(tree, 2.0), 1e-12, id="constant"),
    ]


@pytest.mark.parametrize("d, f, tol", _harmonic_cases())
def test_harmonic_formulas_agree(d, f, tol):
    # for f harmonic on the interior levels 0..N-1, (1/2) sum c (P f^2 - f^2)
    # and -(1/2) sum Delta f^2 over them are the edge energy with full weight
    # on the interior edges and half weight on the edges into level N
    assert harmonicity_check(d, f).consistent
    f2 = LevelFunction.from_flat(d, f.flat() ** 2)
    pf2, lf2 = markov_apply(d, f2), laplacian_apply(d, f2)
    c, off, interior = d.degrees, d.table.offsets, range(d.num_levels)
    via_markov = 0.5 * sum(float(np.dot(c[off[n]:off[n + 1]], pf2.values[n] - f2.values[n]))
                           for n in interior)
    via_laplacian = -0.5 * sum(float(lf2.values[n].sum()) for n in interior)
    incs = energy_norm(d, f).level_increments
    edge_sum = sum(incs[:-1]) + 0.5 * incs[-1]
    assert abs(via_markov - edge_sum) <= tol * max(1.0, edge_sum)
    assert abs(via_laplacian - edge_sum) <= tol * max(1.0, edge_sum)


# --- lower bound ----------------------------------------------------------------

def test_pascal_bound_and_divergence_flag():
    d = gen_pascal(12, 1.0)
    rep = energy_norm(d, pascal_harmonic(12))
    bound, holds = energy_lower_bound(rep)
    assert holds
    assert rep.divergence_flag  # sum 1/(beta_n |V_n|) is harmonic-like
    # interior beta is 4 and |V_n| = n+1
    assert rep.beta[2] == 4.0


def test_constant_zero_bound():
    d = gen_binary_tree(5, 2.0)
    rep = energy_norm(d, LevelFunction.constant(d, 1.0))
    bound, holds = energy_lower_bound(rep)
    assert bound == 0.0 and holds


def test_tree_bound_partial_sums_below_energy():
    d = gen_binary_tree(12, 2.0)
    rep = energy_norm(d, tree_symmetric_harmonic(12, 2.0))
    _, holds = energy_lower_bound(rep)
    assert holds
    for m in range(len(rep.energy_partial)):
        assert rep.bound_partial[m] <= rep.energy_partial[m] + 1e-12


def test_root_monopole_bound_is_contentful():
    # harmonic off the root with I_n = -1: the bound partial sums approach
    # the monopole energy G(o,o)/c(o) = 2/3 and stay below it
    d = gen_binary_tree(14, 2.0)
    w = monopole_green(d, VertexId(0, 0), 14)
    rep = energy_norm(d, w)
    assert np.isclose(rep.root_flux, -1.0, atol=1e-9)
    for i_n in rep.level_currents[1:]:
        assert np.isclose(i_n, -1.0, atol=1e-8)
    _, holds = energy_lower_bound(rep)
    assert holds
    assert rep.bound_partial[-1] > 0.6  # genuinely constrains the energy
    assert np.isclose(rep.energy, 2.0 / 3.0, atol=1e-3)


def test_schwarz_current_inequality_per_level():
    # for harmonic-off-the-root functions with I_1 != 0:
    # sum_x I_n(x)^2 >= I_1^2 / |V_n|
    d = gen_binary_tree(10, 2.0)
    w = monopole_green(d, VertexId(0, 0), 10)
    rep = energy_norm(d, w)
    for n in range(1, d.num_levels):
        lhs = float(np.sum(rep.currents[n] ** 2))
        assert lhs >= rep.root_flux ** 2 / d.level_sizes[n] - 1e-12


def test_tree_energy_finiteness_tracks_lambda():
    # finite iff lam > 1, via increment growth over 30 levels
    for lam, finite in ((3.0, True), (0.5, False)):
        incs = tree_energy_increments(lam, 30)
        if finite:
            assert incs[-1] < 1e-9
        else:
            assert incs[-1] > incs[5]


def test_tree_divergence_flag_clear_for_transient_weights():
    d = gen_binary_tree(12, 2.0)
    rep = energy_norm(d, tree_symmetric_harmonic(12, 2.0))
    assert not rep.divergence_flag  # beta_n |V_n| grows geometrically


# --- Kirchhoff / dissipation -----------------------------------------------------

def test_kirchhoff_balance_iff_harmonic():
    d = gen_binary_tree(7, 2.0)
    f = tree_symmetric_harmonic(7, 2.0)
    assert current_balance(d, f).max_imbalance <= 1e-10
    g = f.copy()
    g.values[3][2] += 0.25
    assert current_balance(d, g).max_imbalance > 1e-3


@pytest.mark.parametrize("seed", range(3))
def test_dissipation_isometry(seed):
    d = gen_pascal(6, 1.5)
    rng = np.random.default_rng(seed)
    f = LevelFunction([rng.standard_normal(s) for s in d.level_sizes])
    rep = dissipation_check(d, f)
    assert rep.relative_gap <= 1e-12


def test_dissipation_on_tree_closed_form():
    d = gen_binary_tree(10, 2.0)
    rep = dissipation_check(d, tree_symmetric_harmonic(10, 2.0))
    assert rep.relative_gap <= 1e-12


# --- resistance distance -----------------------------------------------------------

def test_resistance_distance_axioms():
    d = gen_binary_tree(8, 2.0)
    x, y, z = VertexId(1, 0), VertexId(2, 3), VertexId(3, 1)
    assert resistance_distance(d, x, x, 8) == 0.0
    dxy = resistance_distance(d, x, y, 8)
    assert np.isclose(dxy, resistance_distance(d, y, x, 8), atol=1e-9)
    assert dxy > 0
    dxz = resistance_distance(d, x, z, 8)
    dzy = resistance_distance(d, z, y, 8)
    assert dxy <= dxz + dzy + 1e-9


@pytest.mark.parametrize("x, y, level, message", [
    (VertexId(99, 99), VertexId(99, 99), 77, "boundary level must be within the stored prefix"),
    (VertexId(99, 99), VertexId(99, 99), 4, r"vertex level 99 outside stored levels 0\.\.4"),
    (VertexId(1, 0), VertexId(2, 4), 4, r"vertex index 4 outside \[0, 4\)"),
    (VertexId(4, 0), VertexId(4, 0), 4, r"vertex \(4,0\) is not interior to level 4"),
])
def test_resistance_distance_checks_its_arguments_first(x, y, level, message):
    # equal vertices are checked too, before the x == y shortcut
    with pytest.raises(ValueError, match=f"^{message}$"):
        resistance_distance(gen_binary_tree(4, 2.0), x, y, level)


@pytest.mark.parametrize("triple", [
    (VertexId(0, 0), VertexId(1, 0), VertexId(2, 2)),
    (VertexId(2, 0), VertexId(2, 3), VertexId(4, 9)),
    (VertexId(1, 1), VertexId(3, 0), VertexId(3, 7)),
])
def test_resistance_triangle_spot_checks(triple):
    d = gen_binary_tree(8, 2.0)
    x, y, z = triple
    dxy = resistance_distance(d, x, y, 8)
    dxz = resistance_distance(d, x, z, 8)
    dzy = resistance_distance(d, z, y, 8)
    assert dxy <= dxz + dzy + 1e-9


# --- stationary energy criterion ----------------------------------------------------

def test_stationary_criterion_constant_seed_bounded():
    d = gen_stationary([[1, 1], [1, 0]], 20, 2.0)
    res = stationary_energy_criterion(d, [1.0, 1.0])
    assert res.finite
    last_increment = res.energy_partial[-1] - res.energy_partial[-2]
    assert last_increment < 1e-4
    assert res.energy_partial[-1] < 5.1  # partial sums bounded (limit 5)


def test_stationary_criterion_alternating_seed_unbounded():
    d = gen_stationary([[1, 1], [1, 0]], 20, 2.0)
    res = stationary_energy_criterion(d, [1.0, -1.0])
    assert not res.finite
    assert res.energy_partial[-1] > 100 * res.energy_partial[5]


def test_stationary_criterion_zero_seed():
    d = gen_stationary([[1, 1], [1, 0]], 10, 2.0)
    res = stationary_energy_criterion(d, [0.0, 0.0])
    assert res.finite
    assert res.energy_partial[-1] == 0.0


def test_stationary_criterion_hypotheses_enforced():
    d = gen_stationary([[1, 1], [1, 0]], 6, 1.0)
    with pytest.raises(ValueError, match="lam"):
        stationary_energy_criterion(d, [1.0, 1.0])
    d2 = gen_stationary([[1, 1], [0, 1]], 6, 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        stationary_energy_criterion(d2, [1.0, 1.0])
    d3 = gen_stationary([[1, 1], [1, 1]], 6, 2.0)
    with pytest.raises(ValueError, match="invertible"):
        stationary_energy_criterion(d3, [1.0, 1.0])
    d4 = gen_binary_tree(4, 2.0)
    with pytest.raises(ValueError, match="stationary"):
        stationary_energy_criterion(d4, [1.0, 1.0])


def test_energy_norm_rejects_an_edgeless_level():
    # beta_n = 0 once divided the bound terms by zero
    d = make_diagram([1, 2, 2], [np.array([[1.0, 1.0]]), np.zeros((2, 2))])
    with pytest.raises(ValueError, match=r"^isolated vertex at level 2, index 0 \(c\(x\) = 0\)$"):
        energy_norm(d, LevelFunction.zeros(d))
