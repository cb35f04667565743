import json
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg

from bharm import (
    LevelFunction,
    VertexId,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    harm_dimension,
    harmonicity_check,
    make_diagram,
    solve_chain,
    solve_dipole,
    solve_monopole,
)
from bharm import harmonic
from bharm._matops import stacked_table
from bharm.closedforms import (
    pascal_harmonic,
    pascal_pins,
    pascal_value,
    stationary_formula,
    tree_pins,
    tree_symmetric_harmonic,
)
from bharm.fileio import parse_diagram, parse_genspec
from bharm.harmonic import RANK_RCOND, _level_rank
import bruteforce
from bruteforce import (level_matrices, ref_chain_residuals, ref_degrees,
                        stacked_constraint_matrix, stacked_nullity)


# --- harmonicity check ---------------------------------------------------------

def test_pascal_closed_form_has_zero_residuals():
    d = gen_pascal(8, 1.0)
    rep = harmonicity_check(d, pascal_harmonic(8))
    assert rep.consistent
    assert rep.max_residual < 1e-12


def test_constant_functions_are_harmonic():
    d = gen_binary_tree(5, 2.0)
    rep = harmonicity_check(d, LevelFunction.constant(d, 4.0))
    assert rep.max_residual < 1e-12


def test_delta_residual_equals_total_conductance():
    d = gen_pascal(6, 1.0)
    x = VertexId(3, 1)
    rep = harmonicity_check(d, LevelFunction.delta(d, x))
    assert np.isclose(rep.residuals[x.level], d.degrees[d.table.offsets[3] + 1])


def test_source_aware_check():
    d = gen_binary_tree(6, 2.0)
    w, _ = solve_monopole(d, VertexId(2, 1))
    assert not harmonicity_check(d, w).consistent
    assert harmonicity_check(d, w, source={VertexId(2, 1): 1.0}).consistent


# --- single-level extension ------------------------------------------------------

def _prefix_pins(f, n):
    """Pins that fix levels 2..n of f: with the seed f_1, the whole prefix
    f_0..f_n, so that only level n's equations keep an unknown."""
    return {k: dict(enumerate(f.values[k])) for k in range(2, n + 1)}


def test_pascal_extension_solution_set_is_one_dimensional():
    d = gen_pascal(6, 1.0)
    h = pascal_harmonic(6)
    f, rep = solve_chain(d, depth=3, seed_f1=h.values[1], pins=_prefix_pins(h, 2))
    assert harm_dimension(d).solution_set_dims[2] == 1
    assert rep.consistent
    # pinned leftmost coordinate reproduces the closed form exactly
    pins = {**_prefix_pins(h, 2), 3: {0: pascal_value(3, 0)}}
    f, rep = solve_chain(d, depth=3, seed_f1=h.values[1], pins=pins)
    assert np.allclose(f.values[3], h.values[3], atol=1e-10)


def test_tree_extension_one_free_parameter_per_parent():
    lam = 2.0
    d = gen_binary_tree(5, lam)
    f = tree_symmetric_harmonic(5, lam)
    _, rep = solve_chain(d, depth=3, seed_f1=f.values[1], pins=_prefix_pins(f, 2))
    # 4 parents, 8 children, 4 equations of full row rank
    assert harm_dimension(d).solution_set_dims[2] == 4
    assert rep.consistent


def _bottleneck_seed(d):
    """A random level-1 seed on the root equation of d."""
    c0 = d.table.level(0).toarray()[0]
    f1 = np.random.default_rng(0).standard_normal(c0.size)
    return f1 - c0 * (c0 @ f1) / (c0 @ c0)


def test_bottleneck_extension_inconsistent():
    # three equations, one unknown: generically unsolvable
    d = gen_bottleneck([1, 3, 1, 3], 2)
    f1 = _bottleneck_seed(d)
    # brute force: the 3x1 system C_1 f_2 = D_1 f_1 has no exact solution
    c1 = d.table.level(1).toarray().reshape(-1)
    rhs = ref_degrees(d, 1) * f1
    best = np.linalg.lstsq(c1.reshape(-1, 1), rhs, rcond=None)[0]
    brute_resid = np.abs(c1 * best[0] - rhs).max()
    assert brute_resid > 1e-6
    _, rep = solve_chain(d, depth=2, seed_f1=f1)
    assert not rep.consistent
    assert rep.residuals[1] > 1e-6 / ref_degrees(d, 1).max()
    # the seeded chain is square and structurally singular: a maximum
    # transversal matches 2 of its 4 equations, so LSQR is returned with no
    # LU tried, and the report says why
    _, rep = solve_chain(d, seed_f1=f1)
    assert not rep.consistent
    assert rep.diagnostics["path"] == "lsqr"
    assert rep.diagnostics["fallback"] == "structurally rank deficient (2 of 4 equations)"
    assert rep.diagnostics["max_residual"] == rep.max_residual


# --- chained recursion ------------------------------------------------------------

def test_chained_extension_stays_harmonic():
    d = gen_pascal(10, 2.0)
    f, rep = solve_chain(d, seed_f1=[1.0, -1.0])
    assert rep.consistent
    chk = harmonicity_check(d, f)
    assert chk.consistent


def test_pascal_pinned_chain_matches_closed_form():
    d = gen_pascal(12, 1.0)
    f, rep = solve_chain(d, seed_f1=[1.0, -1.0], pins=pascal_pins(12))
    h = pascal_harmonic(12)
    err = max(np.abs(a - b).max() for a, b in zip(f.values, h.values))
    assert err < 1e-9
    assert rep.consistent


def test_tree_pinned_chain_matches_closed_form():
    lam = 3.0
    d = gen_binary_tree(8, lam)
    f, rep = solve_chain(d, seed_f1=[lam, -lam], pins=tree_pins(8, lam))
    g = tree_symmetric_harmonic(8, lam)
    err = max(np.abs(a - b).max() for a, b in zip(f.values, g.values))
    assert err < 1e-8
    assert rep.consistent


@pytest.mark.parametrize("case", ["tree5-monopole", "pascal8-seeded"])
def test_chain_is_global_minimum_norm_solution(case):
    # oracle: dense lstsq of the stacked system with the seed eliminated
    if case == "tree5-monopole":
        d = gen_binary_tree(5, 2.0)
        x = VertexId(2, 1)
        f, rep = solve_monopole(d, x)
        seed = np.zeros(0)
        b = np.zeros(sum(d.level_sizes[:5]))
        b[sum(d.level_sizes[: x.level]) + x.index] = -1.0
    else:
        d = gen_pascal(8, 1.0)
        seed = np.array([1.0, -1.0])
        f, rep = solve_chain(d, seed_f1=seed)
        b = np.zeros(sum(d.level_sizes[:8]))
    assert rep.diagnostics["path"] == "augmented-lu"
    assert rep.diagnostics["fallback"] is None
    m = stacked_constraint_matrix(d, d.num_levels)
    want = np.linalg.lstsq(m[:, seed.size:], b - m[:, : seed.size] @ seed, rcond=None)[0]
    got = np.concatenate(f.values[1:])[seed.size:]
    assert np.abs(got - want).max() < 1e-10


def test_overdetermined_chain_takes_the_reported_lsqr_path():
    # seed plus all of level 3 pinned: 5 equations on the 3 unknowns of f_2
    d = gen_pascal(3, 1.0)
    h = pascal_harmonic(3)
    f, rep = solve_chain(d, seed_f1=[1.0, -1.0],
                         pins={3: dict(enumerate(h.values[3]))})
    assert rep.diagnostics["path"] == "lsqr"
    assert rep.diagnostics["fallback"].startswith("overdetermined")
    assert rep.consistent
    assert np.allclose(f.values[2], h.values[2], atol=1e-12)


@pytest.mark.parametrize("depth", [20, 40])
def test_square_lu_refines_up_to_the_exact_residual_cap(depth, monkeypatch):
    # one pin a level leaves the stacked Pascal system square: the lu path
    d = gen_pascal(depth, 1.0)
    pins = {n: {0: 1.0} for n in range(1, depth + 1)}
    stored, exact = [], harmonic._exact_residual

    def recording(m, *args):
        stored.append(m.nnz)
        return exact(m, *args)

    monkeypatch.setattr(harmonic, "_exact_residual", recording)
    f, rep = solve_chain(d, pins=pins)
    assert rep.diagnostics["path"] == "lu" and rep.diagnostics["refine_steps"] >= 1
    monkeypatch.setattr(harmonic, "_EXACT_REFINE_ENTRIES", stored[0])
    at_cap, rep_at_cap = solve_chain(d, pins=pins)
    assert at_cap.flat().tobytes() == f.flat().tobytes()
    assert rep_at_cap.diagnostics == rep.diagnostics
    monkeypatch.setattr(harmonic, "_EXACT_REFINE_ENTRIES", stored[0] - 1)
    _, rep_above = solve_chain(d, pins=pins)
    assert rep_above.diagnostics["path"] == "lu" and rep_above.diagnostics["refine_steps"] == 0


@pytest.mark.parametrize("spec, seed, path", [("ladder", [1.0, -1.0], "lu"),
                                              ("pascal", None, "augmented-lu")])
def test_a_failed_factorization_is_named_in_bharms_words(spec, seed, path, monkeypatch):
    # SuperLU's RuntimeError text names its C source file and ends in a
    # newline, and it once went into the fallback and the run manifest
    import scipy.sparse.linalg as spla

    def splu(*args, **kwargs):
        raise RuntimeError("failed to factorize matrix at line 406 in file "
                           "../scipy/sparse/linalg/_dsolve/SuperLU/SRC/dpanel_bmod.c\n")

    monkeypatch.setattr(spla, "splu", splu)
    d = gen_ladder(6, 1.0) if spec == "ladder" else gen_pascal(4, 1.0)
    _, rep = solve_chain(d, seed_f1=seed)
    assert rep.diagnostics["path"] == "lsqr"
    assert rep.diagnostics["fallback"] == f"{path} factorization failed"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extension_uses_the_whole_prefix(n):
    # the prefix h_0..h_n fixed by the seed and the pins, with the leftmost
    # coordinate of level n + 1 pinned, extends to h_{n+1}
    d = gen_pascal(6, 1.0)
    h = pascal_harmonic(6)
    pins = {**_prefix_pins(h, n), n + 1: {0: pascal_value(n + 1, 0)}}
    f, rep = solve_chain(d, depth=n + 1, seed_f1=h.values[1], pins=pins)
    assert rep.consistent
    assert np.allclose(f.values[n + 1], h.values[n + 1], atol=1e-12)


@pytest.mark.parametrize("n", [20, 199])
@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_a_fixed_prefix_is_extended_by_its_last_levels_equations(n, pinned):
    # with f_0..f_n fixed only level n's equations keep an unknown, f_{n+1}:
    # one free parameter on Pascal, so the minimum-norm solution is h_{n+1}
    # less its part along the kernel of C_n, and pinning the leftmost
    # coordinate leaves h_{n+1} alone
    d = gen_pascal(200, 1.0)
    h = pascal_harmonic(200)
    pins = _prefix_pins(h, n)
    if pinned:
        pins[n + 1] = {0: pascal_value(n + 1, 0)}
    f, rep = solve_chain(d, depth=n + 1, seed_f1=h.values[1], pins=pins)
    assert rep.diagnostics["path"] == ("lu" if pinned else "augmented-lu")
    assert rep.consistent
    assert all(np.array_equal(a, b) for a, b in zip(f.values[: n + 1], h.values[: n + 1]))
    want = h.values[n + 1]
    if not pinned:
        kernel = scipy.linalg.null_space(d.table.level(n).toarray())
        assert kernel.shape[1] == 1
        want = want - kernel[:, 0] * (kernel[:, 0] @ want)
    assert np.allclose(f.values[n + 1], want, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("case", ["pascal3-all-of-level-3-pinned", "bottleneck-seeded"])
def test_lsqr_path_is_the_minimum_norm_least_squares_solution(case):
    # oracle: dense lstsq of the stacked system with the seed and the pins
    # eliminated
    if case == "pascal3-all-of-level-3-pinned":
        d = gen_pascal(3, 1.0)
        seed = np.array([1.0, -1.0])
        pins = {3: dict(enumerate(pascal_harmonic(3).values[3]))}
        fallback = "overdetermined"
    else:
        d = gen_bottleneck([1, 3, 1, 3], 2)
        seed = _bottleneck_seed(d)
        pins = {}
        fallback = "structurally rank deficient"
    f, rep = solve_chain(d, seed_f1=seed, pins=pins)
    assert rep.diagnostics["path"] == "lsqr"
    assert rep.diagnostics["fallback"].startswith(fallback)
    m = stacked_constraint_matrix(d, d.num_levels)
    x_fixed = np.zeros(m.shape[1])
    fixed = np.zeros(m.shape[1], dtype=bool)
    fixed[: seed.size], x_fixed[: seed.size] = True, seed
    for lvl, coords in pins.items():
        base = sum(d.level_sizes[1: lvl])
        for i, v in coords.items():
            fixed[base + i], x_fixed[base + i] = True, v
    want = np.linalg.lstsq(m[:, ~fixed], -m[:, fixed] @ x_fixed[fixed], rcond=None)[0]
    got = np.concatenate(f.values[1:])[~fixed]
    assert np.abs(got - want).max() < 1e-12


def _random_weights(d, seed):
    rng = np.random.default_rng(seed)
    return make_diagram(d.level_sizes, [m.toarray() * rng.uniform(0.2, 5.0, m.shape)
                                        for m in level_matrices(d)])


@pytest.mark.parametrize("d", [_random_weights(gen_pascal(8, 1.0), 1),
                               _random_weights(gen_bottleneck([1, 3, 6, 6, 2, 5, 7], 4), 2),
                               parse_genspec("ladder:20:1.5"),
                               gen_stationary([[1, 1], [1, 0]], 10, 2.0)],
                         ids=["pascal", "bottleneck", "ladder", "stationary"])
def test_reported_residuals_are_the_returned_solutions_bit_for_bit(d):
    # the residuals a solve reads off its own stacked rows are those of the
    # level-by-level reference on the solution it returns
    rng = np.random.default_rng(d.total_vertices)
    sizes, depth = d.level_sizes, d.num_levels
    x, o = VertexId(2, sizes[2] - 1), VertexId(0, 0)
    seed = rng.standard_normal(sizes[1])
    pins = {2: {0: 0.5}, depth: {sizes[depth] - 1: -1.5}}
    cases = [({}, {}), ({"seed_f1": seed}, {}), ({"pins": pins}, {}),
             ({"seed_f1": seed, "pins": pins}, {}), ({}, {x: 1.0}), ({}, {x: 1.0, o: -1.0})]
    for kwargs, source in cases:
        rhs = [np.zeros(s) for s in sizes]
        for v, val in source.items():
            rhs[v.level][v.index] += val
        f, rep = solve_chain(d, source=source, **kwargs)
        assert rep.residuals == ref_chain_residuals(d, depth, rhs, f.values)
        assert rep.diagnostics["max_residual"] == max(rep.residuals)


@pytest.mark.parametrize("level, seed", [(0, None), (5, None), (7, None), (1, [1.0, -1.0])],
                         ids=["root", "past-depth", "past-diagram", "seeded-level"])
def test_pins_off_the_free_levels_are_rejected(level, seed):
    # levels 1..depth are free, less those the seed fixes
    with pytest.raises(ValueError, match=f"pin on level {level}"):
        solve_chain(gen_pascal(6, 1.0), depth=4, seed_f1=seed, pins={level: {0: 1.0}})


@pytest.mark.parametrize("index", [0.5, 3, -1])
def test_a_pinned_index_off_its_level_is_refused(index):
    # level 2 of pascal:6 has 3 vertices; a non-integer index is refused as
    # one off the level, before it indexes anything
    with pytest.raises(ValueError, match=f"pinned index {index} outside level of size 3"):
        solve_chain(gen_pascal(6, 1.0), pins={2: {index: 1.0}})


def test_seed_vector_violating_root_equation_is_reported():
    d = gen_pascal(6, 1.0)
    _, rep = solve_chain(d, seed_f1=[1.0, 1.0])  # sum must vanish
    assert rep.residuals[0] > 0.5


@pytest.mark.parametrize("seed, named", [([1.0, 1e308], "(1,1)"), ([1e308, 1.0], "(1,0)")])
def test_a_fixed_value_whose_terms_overflow_is_named(seed, named):
    # c(x) f(x) = 5e308 takes the equation of (1,1) or (1,0), the first with
    # an unknown to leave the doubles; its largest term is named, not f_0's,
    # which comes first in the row
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")
        solve_chain(gen_pascal(4, 2.0), seed_f1=seed)
    assert str(err.value) == f"value 1e+308 at {named} times the conductances leaves the doubles"


def test_an_overflow_only_in_the_root_equation_is_reported():
    # the root row has no unknown, so its sum 2e308 is no error: its residual
    # is reported, as for any seed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = solve_chain(gen_pascal(4, 2.0), depth=1, seed_f1=[1e308, 1e308])
    assert rep.residuals == [1e308] and not rep.consistent


def test_seed_off_the_root_equation_keeps_the_global_solve():
    # the seed fixes the root residual (0.05); no solve can change it, so it
    # must not send the chain to the forward pass, which drifts to 1e70 here
    f, rep = solve_chain(gen_pascal(60, 1.0), seed_f1=[1.0, -0.9])
    assert rep.diagnostics["path"] == "augmented-lu"
    assert rep.diagnostics["fallback"] is None
    assert rep.residuals[0] == pytest.approx(0.05)
    assert max(rep.residuals[1:]) <= 1e-9
    assert not rep.consistent
    assert max(float(np.abs(v).max()) for v in f.values) < 1e4


def test_scaling_leaves_solution_sets_invariant():
    d = gen_pascal(7, 1.0)
    scaled = make_diagram(d.level_sizes, [5.0 * c.toarray() for c in level_matrices(d)])
    f1, _ = solve_chain(d, seed_f1=[2.0, -2.0])
    f2, _ = solve_chain(scaled, seed_f1=[2.0, -2.0])
    for a, b in zip(f1.values, f2.values):
        assert np.allclose(a, b, atol=1e-10)


# --- stationary: recursion vs formula family -------------------------------------

def test_stationary_recursion_is_harmonic_and_differs_from_formula():
    d = gen_stationary([[1, 1], [1, 0]], 8, 2.0)
    f1 = np.array([1.0, -1.0])
    f, rep = solve_chain(d, seed_f1=f1)
    assert rep.consistent
    assert harmonicity_check(d, f).consistent
    formula = stationary_formula(d, f1)
    # the formula family is not harmonic here; the recursion (unique, since
    # the level matrices are invertible) cannot reproduce it
    assert not harmonicity_check(d, formula).consistent
    assert abs(f.values[2][0] - formula.values[2][0]) > 1.0


def test_stationary_constant_seed_formula_harmonic_past_level_one():
    # with constant f_1 the formula is harmonic at the repeating levels, and
    # only the root-coupled level-1 equation fails (level-0 convention)
    d = gen_stationary([[1, 1], [1, 0]], 8, 2.0)
    formula = stationary_formula(d, np.array([1.0, 1.0]))
    rep = harmonicity_check(d, formula)
    assert max(rep.residuals[2:]) < 1e-12
    assert rep.residuals[1] > 0.1


# --- dimension --------------------------------------------------------------------

@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_tree_dimension_formula_and_oracle(depth):
    d = gen_binary_tree(depth, 2.0)
    res = harm_dimension(d)
    assert res.dimension == 2 ** depth - 1
    assert res.dimension == stacked_nullity(d, depth)


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_pascal_dimension_formula_and_oracle(depth):
    d = gen_pascal(depth, 1.0)
    res = harm_dimension(d)
    assert res.dimension == depth
    assert res.dimension == stacked_nullity(d, depth)


def test_ladder_dimension_is_one():
    d = gen_ladder(8)
    res = harm_dimension(d)
    assert res.dimension == 1 == stacked_nullity(d, 8)
    assert res.unique_extension


def test_bottleneck_dimension_zero_past_first_inconsistent_level():
    d = gen_bottleneck([1, 3, 3, 1, 3, 3], 11)
    res = harm_dimension(d)
    assert res.per_level[3] == 0
    for k, dim in res.per_level.items():
        assert dim == stacked_nullity(d, k), f"level {k}"


# conductances from 1e-6 to 5.6e5; the exact nullity of the stacked system
# at depth 5 is 0, and its smallest singular value ratio is 9.9e-12
_WIDE_SPREAD_FILE = """bratteli v1
levels 6 : 1 1 1 5 5 1
e 0 0 0 4.6e-05
e 1 0 0 6.682143
e 2 0 0 563858.200261
e 2 0 1 3842.842539
e 2 0 2 227041.321332
e 2 0 3 0.534034
e 2 0 4 4.2e-05
e 3 0 0 0.670349
e 3 0 2 0.280362
e 3 1 2 111585.465658
e 3 1 4 0.188045
e 3 2 0 9079.617683
e 3 2 1 21.467952
e 3 3 0 0.071073
e 3 3 1 0.086002
e 3 3 2 8033.084717
e 3 3 3 0.0001
e 3 3 4 0.005158
e 3 4 0 933.801438
e 3 4 1 228.069287
e 3 4 3 0.021777
e 4 0 0 2266.722171
e 4 1 0 0.180311
e 4 2 0 0.018558
e 4 3 0 1e-06
e 4 4 0 0.002889
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: _propagate decides the rank drop "
                   "at level 4 per level and counts 1 free parameter at depth 5, where the "
                   "stacked system has none")
def test_propagation_counts_the_stacked_nullity_at_a_wide_conductance_spread():
    d = parse_diagram(_WIDE_SPREAD_FILE)
    assert [stacked_nullity(d, k) for k in range(1, 6)] == [0, 0, 4, 4, 0]
    assert harm_dimension(d).per_level == {1: 0, 2: 0, 3: 4, 4: 4, 5: 0}


def test_dimension_monotonicity_bookkeeping():
    d = gen_pascal(6, 1.0)
    res = harm_dimension(d)
    for k in range(2, 7):
        assert res.per_level[k] <= res.per_level[k - 1] + d.level_sizes[k]


def test_stationary_dimension_unique_extension():
    d = gen_stationary([[1, 1], [1, 0]], 6, 2.0)
    res = harm_dimension(d)
    assert res.dimension == 1 == stacked_nullity(d, 6)
    assert res.unique_extension


def _random_conductances(d, seed):
    """Same edges as d, conductances drawn uniformly from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    mats = [c.toarray() * rng.uniform(0.5, 2.0, c.shape) for c in level_matrices(d)]
    return make_diagram(d.level_sizes, mats)


def _mixed_components():
    """C_1 has components of shapes 1x2, 1x3 and 1x2, C_2 of shapes 2x1,
    2x2 (of rank 1) and 3x2."""
    rng = np.random.default_rng(8)
    c1 = np.zeros((3, 7))
    c1[0, :2], c1[1, 2:5], c1[2, 5:] = rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 3), 1.0
    c2 = np.zeros((7, 5))
    c2[:2, 0] = rng.uniform(0.5, 2.0, 2)
    c2[2:4, 1:3] = [[1.0, 2.0], [2.0, 4.0]]
    c2[4:, 3:] = rng.uniform(0.5, 2.0, (3, 2))
    return make_diagram([1, 3, 7, 5], [np.ones((1, 3)), c1, c2])


@pytest.mark.parametrize("d", [
    _random_conductances(gen_binary_tree(6, 2.0), 5),
    _random_conductances(gen_pascal(8, 1.0), 6),
    # C_1 is 4x4 of rank 3 for any weights on its edges
    _random_conductances(gen_bottleneck([1, 4, 4, 1, 4, 4], 29), 7),
    gen_stationary([[1, 1], [1, 0]], 6, 2.0),
    parse_diagram(json.loads(
        (pathlib.Path(__file__).parent / "walk_goldens.json").read_text())["diagram"]),
    _mixed_components(),
], ids=["tree6-random", "pascal8-random", "bottleneck-b-random", "stationary",
        "irregular-file", "mixed-components"])
def test_dimension_matches_oracle(d):
    for n, c in enumerate(level_matrices(d)):
        s = np.linalg.svd(c.toarray(), compute_uv=False)
        assert _level_rank(c) == (s > RANK_RCOND * s[0]).sum(), f"C_{n}"
    res = harm_dimension(d)
    assert sorted(res.per_level) == list(range(1, d.num_levels + 1))
    for k, dim in res.per_level.items():
        assert dim == stacked_nullity(d, k), f"level {k}"


def test_level_rank_threshold_is_relative_to_the_whole_level():
    # the 1x1 component lies below RANK_RCOND times the level's largest
    # singular value, though not below its own
    level = stacked_table((2, 3), [np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1e-14]])]).level(0)
    assert _level_rank(level) == 1


@pytest.mark.parametrize("spec, path, deficient", [
    ("tree:10:2", "ranks", None),
    ("tree:11:2", "ranks", None),
    ("pascal:130:1", "ranks", None),
    # C_3 is 200 x 30
    ("bottleneck:1-30-200-200-30-200-200:7", "propagation", 3),
])
def test_dimension_route(spec, path, deficient):
    res = harm_dimension(parse_genspec(spec))
    assert (res.path, res.first_rank_deficient_level) == (path, deficient)


def _with_second_level(c1):
    """A root joined to both vertices of level 1, then C_1 = c1."""
    c1 = np.asarray(c1, dtype=float)
    return make_diagram([1, *c1.shape], [np.ones((1, c1.shape[0])), c1])


def _singular_value_ratio(c) -> float:
    s = np.linalg.svd(c.toarray(), compute_uv=False)
    return s[-1] / s[0]


def test_level_below_the_certificate_margin_takes_the_svd():
    # sigma_min / sigma_max about 4e-10: above RANK_RCOND, so of full rank,
    # but too close to singular for C C^T - s I to stay positive definite
    d = _with_second_level([[1.0, 1.0, 1.0], [1.0, 1.0 + 1e-9, 1.0]])
    assert 1e-10 < _singular_value_ratio(d.table.level(1)) < 1e-8
    assert list(harmonic._certified_full_row_rank(d, 2)) == [True, False]
    res = harm_dimension(d)
    assert (res.path, res.first_rank_deficient_level, res.svd_levels) == ("ranks", None, 1)
    assert res.dimension == stacked_nullity(d, 2) == 2


def test_level_just_below_the_rank_cutoff_stays_deficient():
    d = _with_second_level([[1.0, 1.0], [1.0, 1.0 + 2e-12]])
    assert 1e-13 < _singular_value_ratio(d.table.level(1)) < RANK_RCOND
    res = harm_dimension(d)
    assert (res.path, res.first_rank_deficient_level, res.svd_levels) == ("propagation", 1, 1)


def _near_deficient(seed):
    """Random levels with |V_n| <= |V_{n+1}|; in most, one row is a multiple
    of another plus a perturbation of relative size 1e-17 to 1e-1, so the
    ratio sigma_min / sigma_max spans RANK_RCOND and the certificate's
    margin.  Each level is scaled by a random power of ten up to 1e+-100."""
    rng = np.random.default_rng(seed)
    sizes = [1]
    for _ in range(rng.integers(1, 5)):
        sizes.append(int(sizes[-1] + rng.integers(0, 5)))
    mats = []
    for m, k in zip(sizes, sizes[1:]):
        c = rng.uniform(0.5, 2.0, (m, k)) * (rng.random((m, k)) < rng.uniform(0.3, 1.0))
        c[np.arange(m), rng.integers(0, k, m)] = 1.0
        if m >= 2 and rng.random() < 0.7:
            i, j = rng.choice(m, 2, replace=False)
            c[j] = c[i] * rng.uniform(0.5, 2.0) + 10.0 ** rng.uniform(-17, -1) * (
                c[i] > 0) * rng.random(k)
        mats.append(c * 10.0 ** rng.uniform(-100, 100))
    return make_diagram(sizes, mats)


def test_certificate_never_certifies_a_level_the_svd_calls_deficient():
    diagrams = [gen_bottleneck(profile, seed)
                for profile in ([1, 3, 3, 1, 3, 3], [1, 4, 4, 1, 4, 4], [1, 2, 4, 8, 8, 16],
                                [1, 5, 9, 12, 12, 20])
                for seed in range(6)]
    diagrams += [gen_stationary(a, 6, lam) for lam in (0.5, 2.0)
                 for a in ([[1, 1], [1, 1]], [[1, 1], [1, 0]], [[0, 1], [1, 1]],
                           [[1, 1, 1], [1, 0, 1], [1, 1, 0]], [[1, 1, 0], [1, 1, 0], [0, 1, 1]],
                           [[1, 1, 0], [0, 1, 1], [1, 0, 1]])]
    diagrams += [gen_binary_tree_radial(depth, lam, split)
                 for depth, lam, split in ((10, 2.0, 3), (45, 0.5, 2), (300, 3.0, 2))]
    diagrams += [_near_deficient(seed) for seed in range(60)]
    decided = {True: 0, False: 0}
    for d in diagrams:
        sizes = d.level_sizes
        stop = next((n for n in range(d.num_levels) if sizes[n] > sizes[n + 1]), d.num_levels)
        certified = harmonic._certified_full_row_rank(d, stop) if stop else []
        for n, ok in enumerate(certified):
            full = _level_rank(d.table.level(n)) == sizes[n]
            assert full or not ok, f"{sizes}, level {n}"
            decided[ok] += full
    # both outcomes occur on levels of full rank
    assert decided[True] > 500 and decided[False] > 10


@pytest.mark.parametrize("spec", ["tree:10:2", "tree:16:2", "pascal:130:1", "pascal:300:1.5",
                                  "pascal:400:5", "ladder:60:0.3"])
def test_certificate_decides_every_level_of_the_generated_families(spec):
    # the well-conditioned levels take no SVD, at any scale of conductance
    res = harm_dimension(parse_genspec(spec))
    assert (res.path, res.svd_levels) == ("ranks", 0)


def test_a_factorization_residual_above_the_shift_leaves_the_level_to_the_svd(monkeypatch):
    # U's off-diagonal entries scaled by 1 + 1e-12 keep every pivot, so only
    # the residual bound eta can refuse a level; the root's 1 x 1 block has
    # no off-diagonal entry
    import types

    import scipy.sparse.linalg as spla
    splu = spla.splu

    def perturbed(*args, **kwargs):
        lu = splu(*args, **kwargs)
        upper = lu.U
        off = upper.indices != np.repeat(np.arange(upper.shape[1]), np.diff(upper.indptr))
        upper.data[off] *= 1 + 1e-12
        return types.SimpleNamespace(L=lu.L, U=upper, perm_c=lu.perm_c, perm_r=lu.perm_r)

    d = gen_pascal(20, 1.0)
    assert harm_dimension(d).svd_levels == 0
    monkeypatch.setattr(spla, "splu", perturbed)
    res = harm_dimension(d)
    assert (res.path, res.svd_levels, res.dimension) == ("ranks", 19, 20)


def test_certified_levels_make_no_level_views():
    # the rank route reads each level's edge count from the edge table and
    # makes a level matrix only for a level that takes the SVD
    d = gen_pascal(130, 1.0)
    assert harm_dimension(d).path == "ranks"
    assert "conductance" not in d.__dict__


def test_dimension_of_an_isolated_vertex_names_it():
    d = parse_diagram("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 1\n"
                      "e 1 0 0 1\ne 1 1 0 1\n")  # (2,1) has no edges
    for depth in (None, 1):  # every stored level is checked, whatever the depth
        with pytest.raises(ValueError,
                           match=r"^isolated vertex at level 2, index 1 \(c\(x\) = 0\)$"):
            harm_dimension(d, up_to_level=depth)


# --- monopoles and dipoles ---------------------------------------------------------

def test_root_monopole_satisfies_source_equation():
    lam = 2.0
    d = gen_binary_tree(8, lam)
    w, rep = solve_monopole(d, VertexId(0, 0))
    assert rep.consistent
    c0 = d.table.level(0).toarray()[0]
    # Delta w(o) = 1 with w(o) = 0: sum c_oy (w(o) - w(y)) = 1
    assert np.isclose(-float(c0 @ w.values[1]), 1.0)
    chk = harmonicity_check(d, w, source={VertexId(0, 0): 1.0})
    assert chk.consistent


def test_interior_monopole_unit_source():
    d = gen_binary_tree(8, 2.0)
    x = VertexId(2, 1)
    w, rep = solve_monopole(d, x)
    chk = harmonicity_check(d, w, source={x: 1.0})
    assert chk.consistent and rep.consistent
    assert abs(w.values[0][0]) < 1e-15


def test_dipole_source_pattern():
    d = gen_binary_tree(8, 2.0)
    x = VertexId(2, 3)
    v, rep = solve_dipole(d, x)
    chk = harmonicity_check(d, v, source={x: 1.0, VertexId(0, 0): -1.0})
    assert chk.consistent and rep.consistent


def test_dipole_equals_monopole_difference_in_the_source_sense():
    d = gen_binary_tree(7, 2.0)
    x = VertexId(1, 0)
    wx, _ = solve_monopole(d, x)
    wo, _ = solve_monopole(d, VertexId(0, 0))
    diff = wx - wo
    chk = harmonicity_check(d, diff, source={x: 1.0, VertexId(0, 0): -1.0})
    assert chk.consistent


@pytest.mark.parametrize("solve", [solve_monopole, solve_dipole])
def test_poles_are_checked_in_one_place_with_the_same_messages(solve):
    d = gen_binary_tree(4, 2.0)
    for x, depth in ((VertexId(2, 0), 2), (VertexId(4, 0), None), (VertexId(3, 1), 1)):
        with pytest.raises(ValueError, match="^pole must lie strictly above the solve depth$"):
            solve(d, x, up_to_level=depth)
    with pytest.raises(ValueError, match=r"^vertex index 4 outside \[0, 4\)$"):
        solve(d, VertexId(2, 4))
    with pytest.raises(ValueError, match=r"^vertex level 5 outside stored levels 0\.\.4$"):
        solve(d, VertexId(5, 0))
    if solve is solve_dipole:
        for depth in (None, 0):
            with pytest.raises(ValueError, match="^dipole pole must differ from the root$"):
                solve(d, VertexId(0, 0), up_to_level=depth)


def test_source_sums_over_interior():
    d = gen_binary_tree(8, 2.0)
    x = VertexId(3, 2)
    w, _ = solve_monopole(d, x)
    from bharm.operators import laplacian_apply
    lap = laplacian_apply(d, w)
    total = sum(float(lap.values[n].sum()) for n in range(1, d.num_levels))
    assert np.isclose(total, 1.0, atol=8 * 1e-9)
    v, _ = solve_dipole(d, x)
    lap = laplacian_apply(d, v)
    total = sum(float(lap.values[n].sum()) for n in range(1, d.num_levels))
    # both poles interior to levels 1..N-1 requires a pole off the root;
    # here the negative pole is the root, so the interior sum is +1
    assert np.isclose(total, 1.0, atol=8 * 1e-9)


def test_interior_pole_pair_dipole_sums_to_zero():
    d = gen_binary_tree(8, 2.0)
    x1, x2 = VertexId(2, 0), VertexId(3, 5)
    f, rep = solve_chain(d, source={x1: 1.0, x2: -1.0})
    assert rep.consistent
    from bharm.operators import laplacian_apply
    lap = laplacian_apply(d, f)
    total = sum(float(lap.values[n].sum()) for n in range(1, d.num_levels))
    assert np.isclose(total, 0.0, atol=8 * 1e-9)


def test_pole_level_bounds_checked():
    d = gen_binary_tree(4, 2.0)
    with pytest.raises(ValueError):
        solve_monopole(d, VertexId(4, 0))
    with pytest.raises(ValueError):
        solve_dipole(d, VertexId(0, 0))


# --- maximum principle --------------------------------------------------------------

@pytest.mark.parametrize("f,d", [
    (tree_symmetric_harmonic(8, 2.0), gen_binary_tree(8, 2.0)),
    (pascal_harmonic(9), gen_pascal(9, 1.0)),
])
def test_max_min_principle_monotone_sequences(f, d):
    assert harmonicity_check(d, f).consistent
    maxima, minima = f.level_extrema()
    for a, b in zip(maxima, maxima[1:]):
        assert b > a
    for a, b in zip(minima, minima[1:]):
        assert b < a


def _replay_diagrams():
    golden = json.loads((pathlib.Path(__file__).parent / "walk_goldens.json").read_text())
    return [gen_binary_tree(5, 2.0), gen_pascal(6, 1.5), parse_diagram(golden["diagram"])]


@pytest.mark.parametrize("d", _replay_diagrams(), ids=["tree", "pascal", "irregular"])
@pytest.mark.parametrize("path", ["lu", "augmented-lu", "lsqr"])
def test_the_recursion_replays_its_arithmetic(d, path):
    # a seed, a source, a pin on level 3 and pins on the last level, all of
    # many scales, so that level 2's equations take fixed terms of parents
    # and of children; all of the last level but |V_1| + 1 vertices, spread
    # so that each level-1 vertex keeps one below it, leaves the stacked
    # system square, one pin underdetermined, all of it overdetermined
    depth, off, sizes = d.num_levels, d.table.offsets, d.level_sizes
    seed = np.cos(np.arange(sizes[1])) * 10.0 ** np.arange(sizes[1])
    free = range(0, sizes[depth], sizes[depth] // (sizes[1] + 1))[:sizes[1] + 1]
    last = {"lu": [i for i in range(sizes[depth]) if i not in free], "augmented-lu": [1],
            "lsqr": range(sizes[depth])}[path]
    pins = {3: {0: 1e6 / 7}, depth: {i: np.sin(1.0 + i) * 10.0 ** (i % 5 - 2) for i in last}}
    f, rep = solve_chain(d, source={VertexId(2, 1): 1.0}, seed_f1=seed, pins=pins)
    fixed, values = np.arange(off[depth + 1]) < off[2], np.zeros(off[depth + 1])
    values[off[1]:off[2]] = seed
    for n, at in pins.items():
        cols = off[n] + np.array(list(at))
        fixed[cols], values[cols] = True, list(at.values())
    rhs = np.zeros(off[depth])
    rhs[off[2] + 1] = 1.0
    a, b = bruteforce.ref_fixed_system(bruteforce.ref_delta_rows(d, depth), fixed, values, rhs)
    values[~fixed], want_path, steps = bruteforce.replay_recursion(a, b)
    assert (rep.diagnostics["path"], want_path) == (path, path)
    assert rep.diagnostics["refine_steps"] == steps
    assert np.array_equal(f.flat()[:values.size], values)
