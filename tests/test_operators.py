import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from bharm import (
    GeneralGraph,
    LevelFunction,
    VertexId,
    build_level_operators,
    diagram_from_graph,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    laplacian_apply,
    make_diagram,
    markov_apply,
    spectral_bound_check,
)
from bharm import harmonic, operators, pathspace
from bharm.closedforms import pascal_harmonic
from bharm.fileio import parse_diagram
from bharm.operators import weighted_inner
import bruteforce


def rand_fn(d, seed):
    rng = np.random.default_rng(seed)
    return LevelFunction([rng.standard_normal(s) for s in d.level_sizes])


def on_level(d, n, g):
    """The function that is g on level n and 0 elsewhere."""
    f = LevelFunction.zeros(d)
    f.values[n][:] = g
    return f


def p_back(d, n, g):
    """P<-_n g: level n of P applied to g on level n+1."""
    return markov_apply(d, on_level(d, n + 1, g)).values[n]


def p_fwd(d, n, g):
    """P->_{n-1} g: level n of P applied to g on level n-1."""
    return markov_apply(d, on_level(d, n - 1, g)).values[n]


def back_block(d, n):
    """P<-_n as a dense |V_n| x |V_{n+1}| matrix, applied to indicator functions."""
    return np.column_stack([p_back(d, n, e) for e in np.eye(d.level_sizes[n + 1])])


def fwd_block(d, n):
    """P->_{n-1} as a dense |V_n| x |V_{n-1}| matrix, applied to indicator functions."""
    return np.column_stack([p_fwd(d, n, e) for e in np.eye(d.level_sizes[n - 1])])


@pytest.mark.parametrize("make", [
    lambda d: LevelFunction([np.arange(s, dtype=float) for s in d.level_sizes]),
    lambda d: LevelFunction.from_flat(d, np.arange(d.total_vertices, dtype=float)),
    LevelFunction.zeros,
], ids=["levels", "from_flat", "zeros"])
def test_levels_are_views_of_the_one_vector(make):
    d = gen_pascal(4, 1.0)
    f = make(d)
    flat = f.flat()
    assert flat.size == d.total_vertices
    for n, v in enumerate(f.values):
        assert np.shares_memory(v, flat)
        v[:] = n + 0.5
    assert np.array_equal(flat, np.repeat(np.arange(5) + 0.5, d.level_sizes))
    with pytest.raises(TypeError):
        f.values[1] = np.zeros(2)


def test_from_flat_is_a_view_when_the_vector_covers_the_levels():
    d = gen_pascal(4, 1.0)
    x = np.arange(d.total_vertices + 3, dtype=float)
    assert np.shares_memory(LevelFunction.from_flat(d, x).flat(), x)
    # levels 0..2 of a vector that stops inside level 1, padded with zeros
    short = LevelFunction.from_flat(d, x[:2], 3)
    assert [v.tolist() for v in short.values] == [[0.0], [1.0, 0.0], [0.0, 0.0, 0.0]]
    assert not np.shares_memory(short.flat(), x)


def test_pascal_back_blocks_bidiagonal_form():
    # bidiagonal with equal pairs per row; the row values are forced by
    # p = c_xy / c(x) (the printed lam/(1+lam), lam/(2+lam) variants would
    # break row stochasticity): lam/(1+2lam) on edge rows, lam/(2+2lam)
    # inside
    lam = 2.0
    d = gen_pascal(4, lam)
    pb = back_block(d, 2)
    edge = lam / (1 + 2 * lam)
    mid = lam / (2 + 2 * lam)
    expect = np.array([[edge, edge, 0, 0],
                       [0, mid, mid, 0],
                       [0, 0, edge, edge]])
    assert np.allclose(pb, expect)


def test_tree_back_rows_two_equal_entries():
    lam = 2.0
    d = gen_binary_tree(3, lam)
    pb = back_block(d, 1)
    degs = bruteforce.ref_degrees(d, 1)
    for i in range(2):
        row = pb[i]
        nz = row[row > 0]
        assert len(nz) == 2
        assert np.allclose(nz, lam / degs[i])
        assert np.isclose(nz.sum(), 2 * lam / degs[i])


def test_stationary_all_ones_quarter_entries():
    d = gen_stationary([[1, 1], [1, 1]], 4, 1.0)
    # interior vertices have c(x) = 4 and all transition entries 1/4
    assert np.allclose(d.degrees[d.table.offsets[2]:d.table.offsets[3]], 4.0)
    assert np.allclose(back_block(d, 2), 0.25)
    assert np.allclose(fwd_block(d, 2), 0.25)


def test_isolated_vertex_rejected():
    d = make_diagram([1, 2, 1], [np.array([[1.0, 1.0]]),
                                 np.array([[1.0], [0.0]])])
    # vertex (1,1) has an incoming edge but the level-2 coupling misses it;
    # still fine: c>0. Build a genuinely isolated one instead.
    degrees = build_level_operators(d)
    assert degrees[d.table.offsets[1] + 1] == 1.0
    bad = make_diagram([1, 1], [np.array([[0.0]])])
    with pytest.raises(ValueError, match="isolated"):
        build_level_operators(bad)


@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_conductance_outside_the_positive_reals_is_rejected(value):
    d = parse_diagram("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 " + value
                      + "\ne 1 0 0 1\ne 1 1 1 1\n")
    with pytest.raises(ValueError, match=rf"^level 0, edge \(0,1\): conductance {value} "
                                         "is not positive and finite$"):
        build_level_operators(d)


def test_transition_blocks_match_the_scaled_csr_products_bit_for_bit():
    # reference: P<-_n and P->_{n-1} stored as scaled CSR copies of the level
    # matrices, as the operators once were; P applied to a function that is
    # nonzero on one level forms the same products and sums them in the same
    # order
    rng = np.random.default_rng(5)
    shape = gen_bottleneck([1, 3, 20, 30, 7, 12], 5)
    d = make_diagram(shape.level_sizes, [m.toarray() * rng.uniform(0.5, 2.0, m.shape)
                                         for m in bruteforce.level_matrices(shape)])
    for n in range(d.num_levels):
        m = d.table.level(n)
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        back = sp.csr_matrix((m.data * (1.0 / bruteforce.ref_degrees(d, n))[rows], m.indices,
                              m.indptr), shape=m.shape)
        fwd = sp.csr_matrix((m.data * (1.0 / bruteforce.ref_degrees(d, n + 1))[m.indices],
                             (m.indices, rows)), shape=m.shape[::-1])
        g = rng.standard_normal(d.level_sizes[n + 1])
        assert np.array_equal(p_back(d, n, g), back @ g)
        g = rng.standard_normal(d.level_sizes[n])
        assert np.array_equal(p_fwd(d, n + 1, g), fwd @ g)


def test_row_stochasticity_interior():
    d = gen_pascal(6, 2.0)
    for n in range(1, d.num_levels):
        total = fwd_block(d, n).sum(axis=1) + back_block(d, n).sum(axis=1)
        assert np.allclose(total, 1.0)
    assert np.allclose(back_block(d, 0).sum(axis=1), 1.0)


def test_laplacian_kills_constants_on_interior():
    d = gen_binary_tree(5, 2.0)
    out = laplacian_apply(d, LevelFunction.constant(d, 3.25))
    for n in range(d.num_levels):
        assert np.allclose(out.values[n], 0.0, atol=1e-12)


def test_laplacian_annihilates_pascal_closed_form():
    d = gen_pascal(6, 1.0)
    out = laplacian_apply(d, pascal_harmonic(6))
    for n in range(d.num_levels):
        assert np.abs(out.values[n]).max() < 1e-12


def test_laplacian_of_root_delta_on_unit_tree():
    d = gen_binary_tree(3, 1.0)
    out = laplacian_apply(d, LevelFunction.delta(d, VertexId(0, 0)))
    assert np.isclose(out.values[0][0], 2.0)
    assert np.allclose(out.values[1], -1.0)


def test_markov_fixes_ones_and_harmonics():
    d = gen_pascal(6, 1.0)
    ones = markov_apply(d, LevelFunction.constant(d, 1.0))
    for n in range(d.num_levels):
        assert np.allclose(ones.values[n], 1.0)
    h = pascal_harmonic(6)
    ph = markov_apply(d, h)
    for n in range(d.num_levels):
        assert np.allclose(ph.values[n], h.values[n], atol=1e-12)


def test_markov_jensen_inequality():
    d = gen_binary_tree(5, 0.7)
    f = rand_fn(d, 11)
    pf = markov_apply(d, f)
    pf2 = markov_apply(d, LevelFunction([v ** 2 for v in f.values]))
    for n in range(d.num_levels):
        assert np.all(pf2.values[n] >= pf.values[n] ** 2 - 1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_laplacian_markov_identity(seed):
    d = gen_pascal(7, 1.5)
    f = rand_fn(d, seed)
    lf = laplacian_apply(d, f)
    pf = markov_apply(d, f)
    for n in range(d.num_levels):
        lhs = lf.values[n]
        rhs = bruteforce.ref_degrees(d, n) * (f.values[n] - pf.values[n])
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_conductance_row_vector_is_left_fixed():
    # c* P = c* on rows whose full neighborhood is stored
    d = gen_binary_tree(5, 2.0)
    c = LevelFunction.from_flat(d, d.degrees.copy())
    # <c, P f> = <c, f> for f supported on interior levels
    f = LevelFunction.zeros(d)
    f.values[2][1] = 1.0
    pf = markov_apply(d, f)
    lhs = sum(float(np.dot(c.values[n], pf.values[n])) for n in range(d.num_levels + 1))
    rhs = sum(float(np.dot(c.values[n], f.values[n])) for n in range(d.num_levels + 1))
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_spectral_bounds_on_pascal():
    d = gen_pascal(8, 1.0)
    rep = spectral_bound_check(d, trials=1000, seed=7)
    assert rep.max_violation <= 1e-12


@pytest.mark.parametrize("trials", [0, -1])
def test_spectral_bound_check_refuses_a_count_that_checks_nothing(trials):
    # no trial once reported a max_violation of 0.0, a pass by default
    with pytest.raises(ValueError, match=f"^trials must be >= 1, not {trials}$"):
        spectral_bound_check(gen_pascal(6, 1.0), trials, 1)


def test_delta_vertex_quadratic_form_is_zero():
    # graded structure: P has zero diagonal, so <delta_x, P delta_x> = 0
    d = gen_binary_tree(4, 2.0)
    u = LevelFunction.delta(d, VertexId(2, 1))
    pu = markov_apply(d, u)
    assert abs(weighted_inner(d, u, pu, d.num_levels - 1)) < 1e-15
    assert weighted_inner(d, u, u, d.num_levels - 1) > 0


def test_global_conductance_rescaling():
    d = gen_pascal(5, 1.0)
    t = 3.7
    scaled = make_diagram(d.level_sizes, [t * c.toarray() for c in bruteforce.level_matrices(d)])
    f = rand_fn(d, 4)
    pf = markov_apply(d, f)
    pf_s = markov_apply(scaled, f)
    lf = laplacian_apply(d, f)
    lf_s = laplacian_apply(scaled, f)
    for n in range(d.num_levels):
        assert np.allclose(pf.values[n], pf_s.values[n], rtol=1e-12)
        assert np.allclose(t * lf.values[n], lf_s.values[n], rtol=1e-12)


def _parity_diagrams():
    """Random diagrams with conductances e^-20..e^20, and every generator."""
    rng = np.random.default_rng(22)
    out = []
    for seed in range(60):
        sizes = [1] + rng.integers(1, 9, rng.integers(1, 7)).tolist()
        shape = gen_bottleneck(sizes, seed)
        out.append(make_diagram(sizes, [m.toarray() * np.exp(rng.uniform(-20, 20, m.shape))
                                        for m in bruteforce.level_matrices(shape)]))
    return out + [gen_binary_tree(6, 2.0), gen_pascal(9, 1.5),
                  gen_stationary([[1, 1], [1, 0]], 7, 2.0),
                  gen_bottleneck([1, 3, 20, 30, 7, 12], 5), gen_ladder(6, 1.5),
                  gen_binary_tree_radial(8, 2.0, 3)]


@pytest.mark.parametrize("d", _parity_diagrams())
def test_the_edge_table_route_is_the_per_level_route_bit_for_bit(d):
    # P, Delta, the degrees, the recursion residuals of every depth from
    # the edge table's sums, the one-step read of P off every interior row of
    # every Dirichlet system and the Dirichlet boundary coupling, against the
    # level-by-level reference of tests/bruteforce.py, on values from 1e-8
    # to 1e8
    rng = np.random.default_rng(d.total_vertices)
    n_levels = d.num_levels
    systems = [pathspace.DirichletSystem(d, b) for b in range(1, n_levels + 1)]
    assert np.array_equal(d.degrees, np.concatenate(
        [bruteforce.ref_degrees(d, n) for n in range(n_levels + 1)]))
    for scale in (1e-8, 1.0, 1e8, None):
        f = LevelFunction([rng.standard_normal(s) * (10.0 ** rng.integers(-8, 9, s)
                                                     if scale is None else scale)
                           for s in d.level_sizes])
        for got, want in ((laplacian_apply(d, f), bruteforce.ref_laplacian(d, f.values)),
                          (markov_apply(d, f), bruteforce.ref_markov(d, f.values))):
            assert all(np.array_equal(a, b) for a, b in zip(got.values, want))
        rhs = [rng.standard_normal(s) for s in d.level_sizes]
        for depth in range(1, n_levels + 1):
            assert harmonic._level_residuals(d, f.flat(), LevelFunction(rhs).flat(), depth) \
                == bruteforce.ref_chain_residuals(d, depth, rhs, f.values)
        for sysm in systems:
            b = sysm.boundary_level  # every caller's f is 0 from there down
            g = LevelFunction(f.values[:b] + tuple(np.zeros(s) for s in d.level_sizes[b:]))
            for v in (VertexId(n, x) for n in range(b) for x in range(d.level_sizes[n])):
                assert pathspace._p_row_apply(sysm, sysm.flat(v), g.flat()) \
                    == bruteforce.ref_p_row(d, v, g.values)
        level = rng.integers(1, n_levels + 1)
        sysm = pathspace.DirichletSystem(d, level)
        b = np.zeros(sysm.n_interior)
        b[sysm.offsets[-2]:] += bruteforce.ref_matvec(d.table.level(level - 1), f.values[level])
        u = sysm.solve(boundary_values=f.values[level])
        assert np.array_equal(np.concatenate(u.values[:level]),
                              sysm._unpinned.solve(b))


@pytest.mark.parametrize("d", _parity_diagrams())
def test_the_kept_dirichlet_system_solves_as_a_fresh_one_bit_for_bit(d):
    # two library calls per boundary level share the diagram's system
    rng = np.random.default_rng(d.total_vertices)
    for level in range(1, d.num_levels + 1):
        fresh = pathspace.DirichletSystem(d, level)
        x = VertexId(level - 1, int(rng.integers(d.level_sizes[level - 1])))
        f = rng.standard_normal(d.level_sizes[level])
        w = fresh.solve(source={x: 1.0}).flat()
        assert np.array_equal(pathspace.monopole_green(d, x, level).flat(), w)
        assert np.array_equal(pathspace.poisson_kernel(d, f, level).values.flat(),
                              fresh.solve(boundary_values=f).flat()[:d.table.offsets[level + 1]])
        kept = pathspace.DirichletSystem.of(d, level).diagnostics
        assert (kept["factorizations"], kept["solves"]) == (1, 2)


@pytest.mark.parametrize("d", _parity_diagrams())
def test_the_edge_table_keeps_each_entrys_two_vertices(d):
    # tail and head are the level views' rows and columns, numbered as the
    # table's vertices, read-only and in the table's index dtype
    t = d.table
    mats = bruteforce.level_matrices(d)
    assert np.array_equal(t.tail, np.concatenate(
        [m.rows() + t.offsets[n] for n, m in enumerate(mats)]))
    assert np.array_equal(t.head, np.concatenate(
        [m.indices + t.offsets[n + 1] for n, m in enumerate(mats)]))
    for a in (t.tail, t.head):
        assert a.dtype == t.indices.dtype and not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0


def _laplacian_diagrams():
    """The walk goldens' irregular diagram, four generators, and a graph
    whose edges are listed against the levels' order, so that its parents'
    edges are not grouped by child in table order."""
    goldens = json.loads((pathlib.Path(__file__).parent / "walk_goldens.json").read_text())
    g = GeneralGraph(8, [(7, 5, 0.25), (6, 4, 2.5), (1, 0, 1.5), (3, 1, 0.5), (2, 0, 2.0),
                         (3, 2, 1.25), (6, 5, 1.0), (5, 2, 0.75), (4, 1, 3.0), (7, 3, 4.0)])
    converted = diagram_from_graph(g, 0)
    assert np.any(np.diff(converted.table.head) < 0)
    return [parse_diagram(goldens["diagram"]), gen_pascal(12, 1.5), gen_binary_tree(6, 2.0),
            gen_ladder(8, 1.5), gen_stationary([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 6, 1.7),
            converted]


@pytest.mark.parametrize("d", _laplacian_diagrams())
def test_laplacian_rows_are_the_dense_adjacency_in_canonical_csr(d):
    # off the diagonal -A of tests/bruteforce.py, on it the degrees; each
    # row's columns increase, and every row of levels 0..last-1 is there
    adjacency, off = bruteforce.dense_adjacency(d), d.table.offsets
    for last in range(1, d.num_levels + 1):
        lap = operators.laplacian(d, last)
        assert lap.shape == (off[last], off[last + 1])
        assert lap.data.dtype == float and lap.indices.dtype == lap.indptr.dtype
        rows = lap.rows()
        assert np.array_equal(np.unique(rows), np.arange(off[last]))
        assert np.all((np.diff(lap.indices) > 0) | (np.diff(rows) > 0))
        dense = lap.toarray()
        diag = np.arange(off[last])
        assert np.array_equal(dense[diag, diag], d.degrees[diag])
        dense[diag, diag] = 0.0
        assert np.array_equal(dense, -adjacency[:off[last], :off[last + 1]])


@pytest.mark.parametrize("d", _laplacian_diagrams())
def test_dirichlet_matrix_is_the_scipy_coo_to_csr_of_the_table_entries(d):
    # the interior's edges both ways and the degrees, summed by scipy
    level, i, j, c = d.table.entries()
    off = d.table.offsets
    for b in range(1, d.num_levels + 1):
        n = off[b]
        inner = level + 1 < b
        u, w, c_in = off[level[inner]] + i[inner], off[level[inner] + 1] + j[inner], c[inner]
        oracle = sp.coo_matrix((np.concatenate([-c_in, -c_in, d.degrees[:n]]),
                                (np.concatenate([u, w, np.arange(n)]),
                                 np.concatenate([w, u, np.arange(n)]))), shape=(n, n)).tocsr()
        oracle.sum_duplicates()
        got = pathspace.DirichletSystem(d, b).matrix
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, a), getattr(oracle, a)), a


def test_the_rows_of_delta_are_built_once_per_system(monkeypatch):
    # a Dirichlet system builds its rows when it is made and solves with a
    # source, with boundary values and with a pin on them; each recursion
    # solve builds the rows it stacks once, and sums P on the edge table
    calls = []
    build = operators.laplacian

    def counting(d, last):
        calls.append(last)
        return build(d, last)

    for module in (operators, harmonic, pathspace):
        monkeypatch.setattr(module, "laplacian", counting)
    d = gen_pascal(6, 1.0)
    sysm = pathspace.DirichletSystem.of(d, 4)
    sysm.solve(source={VertexId(1, 0): 1.0})
    sysm.solve(boundary_values=np.arange(1.0, 6.0))
    sysm.solve(pinned={VertexId(2, 1): 0.5})
    assert calls == [4]
    calls.clear()
    harmonic.solve_chain(d, 4, seed_f1=np.ones(2))
    assert calls == [4]
