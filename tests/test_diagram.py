import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from bharm import (
    ExtensionRule,
    GeneralGraph,
    check_bratteli_structure,
    diagram_from_graph,
    extract_maximal_bratteli,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    make_diagram,
    validate,
)
from bharm import diagram as diagram_module
from bharm._matops import EdgeTable, LevelMatrix
from bharm.fileio import format_diagram, parse_diagram
from bruteforce import (
    DictGraph,
    level_matrices,
    ref_check_bratteli_structure,
    ref_degrees,
    ref_diagram_from_levels,
    ref_extract_maximal_bratteli,
    ref_validate,
)


def ladder_graph(length, diagonals=False):
    """Ladder with rails (k,0)-(k+1,0), (k,1)-(k+1,1) and rungs (k,0)-(k,1);
    vertex id = 2*k + side."""
    edges = []
    for k in range(length):
        edges.append((2 * k, 2 * k + 2))
        edges.append((2 * k + 1, 2 * k + 3))
        edges.append((2 * k, 2 * k + 1))
        if diagonals:
            edges.append((2 * k, 2 * k + 3))
            edges.append((2 * k + 1, 2 * k + 2))
    edges.append((2 * length, 2 * length + 1))
    return GeneralGraph(2 * (length + 1), edges)


def z2_ball(radius):
    """Finite ball of the planar lattice under the 1-norm, rooted at 0."""
    pts = [(x, y) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    index = {p: k for k, p in enumerate(pts)}
    edges = []
    for (x, y) in pts:
        for (dx, dy) in ((1, 0), (0, 1)):
            q = (x + dx, y + dy)
            if q in index:
                edges.append((index[(x, y)], index[q]))
    return GeneralGraph(len(pts), edges), index, pts


def diagram_as_graph(d):
    off = np.concatenate([[0], np.cumsum(d.level_sizes)]).astype(int)
    edges = [(off[n] + i, off[n + 1] + j, c)
             for n, i, j, c in zip(*(a.tolist() for a in d.table.entries()))]
    return GeneralGraph(int(off[-1]), edges)


# --- validation --------------------------------------------------------------

@pytest.mark.parametrize("d", [
    gen_binary_tree(4, 2.0),
    gen_binary_tree(1, 1.0),
    gen_pascal(5, 0.5),
    gen_stationary([[1, 1], [1, 0]], 4, 2.0),
    gen_bottleneck([1, 3, 3, 1, 3], 9),
    gen_ladder(6),
    gen_binary_tree_radial(10, 2.0, 3),
])
def test_generators_validate_clean(d):
    assert validate(d) == []


# --- storage -------------------------------------------------------------------

def _dense_with_zeros():
    c1 = np.array([[2.0, 0.0, 1.5], [0.0, 3.0, 0.0]])
    return make_diagram([1, 2, 3], [np.array([[1.0, 0.5]]), c1])


def _sparse_with_duplicates():
    c1 = sp.coo_matrix(([2.0, 1.0, 0.5, 3.0], ([1, 0, 1, 0], [2, 1, 2, 0])), shape=(2, 3))
    return make_diagram([1, 2, 3], [sp.csr_matrix([[1.0, 0.5]]), c1])


@pytest.mark.parametrize("build", [
    lambda: gen_binary_tree(10, 2.0),
    lambda: gen_pascal(520, 1.0),
    lambda: gen_stationary([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 5, 1.7),
    lambda: gen_bottleneck([1, 3, 600, 700, 4], 5),
    lambda: gen_ladder(5, 2.5),
    lambda: gen_binary_tree_radial(12, 2.0, 10),
    lambda: parse_diagram(format_diagram(gen_pascal(20, 1.5)) + "e 3 0 3 0\n"),
    lambda: diagram_from_graph(ladder_graph(6), root=0),
    _dense_with_zeros,
    _sparse_with_duplicates,
], ids=["tree", "pascal", "stationary", "bottleneck", "ladder", "radial", "parse",
        "graph", "dense", "sparse"])
def test_every_level_is_read_only_canonical_csr(build):
    d = build()
    for c in level_matrices(d):
        _assert_read_only_canonical(c)


def _assert_read_only_canonical(m):
    # scipy's full format check must accept a no-copy CSR wrapper of each
    # level's arrays and leave them as they are
    assert isinstance(m, LevelMatrix) and m.data.dtype == np.float64
    assert m.indices.dtype == m.indptr.dtype
    arrays = (m.data, m.indices, m.indptr)
    before = [arr.copy() for arr in arrays]
    w = sp.csr_matrix(arrays, shape=m.shape, copy=False)
    for ours, theirs in zip(arrays, (w.data, w.indices, w.indptr)):
        assert np.shares_memory(ours, theirs)
    w.check_format(full_check=True)
    for arr, old in zip(arrays, before):
        assert arr.dtype == old.dtype and np.array_equal(arr, old)
    assert w.has_canonical_format and all(type(s) is int for s in m.shape)
    assert m.nnz == w.nnz and type(m.nnz) is int
    ref = sp.csr_matrix(m.toarray())  # sorted, distinct, zeros dropped
    assert ref.shape == m.shape
    assert np.array_equal(m.indptr, ref.indptr)
    assert np.array_equal(m.indices, ref.indices)
    assert np.array_equal(m.data, ref.data)
    for arr in arrays + (m.rows(),):
        with pytest.raises(ValueError):
            arr[:1] = 1


@pytest.mark.parametrize("build", [
    lambda: gen_binary_tree(8, 2.0),
    lambda: gen_pascal(30, 1.5),
    lambda: parse_diagram(format_diagram(gen_pascal(20, 1.5)) + "e 3 0 3 2.5\n"),
    lambda: diagram_from_graph(ladder_graph(6), root=0),
    lambda: gen_stationary([[1, 1], [1, 0]], 5, 2.0),
], ids=["tree", "pascal", "parse", "graph", "stationary"])
def test_levels_are_views_of_the_one_edge_table(build):
    d = build()
    t = d.table
    assert t.nnz == sum(c.nnz for c in level_matrices(d))
    for n, c in enumerate(level_matrices(d)):
        lo, hi = t.starts[n], t.starts[n + 1]
        for ours, whole in ((c.data, t.data), (c.indices, t.indices)):
            assert np.shares_memory(ours, whole)
        assert np.array_equal(c.data, t.data[lo:hi])
        assert np.array_equal(c.indices, t.indices[lo:hi])
        assert np.array_equal(c.indptr, t.indptr[t.offsets[n]:t.offsets[n + 1] + 1] - lo)
    # the degrees are one read-only table-wide vector, level n's the sums of C_{n-1} and C_n
    assert not d.degrees.flags.writeable
    assert np.array_equal(np.concatenate([ref_degrees(d, n) for n in range(d.num_levels + 1)]),
                          d.degrees)


def test_ladder_leveling_is_valid():
    d = diagram_from_graph(ladder_graph(6), root=0)
    assert validate(d) == []
    assert d.level_sizes[0] == 1
    assert all(s == 2 for s in d.level_sizes[1:-1])


def test_zero_column_reports_missing_incoming_edge():
    d = make_diagram([1, 2, 2], [np.array([[1.0, 1.0]]),
                                 np.array([[1.0, 0.0], [1.0, 0.0]])])
    rules = {v.rule for v in validate(d)}
    assert "incoming" in rules


def _every_entry_stored(a, kind):
    """The dense matrix a as `kind`, with each of its zeros a stored entry
    where the kind can store one."""
    if kind == "dense":
        return a
    rows, cols = a.shape
    parts = (a.ravel(), np.tile(np.arange(cols), rows), np.arange(0, rows * cols + 1, cols))
    if kind == "scipy":
        return sp.csr_matrix(parts, shape=a.shape)
    return LevelMatrix(*parts, a.shape)


@pytest.mark.parametrize("kind", ["dense", "scipy", "level-matrix"])
def test_a_zero_is_no_edge_whatever_the_input_kind(kind):
    # a stored zero of a LevelMatrix level was an edge, reported as
    # [positivity] ... c=0, while a dense or scipy level dropped it
    levels = [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])]
    d = make_diagram([1, 2, 2], [_every_entry_stored(a, kind) for a in levels])
    assert d.table.nnz == 2
    assert [str(v) for v in validate(d)] == [
        "[incoming] level 1, vertex 1: vertex without incoming edge",
        "[outgoing] level 1, vertex 1: vertex without outgoing edge",
        "[incoming] level 2, vertex 1: vertex without incoming edge"]


# --- binary tree -------------------------------------------------------------

def test_tree_depth2_shapes_and_conductances():
    d = gen_binary_tree(2, 2.0)
    assert d.level_sizes == (1, 2, 4)
    assert np.allclose(d.table.level(0).toarray(), [[1.0, 1.0]])
    assert np.allclose(d.table.level(1).toarray(),
                       [[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 2.0]])


def test_tree_depth1_unit():
    d = gen_binary_tree(1, 1.0)
    assert np.allclose(d.table.level(0).toarray(), [[1.0, 1.0]])


def test_tree_level2_edges_scale_with_lambda_squared():
    d = gen_binary_tree(3, 0.5)
    vals = d.table.level(2).toarray()
    assert np.allclose(vals[vals > 0], 0.25)


def test_tree_rejects_bad_lambda():
    with pytest.raises(ValueError):
        gen_binary_tree(3, 0.0)
    with pytest.raises(ValueError):
        gen_binary_tree(0, 1.0)


# --- pascal -------------------------------------------------------------------

def test_pascal_incidence_rows():
    d = gen_pascal(2, 1.0)
    assert np.array_equal(d.table.level(1).toarray() > 0, [[1, 1, 0], [0, 1, 1]])
    assert np.array_equal(d.table.level(0).toarray() > 0, [[1, 1]])


def test_pascal_neighbor_counts():
    d = gen_pascal(3, 1.0)
    g = diagram_as_graph(d)
    off = np.concatenate([[0], np.cumsum(d.level_sizes)]).astype(int)
    assert len(g.neighbors(off[2] + 1)) == 4   # interior vertex of level 2
    assert len(g.neighbors(off[2] + 0)) == 3   # edge vertex of level 2


def test_pascal_row_and_column_sums():
    d = gen_pascal(6, 1.0)
    for c in level_matrices(d):
        a = (c.toarray() > 0).astype(int)
        assert np.all(a.sum(axis=1) == 2)
        cols = a.sum(axis=0)
        assert cols[0] == 1 and cols[-1] == 1
        assert np.all(cols[1:-1] == 2)


# --- stationary ---------------------------------------------------------------

def test_stationary_conductance_powers():
    d = gen_stationary([[1, 1], [1, 0]], 3, 2.0)
    assert np.allclose(d.table.level(2).toarray(), [[4.0, 4.0], [4.0, 0.0]])


def test_stationary_all_ones_levels():
    d = gen_stationary([[1, 1], [1, 1]], 2, 1.0)
    assert np.allclose(d.table.level(1).toarray(), np.ones((2, 2)))


def test_stationary_zero_column_rejected():
    with pytest.raises(ValueError):
        gen_stationary([[1, 0], [1, 0]], 3, 1.0)


# --- generator arguments ---------------------------------------------------------

@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
@pytest.mark.parametrize("gen", [
    lambda v: gen_binary_tree(3, v),
    lambda v: gen_pascal(3, v),
    lambda v: gen_stationary([[1, 1], [1, 0]], 3, v),
    lambda v: gen_ladder(3, v),
    lambda v: gen_binary_tree_radial(4, v, 2),
], ids=["tree", "pascal", "stationary", "ladder", "radial"])
def test_generators_take_only_positive_finite_parameters(gen, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        gen(value)


@pytest.mark.parametrize("lam", [1e300, 1e-320])
def test_generators_refuse_powers_of_lambda_outside_the_doubles(lam):
    # 1e300 ** 2 raised OverflowError; 1e-320 ** 2 is 0, which dropped the edges
    for gen in (gen_binary_tree, gen_pascal):
        with pytest.raises(ValueError, match=r"lambda\^2 is not a positive finite double"):
            gen(3, lam)
    assert validate(gen_pascal(2, 1e-320)) == []


@pytest.mark.parametrize("build, edges", [
    (lambda depth: gen_binary_tree(depth, 2.0), lambda depth: 2 ** (depth + 1) - 2),
    (lambda depth: gen_pascal(depth, 1.5), lambda depth: depth * (depth + 1)),
    (lambda depth: gen_ladder(depth, 2.0), lambda depth: 3 * depth - 1),
    (lambda depth: gen_stationary([[1, 1], [1, 0]], depth, 2.0), lambda depth: 3 * depth - 1),
    # the bottleneck draws every pair of consecutive levels and keeps some
    (lambda depth: gen_bottleneck([1] + [2] * depth, 3), lambda depth: 4 * depth - 2),
], ids=["tree", "pascal", "ladder", "stationary", "bottleneck"])
def test_generators_refuse_more_edges_than_the_bound(build, edges, monkeypatch):
    # the count is taken from the spec before anything is allocated, so a
    # small bound tests it without a large diagram
    depth = 4
    monkeypatch.setattr(diagram_module, "MAX_EDGES", edges(depth))
    assert build(depth).table.nnz <= edges(depth)
    with pytest.raises(ValueError, match="needs more than MAX_EDGES"):
        build(depth + 1)


def test_the_edge_bound_counts_the_edges_exactly():
    for depth in (1, 2, 5):
        assert gen_binary_tree(depth, 2.0).table.nnz == 2 ** (depth + 1) - 2
        assert gen_pascal(depth, 1.5).table.nnz == depth * (depth + 1)
        assert gen_ladder(depth, 2.0).table.nnz == 3 * depth - 1
        assert gen_stationary([[1, 1], [1, 0]], depth, 2.0).table.nnz == 3 * depth - 1


# --- bottleneck ---------------------------------------------------------------

def test_bottleneck_profile_and_determinism():
    d1 = gen_bottleneck([1, 3, 3, 1, 3], 123)
    d2 = gen_bottleneck([1, 3, 3, 1, 3], 123)
    assert d1.level_sizes == (1, 3, 3, 1, 3)
    assert d1.level_sizes[3] == 1
    for a, b in zip(level_matrices(d1), level_matrices(d2)):
        assert np.array_equal(a.toarray(), b.toarray())


def test_bottleneck_single_step():
    d = gen_bottleneck([1, 2], 5)
    assert d.level_sizes == (1, 2)
    assert validate(d) == []


# sha256 of `bharm gen <spec>`, taken when every row and then every column
# was checked in turn; the small profiles' 1-3-vertex levels force 2-5
# repairs of rows and 2-3 of columns each, the wide one 13 of columns
BOTTLENECK_GOLDENS = {
    "bottleneck:1-30-200-200-30-200-200:7":
        "4d825404e4ad43cfb1c2332ca400812616bc02de91925768ab85af0c6fb991ca",
    "bottleneck:1-2-1-3-1-2:3": "e6c3e2588ea9a2d282b2a61f5a3de2f071034ce9ad81fc9853eef26b6a7bf31e",
    "bottleneck:1-3-1-2-1-3-2-1:11":
        "469071ca7d9e50f9e1c152a4704f978d3ac6bb87dd3e18ff0e6419b06fe55be2",
    "bottleneck:1-2-2-1-1-3:5": "7bcd62e6002fc881090607983fd6c03aff28da823a6977a7735461d53f00c65b",
    "bottleneck:1-1-3-1-2-1:9": "82c322ecc44f932c0c01e683abf5dfd35b1d299735801d8249d6f22c1f25c78d",
    "bottleneck:1-3-2-3-1-2:1": "148ac4e6b106c28a61b0aead75d666a7e3e3530d30103575459cea0059054b9d",
}


@pytest.mark.parametrize("spec", sorted(BOTTLENECK_GOLDENS))
def test_bottleneck_repairs_keep_their_draws(spec, capsys):
    # the empty rows, then the columns still empty, each take one draw in order
    from bharm.cli import main
    assert main(["gen", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOTTLENECK_GOLDENS[spec]


# --- graded-structure test -----------------------------------------------------

def test_ladder_is_graded_from_corner():
    res = check_bratteli_structure(ladder_graph(5), root=0)
    assert res.is_graded
    assert [len(lv) for lv in res.levels][:3] == [1, 2, 2]


def test_ladder_with_diagonals_has_intra_level_witness():
    res = check_bratteli_structure(ladder_graph(5, diagonals=True), root=0)
    assert not res.is_graded
    assert "intra-level" in res.witness


def test_z2_ball_levels_are_spheres():
    g, index, pts = z2_ball(4)
    res = check_bratteli_structure(g, root=index[(0, 0)])
    assert res.is_graded
    for n, lv in enumerate(res.levels):
        for v in lv:
            x, y = pts[v]
            assert abs(x) + abs(y) == n


def test_disconnected_graph_rejected():
    g = GeneralGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        check_bratteli_structure(g, 0)


def test_degree_one_interior_vertex_is_witness():
    # path of length 3: middle vertices have degree 2, but vertex 1 < max
    # distance has degree 2; attach a pendant to make a degree-1 witness
    g = GeneralGraph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    res = check_bratteli_structure(g, 0)
    assert not res.is_graded
    assert "degree" in res.witness


@pytest.mark.parametrize("d", [
    gen_binary_tree(4, 2.0),
    gen_pascal(5, 1.0),
    gen_stationary([[1, 1], [1, 0]], 4, 2.0),
    gen_ladder(5),
    gen_bottleneck([1, 3, 2, 4], 21),
    gen_binary_tree_radial(7, 2.0, 2),
])
def test_generator_outputs_are_graded_from_root(d):
    res = check_bratteli_structure(diagram_as_graph(d), root=0)
    assert res.is_graded
    assert [len(lv) for lv in res.levels] == list(d.level_sizes)


# --- maximal graded subgraph ----------------------------------------------------

def test_extract_from_diagonal_ladder_keeps_only_the_ray():
    g = ladder_graph(6, diagonals=True)
    ray = [0, 2, 4, 6, 8, 10, 12]
    res = extract_maximal_bratteli(g, ray)
    assert all(len(lv) == 1 for lv in res.kept)
    assert [lv[0] for lv in res.kept] == ray
    assert validate(res.diagram) == []


def test_extract_from_graded_graph_returns_it_whole():
    d = gen_binary_tree(4, 2.0)
    g = diagram_as_graph(d)
    ray = [0, 1, 3, 7]  # leftmost branch in flat ids
    res = extract_maximal_bratteli(g, ray)
    assert [len(lv) for lv in res.kept] == list(d.level_sizes)
    assert res.maximal_within_ball
    assert validate(res.diagram) == []


def test_extract_z2_positive_axis_recovers_full_leveling():
    g, index, pts = z2_ball(4)
    ray = [index[(k, 0)] for k in range(5)]
    res = extract_maximal_bratteli(g, ray)
    # brute force: no sphere of the lattice ball contains an edge
    for n, lv in enumerate(res.kept):
        for v in lv:
            x, y = pts[v]
            assert abs(x) + abs(y) == n
    sphere_sizes = [1] + [4 * n for n in range(1, 4)]
    assert [len(lv) for lv in res.kept][:4] == sphere_sizes
    assert validate(res.diagram) == []


def test_extract_levels_subset_of_bfs_spheres():
    g = ladder_graph(5, diagonals=True)
    res = extract_maximal_bratteli(g, [0, 2, 4])
    spheres = g.bfs_levels(0)
    for n, lv in enumerate(res.kept):
        assert set(lv) <= set(spheres[n])


def test_extract_rejects_self_intersecting_ray():
    g = ladder_graph(4)
    with pytest.raises(ValueError):
        extract_maximal_bratteli(g, [0, 2, 0])


# --- conversion parity against the dict-based reference -------------------------

def seeded_grid(rows, cols, seed, decoys=False, extra=0, pendants=0):
    """A rows x cols grid with shuffled labels, random conductances and the
    edges in random order, plus: a decoy vertex beside each step of a
    random monotone ray (joined to both ends of the step), `extra` random
    diagonals and `pendants` degree-1 vertices.  Returns (edges, count,
    corner, ray)."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(rows * cols)
    at = lambda r, c: int(label[r * cols + c])
    edges = [(at(r, c), at(r2, c2), float(rng.uniform(0.5, 2)))
             for r in range(rows) for c in range(cols)
             for r2, c2 in ((r + 1, c), (r, c + 1)) if r2 < rows and c2 < cols]
    steps = rng.permutation([1] * (rows - 1) + [0] * (cols - 1))
    path = [(0, 0)]
    for down in steps:
        r, c = path[-1]
        path.append((r + 1, c) if down else (r, c + 1))
    ray = [at(r, c) for r, c in path]
    count = rows * cols
    if decoys:
        for k in range(len(ray) - 1):
            edges += [(count, ray[k], 1.0), (count, ray[k + 1], 1.0)]
            count += 1
    for _ in range(extra):
        r, c = int(rng.integers(rows - 1)), int(rng.integers(cols - 1))
        edges.append((at(r, c), at(r + 1, c + 1), 1.0))
    for _ in range(pendants):
        edges.append((count, int(rng.integers(rows * cols)), 1.0))
        count += 1
    edges = [edges[k] if rng.random() < 0.5 else (edges[k][1], edges[k][0], edges[k][2])
             for k in rng.permutation(len(edges))]
    return edges, count, at(0, 0), ray


def random_graph(n, m, seed):
    """A connected random graph: a random tree plus m random extra edges."""
    rng = np.random.default_rng(seed)
    edges, seen = [], set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.append((v, u, float(rng.integers(1, 4))))
        seen.add((min(u, v), max(u, v)))
    while len(edges) < n - 1 + m:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v, 1.0))
    order = rng.permutation(len(edges))
    return [edges[k] for k in order]


def converted_by_root(g, root):
    res = check_bratteli_structure(g, root)
    if not res.is_graded:
        return res.witness
    return res.levels, format_diagram(diagram_from_graph(g, root))


def converted_by_reference(g, root):
    levels, witness = ref_check_bratteli_structure(g, root)
    if witness is not None:
        return witness
    return levels, format_diagram(ref_diagram_from_levels(g, levels))


GRID_CASES = [dict(rows=r, cols=c, seed=s, **kw) for r, c, s, kw in [
    (6, 4, 0, {}), (9, 7, 1, {}), (1, 5, 2, {}), (12, 3, 3, {}),
    (7, 5, 4, dict(extra=1)), (8, 8, 5, dict(pendants=1)), (6, 9, 6, dict(extra=3, pendants=2)),
]]


@pytest.mark.parametrize("case", GRID_CASES, ids=lambda c: "-".join(f"{v}" for v in c.values()))
def test_root_conversion_matches_the_reference(case):
    edges, count, corner, _ = seeded_grid(**case)
    g, ref = GeneralGraph(count, edges), DictGraph(count, edges)
    for root in (corner, 0, count - 1):
        assert [lv.tolist() for lv in g.bfs_levels(root)] == ref.bfs_levels(root)
        assert converted_by_root(g, root) == converted_by_reference(ref, root)
    if case.get("extra") or case.get("pendants"):
        assert isinstance(converted_by_root(g, corner), str)


@pytest.mark.parametrize("seed", range(8))
def test_random_graph_conversion_matches_the_reference(seed):
    edges = random_graph(40, seed * 3, seed)
    g, ref = GeneralGraph(40, edges), DictGraph(40, edges)
    for root in (0, 17, 39):
        assert [lv.tolist() for lv in g.bfs_levels(root)] == ref.bfs_levels(root)
        assert converted_by_root(g, root) == converted_by_reference(ref, root)


def assert_same_extraction(g, ref, ray):
    """The same diagram bytes, kept levels and uncertified vertices as the
    reference, or the same error."""
    try:
        want = ref_extract_maximal_bratteli(ref, ray)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            extract_maximal_bratteli(g, ray)
        assert str(info.value) == str(exc)
        return False
    res = extract_maximal_bratteli(g, ray)
    assert res.maximal_within_ball == (not res.uncertified)
    assert (format_diagram(res.diagram), res.kept, res.uncertified) == (
        format_diagram(want[0]), want[1], want[2])
    return True


@pytest.mark.parametrize("case", [dict(rows=r, cols=c, seed=s, decoys=True, extra=e)
                                  for r, c, s, e in [(5, 4, 0, 0), (9, 6, 1, 0), (7, 7, 2, 2),
                                                     (12, 5, 3, 4), (1, 6, 4, 0)]],
                         ids=lambda c: f"{c['rows']}x{c['cols']}-{c['seed']}-{c['extra']}")
def test_ray_extraction_matches_the_reference(case):
    edges, count, _, ray = seeded_grid(**case)
    g, ref = GeneralGraph(count, edges), DictGraph(count, edges)
    done = [assert_same_extraction(g, ref, r) for r in (ray, ray[:len(ray) // 2], ray[:1])]
    assert done[2] and (done[0] or case["extra"])


@pytest.mark.parametrize("seed", range(10))
def test_random_graph_extraction_matches_the_reference(seed):
    """Geodesic rays are level-compatible; random walks mostly are not, and
    both sides must then raise the same error."""
    rng = np.random.default_rng(seed)
    edges = random_graph(30, 10 + seed * 4, seed)
    g, ref = GeneralGraph(30, edges), DictGraph(30, edges)
    spheres = ref.bfs_levels(0)
    ray = [int(rng.choice(spheres[-1]))]
    while ray[-1] != 0:
        ray.append(min(u for u in ref.adj[ray[-1]] if u in spheres[len(spheres) - 1 - len(ray)]))
    walk = [0]
    for _ in range(4):
        walk.append(int(rng.choice(list(ref.adj[walk[-1]]))))
    done = [assert_same_extraction(g, ref, r)
            for r in (ray[::-1], walk, [0, 30], [5, 5], [], [int(rng.integers(30))])]
    assert done[0] and done[-1]


HUGE = 10 ** 20


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 1, -1.0), (2, 9)],                  # a loop before a bad conductance
    [(0, 9, -1.0)],                                  # range before conductance
    [(9, 9, 1.0)],                                   # loop before range
    [(0, -1)],
    [(0, 1), (1, 0, np.inf)],                        # conductance before repeat
    [(0, 1), (1, 2, 0.0), (2, 2)],                   # the first bad edge in order
    [(0, 1, np.nan)],
    [(0, 1, -np.inf)],
    [(0, 1), (1, 2), (2, 1, 3.0)],                   # a reversed repeat
    [(0, 1), (1, 2), (0, 1), (3, 3)],
    [(0, 1), (HUGE, HUGE)],
    [(0, 1), (HUGE, HUGE + 1)],
    [(0, 1), (1, 0), (HUGE, 2)],
    [(0, 1), (HUGE, -HUGE)],
    [(0, 1), (2, 3), (3, 2, 0.5)],
])
def test_graph_edge_errors_match_the_reference(edges):
    with pytest.raises(ValueError) as want:
        DictGraph(4, edges)
    with pytest.raises(ValueError) as got:
        GeneralGraph(4, edges)
    assert str(got.value) == str(want.value)


def test_graph_adjacency_lists_neighbours_in_edge_order():
    edges = random_graph(25, 30, 7)
    g, ref = GeneralGraph(25, edges), DictGraph(25, edges)
    for v in range(25):
        assert g.neighbors(v).tolist() == list(ref.adj[v])
    assert [tuple(e) for e in zip(g.i.tolist(), g.j.tolist(), g.c.tolist())] == ref.edges


def test_out_of_range_root_and_ray_are_errors():
    g = ladder_graph(3)
    with pytest.raises(ValueError, match="root 8 outside vertex range"):
        diagram_from_graph(g, 8)
    with pytest.raises(ValueError, match="root -1 outside vertex range"):
        diagram_from_graph(g, -1)
    with pytest.raises(ValueError, match=r"ray step \(0,8\) is not an edge"):
        extract_maximal_bratteli(g, [0, 8])
    with pytest.raises(ValueError, match=r"ray step \(-2,0\) is not an edge"):
        extract_maximal_bratteli(g, [-2, 0])
    with pytest.raises(ValueError, match="root 8 outside vertex range"):
        extract_maximal_bratteli(g, [8])


# --- deeper prefixes ---------------------------------------------------------------

@pytest.mark.parametrize("generate", [
    lambda depth: gen_binary_tree(depth, 2.0),
    lambda depth: gen_pascal(depth, 1.5),
    lambda depth: gen_stationary([[1, 1], [1, 0]], depth, 2.0),
    lambda depth: gen_ladder(depth, 0.5),
    lambda depth: gen_binary_tree_radial(depth, 2.0, 2),
    lambda depth: gen_bottleneck([1, 2, 3, 2, 4, 3, 5][:depth + 1], 3),
], ids=["tree", "pascal", "stationary", "ladder", "radial", "bottleneck"])
def test_a_deeper_prefix_is_the_generator_called_again(generate):
    # no diagram extends itself: the generator at a larger depth stores the
    # same levels, bit for bit, and the same extension rule
    d, deeper = generate(3), generate(6)
    assert deeper.num_levels == 6
    assert deeper.level_sizes[:4] == d.level_sizes
    for n in range(3):
        a, b = d.table.level(n), deeper.table.level(n)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), (n, attr)
    assert deeper.extension == d.extension


def test_only_the_stationary_generator_sets_an_extension_rule():
    rule = gen_stationary([[1, 1], [1, 0]], 4, 2.0).extension
    assert rule == ExtensionRule(2.0, ((1.0, 1.0), (1.0, 0.0)))
    for d in (gen_binary_tree(4, 2.0), gen_pascal(4, 1.0), gen_ladder(4),
              gen_binary_tree_radial(4, 2.0, 2), gen_bottleneck([1, 2, 2], 3),
              make_diagram([1, 2], [np.ones((1, 2))])):
        assert d.extension is None


# --- validation battery ---------------------------------------------------
# The expected lists pin the rule order, the row-major order within a rule and
# the message text, for dense and CSR levels alike.

def _tree_file(depth, edit):
    """Parse a binary-tree file after edit() rewrote its edge lines."""
    lines = format_diagram(gen_binary_tree(depth, 2.0)).splitlines()
    return parse_diagram("\n".join(lines[:2] + edit(lines[2:])) + "\n")


def _zero_line(k):
    return lambda edges: [e.rsplit(" ", 1)[0] + " 0" if n == k else e
                          for n, e in enumerate(edges)]


def _wide(n, cond_vals, kind=np.array):
    """Root joined to n vertices with conductance 1, but cond_vals."""
    cond = np.ones((1, n))
    for j, v in cond_vals.items():
        cond[0, j] = v
    return make_diagram([1, n], [kind(cond)])


def _scattered(kind):
    """A 4x5 (or 600x700) level whose violations are listed out of row-major order."""
    m, k = (4, 5) if kind is np.array else (600, 700)
    c = np.zeros((m, k))
    c[np.arange(k) % m, np.arange(k)] = 1
    c[:, k - 1] = 1
    c[1, k - 1] = -4.5   # positivity, last column
    c[0, 0] = np.nan     # positivity, first
    c[m - 1] = 0.0       # outgoing, and incoming at column m - 1
    c[2, 2] = 0.0        # incoming
    c[1, 1] = 0.0        # incoming
    return make_diagram([1, m, k], [np.ones((1, m)), kind(c)])


BATTERY = {
    "small-positivity": lambda: _wide(2, {0: -1.0}),
    "small-scattered": lambda: _scattered(np.array),
    "small-missing-edges": lambda: _tree_file(4, lambda e: e[:6] + e[8:9] + e[10:]),
    "small-zero-line": lambda: _tree_file(4, _zero_line(7)),
    "big-positivity": lambda: _wide(600, {599: np.nan, 11: -np.inf, 300: np.inf},
                                    kind=sp.csr_matrix),
    "big-scattered": lambda: _scattered(sp.csr_matrix),
    "big-missing-edges": lambda: _tree_file(10, lambda e: e[:-700] + e[-698:-5] + e[-4:]),
    "big-zero-line": lambda: _tree_file(10, _zero_line(1500)),
}

_ON_EDGE = "on edge (0 < c_xy < inf required exactly on edges)"
EXPECTED = {
    "small-positivity": [f"[positivity] level 0, edge (0,0): c=-1 {_ON_EDGE}"],
    "small-scattered": [
        f"[positivity] level 1, edge (0,0): c=nan {_ON_EDGE}",
        f"[positivity] level 1, edge (1,4): c=-4.5 {_ON_EDGE}",
        "[outgoing] level 1, vertex 3: vertex without outgoing edge",
        "[incoming] level 2, vertex 1: vertex without incoming edge",
        "[incoming] level 2, vertex 2: vertex without incoming edge",
        "[incoming] level 2, vertex 3: vertex without incoming edge",
    ],
    "small-missing-edges": [
        "[outgoing] level 2, vertex 0: vertex without outgoing edge",
        "[incoming] level 3, vertex 0: vertex without incoming edge",
        "[incoming] level 3, vertex 1: vertex without incoming edge",
        "[incoming] level 3, vertex 3: vertex without incoming edge",
    ],
    "small-zero-line": ["[incoming] level 3, vertex 1: vertex without incoming edge"],
    "big-positivity": [
        f"[positivity] level 0, edge (0,11): c=-inf {_ON_EDGE}",
        f"[positivity] level 0, edge (0,300): c=inf {_ON_EDGE}",
        f"[positivity] level 0, edge (0,599): c=nan {_ON_EDGE}",
    ],
    "big-scattered": [
        f"[positivity] level 1, edge (0,0): c=nan {_ON_EDGE}",
        f"[positivity] level 1, edge (1,699): c=-4.5 {_ON_EDGE}",
        "[outgoing] level 1, vertex 599: vertex without outgoing edge",
        "[incoming] level 2, vertex 1: vertex without incoming edge",
        "[incoming] level 2, vertex 2: vertex without incoming edge",
        "[incoming] level 2, vertex 599: vertex without incoming edge",
    ],
    "big-missing-edges": [
        "[outgoing] level 9, vertex 162: vertex without outgoing edge",
        "[incoming] level 10, vertex 324: vertex without incoming edge",
        "[incoming] level 10, vertex 325: vertex without incoming edge",
        "[incoming] level 10, vertex 1019: vertex without incoming edge",
    ],
    "big-zero-line": ["[incoming] level 10, vertex 478: vertex without incoming edge"],
}


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_validation_battery(name):
    assert [str(v) for v in validate(BATTERY[name]())] == EXPECTED[name]


_BAD_VALUES = (-1.0, -0.5, np.nan, np.inf, -np.inf)


def _broken_file(rng):
    """A tree or Pascal file with about a tenth of its edge lines deleted and
    a tenth set to a value outside (0, inf)."""
    d = gen_binary_tree(6, 2.0) if rng.random() < 0.5 else gen_pascal(12, 1.5)
    lines = format_diagram(d).splitlines()
    edges = [e.rsplit(" ", 1)[0] + f" {rng.choice(_BAD_VALUES)}" if rng.random() < 0.1 else e
             for e in lines[2:] if rng.random() >= 0.1]
    return parse_diagram("\n".join(lines[:2] + edges) + "\n")


def _broken_levels(rng, kind):
    """make_diagram on random sparse levels, some of whose values lie
    outside (0, inf) and some of whose rows and columns are empty."""
    sizes = [1, *rng.integers(1, 8, size=4).tolist()]
    mats = []
    for m, k in zip(sizes, sizes[1:]):
        c = np.where(rng.random((m, k)) < 0.6, rng.uniform(0.5, 3.0, (m, k)), 0.0)
        c[rng.random((m, k)) < 0.1] = rng.choice(_BAD_VALUES)
        mats.append(kind(c))
    return make_diagram(sizes, mats)


def _level_matrix(c):
    s = sp.csr_matrix(c)
    return LevelMatrix(s.data, s.indices, s.indptr, s.shape)


def _broken_graph(rng):
    """A layered graph (each vertex joined to a random parent, plus random
    edges between consecutive layers) converted with BFS levels, drawn until
    it is graded: a childless vertex above the last layer then has two
    parents and is kept."""
    sizes = [1, *rng.integers(2, 6, size=4).tolist()]
    first = np.cumsum([0] + sizes)
    edges = set()
    for n in range(1, len(sizes)):
        for v in range(first[n], first[n + 1]):
            edges.add((int(rng.integers(first[n - 1], first[n])), v))
        for _ in range(sizes[n]):
            edges.add((int(rng.integers(first[n - 1], first[n])),
                       int(rng.integers(first[n], first[n + 1]))))
    g = GeneralGraph(int(first[-1]), [(i, j, rng.uniform(0.5, 2.0)) for i, j in sorted(edges)])
    if not check_bratteli_structure(g, 0).is_graded:
        return _broken_graph(rng)
    return diagram_from_graph(g, 0)


def test_validate_matches_the_per_entry_reference():
    rng = np.random.default_rng(20261019)
    builds = [lambda: _broken_file(rng), lambda: _broken_levels(rng, np.array),
              lambda: _broken_levels(rng, sp.csr_matrix),
              lambda: _broken_levels(rng, _level_matrix), lambda: _broken_graph(rng)]
    rules = set()
    for build in builds:
        for _ in range(25):
            d = build()
            found = validate(d)
            assert [str(v) for v in found] == ref_validate(d)
            rules.update(v.rule for v in found)
    assert rules == {"positivity", "outgoing", "incoming"}


def test_validate_of_a_valid_diagram_builds_no_per_edge_triplets(monkeypatch):
    # a positivity violation is named from the table's own arrays, so a valid
    # diagram never pays for int64 levels and rows of every edge
    def entries(self):
        raise AssertionError("validate built the triplets")
    monkeypatch.setattr(EdgeTable, "entries", entries)
    for d in (gen_pascal(30, 1.5), gen_binary_tree(8, 2.0), gen_ladder(6, 1.5)):
        assert validate(d) == []


@pytest.mark.parametrize("width", [2, 600])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_non_positive_conductance_line_is_positivity_at_any_width(width, value):
    edges = "".join(f"e 0 0 {j} {value if j == 1 else 1}\n" for j in range(width))
    d = parse_diagram(f"bratteli v1\nlevels 2 : 1 {width}\n" + edges)
    assert [str(v) for v in validate(d)] == [
        f"[positivity] level 0, edge (0,1): c={value} on edge (0 < c_xy < inf required "
        "exactly on edges)"]
