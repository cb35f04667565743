import numpy as np
import pytest
import scipy.sparse as sp

from bharm import (
    GeneralGraph,
    check_bratteli_structure,
    diagram_from_graph,
    extend_to,
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
from bharm._matops import LevelMatrix
from bharm.fileio import format_diagram, parse_diagram


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
    edges = [(off[n] + i, off[n + 1] + j, c) for n, i, j, c in d.edges()]
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
    for c, a in zip(d.conductance, d.incidence):
        for m in (c, a):
            _assert_read_only_canonical(m)
        assert np.array_equal(a.indptr, c.indptr) and np.array_equal(a.indices, c.indices)
        assert np.all(a.data == 1.0)


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


def test_zero_conductance_on_edge_reported():
    inc = [np.array([[1.0, 1.0]])]
    cond = [np.array([[1.0, 0.0]])]
    d = make_diagram([1, 2], cond, incidence=inc)
    rules = {v.rule for v in validate(d)}
    assert "positivity" in rules


# --- binary tree -------------------------------------------------------------

def test_tree_depth2_shapes_and_conductances():
    d = gen_binary_tree(2, 2.0)
    assert d.level_sizes == (1, 2, 4)
    assert np.allclose(d.conductance[0].toarray(), [[1.0, 1.0]])
    assert np.allclose(d.conductance[1].toarray(),
                       [[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 2.0]])


def test_tree_depth1_unit():
    d = gen_binary_tree(1, 1.0)
    assert np.allclose(d.conductance[0].toarray(), [[1.0, 1.0]])


def test_tree_level2_edges_scale_with_lambda_squared():
    d = gen_binary_tree(3, 0.5)
    vals = d.conductance[2].toarray()
    assert np.allclose(vals[vals > 0], 0.25)


def test_tree_rejects_bad_lambda():
    with pytest.raises(ValueError):
        gen_binary_tree(3, 0.0)
    with pytest.raises(ValueError):
        gen_binary_tree(0, 1.0)


# --- pascal -------------------------------------------------------------------

def test_pascal_incidence_rows():
    d = gen_pascal(2, 1.0)
    assert np.allclose(d.incidence[1].toarray(), [[1, 1, 0], [0, 1, 1]])
    assert np.allclose(d.incidence[0].toarray(), [[1, 1]])


def test_pascal_neighbor_counts():
    d = gen_pascal(3, 1.0)
    g = diagram_as_graph(d)
    off = np.concatenate([[0], np.cumsum(d.level_sizes)]).astype(int)
    assert len(g.neighbors(off[2] + 1)) == 4   # interior vertex of level 2
    assert len(g.neighbors(off[2] + 0)) == 3   # edge vertex of level 2


def test_pascal_row_and_column_sums():
    d = gen_pascal(6, 1.0)
    for a in d.incidence:
        a = a.toarray()
        assert np.all(a.sum(axis=1) == 2)
        cols = a.sum(axis=0)
        assert cols[0] == 1 and cols[-1] == 1
        assert np.all(cols[1:-1] == 2)


# --- stationary ---------------------------------------------------------------

def test_stationary_conductance_powers():
    d = gen_stationary([[1, 1], [1, 0]], 3, 2.0)
    assert np.allclose(d.conductance[2].toarray(), [[4.0, 4.0], [4.0, 0.0]])


def test_stationary_all_ones_levels():
    d = gen_stationary([[1, 1], [1, 1]], 2, 1.0)
    assert np.allclose(d.conductance[1].toarray(), np.ones((2, 2)))


def test_stationary_zero_column_rejected():
    with pytest.raises(ValueError):
        gen_stationary([[1, 0], [1, 0]], 3, 1.0)


# --- bottleneck ---------------------------------------------------------------

def test_bottleneck_profile_and_determinism():
    d1 = gen_bottleneck([1, 3, 3, 1, 3], 123)
    d2 = gen_bottleneck([1, 3, 3, 1, 3], 123)
    assert d1.level_sizes == (1, 3, 3, 1, 3)
    assert d1.level_sizes[3] == 1
    for a, b in zip(d1.conductance, d2.conductance):
        assert np.array_equal(a.toarray(), b.toarray())


def test_bottleneck_single_step():
    d = gen_bottleneck([1, 2], 5)
    assert d.level_sizes == (1, 2)
    assert validate(d) == []


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


# --- extension rules -------------------------------------------------------------

def test_extend_to_regenerates_deeper_prefix():
    d = gen_binary_tree(3, 2.0)
    d2 = extend_to(d, 6)
    assert d2.num_levels == 6
    assert np.allclose(d2.conductance[2].toarray(), d.conductance[2].toarray())


def test_extend_without_rule_rejected():
    d = gen_bottleneck([1, 2, 2], 3)
    with pytest.raises(ValueError):
        extend_to(d, 5)


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


def _wide(n, inc_vals=None, cond_vals=None, kind=np.array):
    """Root joined to n vertices; inc_vals / cond_vals override entries."""
    inc, cond = np.ones((1, n)), np.ones((1, n))
    for j, v in (inc_vals or {}).items():
        inc[0, j] = v
    for j, v in (cond_vals or {}).items():
        cond[0, j] = v
    return make_diagram([1, n], [kind(cond)], incidence=[kind(inc)])


def _scattered(kind):
    """A 4x5 (or 600x700) level whose violations are listed out of row-major order."""
    m, k = (4, 5) if kind is np.array else (600, 700)
    a = np.zeros((m, k))
    a[np.arange(k) % m, np.arange(k)] = 1
    a[:, k - 1] = 1
    c = a.copy()
    c[m - 1, 1] = 2.0    # support, last row
    c[0, 2] = -4.5       # support, first row
    c[1, k - 1] = 0.0    # positivity
    c[0, 0] = 0.0        # positivity, first
    root = np.ones((1, m))
    return make_diagram([1, m, k], [root, kind(c)], incidence=[root, kind(a)])


def _explicit_zero():
    """CSR conductance storing a 0 off the incidence support."""
    c = sp.csr_matrix((np.array([1.0, 0.0] + [1.0] * 598),
                       (np.zeros(600, dtype=int), np.arange(600))), shape=(1, 600))
    a = sp.csr_matrix(np.where(np.arange(600) == 1, 0.0, 1.0)[None, :])
    return make_diagram([1, 600], [c], incidence=[a])


BATTERY = {
    "small-zero-one": lambda: _wide(3, inc_vals={1: 2.0, 2: 0.5}),
    "small-support": lambda: _wide(2, inc_vals={1: 0.0}, cond_vals={1: 3.5}),
    "small-positivity": lambda: _wide(2, cond_vals={0: 0.0}),
    "small-scattered": lambda: _scattered(np.array),
    "small-missing-edges": lambda: _tree_file(4, lambda e: e[:6] + e[8:9] + e[10:]),
    "small-zero-line": lambda: _tree_file(4, _zero_line(7)),
    "big-zero-one": lambda: _wide(600, inc_vals={9: 0.5, 7: 2.0}, kind=sp.csr_matrix),
    "huge-zero-one": lambda: _wide(5000, inc_vals={77: 2.0}, kind=sp.csr_matrix),
    "big-support": lambda: _wide(600, inc_vals={3: 0.0, 520: 0.0}, kind=sp.csr_matrix),
    "big-positivity": lambda: _wide(600, cond_vals={599: 0.0, 11: 0.0}, kind=sp.csr_matrix),
    "big-scattered": lambda: _scattered(sp.csr_matrix),
    "big-explicit-zero": _explicit_zero,
    "big-missing-edges": lambda: _tree_file(10, lambda e: e[:-700] + e[-698:-5] + e[-4:]),
    "big-zero-line": lambda: _tree_file(10, _zero_line(1500)),
}

EXPECTED = {
    "small-zero-one": ["[zero-one] level 0, edge (0,1): incidence entry 2.0 is not 0 or 1"],
    "small-support": [
        "[support] level 0, edge (0,1): conductance 3.5 on a non-edge",
        "[incoming] level 1, vertex 1: vertex without incoming edge",
    ],
    "small-positivity": [
        "[positivity] level 0, edge (0,0): c=0 on edge (0 < c_xy < inf required exactly on edges)",
    ],
    "small-scattered": [
        "[support] level 1, edge (0,2): conductance -4.5 on a non-edge",
        "[support] level 1, edge (3,1): conductance 2.0 on a non-edge",
        "[positivity] level 1, edge (0,0): c=0 on edge (0 < c_xy < inf required exactly on edges)",
        "[positivity] level 1, edge (1,4): c=0 on edge (0 < c_xy < inf required exactly on edges)",
    ],
    "small-missing-edges": [
        "[outgoing] level 2, vertex 0: vertex without outgoing edge",
        "[incoming] level 3, vertex 0: vertex without incoming edge",
        "[incoming] level 3, vertex 1: vertex without incoming edge",
        "[incoming] level 3, vertex 3: vertex without incoming edge",
    ],
    "small-zero-line": ["[incoming] level 3, vertex 1: vertex without incoming edge"],
    "big-zero-one": ["[zero-one] level 0, edge (0,7): incidence entry 2.0 is not 0 or 1"],
    "huge-zero-one": ["[zero-one] level 0, incidence: entries outside {0,1}"],
    "big-support": [
        "[support] level 0, edge (0,3): conductance 1.0 on a non-edge",
        "[support] level 0, edge (0,520): conductance 1.0 on a non-edge",
        "[incoming] level 1, vertex 3: vertex without incoming edge",
        "[incoming] level 1, vertex 520: vertex without incoming edge",
    ],
    "big-positivity": [
        "[positivity] level 0, edge (0,11): c=0 on edge (0 < c_xy < inf required exactly on edges)",
        "[positivity] level 0, edge (0,599): c=0 on edge (0 < c_xy < inf required exactly on edges)",
    ],
    "big-scattered": [
        "[support] level 1, edge (0,2): conductance -4.5 on a non-edge",
        "[support] level 1, edge (599,1): conductance 2.0 on a non-edge",
        "[positivity] level 1, edge (0,0): c=0 on edge (0 < c_xy < inf required exactly on edges)",
        "[positivity] level 1, edge (1,699): c=0 on edge (0 < c_xy < inf required exactly on edges)",
    ],
    "big-explicit-zero": [
        "[support] level 0, edge (0,1): conductance 0.0 on a non-edge",
        "[incoming] level 1, vertex 1: vertex without incoming edge",
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


@pytest.mark.parametrize("width", [2, 600])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_non_positive_conductance_line_is_positivity_at_any_width(width, value):
    edges = "".join(f"e 0 0 {j} {value if j == 1 else 1}\n" for j in range(width))
    d = parse_diagram(f"bratteli v1\nlevels 2 : 1 {width}\n" + edges)
    assert [str(v) for v in validate(d)] == [
        f"[positivity] level 0, edge (0,1): c={value} on edge (0 < c_xy < inf required "
        "exactly on edges)"]
