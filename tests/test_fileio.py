import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from bharm import (
    LevelFunction,
    gen_binary_tree,
    gen_binary_tree_radial,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    validate,
)
from bharm import fileio
from bharm.fileio import (
    _BLOCK,
    _lines,
    format_diagram,
    format_function,
    parse_diagram,
    parse_function,
    parse_genspec,
    parse_graph,
)
from bruteforce import level_matrices


def test_diagram_round_trip():
    d = gen_binary_tree(4, 2.0)
    d2 = parse_diagram(format_diagram(d))
    assert d2.level_sizes == d.level_sizes
    for a, b in zip(level_matrices(d), level_matrices(d2)):
        assert np.allclose(a.toarray(), b.toarray())
    assert validate(d2) == []


def test_diagram_header_required():
    with pytest.raises(ValueError):
        parse_diagram("levels 2 : 1 2\ne 0 0 0 1\n")


def test_duplicate_edge_rejected():
    text = "bratteli v1\nlevels 2 : 1 2\ne 0 0 0 1\ne 0 0 0 2\ne 0 0 1 1\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_diagram(text)


@pytest.mark.parametrize("spec", ["pascal:12:1", "tree:6:2", "bottleneck:1-3-4-2:5"])
def test_shuffled_edge_lines_give_the_sorted_files_table(spec):
    # a body in (level, row, col) order skips the sort; any other order is sorted
    head, *edges = format_diagram(fileio.load_diagram(spec)).rstrip("\n").split("\ne ")
    shuffled = [edges[k] for k in np.random.default_rng(3).permutation(len(edges))]
    sorted_table, table = (parse_diagram("\ne ".join([head, *body]) + "\n").table
                           for body in (edges, shuffled))
    for field in ("data", "indices", "indptr"):
        a, b = getattr(table, field), getattr(sorted_table, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("zero", [False, True], ids=["all-edges", "a-zero-line"])
def test_parsed_table_keeps_its_own_conductances(zero):
    # a line of conductance 0 is no edge; either way the table's columns are
    # arrays of their own, not views that keep the parsed records alive
    text = "bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n"
    if zero:
        text += "e 1 1 0 0\n"
    t = parse_diagram(text).table
    assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0] and t.indices.tolist() == [0, 1, 0, 1]
    assert t.data.base is None and t.indices.base is None


@pytest.mark.parametrize("body", [
    "e 0 0 0 1\ne 0 0 0 2\ne 0 0 1 1\n",   # in order apart from the repeat
    "e 0 0 1 1\ne 0 0 0 2\ne 0 0 1 3\n",   # out of order
    "e 0 0 0 1\ne 0 0 1 2\ne 0 0 1 3\n",   # the repeat is the last line
])
def test_repeated_edge_in_or_out_of_order_is_refused(body):
    with pytest.raises(ValueError, match=r"^duplicate edge \(0,0,[01]\)$"):
        parse_diagram("bratteli v1\nlevels 2 : 1 2\n" + body)


def test_zero_size_level_rejected():
    with pytest.raises(ValueError):
        parse_diagram("bratteli v1\nlevels 2 : 1 0\n")


def test_level_size_beyond_int64_rejected():
    with pytest.raises(ValueError):
        parse_diagram("bratteli v1\nlevels 2 : 1 99999999999999999999\ne 0 0 0 1\n")


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        parse_diagram("bratteli v1\nlevels 2 : 1 2\ne 0 0 5 1\n")


def test_function_round_trip_skips_zeros():
    d = gen_pascal(4, 1.0)
    f = LevelFunction.zeros(d)
    f.values[2][1] = 2.5
    f.values[4][0] = -1.0
    text = format_function(f)
    assert text.count("\n") == 3  # header + two entries
    f2 = parse_function(text, d)
    for a, b in zip(f.values, f2.values):
        assert np.array_equal(a, b)


def test_function_out_of_range_rejected():
    d = gen_pascal(2, 1.0)
    with pytest.raises(ValueError):
        parse_function("fn v1\n9 0 1.0\n", d)


def test_graph_file_is_the_graph_of_its_edge_list():
    from bharm.diagram import GeneralGraph
    g = GeneralGraph(4, [(0, 1, 2.0), (1, 2), (2, 3, 0.5)])
    g2 = parse_graph("graph v1\nv 4\ne 0 1 2\ne 1 2\ne 2 3 0.5\n")
    assert g2.num_vertices == 4
    for a in ("i", "j", "c", "indices", "indptr"):
        assert np.array_equal(getattr(g2, a), getattr(g, a)), a


def test_genspec_parsing():
    assert parse_genspec("tree:3:2").level_sizes == (1, 2, 4, 8)
    assert parse_genspec("pascal:3:1").level_sizes == (1, 2, 3, 4)
    d = parse_genspec("stationary:11;10:3:2")
    assert d.level_sizes == (1, 2, 2, 2)
    assert np.allclose(d.table.level(2).toarray(), [[4, 4], [4, 0]])
    d2 = parse_genspec("stationary:1,1;1,0:3:2")
    assert np.allclose(d2.table.level(2).toarray(), d.table.level(2).toarray())
    assert parse_genspec("ladder:4").level_sizes == (1, 2, 2, 2, 2)
    assert parse_genspec("bottleneck:1-3-1:7").level_sizes == (1, 3, 1)
    with pytest.raises(ValueError):
        parse_genspec("moebius:3")


def _same_level(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("d", [
    gen_binary_tree(11, 0.5),
    gen_pascal(30, 2.0),
    gen_stationary([[1, 1], [1, 0]], 5, 2.0),
    gen_bottleneck([1, 3, 600, 700, 4], 5),
    gen_ladder(5, 2.5),
    gen_binary_tree_radial(9, 2.0, 3),
], ids=["tree", "pascal", "stationary", "bottleneck", "ladder", "radial"])
def test_round_trip_reproduces_generator_levels(d):
    # conductances with at most 12 significant digits survive the text format
    d2 = parse_diagram(format_diagram(d))
    assert d2.level_sizes == d.level_sizes
    for a, b in zip(level_matrices(d), level_matrices(d2)):
        assert _same_level(a, b)


def _adversarial_floats():
    """Values where a 12-digit rounding is easy to get wrong: powers of ten
    and their neighbours (ulps apart) at every exponent, mantissas next to
    1e11 and 1e12 and next to a tie, exact decimal ties, subnormals, the
    extremes, signed zeros, infinities and nan, short decimals, random
    bit patterns; and all of them negated."""
    rng = np.random.default_rng(14)
    pows = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [pows]
    up, down = pows, pows
    for _ in range(6):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        near += [up, down]
    scale = 10.0 ** np.arange(-300, 298, 3).astype(float)
    mantissas = np.array([999999999999.5, 999999999999.49, 999999999999.51, 99999999999.95,
                          100000000000.5, 123456789012.5, 123456789012.4999, 999999999999.0])
    edges = (mantissas[:, None] / 1e11 * scale[None, :]).ravel()
    ties = (rng.integers(10**11, 10**12, 2000) + 0.5) * 10.0 ** rng.integers(-280, 280, 2000)
    exact_ties = (rng.integers(10**11, 10**12, 2000) * 10 + 5).astype(float)    # < 2**53
    bits = rng.integers(0, 2**63, 20000, dtype=np.int64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 500, dtype=np.int64).view(np.float64)
    special = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 0.5, 1.0, 1e-5, 1e-4, 9.99999999999e-5,
                        99999999999.99, 999999999999.9, 1e16, 2.0**53])
    decimals = rng.integers(0, 10**7, 5000) / 1000
    x = np.concatenate(near + [edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0),
                               ties, exact_ties, bits, subnormal, special, decimals])
    return np.concatenate([x, -x])


def test_line_writer_matches_python_format_byte_for_byte():
    x = _adversarial_floats()
    rng = np.random.default_rng(15)
    n = rng.integers(0, 30, x.size)
    i = rng.integers(0, 3, x.size) * 10 ** rng.integers(0, 18, x.size)   # 0 to 2e17
    text = _lines("head\n", " ", [("e", n[:5], i[:5], x[:5]), ("e", n[5:5], i[5:5], x[5:5]),
                                  ("e", n[5:], i[5:], x[5:])])
    assert text == "head\n" + "".join(f"e {a} {b} {v:.12g}\n"
                                      for a, b, v in zip(n.tolist(), i.tolist(), x.tolist()))


def test_line_writer_matches_a_joined_reference_in_every_field_layout():
    # a text field, a byte-string column, floats that are not last, an
    # integer last (its row needs a word for the newline), an empty part and
    # a block boundary inside a part
    rng = np.random.default_rng(17)
    x, y = rng.permutation(_adversarial_floats()).reshape(2, -1)[:, :3 * _BLOCK]
    x[:5] = [np.nan, -np.inf, -0.0, 1e-320, -1234567890125.0]    # formatted by Python
    k = rng.integers(0, 10**12, x.size)
    q = rng.choice(np.array([b"G", b"F", b"U", b"abcdef"]), x.size)
    cut = [0, 5, 5, _BLOCK + 9, x.size]
    parts = [("0,x", q[a:b], x[a:b], y[a:b], k[a:b]) for a, b in zip(cut, cut[1:])]
    text = _lines("h\n", ",", parts)
    assert text == "h\n" + "".join(
        ",".join(["0,x", s.decode(), f"{u:.12g}", f"{v:.12g}", str(m)]) + "\n"
        for s, u, v, m in zip(q.tolist(), x.tolist(), y.tolist(), k.tolist()))


def test_function_writer_matches_per_entry_format_across_blocks():
    # levels that are empty, cross a block boundary, and hold values that
    # the fast path leaves to Python (ties, inf, nan)
    rng = np.random.default_rng(16)
    tail = np.array([0.5, 1234567890125.0, -0.0, np.inf, np.nan, 1e-320])
    f = LevelFunction([np.zeros(3), rng.standard_normal(_BLOCK + 7) * 1e3, np.zeros(0),
                       np.concatenate([rng.random(_BLOCK - 2), tail]), np.zeros(5)])
    want = "fn v1\n" + "".join(f"{n} {i} {v[i]:.12g}\n" for n, v in enumerate(f.values)
                               for i in np.flatnonzero(v))
    assert format_function(f) == want


def test_pascal300_diagram_round_trips_byte_for_byte():
    # lambda^n reaches 1e52, so the values take every layout of the writer
    d = gen_pascal(300, 1.5)
    text = format_diagram(d)
    want = [f"bratteli v1\nlevels 301 : {' '.join(map(str, d.level_sizes))}\n"]
    for n, c in enumerate(level_matrices(d)):
        coo = sp.csr_matrix((c.data, c.indices, c.indptr), shape=c.shape).tocoo()
        want += [f"e {n} {i} {j} {v:.12g}\n"
                 for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())]
    assert text == "".join(want)
    assert format_diagram(parse_diagram(text)) == text


# Each reader test runs on both reading paths: on the text as it is (the bulk
# read takes every well-formed body) and with _table refusing every body, so
# that the per-line tokenizer reads it.  The first path keeps the test's id.
READ_PATHS = [("", True), ("-per-line", False)]


def _read_path(monkeypatch, bulk):
    if not bulk:
        monkeypatch.setattr(fileio, "_table", lambda data, pos, dtype: None)


FIRST_BAD_LINES = [
    ("e 0 0 5 1\ne 0 0\n", "edge (0,0,5) out of range"),
    ("e 0 0\ne 0 0 5 1\n", "malformed edge line: 'e 0 0'"),
    ("e 0 0 0 1\ne 0 0 0 1\ne 7 0 x 1\n", "duplicate edge (0,0,0)"),
    ("e 7 0 0 1\ne 0 0 x 1\n", "edge level 7 out of range"),
    ("e 0 0 x 1\ne 7 0 0 1\n", "invalid literal for int() with base 10: 'x'"),
    ("e 7 0 9 1\n", "edge level 7 out of range"),
    ("e 0 0 9 y\n", "could not convert string to float: 'y'"),
    ("e 0 0 0 1\ne 0 0 1 1\ne 1 0 0 1\ne 1 1 0 1\ne 99999999999999999999 0 0 1\n",
     "edge level 99999999999999999999 out of range"),
]


@pytest.mark.parametrize("edges, message, bulk", [
    pytest.param(edges, message, bulk, id=f"{edges}-{message}{suffix}")
    for suffix, bulk in READ_PATHS for edges, message in FIRST_BAD_LINES
])
def test_first_bad_line_is_reported(edges, message, bulk, monkeypatch):
    _read_path(monkeypatch, bulk)
    with pytest.raises(ValueError) as info:
        parse_diagram("bratteli v1\nlevels 3 : 1 2 2\n" + edges)
    assert str(info.value) == message


# Reader parity: each case's parse as it was before the readers read bodies
# in bulk, when every body went through the per-line path.  The expected
# value is the parsed result's repr, or the exact ValueError.
D = "bratteli v1\nlevels 3 : 1 2 2\n"
F = "fn v1\n"
G = "graph v1\nv 4\n"

DIAGRAM_PARITY = [
    ('comments', '# top\nbratteli v1 # header\nlevels 3 : 1 2 2 # sizes\ne 0 0 0 1 # edge\n# only a comment\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('blank-lines', '\n\nbratteli v1\n\n  \nlevels 3 : 1 2 2\n\ne 0 0 0 1\n\n\t\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('tabs-and-runs', D + '  e\t0   0\t\t0  1.5  \ne 0 0 1 2\n\te 1 0 0 3\ne 1 1 1 4\t\n',
     '((1, 2, 2), [(0, 0, 0, 1.5), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('crlf', (D + 'e 0 0 0 1\ne 0 0 1 2\ne 1 0 0 3 # c\ne 1 1 1 4\n').replace('\n', '\r\n'),
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('lone-cr-after-comment', D + 'e 0 0 0 1 # c\re 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('formfeed-break', D + 'e 0 0 0 1\x0ce 0 0 1 2\ne 1 0 0 3\x0ce 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('formfeed-after-comment', D + 'e 0 0 0 1 # c\x0ce 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('formfeed-splits-a-line', D + 'e 0 0 0 1\ne 0 0\x0c1 2\n',
     ValueError("malformed edge line: 'e 0 0'")),
    ('u2028-break', D + 'e 0 0 0 1\u2028e 0 0 1 2\u2028e 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('u2028-after-comment', D + 'e 0 0 0 1 # c\u2028e 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('nbsp-separator', D + 'e 0 0 0\xa01\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('ee', D + 'e 0 0 0 1\nee 0 0 1 2\n',
     ValueError("malformed edge line: 'ee 0 0 1 2'")),
    ('eee', D + 'e 0 0 0 1\neee 0 0 1 2\n',
     ValueError("malformed edge line: 'eee 0 0 1 2'")),
    ('no-e', D + 'e 0 0 0 1\n0 0 1 2 5\n',
     ValueError("malformed edge line: '0 0 1 2 5'")),
    ('float-index', D + 'e 0 0 0 1\ne 0 0 1.0 2\n',
     ValueError("invalid literal for int() with base 10: '1.0'")),
    ('20-digit-index', D + 'e 0 0 0 1\ne 0 0 99999999999999999999 2\n',
     ValueError('edge (0,0,99999999999999999999) out of range')),
    ('20-digit-level', D + 'e 99999999999999999999 0 0 1\n',
     ValueError('edge level 99999999999999999999 out of range')),
    ('underscore-index-in-range', D + 'e 0 0 0 1\ne 0 0 0_1 2\ne 1 0 0 1_0\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 10.0), (1, 1, 1, 4.0)])'),
    ('underscore-index-out-of-range', D + 'e 0 0 0 1\ne 0 0 1_000 2\n',
     ValueError('edge (0,0,1000) out of range')),
    ('plus-signs', D + 'e +0 +0 +0 +5\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 +1 4\n',
     '((1, 2, 2), [(0, 0, 0, 5.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('minus-zero-index', D + 'e -0 0 0 1\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('unicode-digit', D + 'e 0 0 0 1\ne 0 0 ١ 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('nan-and-1e400', D + 'e 0 0 0 nan\ne 0 0 1 1e400\ne 1 0 0 -inf\ne 1 1 1 1e-400\n',
     '((1, 2, 2), [(0, 0, 0, nan), (0, 0, 1, inf), (1, 0, 0, -inf)])'),
    ('hex-float', D + 'e 0 0 0 0x1p3\n',
     ValueError("could not convert string to float: '0x1p3'")),
    ('nul', D + 'e 0 0 0 1\x00\n',
     ValueError("could not convert string to float: '1\\x00'")),
    ('nul-after-e', D + 'e 0 0 0 1\ne\x00 0 0 1 2\n',
     ValueError("malformed edge line: 'e\\x00 0 0 1 2'")),
    ('unit-separator-and-nbsp-lines', D + 'e\x1f0 0 0 1\n\xa0\n\x1f\ne 0 0 1 2\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('six-fields', D + 'e 0 0 0 1\ne 0 0 1 2 3\n',
     ValueError("malformed edge line: 'e 0 0 1 2 3'")),
    ('four-fields', D + 'e 0 0 0 1\ne 0 0 1\n',
     ValueError("malformed edge line: 'e 0 0 1'")),
    ('duplicate', D + 'e 0 0 0 1\ne 1 0 0 3\ne 0 0 0 2\n',
     ValueError('duplicate edge (0,0,0)')),
    ('unsorted', D + 'e 1 1 1 4\ne 0 0 1 2\ne 1 0 0 3\ne 0 0 0 1\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('zero-conductance', D + 'e 0 0 0 1\ne 0 0 1 0\ne 1 0 0 3\ne 1 1 1 4\n',
     '((1, 2, 2), [(0, 0, 0, 1.0), (1, 0, 0, 3.0), (1, 1, 1, 4.0)])'),
    ('no-edges', 'bratteli v1\nlevels 1 : 1\n',
     '((1,), [])'),
    ('no-levels-with-an-edge', 'bratteli v1\nlevels 0 :\ne 0 0 0 1\n',
     ValueError('edge level 0 out of range')),
    ('no-levels', 'bratteli v1\nlevels 0 :\n',
     ValueError('level_sizes must start with the singleton root level')),
    ('too-few-edge-lines', D + 'e 0 0 0 1\n',
     ValueError('a level of 2 vertices needs at least as many edge lines; the file has 1')),
    ('size-beyond-int64', 'bratteli v1\nlevels 2 : 1 99999999999999999999\ne 0 0 0 1\n',
     ValueError('level size too large')),
    # The rules run on int64 columns, where a level size beyond int64 is
    # capped: a row with an index at or beyond the cap, in range of the true
    # size, reports the level size.
    ('index-beyond-int64-on-a-level-beyond-int64',
     'bratteli v1\nlevels 2 : 1 99999999999999999999\ne 0 0 99999999999999999998 1\n',
     ValueError('level size too large')),
    ('int64-max-index-on-a-level-beyond-int64',
     'bratteli v1\nlevels 2 : 1 99999999999999999999\ne 0 0 9223372036854775807 1\n',
     ValueError('level size too large')),
    # Two bad lines: such a row is reported before the later one.
    ('index-beyond-int64-on-a-level-beyond-int64-then-a-bad-line',
     'bratteli v1\nlevels 2 : 1 99999999999999999999\ne 0 0 99999999999999999998 1\ne 0 1 0 1\n',
     ValueError('level size too large')),
    ('bom', '\ufeffbratteli v1\nlevels 2 : 1 1\ne 0 0 0 1\n',
     ValueError("expected 'bratteli v1' header")),
]

FUNCTION_PARITY = [
    ('comments', '# top\nfn v1 # header\n1 0 2.5 # entry\n# only\n2 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('blank-lines', '\n\nfn v1\n\n \n1 0 2.5\n\n\t\n2 2 -1\n\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('tabs-and-runs', F + '  1\t0   2.5  \n\t2 2\t\t-1\t\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('crlf', (F + '1 0 2.5 # c\n2 2 -1\n').replace('\n', '\r\n'),
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('lone-cr-after-comment', F + '1 0 2.5 # c\r2 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('formfeed-break', F + '1 0 2.5\x0c2 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('formfeed-after-comment', F + '1 0 2.5 # c\x0c2 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('u2028-break', F + '1 0 2.5\u20282 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('u2028-after-comment', F + '1 0 2.5 # c\u20282 2 -1\n',
     '[[0.0], [2.5, 0.0], [0.0, 0.0, -1.0]]'),
    ('e-prefix', F + 'e 1 0\n',
     ValueError("invalid literal for int() with base 10: 'e'")),
    ('float-index', F + '1 0 2.5\n2 1.0 3\n',
     ValueError("invalid literal for int() with base 10: '1.0'")),
    ('20-digit-index', F + '1 0 2.5\n2 99999999999999999999 3\n',
     ValueError('entry (2,99999999999999999999) out of range')),
    ('underscore-index-in-range', F + '1 0_1 2.5\n2 2 1_0\n',
     '[[0.0], [0.0, 2.5], [0.0, 0.0, 10.0]]'),
    ('underscore-index-out-of-range', F + '1 0 2.5\n2 1_000 3\n',
     ValueError('entry (2,1000) out of range')),
    ('plus-signs', F + '+1 +0 +5\n',
     '[[0.0], [5.0, 0.0], [0.0, 0.0, 0.0]]'),
    ('unicode-digit', F + '1 ١ 2.5\n',
     '[[0.0], [0.0, 2.5], [0.0, 0.0, 0.0]]'),
    ('nan-and-1e400', F + '1 0 nan\n1 1 1e400\n2 0 -inf\n2 1 1e-400\n',
     '[[0.0], [nan, inf], [-inf, 0.0, 0.0]]'),
    ('repeated-entry-last-wins', F + '1 0 2.5\n2 2 -1\n1 0 7\n1 0 8\n',
     '[[0.0], [8.0, 0.0], [0.0, 0.0, -1.0]]'),
    ('zero-entry-overwrites', F + '1 0 2.5\n1 0 0\n',
     '[[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]]'),
    ('two-fields', F + '1 0 2.5\n2 2\n',
     ValueError("malformed function line: '2 2'")),
    ('four-fields', F + '1 0 2.5\n2 2 1 1\n',
     ValueError("malformed function line: '2 2 1 1'")),
    ('level-out-of-range', F + '1 0 2.5\n3 0 1\n1 9 1\n',
     ValueError('entry (3,0) out of range')),
    ('index-out-of-range', F + '1 0 2.5\n1 2 1\n',
     ValueError('entry (1,2) out of range')),
    ('negative-index', F + '1 -1 2.5\n',
     ValueError('entry (1,-1) out of range')),
    ('bad-value', F + '1 0 x\n9 0 1\n',
     ValueError("could not convert string to float: 'x'")),
    ('no-entries', F,
     '[[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]]'),
    ('no-header', '1 0 2.5\n',
     ValueError("expected 'fn v1' header")),
]

GRAPH_PARITY = [
    ('comments', '# top\ngraph v1 # header\nv 4 # count\ne 0 1 2.5 # edge\n# only\ne 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('blank-lines', '\n\ngraph v1\n\n \nv 4\n\ne 0 1 2.5\n\n\t\ne 1 2 1\ne 2 3 0.5\n\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('tabs-and-runs', G + '  e\t0   1\t\t2.5  \n\te 1 2 1\ne 2 3 0.5\t\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('crlf', (G + 'e 0 1 2.5\ne 1 2 1 # c\ne 2 3 0.5\n').replace('\n', '\r\n'),
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('lone-cr-after-comment', G + 'e 0 1 2.5 # c\re 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('formfeed-break', G + 'e 0 1 2.5\x0ce 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('formfeed-after-comment', G + 'e 0 1 2.5 # c\x0ce 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('u2028-break', G + 'e 0 1 2.5\u2028e 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('u2028-after-comment', G + 'e 0 1 2.5 # c\u2028e 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('ee', G + 'e 0 1 2.5\nee 1 2 1\n',
     ValueError("malformed edge line: 'ee 1 2 1'")),
    ('nul-after-e', G + 'e 0 1 2.5\ne\x00 1 2 1\n',
     ValueError("malformed edge line: 'e\\x00 1 2 1'")),
    ('float-index', G + 'e 0 1 2.5\ne 1 2.0 1\n',
     ValueError("invalid literal for int() with base 10: '2.0'")),
    ('20-digit-index', G + 'e 0 1 2.5\ne 1 99999999999999999999 1\n',
     ValueError('edge (1,99999999999999999999) outside vertex range')),
    ('underscore-index-in-range', G + 'e 0 0_1 2.5\ne 1 2 1_0\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 10.0), (2, 3, 0.5)])'),
    ('underscore-index-out-of-range', G + 'e 0 1 2.5\ne 1 1_000 1\n',
     ValueError('edge (1,1000) outside vertex range')),
    ('plus-signs', G + 'e +0 +1 +5\ne 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('unicode-digit', G + 'e 0 ١ 2.5\ne 1 2 1\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('nan-and-1e400', G + 'e 0 1 nan\ne 1 2 1e400\ne 2 3 0.5\n',
     ValueError('edge (0,1) has non-finite conductance')),
    ('mixed-3-and-4-fields', G + 'e 0 1 2.5\ne 1 2\ne 2 3 0.5\n',
     '(4, [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.5)])'),
    ('all-3-fields', G + 'e 0 1\ne 1 2\ne 2 3\n',
     '(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])'),
    ('two-fields', G + 'e 0 1 2.5\ne 1\n',
     ValueError("malformed edge line: 'e 1'")),
    ('bad-edge-then-malformed', G + 'e 0 0 1\ne 1\n',
     ValueError("malformed edge line: 'e 1'")),
    ('loop-before-conductance', G + 'e 0 1 2.5\ne 2 2 -1\n',
     ValueError('loop at vertex 2')),
    ('range-before-conductance', G + 'e 0 9 -1\n',
     ValueError('edge (0,9) outside vertex range')),
    ('first-bad-edge-in-file-order', G + 'e 0 1 1\ne 1 2 -1\ne 3 3 1\ne 9 1 1\n',
     ValueError('edge (1,2) has nonpositive conductance')),
    ('conductance-before-duplicate', G + 'e 0 1 1\ne 1 0 inf\n',
     ValueError('edge (1,0) has non-finite conductance')),
    ('duplicate-before-loop', G + 'e 2 3 1\ne 3 2 1\ne 1 1 1\n',
     ValueError('duplicate edge (3,2)')),
    ('20-digit-loop', G + 'e 0 1 2.5\ne 99999999999999999999 99999999999999999999 1\n',
     ValueError('loop at vertex 99999999999999999999')),
    ('20-digit-ends', G + 'e 0 1 2.5\ne 99999999999999999999 99999999999999999998 1\n',
     ValueError('edge (99999999999999999999,99999999999999999998) outside vertex range')),
    ('five-fields', G + 'e 0 1 2.5\ne 1 2 1 1\n',
     ValueError("malformed edge line: 'e 1 2 1 1'")),
    # Two bad fields: the per-line parse converted the conductance first and
    # reported 'y'; the one tokenizer converts from left to right.
    ('bad-index-and-conductance', G + 'e x 1 y\n',
     ValueError("invalid literal for int() with base 10: 'x'")),
    ('range-then-malformed', G + 'e 0 9 2.5\ne 1\n',
     ValueError("malformed edge line: 'e 1'")),
    ('out-of-range', G + 'e 0 1 2.5\ne 1 9 1\n',
     ValueError('edge (1,9) outside vertex range')),
    ('loop', G + 'e 0 1 2.5\ne 2 2 1\n',
     ValueError('loop at vertex 2')),
    ('nonpositive', G + 'e 0 1 2.5\ne 1 2 -1\n',
     ValueError('edge (1,2) has nonpositive conductance')),
    ('zero-conductance', G + 'e 0 1 0\n',
     ValueError('edge (0,1) has nonpositive conductance')),
    ('duplicate', G + 'e 0 1 2.5\ne 1 0 1\n',
     ValueError('duplicate edge (1,0)')),
    ('inf-conductance', G + 'e 0 1 inf\n',
     ValueError('edge (0,1) has non-finite conductance')),
    ('minus-inf-conductance', G + 'e 0 1 -inf\n',
     ValueError('edge (0,1) has nonpositive conductance')),
    ('no-edges', G,
     '(4, [])'),
]


def _parsed(kind, text):
    if kind == "diagram":
        d = parse_diagram(text)
        return repr((d.level_sizes, list(zip(*(a.tolist() for a in d.table.entries())))))
    if kind == "function":
        return repr([v.tolist() for v in parse_function(text, gen_pascal(2, 1.0)).values])
    g = parse_graph(text)
    return repr((g.num_vertices, list(zip(g.i.tolist(), g.j.tolist(), g.c.tolist()))))


@pytest.mark.parametrize("kind, text, expected, bulk", [
    pytest.param(kind, text, expected, bulk, id=f"{kind}-{name}{suffix}")
    for suffix, bulk in READ_PATHS
    for kind, table in (("diagram", DIAGRAM_PARITY), ("function", FUNCTION_PARITY),
                        ("graph", GRAPH_PARITY))
    for name, text, expected in table
])
def test_readers_match_the_per_line_parse(kind, text, expected, bulk, monkeypatch):
    _read_path(monkeypatch, bulk)
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            _parsed(kind, text)
        assert str(info.value) == str(expected)
    else:
        assert _parsed(kind, text) == expected


@pytest.mark.parametrize("seed", range(4))
def test_graph_bulk_read_matches_the_per_line_read(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 50
    pairs = {tuple(sorted(p)) for p in rng.integers(n, size=(120, 2)).tolist() if p[0] != p[1]}
    rows = [f"e {i} {j} {c:.6g}" if rng.random() < 0.7 else f"\te  {j}\t{i}  {c!r}  # note"
            for (i, j), c in zip(pairs, rng.uniform(0.1, 9, len(pairs)).tolist())]
    text = f"graph v1\n# {seed}\nv {n}\n\n" + "\n".join(rows) + "\n"
    lines, data, pos = fileio._split(text, 2)
    assert fileio._table(data, pos, fileio._GRAPH_EDGE) is not None     # the bulk path
    g = parse_graph(text)
    _read_path(monkeypatch, bulk=False)
    h = parse_graph(text)
    assert (g.i.tolist(), g.j.tolist(), g.c.tolist()) == (h.i.tolist(), h.j.tolist(), h.c.tolist())
    assert g.num_vertices == h.num_vertices == n


def _main_in_child(argv):
    """`bharm <argv>` in a fresh interpreter: (process, peak RSS in MB).

    The peak is VmHWM, the high-water mark of the child's own address space.
    ru_maxrss is no measure here: on Linux it keeps the peak of the process
    that forked the child, so it would read this test run's own memory.
    """
    child = ("import resource, sys\n"
             "from bharm.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "try:\n"
             "    with open('/proc/self/status') as fh:\n"
             "        kib = [l.split()[1] for l in fh if l.startswith('VmHWM:')][0]\n"
             "except OSError:\n"
             "    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(kib, file=sys.stderr)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, timeout=120)
    return proc, int(proc.stderr.split()[-1]) / 1024


def test_validate_tree16_file_in_linear_memory(tmp_path):
    path = tmp_path / "tree16.bd"
    path.write_text(format_diagram(gen_binary_tree(16, 2.0)))
    proc, rss_mb = _main_in_child(["validate", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid: 17 levels")
    assert rss_mb < 400


def test_validate_pascal600_file_in_linear_memory(tmp_path):
    # 180,600 edges on 601 levels of at most 601 vertices each
    path = tmp_path / "pascal600.bd"
    path.write_text(format_diagram(gen_pascal(600, 1.0)))
    proc, rss_mb = _main_in_child(["validate", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid: 601 levels, 180901 vertices")
    assert rss_mb < 400


def test_validate_pascal1000_file_reads_its_body_in_bulk(tmp_path):
    # 1,001,000 edge lines (15.6 MB).  The bulk read peaks at 132 MB, 155 MB
    # when it copied every edge column through the mask of nonzero
    # conductances; one Python string per field, as str.split of the body
    # made, at 460 MB
    path = tmp_path / "pascal1000.bd"
    path.write_text(format_diagram(gen_pascal(1000, 1.0)))
    proc, rss_mb = _main_in_child(["validate", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid: 1001 levels, 501501 vertices")
    assert rss_mb < 132 * 1.15


def test_gen_pascal1000_writes_its_body_in_blocks(tmp_path):
    # 1,001,000 edge lines (32 MB).  Formatting in blocks of rows peaked at
    # 151 MB, below the 154 MB of one f-string per edge; formatting all
    # levels' columns at once peaked at 205 MB
    out = tmp_path / "pascal1000.bd"
    proc, rss_mb = _main_in_child(["gen", "pascal:1000:1.5", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        assert sum(1 for _ in fh) == 2 + 1001000
    assert rss_mb < 151 * 1.15


def test_dimension_of_tree16_in_linear_memory():
    # a dense 2^15 x 2^16 level matrix alone would take 17 GB
    proc, rss_mb = _main_in_child(["dimension", "--diagram", "tree:16:2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "prefix dimension at level 16: 65535"
    assert rss_mb < 200


def test_green_on_tree16_keeps_the_factor_workspace_small(tmp_path):
    # one LU of 65,535 unknowns: about 83 MB with one-column supernode
    # panels, about 105 MB with SuperLU's default panel workspace
    out = tmp_path / "g.csv"
    proc, rss_mb = _main_in_child(["green", "--diagram", "tree:16:2", "--vertices",
                                   "0,0;3,5;7,100;10,500;14,9000;15,20000", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 2 * 36 + 6
    assert rss_mb < 83 * 1.15


def test_level_larger_than_the_edge_lines_is_rejected_before_allocation(tmp_path):
    path = tmp_path / "huge.bd"
    path.write_text("bratteli v1\nlevels 3 : 1 3000000000 3000000000\n")
    proc, rss_mb = _main_in_child(["validate", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[0] == (
        "error: a level of 3000000000 vertices needs at least as many edge lines; "
        "the file has 0")
    assert rss_mb < 200
