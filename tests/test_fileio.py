import subprocess
import sys

import numpy as np
import pytest

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
from bharm.fileio import (
    format_diagram,
    format_function,
    format_graph,
    parse_diagram,
    parse_function,
    parse_genspec,
    parse_graph,
)


def test_diagram_round_trip():
    d = gen_binary_tree(4, 2.0)
    d2 = parse_diagram(format_diagram(d))
    assert d2.level_sizes == d.level_sizes
    for a, b in zip(d.conductance, d2.conductance):
        assert np.allclose(a.toarray(), b.toarray())
    assert validate(d2) == []


def test_diagram_header_required():
    with pytest.raises(ValueError):
        parse_diagram("levels 2 : 1 2\ne 0 0 0 1\n")


def test_duplicate_edge_rejected():
    text = "bratteli v1\nlevels 2 : 1 2\ne 0 0 0 1\ne 0 0 0 2\ne 0 0 1 1\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_diagram(text)


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


def test_graph_round_trip():
    from bharm.diagram import GeneralGraph
    g = GeneralGraph(4, [(0, 1, 2.0), (1, 2), (2, 3, 0.5)])
    g2 = parse_graph(format_graph(g))
    assert g2.num_vertices == 4
    assert g2.adj[2][3] == 0.5


def test_genspec_parsing():
    assert parse_genspec("tree:3:2").level_sizes == (1, 2, 4, 8)
    assert parse_genspec("pascal:3:1").level_sizes == (1, 2, 3, 4)
    d = parse_genspec("stationary:11;10:3:2")
    assert d.level_sizes == (1, 2, 2, 2)
    assert np.allclose(d.conductance[2].toarray(), [[4, 4], [4, 0]])
    d2 = parse_genspec("stationary:1,1;1,0:3:2")
    assert np.allclose(d2.conductance[2].toarray(), d.conductance[2].toarray())
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
    for a, b in zip(d.conductance + d.incidence, d2.conductance + d2.incidence):
        assert _same_level(a, b)


@pytest.mark.parametrize("edges, message", [
    ("e 0 0 5 1\ne 0 0\n", "edge (0,0,5) out of range"),
    ("e 0 0\ne 0 0 5 1\n", "malformed edge line: 'e 0 0'"),
    ("e 0 0 0 1\ne 0 0 0 1\ne 7 0 x 1\n", "duplicate edge (0,0,0)"),
    ("e 7 0 0 1\ne 0 0 x 1\n", "edge level 7 out of range"),
    ("e 0 0 x 1\ne 7 0 0 1\n", "invalid literal for int() with base 10: 'x'"),
    ("e 7 0 9 1\n", "edge level 7 out of range"),
    ("e 0 0 9 y\n", "could not convert string to float: 'y'"),
    ("e 0 0 0 1\ne 0 0 1 1\ne 1 0 0 1\ne 1 1 0 1\ne 99999999999999999999 0 0 1\n",
     "edge level 99999999999999999999 out of range"),
])
def test_first_bad_line_is_reported(edges, message):
    with pytest.raises(ValueError) as info:
        parse_diagram("bratteli v1\nlevels 3 : 1 2 2\n" + edges)
    assert str(info.value) == message


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
