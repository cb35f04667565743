"""Text formats: diagram files, general-graph files, level-function files,
and generator shorthand strings.

Diagram file (UTF-8, line oriented):
    bratteli v1
    levels <k> : <s_0> <s_1> ... <s_{k-1}>
    e <n> <i> <j> <c>        # edge between vertex i of V_n and j of V_{n+1}

Graph file:
    graph v1
    v <count>
    e <i> <j> <c>

Function file:
    fn v1
    <n> <i> <value>          # unlisted entries are zero

Numbers are written with 12 significant digits and a '.' decimal separator.

Reading a diagram file costs time and memory linear in the number of edges:
each level is built straight from its edge lines.  A level larger than
max(1, number of edge lines) is rejected before it is allocated: every vertex
past the one-vertex root needs an incoming edge.  An edge line with
conductance 0 is dropped (the pair is a non-edge); any other conductance
makes an edge, so a negative one is reported by validate() as a positivity
violation.
"""
from __future__ import annotations

import numpy as np

from ._matops import level_matrix
from .diagram import (
    Diagram,
    GeneralGraph,
    gen_binary_tree,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
    make_diagram,
)
from .operators import LevelFunction

FMT = "{:.12g}"


def _clean_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_diagram(text: str) -> Diagram:
    lines = list(_clean_lines(text))
    if not lines or lines[0] != "bratteli v1":
        raise ValueError("expected 'bratteli v1' header")
    if len(lines) < 2 or not lines[1].startswith("levels"):
        raise ValueError("expected 'levels <k> : <sizes>' line")
    head, _, sizes_part = lines[1].partition(":")
    if len(head.split()) < 2:
        raise ValueError("expected 'levels <k> : <sizes>' line")
    k = int(head.split()[1])
    sizes = [int(s) for s in sizes_part.split()]
    if len(sizes) != k:
        raise ValueError(f"levels line announces {k} sizes but lists {len(sizes)}")
    if any(s <= 0 for s in sizes):
        raise ValueError("degenerate level of size 0")
    edges = _edge_arrays(lines[2:], sizes)
    if edges is None:
        _raise_first_edge_error(lines[2:], sizes)
    if max(sizes) > max(len(lines) - 2, 1):
        raise ValueError(f"a level of {max(sizes)} vertices needs at least as many "
                         f"edge lines; the file has {len(lines) - 2}")
    n, i, j, c = edges
    bounds = np.searchsorted(n, np.arange(len(sizes)))
    mats = [level_matrix((sizes[m], sizes[m + 1]), i[lo:hi], j[lo:hi], c[lo:hi])
            for m, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]
    return make_diagram(sizes, mats)


def _edge_arrays(lines, sizes):
    """Edge lines as arrays (n, i, j, c) sorted by (n, i, j), or None when
    any line is malformed, fails conversion, is out of range or repeats an
    edge."""
    body = "\n".join(lines)
    tokens = body.split()
    # Every line starts with an 'e' token, which no int() or float() accepts,
    # so once the numeric columns convert, each 'e' sits at a multiple of 5
    # and every line has exactly five fields.
    count = len(lines)
    if (len(tokens) != 5 * count or tokens[0::5].count("e") != count
            or ("\n" + body).count("\ne") != count):
        return None
    try:
        n, i, j = (np.array(list(map(int, tokens[k::5])), dtype=np.int64) for k in (1, 2, 3))
        c = np.array(list(map(float, tokens[4::5])), dtype=float)
        size = np.array(sizes, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if ((n < 0) | (n >= len(sizes) - 1)).any():
        return None
    if ((i < 0) | (i >= size[n]) | (j < 0) | (j >= size[n + 1])).any():
        return None
    order = np.lexsort((j, i, n))
    n, i, j, c = n[order], i[order], j[order], c[order]
    if ((n[1:] == n[:-1]) & (i[1:] == i[:-1]) & (j[1:] == j[:-1])).any():
        return None
    return n, i, j, c


def _raise_first_edge_error(lines, sizes):
    """Raise the error of the first bad edge line in file order, checking a
    line for shape, number conversion, level range, index range and repeat,
    in that order; with no bad line, the level sizes overflow int64."""
    seen = set()
    for line in lines:
        parts = line.split()
        if parts[0] != "e" or len(parts) != 5:
            raise ValueError(f"malformed edge line: {line!r}")
        n, i, j = int(parts[1]), int(parts[2]), int(parts[3])
        float(parts[4])
        if not (0 <= n < len(sizes) - 1):
            raise ValueError(f"edge level {n} out of range")
        if not (0 <= i < sizes[n] and 0 <= j < sizes[n + 1]):
            raise ValueError(f"edge ({n},{i},{j}) out of range")
        if (n, i, j) in seen:
            raise ValueError(f"duplicate edge ({n},{i},{j})")
        seen.add((n, i, j))
    raise ValueError("level size too large")


def format_diagram(d: Diagram) -> str:
    sizes = d.level_sizes
    out = ["bratteli v1",
           f"levels {len(sizes)} : " + " ".join(str(s) for s in sizes)]
    for n, i, j, c in d.edges():
        out.append(f"e {n} {i} {j} " + FMT.format(c))
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> GeneralGraph:
    lines = list(_clean_lines(text))
    if not lines or lines[0] != "graph v1":
        raise ValueError("expected 'graph v1' header")
    if len(lines) < 2 or not lines[1].startswith("v "):
        raise ValueError("expected 'v <count>' line")
    count = int(lines[1].split()[1])
    edges = []
    for line in lines[2:]:
        parts = line.split()
        if parts[0] != "e" or len(parts) not in (3, 4):
            raise ValueError(f"malformed edge line: {line!r}")
        c = float(parts[3]) if len(parts) == 4 else 1.0
        edges.append((int(parts[1]), int(parts[2]), c))
    return GeneralGraph(count, edges)


def format_graph(g: GeneralGraph) -> str:
    out = ["graph v1", f"v {g.num_vertices}"]
    for i, j, c in g.edges:
        out.append(f"e {i} {j} " + FMT.format(c))
    return "\n".join(out) + "\n"


def parse_function(text: str, d: Diagram) -> LevelFunction:
    lines = list(_clean_lines(text))
    if not lines or lines[0] != "fn v1":
        raise ValueError("expected 'fn v1' header")
    f = LevelFunction.zeros(d)
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed function line: {line!r}")
        n, i, v = int(parts[0]), int(parts[1]), float(parts[2])
        if not (0 <= n < len(f.values) and 0 <= i < f.values[n].shape[0]):
            raise ValueError(f"entry ({n},{i}) out of range")
        f.values[n][i] = v
    return f


def format_function(f: LevelFunction, skip_zeros: bool = True) -> str:
    out = ["fn v1"]
    for n, v in enumerate(f.values):
        for i, val in enumerate(v):
            if skip_zeros and val == 0.0:
                continue
            out.append(f"{n} {i} " + FMT.format(val))
    return "\n".join(out) + "\n"


def _parse_rows(spec: str) -> np.ndarray:
    rows = []
    for part in spec.split(";"):
        part = part.strip()
        if "," in part or " " in part:
            rows.append([float(x) for x in part.replace(",", " ").split()])
        else:
            rows.append([float(ch) for ch in part])
    return np.array(rows)


def parse_genspec(spec: str) -> Diagram:
    """Generator shorthand: tree:<depth>:<lam>, pascal:<depth>:<lam>,
    stationary:<A-rows;semicolon-separated>:<depth>:<lam>,
    ladder:<depth>[:<c>], bottleneck:<sizes-dash-separated>:<seed>."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "tree" and len(parts) == 3:
            return gen_binary_tree(int(parts[1]), float(parts[2]))
        if kind == "pascal" and len(parts) == 3:
            return gen_pascal(int(parts[1]), float(parts[2]))
        if kind == "stationary" and len(parts) == 4:
            return gen_stationary(_parse_rows(parts[1]), int(parts[2]), float(parts[3]))
        if kind == "ladder" and len(parts) in (2, 3):
            c = float(parts[2]) if len(parts) == 3 else 1.0
            return gen_ladder(int(parts[1]), c)
        if kind == "bottleneck" and len(parts) == 3:
            profile = [int(s) for s in parts[1].split("-")]
            return gen_bottleneck(profile, int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator spec {spec!r}")


def load_diagram(source: str) -> Diagram:
    """Parse a generator shorthand, else read the path as a diagram file."""
    if ":" in source and not source.endswith((".txt", ".bd", ".diagram")):
        try:
            return parse_genspec(source)
        except ValueError:
            pass
    with open(source, "r", encoding="utf-8") as fh:
        return parse_diagram(fh.read())
