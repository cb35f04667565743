"""Text formats: diagram files, general-graph files, level-function files,
and generator shorthand strings.

Diagram file (UTF-8, line oriented):
    bratteli v1
    levels <k> : <s_0> <s_1> ... <s_{k-1}>
    e <n> <i> <j> <c>        # edge between vertex i of V_n and j of V_{n+1}

Graph file:
    graph v1
    v <count>
    e <i> <j> [<c>]          # conductance 1 when left out

Function file:
    fn v1
    <n> <i> <value>          # unlisted entries are zero; the last repeat wins

Numbers are written as Python's format(x, '.12g') writes them: correctly
rounded to 12 significant digits, with a '.' decimal separator.  One line
writer, _lines, writes the rows of these files and of the green, walk and
energy csv tables.  It formats _BLOCK rows at a time in numpy and appends
each block's bytes to the output, so the memory it needs beyond the text
itself is fixed.  It rounds each number by one multiplication with a
correctly rounded power of ten; the few rows that this rounding cannot
decide (a fraction within 5e-4 of one half), and 0, inf, nan and numbers
outside the table, are formatted by Python (see _float_words).

The diagram, graph and function readers share one body reader, _body.
It reads the body in bulk, with one call of numpy's C tokenizer (np.loadtxt
with a record dtype: comments after '#', fields split at whitespace,
integers within int64).  A body that the bulk read refuses goes through
the one per-line tokenizer: str.splitlines, str.split, then int() and
float() from left to right, on each line in file order.  It takes what
int() and float() take and the C tokenizer does not ('1_000', non-ASCII
digits), and it stops at the first line with the wrong fields or a field
that they refuse.  Either way each reader checks its rules once, on the
columns, so a body that the bulk read takes is not read again when a row
breaks a rule.  Errors name the first bad line in file order: the first
row that breaks a rule, else the tokenizer's error.  A graph body is read
in bulk only when every edge line has its conductance; its tokenizer
error comes first, and its edges are checked by GeneralGraph, which
reports the first bad edge in file order.

Reading a diagram file costs time and memory linear in the number of edges:
the edge lines, sorted once by (level, row, col), are the diagram's edge
table (see diagram.py), and format_diagram writes that table as it is.  A
level larger than max(1, number of edge lines) is rejected before it is
allocated: every vertex past the one-vertex root needs an incoming edge.  An
edge line with conductance 0 is dropped (the pair is a non-edge); any other
conductance makes an edge, so one that is negative, NaN or infinite is
reported by validate() as a positivity violation.  A graph file's conductances must be
positive and finite (GeneralGraph checks them).
"""
from __future__ import annotations

import io
import os
import warnings

import numpy as np

from ._matops import edge_table
from .diagram import (
    Diagram,
    GeneralGraph,
    _vertex_ids,
    gen_binary_tree,
    gen_bottleneck,
    gen_ladder,
    gen_pascal,
    gen_stationary,
)
from .operators import LevelFunction

# str.splitlines' line breaks besides "\n"; numpy's tokenizer ends a line
# only at "\n" or "\r" and reads the others as spaces.
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_EDGE = [("e", "U2"), ("n", "i8"), ("i", "i8"), ("j", "i8"), ("c", "f8")]
_ENTRY = [("n", "i8"), ("i", "i8"), ("v", "f8")]
_GRAPH_EDGE = [("e", "U2"), ("i", "i8"), ("j", "i8"), ("c", "f8")]


def _clean_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _split(text: str, count: int):
    """The first `count` clean lines of text, then the body after them as
    UTF-8 bytes and the body's offset in them.  The body's only line break
    is "\n": "\r\n" becomes "\n", and a text with any other line break of
    str.splitlines is rebuilt from its clean lines."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(ch in text for ch in _BREAKS):
        lines = list(_clean_lines(text))
        return lines[:count], "\n".join(lines[count:]).encode(), 0
    header, pos = [], 0
    while len(header) < count and pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end].split("#", 1)[0].strip()
        if line:
            header.append(line)
        pos = end + 1
    return header, text.encode(), len(text[:pos].encode())


def _table(data: bytes, pos: int, dtype):
    """The body's lines as one record array, read by numpy's C tokenizer
    with the rules of _clean_lines and str.split, or None when it refuses
    them: a line with the wrong number of fields, a field it cannot convert
    (it takes no '_' digit separators, non-ASCII digits or integers beyond
    int64), an empty body, or a NUL, which it would drop from the end of a
    string field."""
    if data.find(b"\0", pos) >= 0:
        return None
    stream = io.BytesIO(data)
    stream.seek(pos)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(stream, dtype=dtype, comments="#", ndmin=1, encoding="utf-8")
        except (ValueError, Warning):
            return None


def _body(data: bytes, pos: int, dtype, what: str, optional: int = 0):
    """The body's columns, one for each field of dtype but the marker 'e',
    and the error of its first bad line, or None.  A body that _table reads,
    with every marker 'e', gives _table's columns.  Any other body goes
    through the one per-line tokenizer: str.split, then int() and float()
    from left to right, on each line in file order, into tuples.  It takes
    what numpy's tokenizer does not ('1_000', non-ASCII digits, integers
    beyond int64), and stops at the first line with the wrong fields (the
    last `optional` may be left out, and are 1) or a field that int() or
    float() refuses, with the lines before it and that line's error."""
    table = _table(data, pos, dtype)
    marked = dtype[0][0] == "e"
    fields = dtype[1:] if marked else dtype
    if table is not None and (not marked or (table["e"] == "e").all()):
        return [table[name] for name, _ in fields], None
    kinds = [int if kind == "i8" else float for _, kind in fields]
    width, rows, error = len(fields), [], None
    for line in _clean_lines(data[pos:].decode()):
        parts = line.split()
        marker = parts.pop(0) if marked else "e"
        if marker != "e" or not 0 <= width - len(parts) <= optional:
            error = ValueError(f"malformed {what} line: {line!r}")
            break
        parts += ["1"] * (width - len(parts))
        try:
            rows.append([kind(p) for kind, p in zip(kinds, parts)])
        except ValueError as exc:
            error = exc
            break
    return list(zip(*rows)) or [()] * width, error


def _ints(col) -> np.ndarray:
    """An integer column as int64: one read in bulk as it is, and a tuple of
    the tokenizer's ints through _vertex_ids, which makes an int beyond
    int64 -1, out of range as the int itself is."""
    return col if isinstance(col, np.ndarray) else _vertex_ids(col)


def parse_diagram(text: str) -> Diagram:
    """Diagram from its file text; _edges reads and checks the edge lines."""
    lines, data, pos = _split(text, 2)
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
    n, i, j, c = _edges(data, pos, sizes)
    if max(sizes, default=1) > max(n.size, 1):
        raise ValueError(f"a level of {max(sizes)} vertices needs at least as many "
                         f"edge lines; the file has {n.size}")
    if sizes[:1] != [1]:  # also a levels line that lists no level
        raise ValueError("level_sizes must start with the singleton root level")
    edge = c != 0  # a line with conductance 0 is a non-edge
    if not edge.all():
        n, i, j, c = n[edge], i[edge], j[edge], c[edge]
    return Diagram(edge_table(sizes, n, i, j, np.ascontiguousarray(c)))  # no view of the records


def _edges(data: bytes, pos: int, sizes):
    """The edge lines' columns n, i, j, c, sorted by (n, i, j).  Raises for
    the first line in file order that breaks a rule (level range, index range,
    a repeat, in that order; one in range only of a level beyond int64 reports
    that level's size), else for _body's error, else for such a level size."""
    cols, error = _body(data, pos, _EDGE, "edge")
    n, i, j = map(_ints, cols[:3])
    c = np.asarray(cols[3], dtype=float)
    # a size beyond int64 as int64's largest; a 0 when there is no level, for take to clip to
    size = np.array([min(s, 2 ** 63 - 1) for s in sizes] or [0])
    level = (n < 0) | (n >= len(sizes) - 1)
    out = (level | (i < 0) | (i >= size.take(n, mode="clip"))
           | (j < 0) | (j >= size.take(n + 1, mode="clip")))
    bad = out
    if not _increasing(n, i, j):  # a file bharm writes is in order and skips the sort
        order = np.lexsort((j, i, n))
        n, i, j, c = n[order], i[order], j[order], c[order]
        bad = out.copy()    # a repeat: a key equal to the one before it in sorted order
        bad[order[1:][(n[1:] == n[:-1]) & (i[1:] == i[:-1]) & (j[1:] == j[:-1])]] = True
    if bad.any():
        r = int(np.argmax(bad))
        nr, ir, jr = (int(col[r]) for col in cols[:3])
        if out[r] and not level[r] and 0 <= ir < sizes[nr] and 0 <= jr < sizes[nr + 1]:
            raise ValueError("level size too large")  # out of range only of the capped size
        key = f"({nr},{ir},{jr})"
        raise ValueError(f"edge level {nr} out of range" if level[r] else
                         f"edge {key} out of range" if out[r] else f"duplicate edge {key}")
    if error is not None:
        raise error
    if max(sizes, default=0) >= 2 ** 63:
        raise ValueError("level size too large")
    return n, i, j, c


def _increasing(n, i, j) -> bool:
    """Whether the keys (n, i, j) strictly increase, i.e. are sorted with
    no repeat."""
    return bool(((n[1:] > n[:-1]) | (n[1:] == n[:-1]) & (
        (i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (j[1:] > j[:-1]))).all())


# --- the line writer ---------------------------------------------------------
#
# A block of rows is laid out as a (rows, words) uint64 array of ASCII text,
# each field in whole words after a blank for its separator; a byte that is
# no character is 0, and bytes.translate drops those bytes, so a field needs
# no length and no padding.  The last character of a row is its newline.

_BLOCK = 8192      # rows per pass of the writer; bounds its working memory to a few MB
# _POW10[k + 297] is 10**k correctly rounded, for k in [-297, 308]
_POW10 = np.array([float(f"1e{k}") for k in range(-297, 309)])
# text is little-endian whatever the host: character c of a word is its byte c
_U64, _U32 = np.dtype("<u8"), np.dtype("<u4")
_CHAR = np.uint64(8)    # bits of a character


def _words(texts, width: int) -> np.ndarray:
    """ASCII strings as a (len(texts), width) uint64 array, 0 past each end."""
    return (np.array([t.encode() for t in texts], dtype=f"S{8 * width}")
            .view(_U64).reshape(-1, width))


def _digit_tables():
    """Four-digit groups as uint32 (first character in the low byte), in three
    runs of 10,000: zero padded, with leading zeros blanked, and blanked but
    with 0 written as "0"; then each group's count of trailing zeros (4 for
    0)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T    # of 0..9999
    zero = digits == 0
    blank = np.where(np.logical_and.accumulate(zero, axis=1), 0, digits + 48)
    last = blank.copy()
    last[0, 3] = 48
    groups = np.concatenate([digits + 48, blank, last]).view(_U32).ravel()
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1).sum(axis=1)
    return groups, trailing


_GROUPS, _TRAILING = _digit_tables()
_BELOW = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=np.uint64)  # bytes < b
# '.' at character q of word 0 or 1; q = 13: none
_POINT = np.array([[ord(".") << 8 * (q % 8) if q < 13 and q // 8 == w else 0 for q in range(14)]
                   for w in range(2)], dtype=np.uint64)
# a blank, sign and fixed notation's "0.000" before a mantissa: 5 * (x < 0) - e for e < 0
_LEAD = _words(["\0" + sign + ("0." + "0" * (z - 1) if z else "")
                for sign in ("", "-") for z in range(5)], 1).ravel()
# exponent after a mantissa: index 0 fixed notation, e + 299 for e in [-298, 309]
_EXP = _words([""] + [f"e{e:+03d}" for e in range(-298, 310)], 1).ravel()


def _lines(head: str, sep: str, parts) -> str:
    """head, then the rows `sep.join(fields) + "\n"`, sep one character.
    parts yields tuples of equal-length columns (arrays or lists), a field
    each: nonnegative integers; floats, written as format(x, '.12g') writes
    them; byte strings of at most 6 characters; or a str, the same text on
    every row and a str in every part.  The rows are formatted _BLOCK at a
    time, a block gathering the parts' slices in order."""
    out, block, size = bytearray(head.encode()), [], 0
    for cols in parts:
        start, stop = 0, len(next(c for c in cols if not isinstance(c, str)))
        while start < stop:
            take = min(stop - start, _BLOCK - size)
            block.append([c if isinstance(c, str) else c[start:start + take] for c in cols])
            size += take
            start += take
            if size == _BLOCK:
                out += _format_block(sep, block, size)
                block, size = [], 0
    if block:
        out += _format_block(sep, block, size)
    return out.decode("ascii")


def _format_block(sep: str, block, rows: int) -> bytes:
    cols = [c[0] if isinstance(c[0], str) else np.concatenate(c) for c in zip(*block)]
    kinds = ["str" if isinstance(c, str) else c.dtype.kind for c in cols]
    widths = [(len(c) + 1) // 8 + 1 if k == "str" else 4 if k == "f" else 1 if k == "S"
              else len(str(c.max())) // 8 + 1 for c, k in zip(cols, kinds)]
    ends = np.cumsum(widths)
    # an integer's digits fill its field's last character: a row ending in one needs a word more
    text = np.zeros((rows, ends[-1] + (kinds[-1] in ("i", "u"))), dtype=_U64)
    for c, k, at, end in zip(cols, kinds, ends - widths, ends):
        field = text[:, at:end]
        if k == "str":
            field[:] = _words(["\0" + c], end - at)
        elif k == "S":
            field[:, 0] = c.astype("S8").view(_U64) << _CHAR
        elif k == "f":
            _float_words(c, field)
        else:
            _int_words(c.astype(np.int64, copy=False), field.view(_U32))
        if at:
            field[:, 0] |= np.uint64(ord(sep))
    text[:, -1] |= np.uint64(ord("\n") << 56)
    return text.tobytes().translate(None, b"\0")


def _int_words(v, out) -> None:
    """Write the decimal digits of v >= 0 into the uint32 columns of out,
    four digits a column, right-aligned with leading zeros blank."""
    groups = []
    for _ in range(out.shape[1] - 1):
        v, low = np.divmod(v, 10000)
        groups.append(low)
    groups.append(v)
    leading = np.ones(v.size, dtype=bool)    # every group so far is 0
    for col, g in enumerate(reversed(groups)):
        run = 20000 if col == out.shape[1] - 1 else 10000
        out[:, col] = _GROUPS.take(g + np.where(leading, run, 0))
        leading &= g == 0


def _float_words(x, out) -> None:
    """Write format(v, '.12g') for each v of x into the four uint64 columns
    of out, after a blank character: sign and leading "0.000"; a mantissa
    of two words; exponent.

    e = floor(log10|x|) is corrected until y = |x| * 10**(11 - e), with
    10**(11 - e) from _POW10, lies in [1e11, 1e12).  Two roundings put y
    within 2.3e-4 of the exact product, so rint(y) is the correctly rounded
    12-digit mantissa unless y's fraction is within 5e-4 of one half; a
    mantissa of 1e12 carries to 1e11 with e + 1.  Those rows, 0, inf, nan
    and any x with 11 - e outside the table are formatted by Python.  The
    layout is Python's: fixed notation for -4 <= e < 12, else d.ddde+XX,
    without trailing zeros or a bare point.
    """
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(ax))
        ok = np.isfinite(e)
        e = np.where(ok, e, 0).astype(np.int64)
        y = ax * _POW10.take(308 - e, mode="clip")
        step = (y >= 1e12).astype(np.int64) - (y < 1e11)
        if step.any():
            e += step
            y = ax * _POW10.take(308 - e, mode="clip")
        ok &= (e >= -297) & (e <= 308) & (np.abs(y - np.floor(y) - 0.5) >= 5e-4)
        m = np.where(ok, np.rint(y), 1e11).astype(np.int64)
    carry = m == 10**12
    m[carry] = 10**11
    e = np.where(ok, e + carry, 0)
    high, low = np.divmod(m, 10**8)
    mid, low = np.divmod(low, 10**4)
    digits = np.zeros((x.size, 4), dtype=_U32)
    for col, g in enumerate((high, mid, low)):
        digits[:, col] = _GROUPS.take(g)
    digits = digits.view(_U64)
    last = 11 - (_TRAILING.take(low) + (low == 0) * (
        _TRAILING.take(mid) + (mid == 0) * _TRAILING.take(high)))   # last digit kept
    fixed = (e >= -4) & (e < 12)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)    # digits before the point
    dot = np.where((point > 0) & (last >= point), point, 13)
    # the digits after the point move one character on, behind the '.'
    moved = (digits[:, 0] << _CHAR, (digits[:, 1] << _CHAR) | (digits[:, 0] >> 7 * _CHAR))
    for w in range(2):
        out[:, 1 + w] = ((digits[:, w] & _below(point, w))
                         | (moved[w] & ~_below(point + 1, w) & _below(last + 2, w))
                         | _POINT[w].take(dot))
    out[:, 0] = _LEAD.take(5 * (x < 0) - np.where(fixed & (e < 0), e, 0))
    out[:, 3] = _EXP.take(np.where(fixed, 0, e + 299))
    rest = np.flatnonzero(~ok)
    if rest.size:
        out[rest] = _words([f"\0{v:.12g}" for v in x[rest].tolist()], 4)


def _below(k, word: int):
    """Masks of the characters before character k, within the given word."""
    return _BELOW.take(k - 8 * word, mode="clip")


def format_diagram(d: Diagram) -> str:
    sizes = d.level_sizes
    head = f"bratteli v1\nlevels {len(sizes)} : {' '.join(map(str, sizes))}\n"
    return _lines(head, " ", [("e", *d.table.entries())])


def parse_graph(text: str) -> GeneralGraph:
    """General graph from its file text.  A line that _body's tokenizer
    refuses is reported before the edges, which GeneralGraph checks."""
    lines, data, pos = _split(text, 2)
    if not lines or lines[0] != "graph v1":
        raise ValueError("expected 'graph v1' header")
    if len(lines) < 2 or not lines[1].startswith("v "):
        raise ValueError("expected 'v <count>' line")
    count = int(lines[1].split()[1])
    cols, error = _body(data, pos, _GRAPH_EDGE, "edge", optional=1)
    if error is not None:
        raise error
    return GeneralGraph.from_arrays(count, *cols)


def parse_function(text: str, d: Diagram) -> LevelFunction:
    """Level function from its file text; a repeated entry takes its last
    value.  _body's columns are range-checked as in parse_diagram."""
    lines, data, pos = _split(text, 1)
    if not lines or lines[0] != "fn v1":
        raise ValueError("expected 'fn v1' header")
    cols, error = _body(data, pos, _ENTRY, "function")
    n, i = map(_ints, cols[:2])
    sizes = np.array(d.level_sizes)
    bad = (n < 0) | (n >= sizes.size) | (i < 0) | (i >= sizes.take(n, mode="clip"))
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(f"entry ({cols[0][r]},{cols[1][r]}) out of range")
    if error is not None:
        raise error
    key = d.table.offsets[n] + i
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.asarray(cols[2], dtype=float)[order]
    last = np.ones(key.size, dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    flat = np.zeros(d.total_vertices)
    flat[key[last]] = vals[last]
    return LevelFunction.from_flat(d, flat)


def format_function(f: LevelFunction) -> str:
    flat = f.flat()
    k = np.flatnonzero(flat)
    n = np.searchsorted(f.offsets, k, side="right") - 1
    return _lines("fn v1\n", " ", [(n, k - f.offsets[n], flat[k])])


def _parse_rows(spec: str) -> np.ndarray:
    rows = []
    for part in spec.split(";"):
        part = part.strip()
        if "," in part or " " in part:
            rows.append([float(x) for x in part.replace(",", " ").split()])
        else:
            rows.append([float(ch) for ch in part])
    return np.array(rows)


# generator -> the form of its spec
_GENERATORS = {
    "tree": "tree:<depth>:<lam>",
    "pascal": "pascal:<depth>:<lam>",
    "stationary": "stationary:<A-rows;semicolon-separated>:<depth>:<lam>",
    "ladder": "ladder:<depth>[:<c>]",
    "bottleneck": "bottleneck:<sizes-dash-separated>:<seed>",
}


def parse_genspec(spec: str) -> Diagram:
    """Generator shorthand, one of the forms in _GENERATORS.  A known
    generator with the wrong number of fields is told its form."""
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
        raise ValueError(f"bad value in {_GENERATORS[kind]}: {exc}") from exc
    if kind in _GENERATORS:
        raise ValueError(f"expected {_GENERATORS[kind]}")
    raise ValueError(f"unknown generator spec {spec!r}")


def load_diagram(source: str) -> Diagram:
    """Parse a generator shorthand, else read the path as a diagram file.
    A spec that names a generator but fails is reported as such unless a
    file of that name exists."""
    if ":" in source and not source.endswith((".txt", ".bd", ".diagram")):
        try:
            return parse_genspec(source)
        except ValueError:
            if source.split(":")[0] in _GENERATORS and not os.path.exists(source):
                raise
    with open(source, "r", encoding="utf-8") as fh:
        return parse_diagram(fh.read())
