"""Independent references for checking bharm's CLI outputs.

Nothing here imports bharm: diagrams are rebuilt from the generator rules
or parsed from the files with this module's own parser, and every exact
quantity comes from a scipy factorization of the truncated conductance
Laplacian built here.  The checks compare the CLI's output files (never its
manifests) against these references.
"""
from __future__ import annotations

import functools
import math
import re

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Monte Carlo estimates must lie within MC_SIGMAS standard errors of the
# exact value, plus MC_SLACK_COUNTS samples' worth of slack for rare events
# whose normal approximation is poor.
MC_SIGMAS = 6.0
MC_SLACK_COUNTS = 5.0
# CLI numbers carry 12 significant digits; residual checks allow this much
# relative rounding per term on top of the solver tolerance.
ROUNDING = 2e-12
SOLVER_TOL = 1e-8


class CheckFailed(Exception):
    """An output disagrees with its reference."""


# --- diagrams ---------------------------------------------------------------

class RefDiagram:
    """Level sizes plus one CSR conductance block per consecutive level pair."""

    def __init__(self, sizes, blocks):
        self.sizes = [int(s) for s in sizes]
        self.blocks = [sp.csr_matrix(b) for b in blocks]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)

    @property
    def depth(self) -> int:
        return len(self.sizes) - 1

    def degrees(self, n: int) -> np.ndarray:
        c = np.zeros(self.sizes[n])
        if n > 0:
            c += np.asarray(self.blocks[n - 1].sum(axis=0)).ravel()
        if n < self.depth:
            c += np.asarray(self.blocks[n].sum(axis=1)).ravel()
        return c


def _block(rows, cols, vals, shape):
    return sp.csr_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=shape)


def tree(depth: int, lam: float) -> RefDiagram:
    sizes = [2 ** n for n in range(depth + 1)]
    blocks = []
    for n in range(depth):
        rows = np.repeat(np.arange(sizes[n]), 2)
        blocks.append(_block(rows, np.arange(sizes[n + 1]), np.full(sizes[n + 1], lam ** n),
                             (sizes[n], sizes[n + 1])))
    return RefDiagram(sizes, blocks)


def pascal(depth: int, lam: float) -> RefDiagram:
    sizes = [n + 1 for n in range(depth + 1)]
    blocks = []
    for n in range(depth):
        i = np.arange(n + 1)
        blocks.append(_block(np.concatenate([i, i]), np.concatenate([i, i + 1]),
                             np.full(2 * (n + 1), lam ** n), (n + 1, n + 2)))
    return RefDiagram(sizes, blocks)


def from_spec(spec: str) -> RefDiagram:
    kind, depth, lam = spec.split(":")
    return {"tree": tree, "pascal": pascal}[kind](int(depth), float(lam))


def parse_bratteli(text: str) -> RefDiagram:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "bratteli v1":
        raise CheckFailed("diagram output lacks the 'bratteli v1' header")
    sizes = [int(s) for s in lines[1].partition(":")[2].split()]
    edges = np.array([[float(x) for x in ln.split()[1:]] for ln in lines[2:]]).reshape(-1, 4)
    blocks = []
    for n in range(len(sizes) - 1):
        e = edges[edges[:, 0] == n]
        blocks.append(_block(e[:, 1].astype(int), e[:, 2].astype(int), e[:, 3],
                             (sizes[n], sizes[n + 1])))
    return RefDiagram(sizes, blocks)


def format_bratteli(d: RefDiagram, drop=None) -> str:
    """Diagram file text; `drop` = (n, i, j) leaves one edge out."""
    out = ["bratteli v1", f"levels {len(d.sizes)} : " + " ".join(map(str, d.sizes))]
    for n, b in enumerate(d.blocks):
        coo = b.tocoo()
        for i, j, c in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            if (n, i, j) != drop:
                out.append(f"e {n} {i} {j} {c:.6g}")
    return "\n".join(out) + "\n"


def format_fn(values) -> str:
    out = ["fn v1"]
    for n, v in enumerate(values):
        out.extend(f"{n} {i} {x:.9g}" for i, x in enumerate(v) if x != 0.0)
    return "\n".join(out) + "\n"


def parse_fn(text: str, sizes) -> list:
    vals = [np.zeros(s) for s in sizes]
    lines = text.splitlines()
    if not lines or lines[0].strip() != "fn v1":
        raise CheckFailed("function output lacks the 'fn v1' header")
    for ln in lines[1:]:
        if ln.strip():
            n, i, x = ln.split()
            vals[int(n)][int(i)] = float(x)
    return vals


# --- exact killed-chain quantities ------------------------------------------

class Dirichlet:
    """Truncated Laplacian on levels < boundary, factorized once."""

    def __init__(self, d: RefDiagram, boundary: int):
        self.d = d
        self.boundary = boundary
        self.n = int(d.offsets[boundary])
        self.c = np.concatenate([d.degrees(n) for n in range(boundary)])
        rows, cols, vals = [], [], []
        for n in range(boundary - 1):
            coo = d.blocks[n].tocoo()
            rows.append(coo.row + d.offsets[n])
            cols.append(coo.col + d.offsets[n + 1])
            vals.append(coo.data)
        r, c, v = (np.concatenate(x) if x else np.zeros(0) for x in (rows, cols, vals))
        upper = sp.csr_matrix((v, (r.astype(int), c.astype(int))), shape=(self.n, self.n))
        self.lap = (sp.diags(self.c) - upper - upper.T).tocsc()
        self.lu = spla.splu(self.lap)

    def flat(self, level: int, index: int) -> int:
        return int(self.d.offsets[level] + index)

    def green(self, pairs) -> dict:
        """{(x, y): G(x, y)} for flat indices; G = L^-1[x, y] c(y)."""
        ys = sorted({y for _, y in pairs})
        e = np.zeros((self.n, len(ys)))
        e[ys, np.arange(len(ys))] = 1.0
        cols = self.lu.solve(e)
        col = {y: k for k, y in enumerate(ys)}
        return {(x, y): float(cols[x, col[y]] * self.c[y]) for x, y in pairs}

    def harmonic_extension(self, f_b: np.ndarray) -> np.ndarray:
        b = np.zeros(self.n)
        lo = self.d.offsets[self.boundary - 1]
        b[lo:] = self.d.blocks[self.boundary - 1] @ f_b
        return self.lu.solve(b)


def laplacian(d: RefDiagram, f: list) -> tuple:
    """(Delta f)_n and the per-vertex magnitude scale for levels 0..N-1."""
    out, scale = [], []
    for n in range(d.depth):
        c = d.degrees(n)
        v = c * f[n] - d.blocks[n] @ f[n + 1]
        s = np.abs(c * f[n]) + abs(d.blocks[n]) @ np.abs(f[n + 1])
        if n > 0:
            v -= d.blocks[n - 1].T @ f[n - 1]
            s += abs(d.blocks[n - 1]).T @ np.abs(f[n - 1])
        out.append(v)
        scale.append(s)
    return out, scale


# --- output parsing helpers -------------------------------------------------

_CSV_HEAD = "x_level,x_index,y_level,y_index,quantity,estimate,stderr,n_samples"


def parse_pair_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEAD:
        raise CheckFailed("pair CSV lacks its header")
    rows = []
    for ln in lines[1:]:
        xl, xi, yl, yi, q, est, se, ns = ln.split(",")
        rows.append(((int(xl), int(xi)), (int(yl), int(yi)), q, float(est), float(se), int(ns)))
    return rows


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# --- checks, one per request kind -------------------------------------------

def check_green(sysm: Dirichlet, vertices: list, text: str) -> None:
    """G against the reference solve, F and U against the identities.

    Errors are measured against the largest Green value, since an iterative
    solve bounds the error of a column by its norm, not entry by entry."""
    rows = parse_pair_csv(text)
    _require(len(rows) == 2 * len(vertices) ** 2 + len(vertices), "wrong number of green rows")
    got = {(q, x, y): est for x, y, q, est, _, _ in rows}
    flat = {v: sysm.flat(*v) for v in vertices}
    g = sysm.green([(flat[x], flat[y]) for x in vertices for y in vertices])
    g = {(x, y): g[(flat[x], flat[y])] for x in vertices for y in vertices}
    c = {v: float(sysm.c[flat[v]]) for v in vertices}
    atol = 1e-10 * max(abs(v) for v in g.values())
    for x in vertices:
        # diagonal identity G(x,x)(1 - U(x,x)) = 1
        _require(_close(got[("U", x, x)], 1.0 - 1.0 / g[(x, x)], 1e-8, 1e-11),
                 f"U{x} violates the diagonal identity")
        for y in vertices:
            gxy = got[("G", x, y)]
            _require(_close(gxy, g[(x, y)], 1e-7, atol),
                     f"G{x},{y}={gxy} but the reference solve gives {g[(x, y)]}")
            # reversibility c(x)G(x,y) = c(y)G(y,x)
            _require(_close(c[x] * gxy, c[y] * got[("G", y, x)], 1e-7, atol * max(c[x], c[y])),
                     f"G{x},{y} violates reversibility")
            # reach probability F(x,y) = G(x,y)/G(y,y)
            _require(_close(got[("F", x, y)], g[(x, y)] / g[(y, y)], 1e-7, 1e-10),
                     f"F{x},{y} disagrees with G(x,y)/G(y,y)")


def check_walk(sysm: Dirichlet, start: tuple, targets: list, walks: int, text: str) -> None:
    """Estimates within MC_SIGMAS exact standard errors, and reported
    standard errors consistent with the estimates."""
    rows = parse_pair_csv(text)
    s = sysm.flat(*start)
    ts = [sysm.flat(*t) for t in targets]
    g = sysm.green([(s, s)] + [(s, t) for t in ts] + [(t, t) for t in ts])
    absorbed = {r[5] for r in rows}
    _require(len(absorbed) == 1, "walk rows disagree on n_samples")
    n = absorbed.pop()
    _require(0 < n <= walks, f"n_samples={n} outside 1..{walks}")
    by_key = {(r[1], r[2]): r for r in rows}
    u_s = 1.0 - 1.0 / g[(s, s)]
    expected = [(start, "U", u_s, u_s * (1 - u_s))]
    hits = {}
    for t, tf in zip(targets, ts):
        f_exact = 1.0 if tf == s else g[(s, tf)] / g[(tf, tf)]
        u_t = 1.0 - 1.0 / g[(tf, tf)]
        mean_n = g[(s, tf)]
        # visits given a hit are geometric on {1, 2, ...} with success 1 - U(t)
        var_n = max(f_exact * (1 + u_t) / (1 - u_t) ** 2 - mean_n ** 2, 0.0)
        expected += [(t, "F", f_exact, f_exact * (1 - f_exact)), (t, "G", mean_n, var_n)]
        hits[t] = n * f_exact
    for key, q, exact, var in expected:
        _, _, _, est, se, _ = by_key[(key, q)]
        exact_se = math.sqrt(var / n)
        tol = MC_SIGMAS * exact_se + MC_SLACK_COUNTS / n
        _require(abs(est - exact) <= tol,
                 f"walk {q}{start}->{key} estimate {est} vs exact {exact} (tol {tol:.3g})")
        if q == "G":
            # a sample standard error is only reliable with enough hits
            _require(hits[key] < 100 or 0.5 * exact_se <= se <= 2.0 * exact_se,
                     f"walk G{key} stderr {se} vs exact {exact_se}")
        else:
            _require(_close(se, math.sqrt(est * (1 - est) / n), 1e-9, 1e-15),
                     f"walk {q}{key} stderr {se} does not match its estimate")


def check_poisson(sysm: Dirichlet, f_b: np.ndarray, text: str, walks: int = 0) -> None:
    """Exact mode (walks=0): matches the reference solve.  Monte Carlo mode:
    each vertex within MC_SIGMAS exact standard errors of the reference."""
    d, b = sysm.d, sysm.boundary
    vals = parse_fn(text, d.sizes[: b + 1])
    got = np.concatenate(vals[:b])
    exact = sysm.harmonic_extension(f_b)
    span = float(np.abs(f_b).max())
    _require(np.allclose(vals[b], f_b, rtol=1e-11, atol=0.0), "boundary values not reproduced")
    if walks == 0:
        err = np.abs(got - exact)
        worst = int(err.argmax())
        _require(err[worst] <= 1e-8 * span + ROUNDING * abs(exact[worst]),
                 f"poisson value {got[worst]} vs reference {exact[worst]}")
        return
    second = sysm.harmonic_extension(f_b * f_b)
    se = np.sqrt(np.maximum(second - exact ** 2, 0.0) / walks)
    tol = MC_SIGMAS * se + MC_SLACK_COUNTS * span / walks
    bad = np.nonzero(np.abs(got - exact) > tol)[0]
    _require(bad.size == 0, f"{bad.size} Monte Carlo Poisson values outside tolerance")


def check_recursion(d: RefDiagram, text: str, source: dict, pins: dict) -> None:
    """Laplacian residual of a harmonic / monopole / dipole output.

    source maps (level, index) -> Delta f value; f(o) = 0 and pins hold."""
    f = parse_fn(text, d.sizes)
    _require(f[0][0] == 0.0, "f(o) != 0")
    _require(any(np.any(v != 0) for v in f), "output is identically zero")
    for (n, i), val in pins.items():
        _require(_close(f[n][i], val, 1e-11), f"pin ({n},{i}) not honoured")
    lap, scale = laplacian(d, f)
    for n in range(d.depth):
        want = np.zeros(d.sizes[n])
        for (m, i), val in source.items():
            if m == n:
                want[i] += val
        c = d.degrees(n)
        err = np.abs(lap[n] - want)
        tol = SOLVER_TOL * c + ROUNDING * scale[n]
        k = int((err - tol).argmax())
        _require(err[k] <= tol[k], f"Laplacian residual {err[k]:.3g} at ({n},{k})")


@functools.lru_cache(maxsize=None)
def full_row_rank(d: RefDiagram) -> bool:
    return all(np.linalg.matrix_rank(b.toarray()) == b.shape[0] for b in d.blocks)


def check_dimension(d: RefDiagram, stdout: str) -> None:
    """Full-row-rank levels: the prefix space at level k has dimension
    |V_k| - 1 (every constraint row is independent and adds |V_{k+1}| -
    |V_k| free values)."""
    _require(full_row_rank(d), "reference diagram is not full row rank")
    rows = {}
    for ln in stdout.splitlines():
        m = re.match(r"\s*(\d+)\s+(\d+)\s+(\d*)\s+(\d*)\s*$", ln)
        if m:
            rows[int(m.group(1))] = (int(m.group(2)), m.group(4))
    _require(sorted(rows) == list(range(1, d.depth + 1)), "dimension table levels")
    for k, (dim, drop) in rows.items():
        _require(dim == d.sizes[k] - 1, f"prefix dimension at level {k} is {dim}")
        _require(drop in ("", "0"), f"rank drop {drop} at level {k}")
    last = f"prefix dimension at level {d.depth}: {d.sizes[-1] - 1}"
    _require(stdout.rstrip().endswith(last), "final dimension line")


def check_same_diagram(want: RefDiagram, text: str, rtol: float = 1e-11) -> None:
    got = parse_bratteli(text)
    _require(got.sizes == want.sizes, "level sizes differ")
    for n, (a, b) in enumerate(zip(got.blocks, want.blocks)):
        diff = abs(a - b)
        _require(a.nnz == b.nnz and (diff.nnz == 0 or diff.max() <= rtol * abs(b).max()),
                 f"edges differ at level {n}")


def check_profile_diagram(profile: list, text: str) -> None:
    """Random 0-1 diagram: sizes, unit conductances, no dangling vertex."""
    d = parse_bratteli(text)
    _require(d.sizes == profile, "bottleneck level sizes")
    for n, b in enumerate(d.blocks):
        _require(np.all(b.data == 1.0), f"non-unit conductance at level {n}")
        _require(np.all(b.getnnz(axis=1) > 0) and np.all(b.getnnz(axis=0) > 0),
                 f"dangling vertex at level {n}")


def level_signature(d: RefDiagram) -> list:
    """Per level: sorted edge conductances and sorted (up, down) degree pairs;
    invariant under reordering vertices within a level."""
    sig = []
    for n in range(d.depth + 1):
        up = np.asarray(d.blocks[n - 1].sum(axis=0)).ravel() if n else np.zeros(1)
        down = (np.asarray(d.blocks[n].sum(axis=1)).ravel() if n < d.depth
                else np.zeros(d.sizes[n]))
        pairs = sorted(zip(np.round(up, 6).tolist(), np.round(down, 6).tolist()))
        cond = np.sort(d.blocks[n].data).round(6).tolist() if n < d.depth else []
        sig.append((pairs, cond))
    return sig


def grid_levels(edges: list, root: int) -> RefDiagram:
    """BFS leveling of a graded graph (reference for convert)."""
    adj: dict = {}
    for i, j, c in edges:
        adj.setdefault(i, []).append((j, c))
        adj.setdefault(j, []).append((i, c))
    dist = {root: 0}
    frontier = [root]
    levels = [[root]]
    while frontier:
        nxt = []
        for v in frontier:
            for u, _ in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        if nxt:
            levels.append(nxt)
        frontier = nxt
    pos = {v: k for lv in levels for k, v in enumerate(lv)}
    blocks = []
    for n in range(len(levels) - 1):
        r, c, v = [], [], []
        for i, j, w in edges:
            a, b = (i, j) if dist[i] < dist[j] else (j, i)
            if dist[a] == n and dist[b] == n + 1:
                r.append(pos[a])
                c.append(pos[b])
                v.append(w)
        blocks.append(_block(r, c, v, (len(levels[n]), len(levels[n + 1]))))
    return RefDiagram([len(lv) for lv in levels], blocks)


def check_converted(want: RefDiagram, text: str) -> None:
    got = parse_bratteli(text)
    _require(got.sizes == want.sizes, "converted level sizes differ")
    _require(level_signature(got) == level_signature(want), "converted edge structure differs")


def energy_rows(d: RefDiagram, f: list) -> list:
    """Expected CSV rows of `energy --format csv`, each with the magnitude
    scale of its level current (a sum of signed terms that may cancel)."""
    inc, cur, cur_scale = [], [], []
    for n in range(d.depth):
        coo = d.blocks[n].tocoo()
        drop = f[n][coo.row] - f[n + 1][coo.col]
        inc.append(float(np.dot(coo.data, drop * drop)))
        up = np.asarray(d.blocks[n].sum(axis=0)).ravel()
        cur.append(float((up * f[n + 1] - d.blocks[n].T @ f[n]).sum()))
        cur_scale.append(float((np.abs(up * f[n + 1]) + d.blocks[n].T @ np.abs(f[n])).sum()))
    flux = cur[0]
    beta_size = [float(d.degrees(n).max()) * d.sizes[n] for n in range(d.depth)]
    bound = np.cumsum([flux ** 2 / b for b in beta_size])
    return [(n, inc[n], float(np.sum(inc[: n + 1])), cur[n], beta_size[n], float(bound[n]),
             cur_scale[n]) for n in range(d.depth)]


def check_energy(d: RefDiagram, f: list, text: str) -> None:
    lines = text.splitlines()
    _require(lines[0] == "level,increment,energy_partial,level_current,beta_times_size,"
             "bound_partial", "energy CSV header")
    want = energy_rows(d, f)
    _require(len(lines) - 1 == len(want), "energy row count")
    for ln, w in zip(lines[1:], want):
        got = [float(x) for x in ln.split(",")]
        _require(int(got[0]) == w[0], "energy level index")
        for k in (1, 2, 4, 5):
            _require(_close(got[k], w[k], 1e-9), f"energy column {k} at level {w[0]}")
        _require(abs(got[3] - w[3]) <= 1e-9 * w[6], f"level current at level {w[0]}")


def check_laplacian(d: RefDiagram, f: list, text: str) -> None:
    got = parse_fn(text, d.sizes)
    lap, scale = laplacian(d, f)
    for n in range(d.depth):
        err = np.abs(got[n] - lap[n])
        _require(np.all(err <= 1e-10 * scale[n] + 1e-300), f"Laplacian mismatch at level {n}")
    _require(not np.any(got[d.depth]), "undetermined boundary level not zeroed")
