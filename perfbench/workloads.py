"""Request lists and input files for the two workloads.

Each workload function takes a numpy Generator made from the benchmark's
--seed and the pass number, and returns a Workload: the request list of one
pass plus the input files it reads.  The generator chooses vertices,
targets, pins, walk seeds, boundary data, conductances and graph labelings,
so no two passes of a run repeat a request (apart from the two fixed golden
requests); the problem sizes, and hence the work per pass, are the same for
every seed and pass, so seeds can be compared.  bharm only ever sees the
generated argv and files.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

GOLDENS = Path(__file__).with_name("goldens.json")


@dataclass
class Request:
    """One CLI invocation and the check of its output.

    check(rc, stdout, text) raises reference.CheckFailed; text is the output
    file's contents (None when the request writes to stdout).  walks is the
    number of walks requested (walk) or started (Monte Carlo Poisson)."""
    name: str
    argv: list
    check: Callable
    out: Optional[str] = None
    expect_rc: int = 0
    kind: str = "other"
    walks: int = 0


@dataclass
class Workload:
    name: str
    requests: list
    inputs: Callable  # inputs() -> {filename: text}


class Refs:
    """Reference diagrams and factorizations, built once per run."""

    def __init__(self):
        self._diagrams: dict = {}
        self._systems: dict = {}

    def diagram(self, spec: str) -> ref.RefDiagram:
        if spec not in self._diagrams:
            self._diagrams[spec] = ref.from_spec(spec)
        return self._diagrams[spec]

    def system(self, spec: str, boundary: Optional[int] = None) -> ref.Dirichlet:
        d = self.diagram(spec)
        key = (spec, boundary or d.depth)
        if key not in self._systems:
            self._systems[key] = ref.Dirichlet(d, key[1])
        return self._systems[key]


def _vspec(vs) -> str:
    return ";".join(f"{n},{i}" for n, i in vs)


def _pick_vertices(rng, sizes, levels, k, exclude=()) -> list:
    """k distinct vertices with levels drawn uniformly from `levels`."""
    out: list = []
    while len(out) < k:
        n = int(rng.choice(levels))
        v = (n, int(rng.integers(sizes[n])))
        if v not in out and v not in exclude:
            out.append(v)
    return out


def _values(rng, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Random data that survives the text round trip exactly."""
    return np.round(rng.uniform(lo, hi, n), 6)


def _golden(name: str, text: str) -> None:
    want = json.loads(GOLDENS.read_text())[name]
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != want:
        raise ref.CheckFailed(f"{name} output differs from its seeded golden")


# --- walks-io, walk half -----------------------------------------------------

def mc_walks(rng, refs: Refs) -> Workload:
    reqs: list = []
    files: dict = {}

    def walk(name, spec, start, targets, walks, seed, golden=False):
        def check(rc, stdout, text):
            if golden:
                _golden(name, text)
            ref.check_walk(refs.system(spec), start, targets, walks, text)
        reqs.append(Request(name, ["walk", "--diagram", spec, "--start", f"{start[0]},{start[1]}",
                                   "--targets", _vspec(targets), "--walks", str(walks),
                                   "--seed", str(seed), "--out", name + ".csv"],
                            check, out=name + ".csv", kind="walk", walks=walks))

    def poisson_mc(name, spec, level, values, walks, seed, golden=False):
        fn = name + "-in.fn"
        d = refs.diagram(spec)
        files[fn] = [np.zeros(s) for s in d.sizes[:level]] + [values]

        def check(rc, stdout, text):
            if golden:
                _golden(name, text)
            ref.check_poisson(refs.system(spec, level), values, text, walks=walks)
        reqs.append(Request(name, ["poisson", "--diagram", spec, "--level", str(level),
                                   "--values", fn, "--method", "monte-carlo",
                                   "--walks", str(walks), "--seed", str(seed),
                                   "--out", name + ".fn"],
                            check, out=name + ".fn", kind="poisson-mc",
                            walks=walks * int(d.offsets[level])))

    seed = lambda: int(rng.integers(2 ** 31))  # noqa: E731
    # short transient walks from the root: per-walk generator set-up dominates
    for depth in (12, 10):
        spec = f"tree:{depth}:2"
        walk(f"walk-tree{depth}", spec, (0, 0),
             _pick_vertices(rng, refs.diagram(spec).sizes, [1, 2, 3, 4], 3), 5000, seed())
    # long recurrent-looking walks: the per-step loop dominates
    sizes = refs.diagram("pascal:30:1").sizes
    for name, spec, start in (("walk-pascal30-root", "pascal:30:1", (0, 0)),
                              ("walk-pascal30-mid", "pascal:30:1", (2, int(rng.integers(3)))),
                              ("walk-pascal20-root", "pascal:20:1", (0, 0))):
        walk(name, spec, start,
             _pick_vertices(rng, sizes, [1, 2, 3, 4, 5], 3, exclude=[start]), 1000, seed())
    # many starts, few walks each
    poisson_mc("poisson-mc-pascal10", "pascal:10:1", 10, _values(rng, 11, 0, 1), 350, seed())
    poisson_mc("poisson-mc-tree8", "tree:8:2", 8, _values(rng, 256, 0, 1), 30, seed())
    # fixed requests whose bytes are pinned by goldens.json
    walk("golden-walk", "tree:9:2", (0, 0), [(1, 0), (2, 3), (3, 5)], 3000, 7, golden=True)
    poisson_mc("golden-poisson", "pascal:6:1", 6,
               np.array([0.0, 0.25, -0.5, 1.0, 0.125, -0.75, 0.5]), 200, 7, golden=True)
    return Workload("walks", reqs, lambda: {k: ref.format_fn(v) for k, v in files.items()})


# --- exact-solve -------------------------------------------------------------

def exact_solve(rng, refs: Refs) -> Workload:
    reqs: list = []
    files: dict = {}

    def green(spec, k):
        vs = _pick_vertices(rng, refs.diagram(spec).sizes,
                            list(range(refs.diagram(spec).depth)), k)
        name = "green-" + "".join(spec.split(":")[:2]) + f"-k{k}"
        reqs.append(Request(name, ["green", "--diagram", spec, "--vertices", _vspec(vs),
                                   "--out", name + ".csv"],
                            lambda rc, so, text: ref.check_green(refs.system(spec), vs, text),
                            out=name + ".csv", kind="green"))

    def poisson(spec):
        d = refs.diagram(spec)
        values = _values(rng, d.sizes[-1])
        name = "poisson-" + "".join(spec.split(":")[:2])
        files[name + "-in.fn"] = [np.zeros(s) for s in d.sizes[:-1]] + [values]
        reqs.append(Request(name, ["poisson", "--diagram", spec, "--level", str(d.depth),
                                   "--values", name + "-in.fn", "--out", name + ".fn"],
                            lambda rc, so, text: ref.check_poisson(refs.system(spec), values,
                                                                   text),
                            out=name + ".fn", kind="poisson"))

    def recursion(name, cmd, spec, extra, source, pins):
        reqs.append(Request(name, [cmd, "--diagram", spec] + extra + ["--out", name + ".fn"],
                            lambda rc, so, text: ref.check_recursion(refs.diagram(spec), text,
                                                                     source, pins),
                            out=name + ".fn", kind="recursion"))

    def pins_at(spec, levels):
        sizes = refs.diagram(spec).sizes
        pins = {(n, int(rng.integers(sizes[n]))): float(np.round(rng.uniform(0.5, 2), 3))
                for n in levels}
        args = []
        for (n, i), v in pins.items():
            args += ["--pin", f"{n},{i}={v}"]
        return args, pins

    # Green's function with vertex lists of 1 to 25 vertices, on both sides
    # of the direct/CG threshold (tree:15 has 32,767 unknowns, tree:16 65,535)
    green("tree:15:2", 15)
    green("tree:16:2", 6)
    green("pascal:60:1", 25)
    green("tree:12:2", 1)
    poisson("tree:16:2")
    poisson("pascal:150:1")
    # sparse levels (above 512 vertices) go through LSQR
    args, pins = pins_at("tree:14:2", [1, int(rng.integers(2, 4))])
    recursion("harmonic-tree14-pinned", "harmonic", "tree:14:2", args, {}, pins)
    args, pins = pins_at("tree:12:2", [int(rng.integers(2, 5))])
    recursion("harmonic-tree12-pinned", "harmonic", "tree:12:2", args, {}, pins)
    recursion("harmonic-pascal40", "harmonic", "pascal:40:1", [], {}, {})
    # past the level-12 breakdown of the seed recursion: counted as failed
    recursion("harmonic-pascal90", "harmonic", "pascal:90:1", [], {}, {})
    for cmd, spec, top in (("monopole", "tree:12:2", 6), ("monopole", "pascal:30:1", 10),
                           ("dipole", "tree:12:2", 6), ("dipole", "pascal:40:1", 10)):
        (x,) = _pick_vertices(rng, refs.diagram(spec).sizes, list(range(1, top + 1)), 1)
        source = {x: 1.0} if cmd == "monopole" else {x: 1.0, (0, 0): -1.0}
        recursion(f"{cmd}-{spec.split(':')[0]}", cmd, spec, ["--vertex", f"{x[0]},{x[1]}"],
                  source, {})
    # dense SVD work.  tree:10 sets the workload's peak memory; the three
    # pascal:130 requests per pass are the next slowest kind, so the latency
    # tail falls inside one request kind rather than between kinds.
    specs = ["tree:10:2"] + ["pascal:130:1"] * 3 + ["tree:8:2"]
    for k, spec in enumerate(specs):
        reqs.append(Request(f"dimension-{k}-" + "".join(spec.split(":")[:2]),
                            ["dimension", "--diagram", spec],
                            lambda rc, so, text, spec=spec: ref.check_dimension(
                                refs.diagram(spec), so), kind="dimension"))
    return Workload("exact-solve", reqs, lambda: {k: ref.format_fn(v) for k, v in files.items()})


# --- walks-io, file half -----------------------------------------------------

def _grid(rows: int, cols: int, rng):
    """Grid graph graded from its corner, with random conductances and labels.

    Returns (edges, label) where label[(r, c)] is the vertex id."""
    perm = rng.permutation(rows * cols)
    label = {(r, c): int(perm[r * cols + c]) for r in range(rows) for c in range(cols)}
    edges = []
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 < rows and c2 < cols:
                    edges.append((label[(r, c)], label[(r2, c2)],
                                  float(np.round(rng.uniform(0.5, 2), 3))))
    return edges, label


def _graph_text(count: int, edges: list, order) -> str:
    return "\n".join(["graph v1", f"v {count}"]
                     + [f"e {edges[k][0]} {edges[k][1]} {edges[k][2]:.6g}" for k in order]) + "\n"


def diagram_io(rng, refs: Refs) -> Workload:
    reqs: list = []
    texts: dict = {}

    def add(name, argv, check, out=None, expect_rc=0):
        reqs.append(Request(name, argv, check, out=out, expect_rc=expect_rc, kind="io"))

    def gen_and_validate(spec, want, check):
        name = "gen-" + spec.split(":")[0]
        add(name, ["gen", spec, "--out", name + ".bd"],
            lambda rc, so, text: check(want, text), out=name + ".bd")
        add("validate-" + name, ["validate", name + ".bd"],
            lambda rc, so, text: _expect_valid(so, want.sizes))

    lam = float(rng.choice([1.5, 2.0, 3.0]))
    gen_and_validate(f"tree:14:{lam:g}", refs.diagram(f"tree:14:{lam:g}"), ref.check_same_diagram)
    lam = float(rng.choice([1.0, 1.5]))
    gen_and_validate(f"pascal:300:{lam:g}", refs.diagram(f"pascal:300:{lam:g}"),
                     ref.check_same_diagram)
    profile = [1, 30, 200, 200, 30, 200, 200]
    bottleneck = ref.RefDiagram(profile, [np.zeros((a, b)) for a, b in zip(profile, profile[1:])])
    gen_and_validate("bottleneck:" + "-".join(map(str, profile)) + f":{int(rng.integers(1000))}",
                     bottleneck, lambda want, text: ref.check_profile_diagram(want.sizes, text))

    # benchmark-written diagrams with random conductances and functions on them
    def random_conductances(d):
        return ref.RefDiagram(d.sizes, [_random_data(b, rng) for b in d.blocks])

    t12 = random_conductances(ref.tree(12, 1.0))
    p200 = random_conductances(ref.pascal(200, 1.0))
    f12 = [_values(rng, s) for s in t12.sizes]
    f200 = [_values(rng, s) for s in p200.sizes]
    texts["t12.bd"] = lambda: ref.format_bratteli(t12)
    texts["p200.bd"] = lambda: ref.format_bratteli(p200)
    texts["t12.fn"] = lambda: ref.format_fn(f12)
    texts["p200.fn"] = lambda: ref.format_fn(f200)
    add("validate-t12", ["validate", "t12.bd"], lambda rc, so, text: _expect_valid(so, t12.sizes))

    # one edge missing: exactly one 'incoming' violation, exit code 1
    n = int(rng.integers(3, 9))
    i = int(rng.integers(2 ** n))
    j = 2 * i + int(rng.integers(2))
    broken = ref.tree(10, 1.0)
    texts["broken.bd"] = lambda: ref.format_bratteli(broken, drop=(n, i, j))
    add("validate-broken", ["validate", "broken.bd"],
        lambda rc, so, text: _expect_violation(so, f"[incoming] level {n + 1}, vertex {j}:"),
        expect_rc=1)

    # general graphs: a graded grid from its corner, and the same grid with a
    # decoy vertex beside each ray vertex that the extraction must drop
    rows, cols = 90, 60
    edges, label = _grid(rows, cols, rng)
    want = ref.grid_levels(edges, label[(0, 0)])
    grid_order = rng.permutation(len(edges))
    texts["grid.graph"] = lambda: _graph_text(rows * cols, edges, grid_order)
    add("convert-root", ["convert", "--graph", "grid.graph", "--root", str(label[(0, 0)]),
                         "--out", "grid.bd"],
        lambda rc, so, text: ref.check_converted(want, text), out="grid.bd")
    steps = rng.permutation([1] * (rows - 1) + [0] * (cols - 1))
    path = [(0, 0)]
    for down in steps:
        r, c = path[-1]
        path.append((r + 1, c) if down else (r, c + 1))
    ray = [label[p] for p in path]
    decoys = [(rows * cols + k, ray[k], 1.0) for k in range(len(ray) - 1)]
    decoys += [(rows * cols + k, ray[k + 1], 1.0) for k in range(len(ray) - 1)]
    decoy_order = rng.permutation(len(edges) + len(decoys))
    texts["decoy.graph"] = lambda: _graph_text(rows * cols + len(ray) - 1, edges + decoys,
                                               decoy_order)
    add("convert-ray", ["convert", "--graph", "decoy.graph", "--ray", ",".join(map(str, ray)),
                        "--out", "ray.bd"],
        lambda rc, so, text: ref.check_converted(want, text), out="ray.bd")

    add("energy-t12", ["energy", "--diagram", "t12.bd", "--fn", "t12.fn", "--format", "csv",
                       "--out", "t12-energy.csv"],
        lambda rc, so, text: ref.check_energy(t12, f12, text), out="t12-energy.csv")
    add("energy-p200", ["energy", "--diagram", "p200.bd", "--fn", "p200.fn", "--format", "csv",
                        "--out", "p200-energy.csv"],
        lambda rc, so, text: ref.check_energy(p200, f200, text), out="p200-energy.csv")
    add("laplacian-p200", ["apply-laplacian", "--diagram", "p200.bd", "--fn", "p200.fn",
                           "--out", "p200-lap.fn"],
        lambda rc, so, text: ref.check_laplacian(p200, f200, text), out="p200-lap.fn")
    return Workload("files", reqs, lambda: {k: v() for k, v in texts.items()})


def _random_data(block, rng):
    """Same sparsity as `block`, conductances drawn from [0.5, 2]."""
    out = block.copy()
    out.data = np.round(rng.uniform(0.5, 2, out.nnz), 3)
    return out


def _expect_valid(stdout: str, sizes: list) -> None:
    want = f"valid: {len(sizes)} levels, {sum(sizes)} vertices"
    if stdout.strip() != want:
        raise ref.CheckFailed(f"validate printed {stdout.strip()[:80]!r}, expected {want!r}")


def _expect_violation(stdout: str, prefix: str) -> None:
    lines = stdout.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith(prefix):
        raise ref.CheckFailed(f"validate reported {lines[:3]}, expected one {prefix!r}")


# --- walks-io ----------------------------------------------------------------

def walks_io(rng, refs: Refs) -> Workload:
    """The Monte Carlo walk requests, then the diagram and file requests.

    Both halves are pure-Python work with no linear algebra; one workload
    holds them so that its runs are long enough for a steady median on a
    shared host (the walk half alone spread too much between runs)."""
    walk_half, file_half = mc_walks(rng, refs), diagram_io(rng, refs)
    return Workload("walks-io", walk_half.requests + file_half.requests,
                    lambda: {**walk_half.inputs(), **file_half.inputs()})


BY_NAME = {"walks-io": walks_io, "exact-solve": exact_solve}
