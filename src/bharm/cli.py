"""Command-line surface: generation, validation, solving, simulation,
energy reporting, conversion, and the closed-form verification suite.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage error.  Numeric output is Python's format(x, '.12g'):
12 significant digits, correctly rounded, with '.' as the decimal
separator; every file output gets a JSON run
manifest alongside it so reruns are byte-reproducible.

Each subcommand imports its solver module (harmonic, pathspace, energy or
closedforms) when it runs, so `import bharm.cli` loads none of them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .diagram import VertexId, diagram_from_graph, extract_maximal_bratteli, validate
from .fileio import (
    _lines,
    format_diagram,
    format_function,
    load_diagram,
    parse_diagram,
    parse_function,
    parse_graph,
)
from .operators import laplacian_apply, markov_apply

FMT = "{:.12g}"  # a number in text for people; data files are written by _lines
# the header of the green and walk tables
_PAIRS_HEAD = "x_level,x_index,y_level,y_index,quantity,estimate,stderr,n_samples\n"

# the input files read by one invocation, stdin's text under "-", hashed
# only when a run manifest records them; main lets them go when it returns
_INPUT_TEXTS: dict = {}


def _read_text(path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    _INPUT_TEXTS[path] = text
    return text


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _write_output(path: str, text: str, args, extra: dict) -> None:
    """Write an output file plus its run manifest; stdout when no path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest = {
        "tool": "bharm",
        "version": __version__,
        "command": args.argv,
        "input_sha256_16": {p: _hash(t) for p, t in _INPUT_TEXTS.items()},
        "output_sha256_16": _hash(text),
    }
    manifest.update(extra)
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_keys(diagnostics: dict) -> dict:
    """A solve's manifest entries: its path and its other diagnostics."""
    return {"solve_path": diagnostics["path"],
            **{k: v for k, v in diagnostics.items() if k != "path"}}


def _parse_vertex(spec: str) -> VertexId:
    try:
        n, i = spec.split(",")
        return VertexId(int(n), int(i))
    except ValueError as exc:
        raise ValueError(f"bad vertex {spec!r}, expected 'level,index'") from exc


def _parse_ray(spec: str) -> list:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad ray {spec!r}, expected comma-separated vertex ids") from exc


def _parse_pins(pin_args) -> dict:
    pins: dict = {}
    for spec in pin_args or []:
        try:
            coord, val = spec.split("=")
            n, i = map(int, coord.split(","))
            val = float(val)
        except ValueError as exc:
            raise ValueError(f"bad pin {spec!r}, expected 'level,index=value'") from exc
        if i in pins.setdefault(n, {}):
            raise ValueError(f"vertex ({n},{i}) pinned twice")
        pins[n][i] = val
    return pins


def _diagram_arg(args):
    try:
        if os.path.exists(args.diagram):
            return parse_diagram(_read_text(args.diagram))
        return load_diagram(args.diagram)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load diagram {args.diagram!r}: {exc}") from exc


def _fn_arg(d, path):
    return parse_function(_read_text(path), d)


# --- subcommands -----------------------------------------------------------

def _cmd_gen(args) -> int:
    d = _diagram_arg(argparse.Namespace(diagram=args.spec))
    _write_output(args.out, format_diagram(d), args, {"generator": args.spec})
    return 0


def _cmd_validate(args) -> int:
    d = parse_diagram(_read_text(args.file))
    violations = validate(d)
    for v in violations:
        print(str(v))
    if violations:
        raise ValueError(f"{len(violations)} violation(s)")
    print(f"valid: {len(d.level_sizes)} levels, {d.total_vertices} vertices")
    return 0


def _cmd_harmonic(args) -> int:
    from .harmonic import auto_seed, solve_chain
    d = _diagram_arg(args)
    depth = args.depth if args.depth is not None else d.num_levels
    if not 1 <= depth <= d.num_levels:
        raise ValueError(f"depth must lie in 1..{d.num_levels}")
    pins = _parse_pins(args.pin)
    seed = None
    if args.seed_vector and args.seed_vector != "auto":
        seed = _fn_arg(d, args.seed_vector).values[1]
    elif 1 not in pins:
        seed = auto_seed(d)
    f, report = solve_chain(d, depth=depth, seed_f1=seed, pins=pins, tol=args.tol)
    if not report.consistent:
        lvl = report.first_inconsistent_level()
        print(f"# inconsistent at level {lvl}: residual "
              + FMT.format(report.residuals[lvl]), file=sys.stderr)
    _write_output(args.out, format_function(f), args,
                  {"tol": args.tol, **_solve_keys(report.diagnostics)})
    return 0


def _cmd_dimension(args) -> int:
    from .harmonic import harm_dimension
    d = _diagram_arg(args)
    depth = args.depth if args.depth is not None else d.num_levels
    res = harm_dimension(d, up_to_level=depth)
    _write_output(args.out, f"{res.as_table()}\nprefix dimension at level {depth}: "
                  f"{res.dimension}\n", args, {k: getattr(res, k) for k in (
                      "path", "first_rank_deficient_level", "svd_levels")})
    return 0


def _cmd_pole(args, dipole: bool) -> int:
    from .harmonic import solve_dipole, solve_monopole
    d = _diagram_arg(args)
    x = _parse_vertex(args.vertex)
    depth = args.depth if args.depth is not None else d.num_levels
    solve = solve_dipole if dipole else solve_monopole
    f, report = solve(d, x, up_to_level=depth, tol=args.tol)
    if not report.consistent:
        print("# inconsistent recursion; least-squares solution emitted", file=sys.stderr)
    _write_output(args.out, format_function(f), args,
                  {"pole": str(x), **_solve_keys(report.diagnostics)})
    return 0


def _cmd_green(args) -> int:
    from .pathspace import green_exact
    d = _diagram_arg(args)
    boundary = args.boundary if args.boundary is not None else d.num_levels
    verts = None if args.vertices is None else [
        _parse_vertex(s) for s in args.vertices.split(";")]
    gs = green_exact(d, boundary, vertices=verts)
    level, index = np.array([(v.level, v.index) for v in gs.vertices]).T
    k = level.size
    ys = level.repeat(2), index.repeat(2), np.tile([b"G", b"F"], k)

    def parts():  # per x, the G and F rows of every y in turn; then the U rows
        for x, i, g, f in zip(level, index, gs.green, gs.reach_ratio):
            yield np.full(2 * k, x), np.full(2 * k, i), *ys, np.stack([g, f], 1).ravel(), "0,0"
        yield level, index, level, index, np.full(k, b"U"), gs.return_prob, "0,0"
    _write_output(args.out, _lines(_PAIRS_HEAD, ",", parts()), args,
                  {"boundary_level": boundary, **_solve_keys(gs.diagnostics)})
    return 0


def _cmd_walk(args) -> int:
    from .pathspace import WalkConfig, simulate_walks
    d = _diagram_arg(args)
    start = _parse_vertex(args.start)
    targets = [_parse_vertex(s) for s in args.targets.split(";")] if args.targets else []
    absorb = args.absorb if args.absorb is not None else d.num_levels
    cfg = WalkConfig(max_steps=args.max_steps, num_walks=args.walks,
                     seed=args.seed, absorb_level=absorb)
    est = simulate_walks(d, start, cfg, targets)
    rows = [(p.target.level, p.target.index, q, value, stderr) for p in est.pairs
            for q, value, stderr in ((b"F", p.reach, p.reach_stderr),
                                     (b"G", p.visits, p.visits_stderr))]
    rows.append((start.level, start.index, b"U", est.return_prob, est.return_stderr))
    text = _lines(_PAIRS_HEAD, ",", [(f"{start.level},{start.index}", *zip(*rows),
                                      str(est.n_absorbed))])
    _write_output(args.out, text, args,
                  {"seed": args.seed, "n_capped": est.n_capped, **est.diagnostics})
    return 0


def _cmd_poisson(args) -> int:
    from .pathspace import WalkConfig, check_target_level, poisson_kernel
    d = _diagram_arg(args)
    fvals = _fn_arg(d, args.values)
    level = args.level
    check_target_level(d, level)
    cfg = None
    if args.method == "monte-carlo":
        cfg = WalkConfig(max_steps=args.max_steps, num_walks=args.walks,
                         seed=args.seed, absorb_level=level)
    res = poisson_kernel(d, fvals.values[level], level, method=args.method, cfg=cfg)
    if res.n_capped:
        print(f"# {res.n_capped} capped walk(s) excluded (bias note: see docs)",
              file=sys.stderr)
    keys = _solve_keys(res.diagnostics) if cfg is None else res.diagnostics
    _write_output(args.out, format_function(res.values), args,
                  {"method": args.method, "level": level, **keys})
    return 0


def _cmd_energy(args) -> int:
    from .energy import energy_lower_bound, energy_norm
    d = _diagram_arg(args)
    f = _fn_arg(d, args.fn)
    rep = energy_norm(d, f)
    bound, holds = energy_lower_bound(rep)
    if args.format == "csv":
        columns = (np.arange(d.num_levels), rep.level_increments, rep.energy_partial,
                   rep.level_currents[1:], [b * s for b, s in zip(rep.beta[:-1], d.level_sizes)],
                   rep.bound_partial[:-1])
        text = _lines("level,increment,energy_partial,level_current,beta_times_size,"
                      "bound_partial\n", ",", [columns])
    else:
        rows = ["level  increment        energy<=level   I_n             bound<=level"]
        for n in range(d.num_levels):
            rows.append(f"{n:>5}  " + "  ".join(
                FMT.format(v).ljust(15) for v in
                (rep.level_increments[n], rep.energy_partial[n],
                 rep.level_currents[n + 1], rep.bound_partial[n])))
        rows.append(f"total energy: {FMT.format(rep.energy)}  lower bound: "
                    + FMT.format(bound) + f"  holds: {holds}"
                    + f"  divergence flag: {rep.divergence_flag}")
        text = "\n".join(rows) + "\n"
    _write_output(args.out, text, args, {"energy": rep.energy})
    return 0


def _cmd_apply(args, which: str) -> int:
    d = _diagram_arg(args)
    f = _fn_arg(d, args.fn)
    out = (laplacian_apply if which == "laplacian" else markov_apply)(d, f)
    out.values[-1][:] = 0.0
    print(f"# level {d.num_levels} omitted: not determined at the truncation boundary",
          file=sys.stderr)
    _write_output(args.out, format_function(out), args, {"operator": which})
    return 0


def _cmd_convert(args) -> int:
    g = parse_graph(_read_text(args.graph))
    if args.ray is not None:
        res = extract_maximal_bratteli(g, _parse_ray(args.ray))
        d = res.diagram
        note = {"maximal_within_ball": res.maximal_within_ball}
    else:
        d = diagram_from_graph(g, args.root)
        note = {}
    _write_output(args.out, format_diagram(d), args, note)
    return 0


# --- closed-form verification ---------------------------------------------

def _verify_rows_pascal():
    from .closedforms import pascal_harmonic, pascal_pins
    from .diagram import gen_pascal
    from .harmonic import harmonicity_check, solve_chain
    d = gen_pascal(8, 1.0)
    f, _ = solve_chain(d, seed_f1=[1.0, -1.0], pins=pascal_pins(8))
    h = pascal_harmonic(8)
    rows = []
    for (n, i) in [(2, 0), (2, 1), (2, 2), (5, 2), (8, 3)]:
        rows.append((f"h({n},{i})", h.values[n][i], f.values[n][i], "closed-form vs recursion"))
    rep = harmonicity_check(d, f)
    rows.append(("max harmonicity residual", 0.0, rep.max_residual, "recursion output"))
    return rows, 1e-8


def _verify_rows_tree():
    from .closedforms import tree_path_value, tree_pins, tree_symmetric_harmonic
    from .diagram import gen_binary_tree
    from .harmonic import solve_chain
    lam = 2.0
    d = gen_binary_tree(8, lam)
    f, _ = solve_chain(d, seed_f1=[lam, -lam], pins=tree_pins(8, lam))
    rows = []
    for n in (2, 4, 7):
        rows.append((f"f(x_{n}(1))", tree_path_value(n, lam), f.values[n][0],
                     "closed-form vs recursion"))
    g = tree_symmetric_harmonic(8, lam)
    sup = max(float(np.abs(a - b).max()) for a, b in zip(f.values, g.values))
    rows.append(("sup |recursion - closed form|", 0.0, sup, "whole prefix"))
    return rows, 1e-8


def _verify_rows_stationary():
    from .closedforms import stationary_formula
    from .diagram import gen_stationary
    from .harmonic import harmonicity_check, solve_chain
    d = gen_stationary([[1, 1], [1, 0]], 8, 2.0)
    f1 = np.array([1.0, -1.0])
    f, _ = solve_chain(d, seed_f1=f1)
    formula = stationary_formula(d, f1)
    rows = []
    for n in (2, 3):
        for i in (0, 1):
            rows.append((f"f_{n}({i})", formula.values[n][i], f.values[n][i],
                         "formula vs recursion"))
    rows.append(("recursion harmonicity residual", 0.0,
                 harmonicity_check(d, f).max_residual, "recursion output"))
    rows.append(("formula harmonicity residual", 0.0,
                 harmonicity_check(d, formula).max_residual,
                 "formula output (nonzero: formula family is not harmonic here)"))
    return rows, 1e-9


def _verify_rows_bounds():
    from .closedforms import pascal_harmonic, tree_symmetric_harmonic
    from .diagram import gen_binary_tree, gen_pascal
    from .energy import energy_lower_bound, energy_norm
    rows = []
    d = gen_pascal(10, 1.0)
    rep = energy_norm(d, pascal_harmonic(10))
    bound, holds = energy_lower_bound(rep)
    rows.append(("pascal bound <= energy", 1.0, 1.0 if holds else 0.0, "harmonic lower bound"))
    rows.append(("pascal divergence flag", 1.0, 1.0 if rep.divergence_flag else 0.0,
                 "infinite-energy criterion"))
    d = gen_binary_tree(10, 2.0)
    rep = energy_norm(d, tree_symmetric_harmonic(10, 2.0))
    bound, holds = energy_lower_bound(rep)
    rows.append(("tree bound <= energy", 1.0, 1.0 if holds else 0.0, "harmonic lower bound"))
    return rows, 1e-12


def _verify_rows_greens():
    from .diagram import gen_binary_tree
    from .pathspace import green_exact, green_identity_report
    d = gen_binary_tree(10, 2.0)
    verts = [VertexId(0, 0), VertexId(1, 0), VertexId(2, 1), VertexId(3, 4)]
    gs = green_exact(d, 10, vertices=verts)
    rep = green_identity_report(d, gs)
    rows = [
        ("G(x,x)(1-U(x,x)) = 1", 0.0, rep.diag_product, "diagonal identity"),
        ("G(x,y) = F(x,y)G(y,y)", 0.0, rep.ratio_vs_hit, "reach/visit identity"),
        ("U one-step", 0.0, rep.one_step_return, "return decomposition"),
        ("F one-step", 0.0, rep.one_step_reach, "reach decomposition"),
        ("c(x)G(x,y) = c(y)G(y,x)", 0.0, rep.reversibility_g, "reversibility (G)"),
    ]
    return rows, 1e-9


def _cmd_verify(args) -> int:
    cases = {
        "pascal": _verify_rows_pascal,
        "tree": _verify_rows_tree,
        "stationary": _verify_rows_stationary,
        "bounds": _verify_rows_bounds,
        "greens": _verify_rows_greens,
    }
    if args.case not in cases:
        raise ValueError(f"unknown case {args.case!r}; pick from {sorted(cases)}")
    rows, tol = cases[args.case]()
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, expected, computed, tag in rows:
        good = abs(expected - computed) <= tol
        ok = ok and good
        print(f"{name.ljust(width)}  expected {FMT.format(expected):>18}  "
              f"computed {FMT.format(computed):>18}  [{tag}] "
              + ("ok" if good else "MISMATCH"))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# --- argument parsing -------------------------------------------------------

def _arg(*flags, **kwargs):
    return flags, kwargs


def tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, not {text!r}")
    return value


def count(text: str) -> int:
    """A count, level or depth argument: an integer >= 1 (upper bounds are
    checked by the library, which knows the diagram)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


_COMMON = [_arg("--diagram", required=True,
                help="diagram file or generator spec (tree:d:lam, ...)"),
           _arg("--out", default=None, help="output file ('-' = stdout)")]
_TOL = [_arg("--tol", type=tolerance, default=1e-9)]
_DEPTH = [_arg("--depth", type=count, default=None)]
_FN = [_arg("--fn", required=True)]
_WALKS = [_arg("--walks", type=count, default=10000),
          _arg("--max-steps", type=count, default=100000), _arg("--seed", type=int, default=0)]

# name -> (help, handler, arguments), in the order that `bharm -h` lists them
_COMMANDS = {
    "gen": ("emit a generated diagram", _cmd_gen, [_arg("spec"), _arg("--out", default=None)]),
    "validate": ("check diagram invariants", _cmd_validate,
                 [_arg("file", nargs="?", default="-")]),
    "harmonic": ("run the harmonic level recursion", _cmd_harmonic,
                 _COMMON + _TOL + _DEPTH + [
                     _arg("--seed-vector", default="auto"),
                     _arg("--pin", action="append", help="level,index=value (repeatable)")]),
    "dimension": ("prefix dimension per level", _cmd_dimension, _COMMON + _DEPTH),
    **{name: (f"solve the {name} recursion", lambda a, dip=dip: _cmd_pole(a, dip),
              _COMMON + _TOL + [_arg("--vertex", required=True, help="level,index")] + _DEPTH)
       for name, dip in (("monopole", False), ("dipole", True))},
    "green": ("exact killed-chain G/F/U values", _cmd_green,
              _COMMON + [_arg("--boundary", type=count, default=None),
                         _arg("--vertices", default=None, help="'l,i;l,i;...'")]),
    "walk": ("Monte Carlo walk estimates", _cmd_walk,
             _COMMON + [_arg("--start", required=True), _arg("--targets", default=None)]
             + _WALKS + [_arg("--absorb", type=count, default=None)]),
    "poisson": ("harmonic extension of boundary data", _cmd_poisson,
                _COMMON + [_arg("--level", type=count, required=True),
                           _arg("--values", required=True, help="fn file with the boundary data"),
                           _arg("--method", choices=["exact-dirichlet", "monte-carlo"],
                                default="exact-dirichlet")] + _WALKS),
    "energy": ("energy report for a function file", _cmd_energy,
               _COMMON + _FN + [_arg("--format", choices=["csv", "pretty"], default="pretty")]),
    **{f"apply-{op}": (f"{op} operator on a function file", lambda a, op=op: _cmd_apply(a, op),
                       _COMMON + _FN)
       for op in ("laplacian", "markov")},
    "convert": ("general graph -> diagram", _cmd_convert,
                [_arg("--graph", required=True), _arg("--root", type=int, default=0),
                 _arg("--ray", default=None, help="comma-separated vertex ids"),
                 _arg("--out", default=None)]),
    "verify-paper": ("closed-form regression cases", _cmd_verify,
                     [_arg("case", help="tree | pascal | stationary | bounds | greens")]),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names a subcommand, else the
    parser of every subcommand (each add_argument costs a terminal size
    lookup).  Usage and help text are the same either way: a subcommand's
    parser does not depend on the others, and the top-level usage lists
    every subcommand."""
    p = argparse.ArgumentParser(prog="bharm",
                                description="potential theory on level-graded networks")
    if command in _COMMANDS:
        # the usage a full parser derives from its choices
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, func, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    args.argv = argv  # recorded in run manifests
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        # RuntimeError: solver failures (singular systems); MemoryError: e.g. a
        # levels line whose sizes fit int64 but not memory, or a sparse factor
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        _INPUT_TEXTS.clear()


if __name__ == "__main__":
    sys.exit(main())
