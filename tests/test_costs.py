"""Cost goldens: the counts that each kind of request reports about the
work it did, compared exactly on small fixed requests run through the CLI.

Clocks drift with the host, so a regression in how much work is done is
caught by its counts instead: walk steps, draws and refills, capped walks,
the Dirichlet solves' factorizations and solves, the recursion's path,
refinement steps and fallback (and LSQR's iterations and stop reason on
its path), and `dimension`'s route.  Each count depends only on the
request.  Floats such as `max_residual` are left out.  A change that moves
a count updates `cost_goldens.json` and says why.
"""
import json
import math
import pathlib
import re

import numpy as np
import pytest

from bharm import LevelFunction
from bharm.cli import main
from bharm.fileio import format_diagram, format_function, load_diagram
from bruteforce import broom

COST_GOLDENS = json.loads((pathlib.Path(__file__).parent / "cost_goldens.json").read_text())

# the manifest keys that each command's counts come from
COUNTED = {"walk": ("steps", "draws", "refills", "n_capped"),
           "poisson-monte-carlo": ("steps", "draws", "refills"),
           "green": ("solve_path", "factorizations", "solves"),
           "poisson-exact-dirichlet": ("solve_path", "factorizations", "solves"),
           "harmonic": ("solve_path", "refine_steps", "fallback"),
           "monopole": ("solve_path", "refine_steps", "fallback"),
           "dipole": ("solve_path", "refine_steps", "fallback"),
           "dimension": ("path", "first_rank_deficient_level", "svd_levels")}
# and on the recursion's lsqr path, LSQR's iterations and stop reason
LSQR_COUNTED = ("itn", "istop")


def _inputs(tmp_path):
    """The requests' input files: the broom of width 300, the boundary data
    of each `poisson` request, and the seed that sends a `harmonic` to LSQR."""
    files = {"broom": tmp_path / "broom.bd", "out": tmp_path / "out"}
    files["broom"].write_text(format_diagram(broom(300)))
    for spec, level in (("pascal:8:1", 8), ("tree:6:2", 6), ("tree:10:2", 10),
                        ("pascal:20:1", 12)):
        f = LevelFunction.zeros(load_diagram(spec))
        f.values[level][:] = [math.sin(1.0 + 0.31 * i) for i in range(f.values[level].size)]
        name = f"{spec.split(':')[0]}{level}"
        files[name] = tmp_path / f"{name}.fn"
        files[name].write_text(format_function(f))
    seed = LevelFunction.zeros(load_diagram("bottleneck:1-30-60-60-30-60:7"))
    seed.values[1][:] = np.random.default_rng(2).standard_normal(30)
    files["seed"] = tmp_path / "seed.fn"
    files["seed"].write_text(format_function(seed))
    return files


def run_case(argv, tmp_path, capsys) -> dict:
    """Run one request and return its counts: the counted manifest keys and,
    for Monte Carlo `poisson`, the capped walks that it reports."""
    files = _inputs(tmp_path)
    argv = [a.format(**files) for a in argv]
    assert main(argv) == 0
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    kind = argv[0] if argv[0] != "poisson" else f"poisson-{manifest['method']}"
    counts = {k: manifest[k] for k in COUNTED[kind]}
    if manifest.get("solve_path") == "lsqr":
        counts.update((k, manifest[k]) for k in LSQR_COUNTED)
    if kind == "poisson-monte-carlo":
        capped = re.search(r"^# (\d+) capped walk", err, re.M)
        counts["n_capped"] = int(capped.group(1)) if capped else 0
    return counts


def test_the_goldens_cover_every_counted_kind_and_bind_the_draw_budget():
    kinds = {c["argv"][0] if c["argv"][0] != "poisson" else
             "poisson-" + ("monte-carlo" if "monte-carlo" in c["argv"] else "exact-dirichlet")
             for c in COST_GOLDENS.values()}
    assert kinds == set(COUNTED)
    # walks of more than 1,024 lanes, where _MAX_DRAWS rather than
    # _MAX_BLOCKS sets a refill's blocks, and capped walks of both commands
    assert any(c["argv"][0] == "walk" and int(c["argv"][c["argv"].index("--walks") + 1]) > 1024
               for c in COST_GOLDENS.values())
    assert {c["argv"][0] for c in COST_GOLDENS.values() if c["counts"].get("n_capped")} == {
        "walk", "poisson"}
    assert any(c["counts"].get("solve_path") == "lsqr" for c in COST_GOLDENS.values())


@pytest.mark.parametrize("name", sorted(COST_GOLDENS))
def test_request_counts_golden(name, tmp_path, capsys):
    case = COST_GOLDENS[name]
    assert run_case(case["argv"], tmp_path, capsys) == case["counts"]
