import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bharm.diagram
from bharm import cli
from bharm.cli import _build_parser, main
from bharm.fileio import (_GENERATORS, format_function, load_diagram, parse_diagram,
                          parse_function)
from bharm import LevelFunction, gen_binary_tree, gen_pascal
from bharm.closedforms import pascal_harmonic, tree_symmetric_harmonic


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "bharm.cli", *args],
                          input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_validate_pipe():
    code, out, _ = run_cli(["gen", "tree:3:2"])
    assert code == 0
    code, out2, _ = run_cli(["validate"], stdin=out)
    assert code == 0
    assert "valid" in out2


def test_validate_reports_violations_and_exits_one(tmp_path):
    text = "bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 1\ne 1 0 0 1\ne 1 1 0 1\n"
    code, out, err = run_cli(["validate"], stdin=text)
    assert code == 1
    assert "incoming" in out


def test_usage_error_exit_two():
    code, _, _ = run_cli(["walk"])  # missing required args
    assert code == 2
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_harmonic_pin_matches_closed_form(tmp_path):
    out_file = tmp_path / "h.fn"
    code = main(["harmonic", "--diagram", "pascal:8:1", "--pin", "1,0=1",
                 "--pin", "2,0=3", "--pin", "3,0=6", "--pin", "4,0=10",
                 "--pin", "5,0=15", "--pin", "6,0=21", "--pin", "7,0=28",
                 "--pin", "8,0=36", "--out", str(out_file)])
    assert code == 0
    d = gen_pascal(8, 1.0)
    f = parse_function(out_file.read_text(), d)
    h = pascal_harmonic(8)
    assert f.values[1][0] == pytest.approx(1.0, abs=1e-10)
    for n in range(9):
        assert np.allclose(f.values[n], h.values[n], atol=1e-8)


@pytest.mark.parametrize("spec", ["pascal:90:1", "pascal:120:1"])
def test_harmonic_deep_pascal_is_consistent(spec, tmp_path, capsys):
    out_file = tmp_path / "h.fn"
    assert main(["harmonic", "--diagram", spec, "--out", str(out_file)]) == 0
    assert "inconsistent" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "h.fn.manifest.json").read_text())
    assert manifest["max_residual"] <= 1e-9
    # the printed 12 digits cannot meet tol, so check the solve in process
    from bharm import harmonicity_check, solve_chain
    d = gen_pascal(int(spec.split(":")[1]), 1.0)
    f, _ = solve_chain(d, seed_f1=[1.0, -1.0])
    assert harmonicity_check(d, f).consistent
    assert manifest["solve_path"] == "augmented-lu"
    assert manifest["fallback"] is None


@pytest.mark.parametrize("spec, bound", [
    ("bottleneck:1-30-200-200-30-200-200:7", 1e-7),
    ("ladder:20:1.5", 1e-6),
])
def test_harmonic_returns_the_global_solve_when_it_misses_tol(spec, bound, tmp_path, capsys):
    # the values grow to 1e8-1e11, so the global solve misses the absolute
    # tol and the verdict stays inconsistent, but its residual is what is
    # returned
    out_file = tmp_path / "h.fn"
    assert main(["harmonic", "--diagram", spec, "--out", str(out_file)]) == 0
    assert capsys.readouterr().err.startswith("# inconsistent at level ")
    manifest = json.loads((tmp_path / "h.fn.manifest.json").read_text())
    assert manifest["max_residual"] <= bound
    assert manifest["fallback"] is None


def test_a_structurally_singular_solve_prints_nothing_from_c(tmp_path, capfd):
    # the seed and the pins leave 180 equations, of which a maximum
    # transversal matches 177; SuperLU, tried on them, made OpenBLAS write
    # "** On entry to DGEMV ..." three times to file descriptor 1 before it
    # failed, so the capture is of file descriptors, not of sys.stdout
    spec = "bottleneck:1-30-60-60-30-60:7"
    seed = LevelFunction.zeros(load_diagram(spec))
    seed.values[1][:] = np.random.default_rng(2).standard_normal(30)
    (tmp_path / "s.fn").write_text(format_function(seed))
    out_file = tmp_path / "h.fn"
    assert main(["harmonic", "--diagram", spec, "--pin", "4,14=1.72", "--pin", "4,10=-0.065",
                 "--pin", "3,12=0.054", "--seed-vector", str(tmp_path / "s.fn"),
                 "--out", str(out_file)]) == 0
    assert capfd.readouterr() == ("", "# inconsistent at level 0: residual 0.0755702718278\n")
    manifest = json.loads((tmp_path / "h.fn.manifest.json").read_text())
    assert manifest["solve_path"] == "lsqr"
    assert manifest["fallback"] == "structurally rank deficient (177 of 180 equations)"


@pytest.mark.parametrize("argv, message", [
    (["--pin", "99,0=1"], "error: pin on level 99 outside levels 1..10\n"),
    (["--pin", "0,0=5"], "error: pin on level 0 outside levels 1..10\n"),
    (["--seed-vector", "{seed}", "--pin", "1,0=3"],
     "error: pin on level 1, but the prefix (f_0 and any seed) fixes levels 0..1\n"),
], ids=["past-depth", "root", "seeded-level"])
def test_harmonic_pin_the_solve_cannot_honour_is_exit_one(argv, message, tmp_path, capsys):
    seed = tmp_path / "seed.fn"
    seed.write_text("fn v1\n1 0 1\n1 1 -1\n")
    argv = [a.format(seed=seed) for a in argv]
    assert main(["harmonic", "--diagram", "pascal:10:1", *argv, "--out", "-"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", message)


def test_manifest_written_and_reproducible(tmp_path, monkeypatch):
    # BH_THREADS is not read: a value that is not a number changes nothing
    monkeypatch.setenv("BH_THREADS", "two")
    out_file = tmp_path / "d.bd"
    assert main(["gen", "pascal:4:1", "--out", str(out_file)]) == 0
    first = out_file.read_bytes()
    manifest = json.loads((tmp_path / "d.bd.manifest.json").read_text())
    assert manifest["tool"] == "bharm"
    assert "output_sha256_16" in manifest
    assert main(["gen", "pascal:4:1", "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == first


def test_inputs_are_hashed_only_for_a_manifest(tmp_path, monkeypatch, capsys):
    # validate and runs that write to stdout hash nothing, a manifest hashes
    # the inputs read up to it, and main lets the texts go when it returns
    path = tmp_path / "d.bd"
    path.write_text(cli.format_diagram(gen_pascal(30, 1.0)))
    hashed, digest = [], cli._hash
    monkeypatch.setattr(cli, "_hash", lambda text: hashed.append(len(text)) or digest(text))
    assert main(["validate", str(path)]) == 0
    assert main(["green", "--diagram", str(path), "--vertices", "3,1"]) == 0
    assert main(["green", "--diagram", str(path), "--vertices", "99,1"]) == 1
    assert hashed == [] and cli._INPUT_TEXTS == {}
    out = tmp_path / "g.csv"
    assert main(["green", "--diagram", str(path), "--vertices", "3,1", "--out", str(out)]) == 0
    assert hashed == [len(path.read_text()), len(out.read_text())] and cli._INPUT_TEXTS == {}
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["input_sha256_16"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()[:16]}


def test_a_manifest_hashes_the_text_read_from_stdin(tmp_path, monkeypatch):
    # the function comes from stdin, and the manifest records it under "-"
    import io
    d = gen_pascal(6, 1.0)
    path, out = tmp_path / "d.bd", tmp_path / "e.csv"
    path.write_text(cli.format_diagram(d))
    text = format_function(LevelFunction.constant(d, 1.0))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["energy", "--diagram", str(path), "--fn", "-", "--format", "csv",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert manifest["input_sha256_16"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()[:16],
        "-": hashlib.sha256(text.encode()).hexdigest()[:16]}
    assert cli._INPUT_TEXTS == {}


def test_manifest_records_the_argv_given_to_main(tmp_path):
    out_file = tmp_path / "h.fn"
    argv = ["harmonic", "--diagram", "pascal:8:1", "--out", str(out_file)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "h.fn.manifest.json").read_text())
    assert manifest["command"] == argv


def test_dimension_table(capsys):
    assert main(["dimension", "--diagram", "pascal:5:1"]) == 0
    out = capsys.readouterr().out
    assert "prefix dimension at level 5: 5" in out


DIMENSION_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "dimension_goldens.json").read_text())


@pytest.mark.parametrize("spec", sorted(DIMENSION_GOLDENS))
def test_dimension_stdout_golden(spec, capsys):
    assert main(["dimension", "--diagram", spec]) == 0
    assert capsys.readouterr().out == DIMENSION_GOLDENS[spec]


def test_dimension_out_writes_the_table_and_its_route(tmp_path, capsys):
    # --out was accepted and ignored: the table went to stdout, and no file
    # or manifest was written
    spec, out = "bottleneck:1-30-200-200-30-200-200:7", tmp_path / "dim.txt"
    assert main(["dimension", "--diagram", spec, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == DIMENSION_GOLDENS[spec]
    manifest = json.loads((tmp_path / "dim.txt.manifest.json").read_text())
    assert {k: manifest[k] for k in ("path", "first_rank_deficient_level", "svd_levels")} \
        == {"path": "propagation", "first_rank_deficient_level": 3, "svd_levels": 0}


@pytest.mark.parametrize("depth", ["50"])
def test_dimension_depth_outside_the_levels_is_exit_one(depth, capsys):
    assert main(["dimension", "--diagram", "tree:5:2", "--depth", depth]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: depth must lie in 1..5\n"


WALK_GOLDENS = json.loads((pathlib.Path(__file__).parent / "walk_goldens.json").read_text())
# manifest keys added after the walk goldens were taken: the walk engine's counts
WALK_ADDED_MANIFEST_KEYS = ("steps", "draws", "refills")


@pytest.mark.parametrize("name", sorted(WALK_GOLDENS["cases"]))
def test_walk_and_monte_carlo_poisson_files_golden(name, tmp_path, capsys):
    """Output files, stderr and manifests of `walk` and Monte Carlo `poisson`
    stay byte-identical for fixed seeds: tree, Pascal, a stationary diagram
    of degree 10 and a file with irregular conductances (rows of up to 18
    neighbours); root and non-root starts, a target equal to the start, a
    target listed twice, capped walks, walks of hundreds of steps, walk counts that are not
    multiples of 4, and negative seeds and seeds of at least 2**63.  The
    manifests hold the walk engine's counts as well, and nothing else."""
    case = WALK_GOLDENS["cases"][name]
    files = {"diagram": tmp_path / "irregular.bd", "values": tmp_path / "in.fn"}
    files["diagram"].write_text(WALK_GOLDENS["diagram"])
    if case["values"] is not None:
        files["values"].write_text(case["values"])
    out = tmp_path / "out"
    argv = [a.format(**files) for a in case["argv"]] + ["--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == case["out"]
    assert capsys.readouterr().err == case["stderr"]
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    manifest = {k: v for k, v in manifest.items() if k not in ("command", "input_sha256_16")}
    added = {k: manifest.pop(k) for k in WALK_ADDED_MANIFEST_KEYS}
    assert all(isinstance(v, int) for v in added.values())
    assert added["draws"] >= added["steps"] > 0 and added["refills"] > 0
    assert manifest == case["manifest"]


OUTPUT_GOLDENS = json.loads((pathlib.Path(__file__).parent / "output_goldens.json").read_text())


def _sample_function(sizes):
    """The input function of the output goldens: sin(1 + 0.7 n + 0.31 i)."""
    return "fn v1\n" + "".join(f"{n} {i} {math.sin(1.0 + 0.7 * n + 0.31 * i):.6f}\n"
                               for n, s in enumerate(sizes) for i in range(s))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# manifest keys added after the goldens were taken: the recursion's
# refinement steps, and the Dirichlet system's counts and largest residual
ADDED_MANIFEST_KEYS = {"harmonic": ("refine_steps",), "monopole": ("refine_steps",),
                       "dipole": ("refine_steps",),
                       "green": ("factorizations", "solves", "max_residual"),
                       "poisson": ("factorizations", "solves", "max_residual")}


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDENS["cases"]))
def test_solver_and_operator_outputs_golden(name, tmp_path, capsys):
    """stdout, stderr, output files and manifests of harmonic, monopole,
    dipole, green, exact poisson, energy and both operators stay
    byte-identical on pascal:40 (lambda 1 and 1.5), a stationary diagram with
    lambda 1.7, a ladder and a file with random weights.  Only max_residual
    may move, and only at rounding level: residual sums may run in another
    order, but the solve path, fallback and consistency may not change.  The
    manifests hold the added keys as well, and nothing else."""
    case = OUTPUT_GOLDENS["cases"][name]
    files = {"diagram": tmp_path / "irregular.bd", "values": tmp_path / "in.fn",
             "out": tmp_path / "out"}
    files["diagram"].write_text(OUTPUT_GOLDENS["diagram"])
    argv = [a.format(**files) for a in case["argv"]]
    spec = argv[argv.index("--diagram") + 1]
    files["values"].write_text(_sample_function(load_diagram(spec).level_sizes))
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert _sha256(captured.out) == case["stdout_sha256"]
    assert captured.err == case["stderr"]
    if case["out_sha256"] is None:
        assert not files["out"].exists()
        return
    assert _sha256(files["out"].read_text()) == case["out_sha256"]
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    manifest = {k: v for k, v in manifest.items() if k not in ("command", "input_sha256_16")}
    expected = dict(case["manifest"])
    added = {k: manifest.pop(k) for k in ADDED_MANIFEST_KEYS.get(case["argv"][0], ())}
    assert all(isinstance(v, int) and v >= 0 for k, v in added.items() if k != "max_residual")
    assert added.get("factorizations", 1) == 1
    if "max_residual" in expected:
        got, want = manifest.pop("max_residual"), expected.pop("max_residual")
        assert math.isclose(got, want, rel_tol=1.0, abs_tol=1e-14)
    assert manifest == expected


@pytest.mark.parametrize("argv", [
    ["walk", "--start", "0,0", "--walks", "20"],
    ["poisson", "--level", "2", "--method", "monte-carlo", "--walks", "20"],
], ids=["walk", "poisson"])
def test_walks_on_a_negative_conductance_are_exit_one(argv, tmp_path, capsys):
    diagram = tmp_path / "neg.bd"
    diagram.write_text("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 -0.5\n"
                       "e 1 0 0 1\ne 1 0 1 1\ne 1 1 1 1\n")
    values = tmp_path / "in.fn"
    values.write_text("fn v1\n2 0 1\n2 1 2\n")
    if argv[0] == "poisson":
        argv = argv + ["--values", str(values)]
    assert main(argv[:1] + ["--diagram", str(diagram)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 0, edge (0,1): conductance -0.5 is not positive and finite\n"


ISOLATED_VERTEX_DIAGRAM = ("bratteli v1\nlevels 4 : 1 2 2 2\ne 0 0 0 1\ne 0 0 1 1\n"
                           "e 1 0 0 1\ne 2 0 0 1\ne 2 0 1 1\n")


@pytest.mark.parametrize("argv", [
    ["green"],
    ["harmonic"],
    ["monopole", "--vertex", "1,0"],
    ["apply-laplacian", "--fn", "{values}"],
    ["apply-markov", "--fn", "{values}"],
    ["poisson", "--level", "3", "--values", "{boundary}", "--method", "exact-dirichlet"],
    ["poisson", "--level", "3", "--values", "{boundary}", "--method", "monte-carlo",
     "--walks", "5"],
    ["walk", "--start", "0,0", "--walks", "5"],
    ["dimension"],
    ["energy", "--fn", "{values}"],
], ids=["green", "harmonic", "monopole", "apply-laplacian", "apply-markov", "poisson",
        "poisson-monte-carlo", "walk", "dimension", "energy"])
def test_an_isolated_vertex_is_exit_one_naming_it(argv, tmp_path, capsys):
    # vertex (2,1) has no edges; exact poisson once exited with scipy's
    # "Factor is exactly singular", Monte Carlo poisson named only a walk
    # started there, and walk, dimension and energy exited 0
    files = {"diagram": tmp_path / "iso.bd", "values": tmp_path / "f.fn",
             "boundary": tmp_path / "b.fn"}
    files["diagram"].write_text(ISOLATED_VERTEX_DIAGRAM)
    files["values"].write_text("fn v1\n0 0 1\n1 0 1\n1 1 2\n2 0 1\n2 1 2\n3 0 1\n3 1 2\n")
    files["boundary"].write_text("fn v1\n3 0 1\n3 1 2\n")
    argv = [a.format(**files) for a in argv]
    assert main(argv[:1] + ["--diagram", str(files["diagram"])] + argv[1:]
                + ["--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: isolated vertex at level 2, index 1 (c(x) = 0)\n"
    assert not (tmp_path / "out").exists()


# two 3-level files, each with one fault on its last level: a negative
# conductance into it, and an isolated vertex (2,1) on it
_LAST_LEVEL_FAULTS = {
    "negative": ("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 1\ne 1 0 0 1\n"
                 "e 1 1 1 -0.5\n",
                 "error: level 1, edge (1,1): conductance -0.5 is not positive and finite\n"),
    "isolated": ("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 1\ne 1 0 0 1\n"
                 "e 1 1 0 1\n",
                 "error: isolated vertex at level 2, index 1 (c(x) = 0)\n"),
}


@pytest.mark.parametrize("fault", sorted(_LAST_LEVEL_FAULTS))
@pytest.mark.parametrize("argv", [
    ["harmonic", "--depth", "1"],
    ["monopole", "--vertex", "0,0", "--depth", "1"],
    ["dipole", "--vertex", "1,0", "--depth", "2"],  # a dipole's pole is off the root
    ["dimension", "--depth", "1"],
    ["green", "--boundary", "1"],
    ["walk", "--start", "0,0", "--absorb", "1", "--walks", "5"],
    ["poisson", "--level", "1", "--values", "{fn}", "--method", "exact-dirichlet"],
    ["poisson", "--level", "1", "--values", "{fn}", "--method", "monte-carlo", "--walks", "5"],
    ["energy", "--fn", "{fn}"],
    ["apply-laplacian", "--fn", "{fn}"],
    ["apply-markov", "--fn", "{fn}"],
], ids=["harmonic", "monopole", "dipole", "dimension", "green", "walk", "poisson",
        "poisson-monte-carlo", "energy", "apply-laplacian", "apply-markov"])
def test_every_reader_of_the_numbers_checks_every_stored_level(argv, fault, tmp_path, capsys):
    # one check of a diagram's numbers, whatever the command and however
    # few levels it reads: walk, Monte Carlo poisson and dimension once
    # checked only the levels they read, and energy no c(x)
    text, message = _LAST_LEVEL_FAULTS[fault]
    diagram, fn = tmp_path / "d.bd", tmp_path / "f.fn"
    diagram.write_text(text)
    fn.write_text("fn v1\n0 0 1\n1 0 1\n1 1 2\n2 0 1\n2 1 2\n")
    argv = [a.format(fn=fn) for a in argv]
    assert main(argv[:1] + ["--diagram", str(diagram), "--out", str(tmp_path / "out")]
                + argv[1:]) == 1
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


def test_monopole_dipole_outputs(tmp_path):
    out_file = tmp_path / "w.fn"
    assert main(["monopole", "--diagram", "tree:6:2", "--vertex", "0,0",
                 "--out", str(out_file)]) == 0
    d = gen_binary_tree(6, 2.0)
    w = parse_function(out_file.read_text(), d)
    # Delta w(o) = 1 with w(o) = 0
    assert float(w.values[1].sum()) == pytest.approx(-1.0, abs=1e-9)
    assert main(["dipole", "--diagram", "tree:6:2", "--vertex", "1,0",
                 "--out", str(tmp_path / "v.fn")]) == 0
    manifest = json.loads((tmp_path / "v.fn.manifest.json").read_text())
    assert (manifest["solve_path"], manifest["fallback"]) == ("augmented-lu", None)
    assert "threads" not in manifest


def test_green_csv_schema(capsys):
    assert main(["green", "--diagram", "tree:6:2", "--vertices", "0,0;1,0",
                 "--out", "-"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "x_level,x_index,y_level,y_index,quantity,estimate,stderr,n_samples"
    assert any(",G," in ln for ln in lines[1:])
    assert any(",U," in ln for ln in lines[1:])


@pytest.mark.parametrize("spec, digest", [
    ("tree:6:2", "bd6bb99ecf2634bd"),
    ("pascal:20:1", "2f706eb2547973ff"),
])
def test_all_pairs_green_table_is_pinned(spec, digest, capsys):
    # no golden covers the all-pairs table; these are its sha256 prefixes at the parent
    assert main(["green", "--diagram", spec]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def test_walk_csv_deterministic(tmp_path):
    args = ["walk", "--diagram", "tree:6:2", "--start", "0,0",
            "--targets", "1,0;2,1", "--walks", "500", "--seed", "7",
            "--out", str(tmp_path / "w.csv")]
    assert main(args) == 0
    first = (tmp_path / "w.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "w.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "x_level,x_index,y_level,y_index,quantity,estimate,stderr,n_samples"


@pytest.mark.parametrize("listed, once", [
    ("1,0;1,0;2,1", "1,0;2,1"),
    ("1,0;0,0;0,0", "1,0;0,0"),
], ids=["target-twice", "start-twice"])
def test_walk_repeats_the_rows_of_a_target_listed_twice(listed, once, capsys):
    """As green --vertices repeats its rows, each listing of a target
    prints that vertex's F and G rows."""
    out = {}
    for targets in (listed, once):
        assert main(["walk", "--diagram", "tree:6:2", "--start", "0,0", "--targets", targets,
                     "--walks", "2000", "--seed", "3"]) == 0
        out[targets] = capsys.readouterr().out.splitlines()
    rows = {t: out[once][1 + 2 * j:3 + 2 * j] for j, t in enumerate(once.split(";"))}
    assert out[listed] == ([out[once][0]] + [r for t in listed.split(";") for r in rows[t]]
                           + [out[once][-1]])


def test_poisson_exact(tmp_path):
    d = gen_binary_tree(5, 2.0)
    f = tree_symmetric_harmonic(5, 2.0)
    fn_file = tmp_path / "bdry.fn"
    fn_file.write_text(format_function(f))
    out_file = tmp_path / "h.fn"
    assert main(["poisson", "--diagram", "tree:5:2", "--level", "5",
                 "--values", str(fn_file), "--out", str(out_file)]) == 0
    got = parse_function(out_file.read_text(), d)
    for n in range(6):
        assert np.allclose(got.values[n], f.values[n], atol=1e-9)


def test_energy_csv(tmp_path, capsys):
    d = gen_binary_tree(5, 2.0)
    fn_file = tmp_path / "f.fn"
    fn_file.write_text(format_function(tree_symmetric_harmonic(5, 2.0)))
    assert main(["energy", "--diagram", "tree:5:2", "--fn", str(fn_file),
                 "--format", "csv", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("level,increment,energy_partial")


def test_apply_laplacian_masks_boundary(tmp_path, capsys):
    d = gen_pascal(4, 1.0)
    fn_file = tmp_path / "f.fn"
    fn_file.write_text(format_function(pascal_harmonic(4)))
    assert main(["apply-laplacian", "--diagram", "pascal:4:1",
                 "--fn", str(fn_file), "--out", "-"]) == 0


BAD_CONDUCTANCE_DIAGRAM = ("bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 {}\n"
                           "e 1 0 0 1\ne 1 1 1 1\n")


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_validate_names_a_conductance_outside_zero_to_infinity(value, tmp_path, capsys):
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(value))
    assert main(["validate", str(diagram)]) == 1
    out, err = capsys.readouterr()
    assert out == (f"[positivity] level 0, edge (0,1): c={value} on edge "
                   "(0 < c_xy < inf required exactly on edges)\n")
    assert err == "error: 1 violation(s)\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_walks_on_a_non_finite_conductance_are_exit_one(value, tmp_path, capsys):
    # an infinite conductance once capped every walk and printed estimates of 0
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(value))
    assert main(["walk", "--diagram", str(diagram), "--start", "0,0", "--targets", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: level 0, edge (0,1): conductance {value} is not positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["green", "--vertices", "0,0;1,1"],
    ["poisson", "--level", "2"],
], ids=["green", "poisson"])
def test_exact_solves_on_a_negative_conductance_are_exit_one(argv, tmp_path, capsys):
    # green once ended in a ZeroDivisionError traceback
    diagram = tmp_path / "neg.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(-0.5))
    values = tmp_path / "in.fn"
    values.write_text("fn v1\n2 0 1\n2 1 3\n")
    if argv[0] == "poisson":
        argv = argv + ["--values", str(values)]
    assert main(argv[:1] + ["--diagram", str(diagram)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 0, edge (0,1): conductance -0.5 is not positive and finite\n"


@pytest.mark.parametrize("value", ["inf", "-0.5", "nan"])
def test_energy_of_a_conductance_outside_the_positive_reals_is_exit_one(value, tmp_path,
                                                                          capsys):
    # the report once exited 0 with an energy of inf, 0 or nan
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(value))
    fn = tmp_path / "f.fn"
    fn.write_text("fn v1\n1 0 1\n1 1 2\n2 0 1\n2 1 3\n")
    assert main(["energy", "--diagram", str(diagram), "--fn", str(fn)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: level 0, edge (0,1): conductance {value} is not positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["harmonic"],
    ["monopole", "--vertex", "1,0"],
    ["dipole", "--vertex", "1,0"],
], ids=["harmonic", "monopole", "dipole"])
def test_recursion_on_a_non_finite_conductance_is_exit_one(argv, tmp_path, capsys):
    # harmonic's automatic seed once reported scipy's "array must not contain
    # infs or NaNs" instead of the edge
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format("nan"))
    assert main(argv[:1] + ["--diagram", str(diagram)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 0, edge (0,1): conductance nan is not positive and finite\n"


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_dimension_of_a_conductance_outside_the_positive_reals_is_exit_one(value, capsys,
                                                                           tmp_path):
    # dimension once exited 0 on -0.5 and reported scipy's "SVD did not
    # converge" (nan) or "array must not contain infs or NaNs" (inf)
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(value))
    assert main(["dimension", "--diagram", str(diagram)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: level 0, edge (0,1): conductance {value} is not positive and finite\n"


@pytest.mark.parametrize("command", ["apply-laplacian", "apply-markov"])
@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_apply_of_a_conductance_outside_the_positive_reals_is_exit_one(command, value,
                                                                       tmp_path, capsys):
    # both once exited 0 and wrote nan values, after numpy RuntimeWarnings on inf
    diagram = tmp_path / "bad.bd"
    diagram.write_text(BAD_CONDUCTANCE_DIAGRAM.format(value))
    fn = tmp_path / "f.fn"
    fn.write_text("fn v1\n1 0 1\n1 1 2\n2 0 1\n2 1 3\n")
    out_file = tmp_path / "out.fn"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--diagram", str(diagram), "--fn", str(fn),
                     "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: level 0, edge (0,1): conductance {value} is not positive and finite\n"
    assert not out_file.exists()


def _outputs_under_blas_threads(args, threads: int, cwd: pathlib.Path) -> dict:
    """stdout, and each file that the run writes in cwd: an output and its
    manifest."""
    cwd.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True,
                          cwd=cwd)
    return {"stdout": proc.stdout, **{p.name: p.read_bytes() for p in cwd.iterdir()}}


# U(x) sums a transition row as wide as the level, here 30,000 entries; a
# BLAS dot product, split across threads above about 10k entries, once moved
# the last digits of both values.  Printed at full precision.
WIDE_LEVEL_RETURN_PROBABILITIES = """
import numpy as np
from bharm import VertexId, green_exact, make_diagram
rng = np.random.default_rng(0)
d = make_diagram([1, 30000, 1, 1], [rng.uniform(0.5, 2.0, (1, 30000)),
                                    rng.uniform(0.5, 2.0, (30000, 1)),
                                    rng.uniform(0.5, 2.0, (1, 1))])
print(repr(green_exact(d, 3, [VertexId(0, 0), VertexId(2, 0)]).return_prob.tolist()))
"""


@pytest.mark.parametrize("args", [
    ["-m", "bharm.cli", "dimension", "--diagram", "pascal:40:1", "--out", "out"],
    # rank-deficient at level 3: per-component SVDs, then the propagation's
    # dense SVDs of up to 200 x 200
    ["-m", "bharm.cli", "dimension", "--diagram", "bottleneck:1-30-200-200-30-200-200:7",
     "--out", "out"],
    # the automatic seed is the first null vector from scipy.linalg.null_space
    ["-m", "bharm.cli", "harmonic", "--diagram", "pascal:40:1", "--out", "out"],
    # the manifest holds the Dirichlet system's counts and largest residual
    ["-m", "bharm.cli", "green", "--diagram", "pascal:40:1", "--vertices", "0,0;20,10;39,5",
     "--out", "out"],
    ["-c", WIDE_LEVEL_RETURN_PROBABILITIES],
], ids=["dimension", "dimension-svd", "harmonic-auto-seed", "green-manifest",
        "green-return-probability"])
def test_output_does_not_depend_on_the_blas_thread_count(args, tmp_path):
    # one process at a time, each with at most two BLAS threads; the output
    # files and their manifests are compared too
    one = _outputs_under_blas_threads(args, 1, tmp_path / "one")
    assert one["stdout"] or {"out", "out.manifest.json"} <= one.keys()
    assert _outputs_under_blas_threads(args, 2, tmp_path / "two") == one


def test_only_the_recursion_commands_take_tol():
    # --tol is the recursion's consistency tolerance; no other command reads one
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    takes = {name for name, p in sub.choices.items() if "--tol" in p._option_string_actions}
    assert takes == {"harmonic", "monopole", "dipole"}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_convert_of_a_non_finite_conductance_is_exit_one(value, tmp_path, capsys):
    gfile = tmp_path / "g.graph"
    gfile.write_text(f"graph v1\nv 4\ne 0 1 {value}\ne 1 2\ne 2 3\ne 3 0\n")
    out = tmp_path / "d.bd"
    assert main(["convert", "--graph", str(gfile), "--root", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: edge (0,1) has non-finite conductance\n"
    assert not out.exists()


def test_convert_graph_to_diagram(tmp_path, capsys):
    graph = "graph v1\nv 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 1 4 1\ne 2 4 1\ne 2 5 1\n"
    gfile = tmp_path / "g.graph"
    gfile.write_text(graph)
    assert main(["convert", "--graph", str(gfile), "--root", "0", "--out", "-"]) == 0
    out = capsys.readouterr().out
    d = parse_diagram(out)
    assert d.level_sizes == (1, 2, 3)


def test_convert_with_ray(tmp_path, capsys):
    # triangle chain: only the ray survives
    graph = "graph v1\nv 4\ne 0 1 1\ne 0 2 1\ne 1 2 1\ne 1 3 1\ne 2 3 1\n"
    gfile = tmp_path / "g.graph"
    gfile.write_text(graph)
    assert main(["convert", "--graph", str(gfile), "--ray", "0,1,3", "--out", "-"]) == 0
    out = capsys.readouterr().out
    d = parse_diagram(out)
    assert d.level_sizes == (1, 1, 1)


@pytest.mark.parametrize("ray", ["", "0,1,x", "0,,3"])
def test_convert_refuses_a_bad_ray_in_bharms_words(ray, tmp_path, capsys):
    # an empty ray was ignored and the graph converted from --root (exit 0);
    # a non-integer one printed int()'s "invalid literal for int()"
    gfile = tmp_path / "g.graph"
    gfile.write_text("graph v1\nv 4\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1\n")
    out = tmp_path / "d.bratteli"
    assert main(["convert", "--graph", str(gfile), f"--ray={ray}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: bad ray {ray!r}, expected comma-separated vertex ids\n")
    assert not out.exists()


def test_verify_cases(capsys):
    assert main(["verify-paper", "pascal"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify-paper", "tree"]) == 0
    assert main(["verify-paper", "bounds"]) == 0
    assert main(["verify-paper", "greens"]) == 0
    capsys.readouterr()
    # the repeating-diagram closed form conflicts with harmonicity: reported
    # honestly as FAIL (see the decisions notes)
    assert main(["verify-paper", "stationary"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


# the identities' violations are rounding-level numbers, so these bytes move
# with any change to the bits of a pinned Dirichlet solve, which no output
# golden covers
VERIFY_GREENS_STDOUT = (
    "G(x,x)(1-U(x,x)) = 1     expected                  0  computed  2.22044604925e-16  [diagonal identity] ok\n"
    "G(x,y) = F(x,y)G(y,y)    expected                  0  computed  1.11022302463e-16  [reach/visit identity] ok\n"
    "U one-step               expected                  0  computed  5.55111512313e-17  [return decomposition] ok\n"
    "F one-step               expected                  0  computed  1.11022302463e-16  [reach decomposition] ok\n"
    "c(x)G(x,y) = c(y)G(y,x)  expected                  0  computed   4.4408920985e-16  [reversibility (G)] ok\n"
    "PASS\n"
)


def test_verify_greens_prints_the_same_bytes(capsys):
    assert main(["verify-paper", "greens"]) == 0
    assert capsys.readouterr().out == VERIFY_GREENS_STDOUT


def test_domain_error_exit_one(capsys):
    assert main(["monopole", "--diagram", "tree:4:2", "--vertex", "9,9",
                 "--out", "-"]) == 1


def test_missing_input_file_is_domain_error(capsys):
    assert main(["energy", "--diagram", "tree:4:2", "--fn", "/no/such/file",
                 "--out", "-"]) == 1
    assert "error:" in capsys.readouterr().err


def test_auto_seed_gives_nonzero_harmonic(tmp_path):
    out_file = tmp_path / "h.fn"
    assert main(["harmonic", "--diagram", "pascal:6:1", "--out", str(out_file)]) == 0
    d = gen_pascal(6, 1.0)
    f = parse_function(out_file.read_text(), d)
    assert np.abs(f.values[1]).max() > 0.5
    from bharm import harmonicity_check
    assert harmonicity_check(d, f).consistent


def test_solver_failure_is_exit_one_without_traceback(monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(spla, "splu", singular)
    assert main(["green", "--diagram", "tree:4:2", "--vertices", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: Factor is exactly singular\n"


def test_levels_line_without_count_is_exit_one():
    code, out, err = run_cli(["validate", "-"], stdin="bratteli v1\nlevels\n")
    assert code == 1
    assert err == "error: expected 'levels <k> : <sizes>' line\n"


def test_memory_error_is_exit_one_without_traceback(monkeypatch, tmp_path, capsys):
    from bharm import cli

    def exhausted(text):
        raise MemoryError("Unable to allocate 22.4 GiB")

    monkeypatch.setattr(cli, "parse_diagram", exhausted)
    path = tmp_path / "d.txt"
    path.write_text("bratteli v1\nlevels 3 : 1 3000000000 3000000000\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 22.4 GiB\n"


@pytest.mark.parametrize("args", [
    ["gen", "tree:0:2"],
    ["gen", "tree:3:-2"],
    ["walk", "--diagram", "pascal:-1:1", "--start", "0,0"],
], ids=["gen-depth", "gen-lambda", "diagram-depth"])
def test_bad_generator_value_is_reported_as_such(args, capsys):
    spec = args[1] if args[0] == "gen" else args[2]
    assert main(args) == 1
    err = capsys.readouterr().err
    form = f"{spec.split(':')[0]}:<depth>:<lam>"
    assert err.startswith(f"error: cannot load diagram {spec!r}: bad value in {form}: ")
    assert err.count(spec) == 1
    assert "No such file" not in err


@pytest.mark.parametrize("spec, form", [
    ("tree:3", "tree:<depth>:<lam>"),
    ("pascal:3:1:1", "pascal:<depth>:<lam>"),
    ("stationary:11;10:3", "stationary:<A-rows;semicolon-separated>:<depth>:<lam>"),
    ("ladder:3:1:1", "ladder:<depth>[:<c>]"),
    ("bottleneck:1-2", "bottleneck:<sizes-dash-separated>:<seed>"),
])
def test_generator_spec_with_the_wrong_fields_names_its_form(spec, form, capsys):
    assert main(["gen", spec]) == 1
    assert capsys.readouterr().err == f"error: cannot load diagram {spec!r}: expected {form}\n"


def _parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, capsys):
    """main() builds only the invoked subcommand's parser; its help and
    usage errors, from the subcommand's parser or the top level, are those
    of the parser of every subcommand."""
    for argv, code in (([command, "--help"], 0), ([command, "--no-such-option"], 2),
                       ([command, "--out"], 2)):
        one = _parse_outcome(_build_parser(command), argv, capsys)
        assert one == _parse_outcome(_build_parser(), argv, capsys)
        assert one[0] == code


def test_missing_diagram_file_is_still_reported_as_missing(tmp_path, capsys):
    missing = tmp_path / "none.txt"
    assert main(["walk", "--diagram", str(missing), "--start", "0,0"]) == 1
    assert "No such file or directory" in capsys.readouterr().err


_LOADED_CHILD = """
import json, sys
from bharm.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        raise SystemExit(f"failed: {args}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("bharm", "scipy"))))
"""


def _loaded_modules(tmp_path, kinds):
    """The bharm and scipy modules loaded by one fresh process that imports
    bharm.cli and runs the requests of each of `kinds` (keys of the table
    below) in turn."""
    t = tmp_path
    (t / "g.graph").write_text("graph v1\nv 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 1 4 1\n"
                               "e 2 4 1\ne 2 5 1\n")
    (t / "tree.fn").write_text(format_function(tree_symmetric_harmonic(5, 2.0)))
    (t / "pascal.fn").write_text(format_function(pascal_harmonic(4)))
    requests = {
        "gen": [["gen", spec, "--out", str(t / f"d{k}.txt")] for k, spec in enumerate(
            ["tree:5:2", "pascal:4:1", "stationary:1,1;1,0:4:2", "ladder:4",
             "bottleneck:1-3-4:7"])],
        "validate": [["gen", "tree:5:2", "--out", str(t / "v.txt")],
                     ["validate", str(t / "v.txt")]],
        "convert": [["convert", "--graph", str(t / "g.graph"), "--root", "0",
                     "--out", str(t / "c.txt")]],
        "walk": [["walk", "--diagram", "tree:5:2", "--start", "0,0", "--walks", "200",
                  "--out", str(t / "w.txt")]],
        "poisson": [["poisson", "--diagram", "tree:5:2", "--level", "5",
                     "--values", str(t / "tree.fn"), "--method", "monte-carlo",
                     "--walks", "50", "--out", str(t / "p.fn")]],
        "energy": [["energy", "--diagram", "tree:5:2", "--fn", str(t / "tree.fn"),
                    "--out", str(t / "e")]],
        "apply": [["apply-laplacian", "--diagram", "pascal:4:1", "--fn", str(t / "pascal.fn"),
                   "--out", str(t / "l.fn")],
                  ["apply-markov", "--diagram", "pascal:4:1", "--fn", str(t / "pascal.fn"),
                   "--out", str(t / "m.fn")]],
    }
    runs = [argv for kind in kinds for argv in requests[kind]]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _LOADED_CHILD, json.dumps(runs)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_subcommands_that_do_not_factor_never_import_scipy(tmp_path):
    loaded = _loaded_modules(tmp_path, ["gen", "validate", "convert", "walk", "poisson",
                                        "energy", "apply"])
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


_SOLVER_MODULES = {"bharm.harmonic", "bharm.pathspace", "bharm.energy", "bharm.closedforms"}


def test_import_of_the_cli_loads_only_what_every_subcommand_needs(tmp_path):
    assert _loaded_modules(tmp_path, []) == ["bharm", "bharm._matops", "bharm.cli",
                                             "bharm.diagram", "bharm.fileio",
                                             "bharm.operators"]


def test_file_subcommands_load_no_solver_module(tmp_path):
    loaded = _loaded_modules(tmp_path, ["gen", "validate", "convert", "apply"])
    assert _SOLVER_MODULES.isdisjoint(loaded)


def test_energy_loads_no_walk_or_green_module(tmp_path):
    loaded = _loaded_modules(tmp_path, ["energy"])
    assert "bharm.energy" in loaded and "bharm.pathspace" not in loaded


@pytest.mark.parametrize("level", ["9"])
def test_poisson_level_outside_the_prefix_is_exit_one(level, tmp_path, capsys):
    # --level 9 once indexed the boundary data first and ended in an IndexError
    values = tmp_path / "f.fn"
    values.write_text("fn v1\n1 0 1\n")
    argv = ["poisson", "--diagram", "tree:4:2", "--level", level, "--values", str(values)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: target level must be within the stored prefix\n"


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "abc"])
@pytest.mark.parametrize("command", ["harmonic", "monopole", "dipole"])
def test_tol_takes_only_finite_values_at_least_zero(command, value, capsys):
    # --tol nan once ended in a TypeError traceback, and --tol -1 was accepted
    argv = [command, "--diagram", "tree:4:2", f"--tol={value}"]
    if command != "harmonic":
        argv += ["--vertex", "1,0"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.startswith(f"usage: bharm {command} ")
    assert err.splitlines()[-1].startswith(f"bharm {command}: error: argument --tol: ")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["dimension", "--depth"], ["harmonic", "--depth"], ["green", "--boundary"],
    ["poisson", "--values", "f.fn", "--level"], ["walk", "--start", "0,0", "--absorb"],
    ["walk", "--start", "0,0", "--walks"], ["walk", "--start", "0,0", "--max-steps"],
], ids=lambda argv: argv[0] + argv[-1])
def test_counts_below_one_are_usage_errors(argv, value, capsys):
    # these reached the library, which refused them with exit 1
    with pytest.raises(SystemExit) as info:
        main([argv[0], "--diagram", "tree:4:2", *argv[1:-1], f"{argv[-1]}={value}"])
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.splitlines()[-1] == (f"bharm {argv[0]}: error: argument {argv[-1]}: "
                                    f"must be an integer >= 1, not '{value}'")


def test_tol_zero_is_accepted(tmp_path):
    assert main(["harmonic", "--diagram", "tree:3:2", "--tol", "0",
                 "--out", str(tmp_path / "h.fn")]) == 0


def test_energy_on_an_edgeless_level_is_exit_one(tmp_path, capsys):
    # the bound terms once divided by beta_n = 0 (ZeroDivisionError)
    diagram = tmp_path / "edgeless.bd"
    diagram.write_text("bratteli v1\nlevels 2 : 1 1\n")
    fn = tmp_path / "f.fn"
    fn.write_text("fn v1\n1 0 1\n")
    assert main(["energy", "--diagram", str(diagram), "--fn", str(fn)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: isolated vertex at level 0, index 0 (c(x) = 0)\n"


@pytest.mark.parametrize("spec, message", [
    ("tree:3:inf", "lambda must be positive and finite"),
    ("pascal:3:nan", "lambda must be positive and finite"),
    ("ladder:3:nan", "conductance must be positive and finite"),
    ("stationary:11;10:3:inf", "lambda must be positive and finite"),
    ("tree:3:1e300", "lambda^2 is not a positive finite double"),
])
def test_gen_of_a_non_finite_parameter_is_exit_one(spec, message, capsys):
    # each once exited 0 and wrote a diagram that validate rejects, or a traceback
    assert main(["gen", spec]) == 1
    out, err = capsys.readouterr()
    form = _GENERATORS[spec.split(":")[0]]
    assert out == ""
    assert err == f"error: cannot load diagram {spec!r}: bad value in {form}: {message}\n"


def test_gen_over_the_edge_bound_is_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(bharm.diagram, "MAX_EDGES", 30)  # tree:4 has 30 edges, tree:5 62
    assert main(["gen", "tree:4:2"]) == 0
    capsys.readouterr()
    assert main(["gen", "tree:5:2"]) == 1
    assert capsys.readouterr().err == ("error: cannot load diagram 'tree:5:2': bad value in "
                                       "tree:<depth>:<lam>: the spec needs more than "
                                       "MAX_EDGES = 30 edges\n")


def test_harmonic_on_a_one_level_file_is_exit_one(tmp_path, capsys):
    # the default depth 0 once reached the seed, which read the missing C_0
    # (IndexError); dimension prints the same message for that file
    diagram = tmp_path / "one.bd"
    diagram.write_text("bratteli v1\nlevels 1 : 1\n")
    for command in ("harmonic", "dimension"):
        assert main([command, "--diagram", str(diagram)]) == 1
        assert capsys.readouterr() == ("", "error: depth must lie in 1..0\n")


@pytest.mark.parametrize("argv", [
    ["harmonic"], ["monopole", "--vertex", "2,1"], ["dipole", "--vertex", "2,1"],
    ["apply-laplacian", "--fn", "{fn}"], ["apply-markov", "--fn", "{fn}"],
    ["poisson", "--level", "4", "--values", "{fn}"], ["energy", "--fn", "{fn}"],
    ["green", "--vertices", "0,0;2,1"], ["walk", "--start", "0,0", "--walks", "50"],
    ["poisson", "--level", "4", "--values", "{fn}", "--method", "monte-carlo", "--walks", "5"],
], ids=lambda argv: "-".join(argv[:1] + argv[6:7]))
def test_edge_sums_make_no_level_views(argv, tmp_path, monkeypatch):
    # P, Delta, the recursion residuals, the walk tables and the energy are
    # taken on the edge table, so these commands never make the diagram's
    # per-level matrices (energy made all of them)
    fn = tmp_path / "f.fn"
    fn.write_text(format_function(pascal_harmonic(6)))
    loaded = []

    def load(args):
        loaded.append(diagram_arg(args))
        return loaded[-1]

    diagram_arg = cli._diagram_arg
    monkeypatch.setattr(cli, "_diagram_arg", load)
    argv = [a.format(fn=fn) for a in argv]
    assert main(argv[:1] + ["--diagram", "pascal:6:1", "--out", str(tmp_path / "out")]
                + argv[1:]) == 0
    assert "conductance" not in loaded[0].__dict__


def test_harmonic_of_a_nan_seed_reports_the_root_equation(tmp_path, capsys):
    # a nan residual made the report inconsistent but named no level, and
    # the CLI indexed the residuals with None (TypeError)
    seed = tmp_path / "seed.fn"
    seed.write_text("fn v1\n1 0 nan\n1 1 1\n")
    assert main(["harmonic", "--diagram", "tree:3:2", "--seed-vector", str(seed),
                 "--out", str(tmp_path / "h.fn")]) == 0
    assert capsys.readouterr().err == "# inconsistent at level 0: residual nan\n"


_BATTERY_FILES = {
    "one": "bratteli v1\nlevels 1 : 1\n",
    "edgeless": "bratteli v1\nlevels 3 : 1 2 2\ne 0 0 0 1\ne 0 0 1 1\n",  # no level-1 edges
    "empty": "",
    "one_fn": "fn v1\n0 0 1\n",
    "edgeless_fn": "fn v1\n0 0 1\n2 0 1\n2 1 2\n",
    "tree_fn": "fn v1\n3 0 1\n3 7 2\n",
    "ladder_fn": "fn v1\n3 0 1\n3 1 2\n",
    "nan_fn": "fn v1\n3 0 nan\n",
    "inf_fn": "fn v1\n3 0 inf\n",
    "graph": "graph v1\nv 4\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1\n",
}


def _battery():
    """(argv, exit code) for every subcommand on boundary values: a one-level,
    an edgeless-level and an empty diagram file, 0, -1 and depth + 1 for each
    level and count argument, 2**63 and 2**64 walks, vertex indices off
    their level, c(x) out of the normal doubles, and nan and
    +-inf where a float is taken or in a function file.  tree:3:2 has depth
    3.  (validate accepts the one-level file, a valid diagram.)"""
    cases = []
    for name, level in (("one", 1), ("edgeless", 2), ("empty", 1)):
        dg = ["--diagram", "{%s}" % name]
        fn = "{%s_fn}" % ("one" if name == "empty" else name)
        cases += [["harmonic", *dg], ["dimension", *dg], ["monopole", *dg, "--vertex", "0,0"],
                  ["dipole", *dg, "--vertex", "1,0"], ["green", *dg],
                  ["walk", *dg, "--start", "0,0", "--walks", "5"],
                  ["poisson", *dg, "--level", str(level), "--values", fn],
                  ["poisson", *dg, "--level", str(level), "--values", fn,
                   "--method", "monte-carlo", "--walks", "5"],
                  ["energy", *dg, "--fn", fn], ["apply-laplacian", *dg, "--fn", fn],
                  ["apply-markov", *dg, "--fn", fn]]
    cases += [["validate", "{edgeless}"], ["validate", "{empty}"]]
    tree = ["--diagram", "tree:3:2"]
    for v in ("0", "-1", "4"):
        cases += [["harmonic", *tree, f"--depth={v}"], ["dimension", *tree, f"--depth={v}"],
                  ["monopole", *tree, "--vertex", "1,0", f"--depth={v}"],
                  ["dipole", *tree, "--vertex", "1,0", f"--depth={v}"],
                  ["green", *tree, f"--boundary={v}"],
                  ["walk", *tree, "--start", "0,0", f"--absorb={v}"],
                  ["poisson", *tree, f"--level={v}", "--values", "{tree_fn}"],
                  ["harmonic", *tree, "--pin", f"{v},0=1"]]
    mc = ["poisson", *tree, "--level", "3", "--values", "{tree_fn}", "--method", "monte-carlo"]
    for v in ("0", "-1"):
        cases += [["walk", *tree, "--start", "0,0", f"--walks={v}"],
                  ["walk", *tree, "--start", "0,0", f"--max-steps={v}"],
                  [*mc, f"--walks={v}"], [*mc, f"--max-steps={v}"],
                  ["gen", f"tree:{v}:2"], ["gen", f"pascal:{v}:1"], ["verify-paper", v]]
    for v in (2 ** 63, 2 ** 64):  # walks are numbered in int64
        cases += [["walk", *tree, "--start", "0,0", f"--walks={v}", "--max-steps=1"],
                  [*mc, f"--walks={v}"]]
    for vertex in ("-1,0", "4,0", "1,-1", "1,2"):
        cases += [["monopole", *tree, f"--vertex={vertex}"],
                  ["dipole", *tree, f"--vertex={vertex}"],
                  ["green", *tree, f"--vertices={vertex}"],
                  ["walk", *tree, f"--start={vertex}"],
                  ["walk", *tree, "--start", "0,0", f"--targets={vertex}"],
                  ["harmonic", *tree, "--pin", f"{vertex}=1"]]
    cases += [["harmonic", *tree, "--pin", "2,0=1", "--pin", "2,0=2"],
              ["harmonic", "--diagram", "ladder:600:1"], ["green", *tree, "--vertices="]]
    # c(x) = 2e-320 has no finite reciprocal, c(x) = 2e308 overflows, and
    # the pinned vertex's own term c(x) f(x) = 3e308 overflows
    cases += [["harmonic", "--diagram", "ladder:3:1e-320"],
              ["green", "--diagram", "ladder:3:1e-320"], ["harmonic", "--diagram", "ladder:3:1e308"],
              ["harmonic", "--diagram", "pascal:4:1", "--pin", "1,0=1e308"]]
    for ladder in ("ladder:3:1e308", "ladder:3:1e-320"):
        cases += [["walk", "--diagram", ladder, "--start", "0,0", "--walks", "5"],
                  ["poisson", "--diagram", ladder, "--level", "3", "--values", "{ladder_fn}",
                   "--method", "monte-carlo", "--walks", "5"]]
    for root in ("-1", "4"):
        cases += [["convert", "--graph", "{graph}", f"--root={root}"],
                  ["convert", "--graph", "{graph}", "--ray", f"0,{root}"]]
    cases += [["convert", "--graph", "{graph}", "--ray="],
              ["convert", "--graph", "{graph}", "--ray", "0,x"]]
    for value in ("nan", "inf", "-inf"):
        cases += [["harmonic", *tree, "--pin", f"1,0={value}"],
                  ["harmonic", *tree, f"--tol={value}"], ["gen", f"tree:3:{value}"],
                  ["gen", f"pascal:3:{value}"], ["gen", f"ladder:3:{value}"],
                  ["gen", f"stationary:11;10:3:{value}"]]
    for value in ("nan", "inf"):
        poisson = ["poisson", *tree, "--level", "3", "--values", "{%s_fn}" % value]
        cases += [poisson, [*poisson, "--method", "monte-carlo", "--walks", "5"],
                  ["energy", *tree, "--fn", "{%s_fn}" % value],
                  ["apply-laplacian", *tree, "--fn", "{%s_fn}" % value],
                  ["apply-markov", *tree, "--fn", "{%s_fn}" % value]]
    return cases


# a count, level or depth of 0 or -1 is a usage error (exit 2)
_COUNT_BELOW_ONE = re.compile(r"--(walks|max-steps|depth|boundary|absorb|level)=(0|-1)$")


@pytest.mark.parametrize("argv", _battery(), ids=" ".join)
def test_boundary_values_are_exit_one_or_usage_errors_never_tracebacks(argv, tmp_path, capsys):
    # a one-level harmonic once ended in an IndexError traceback, --pin 1,0=nan
    # in a TypeError; walks across an edgeless level exited 0 with every walk
    # capped, and dimension exited 0 on its isolated vertices; poisson and
    # energy exited 0 on nan boundary data and wrote nan, and apply-* spread
    # a nan to its neighbours; harmonic on ladder:600:1, whose solution
    # leaves the doubles, printed three RuntimeWarnings before its error;
    # a subnormal c(x) or a pin whose terms overflow gave warnings and a nan
    # residual, and green printed SuperLU's "Factor is exactly singular";
    # the walks exited 0 on a subnormal or overflowed c(x), after warnings
    # for the overflow; 2**63 walks ended Monte Carlo poisson in an
    # OverflowError traceback, and walk did not end
    files = {}
    for name, text in _BATTERY_FILES.items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    argv = [a.format(**files) for a in argv]
    if argv[0] not in ("validate", "verify-paper"):
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert not caught
    err = capsys.readouterr().err
    if any(_COUNT_BELOW_ONE.match(a) for a in argv):
        assert code == 2
    if code == 2:
        assert err.startswith(f"usage: bharm {argv[0]} ")
    else:
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()
