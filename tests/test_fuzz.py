"""A seeded mutation fuzzer of the CLI, run in process on a fixed budget.

A numpy default_rng mutates the tokens and lines of a pascal:3:1.5 diagram
file, a function file on it and a 5-vertex graph file, and draws argument
values from a list of values at the edges (0, -1, the level count + 1,
subnormals, 1e308, nan, +-inf, the int64 and uint64 bounds, '1_0', non-ASCII
digits).  Every command must end as the boundary-value battery in
test_cli.py demands: exit 0, 1 or 2; an exit 1 with one `error:` line and an
exit 2 with a usage message; no exception out of `main`, no warning, and no
output file when it fails.  The same seed gives the same commands, so a
failure names a command that can be run again.

`--walks` and `--max-steps` stay small: a count below the 2**63 bound is
accepted, and 2**62 walks would run for years without being a fault.
"""
import math
import warnings

import numpy as np

from bharm.cli import main
from bharm.fileio import format_diagram, load_diagram

COMMANDS = 1200  # about 2 s on a 2-core Xeon

EDGE = ["0", "-1", "4", "1", "2", "3", "4.9e-324", "2.2e-308", "1e308", "nan", "inf", "-inf",
        str(2 ** 63 - 1), str(-2 ** 63), str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), "1_0",
        "١", "٣٠", "1.5", "-0", "", "x"]
SMALL = ["0", "-1", "1", "2", "5", "1_0", "٣", str(2 ** 63), str(2 ** 64), "x"]

DIAGRAM = format_diagram(load_diagram("pascal:3:1.5"))
FUNCTION = "fn v1\n" + "".join(f"{n} {i} {math.sin(1.0 + 0.7 * n + 0.31 * i):.6f}\n"
                               for n in range(4) for i in range(n + 1))
GRAPH = "graph v1\nv 5\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1.5\ne 3 4 2\n"


def _mutate(rng, text: str) -> str:
    """text with one to three random edits of its tokens or lines."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(7))
        if not lines:
            lines.append([])
        r = int(rng.integers(len(lines)))
        line = lines[r]
        if op == 0 and line:      # a token becomes an edge value
            line[int(rng.integers(len(line)))] = str(rng.choice(EDGE))
        elif op == 1 and line:    # a token goes
            del line[int(rng.integers(len(line)))]
        elif op == 2 and line:    # a token is repeated
            k = int(rng.integers(len(line)))
            line.insert(k, line[k])
        elif op == 3:             # an edge value is put in
            line.insert(int(rng.integers(len(line) + 1)), str(rng.choice(EDGE)))
        elif op == 4:             # a line goes
            del lines[r]
        elif op == 5:             # a line is repeated
            lines.insert(int(rng.integers(len(lines) + 1)), list(line))
        else:                     # two lines swap
            s = int(rng.integers(len(lines)))
            lines[r], lines[s] = lines[s], lines[r]
    return "".join(" ".join(line) + "\n" for line in lines)


def _argv(rng) -> list:
    """One command of the 14 forms.  Each argument is an edge value a third
    of the time, else a value that the command takes (the walk counts draw
    their edge values from SMALL)."""
    def arg(*plain, edge=EDGE):
        return str(rng.choice(edge if rng.random() < 0.35 else plain))

    def vertex():
        return f"{arg('1', '2', '3')},{arg('0', '1', '2')}"

    def walks():
        return ["--walks", arg("1", "3", "20", edge=SMALL),
                "--max-steps", arg("5", "40", "200", edge=SMALL), "--seed", arg("0", "7", "-3")]
    dg = ["--diagram", "{diagram}"]
    level = ("1", "2", "3")
    forms = [
        lambda: ["validate", "{diagram}"],
        lambda: ["harmonic", *dg, "--pin", f"{vertex()}={arg('0.5', '-2.5')}",
                 "--tol", arg("1e-9", "1e-6")],
        lambda: ["harmonic", *dg, "--seed-vector", "{function}", "--depth", arg(*level)],
        lambda: ["dimension", *dg, "--depth", arg(*level)],
        lambda: ["monopole", *dg, "--vertex", vertex()],
        lambda: ["dipole", *dg, "--vertex", vertex(), "--tol", arg("1e-9", "1e-6")],
        lambda: ["green", *dg, "--vertices", f"0,0;{vertex()}", "--boundary", arg(*level)],
        lambda: ["walk", *dg, "--start", f"0,{arg('0')}", "--targets", vertex(),
                 "--absorb", arg(*level), *walks()],
        lambda: ["poisson", *dg, "--level", arg(*level), "--values", "{function}"],
        lambda: ["poisson", *dg, "--level", arg(*level), "--values", "{function}",
                 "--method", "monte-carlo", *walks()],
        lambda: ["energy", *dg, "--fn", "{function}"],
        lambda: ["apply-" + str(rng.choice(["laplacian", "markov"])), *dg, "--fn", "{function}"],
        lambda: ["convert", "--graph", "{graph}", "--root", arg("0", "2", "4")],
        lambda: ["convert", "--graph", "{graph}", "--ray", f"0,{arg('1', '2')},{arg('3')}"],
    ]
    return forms[int(rng.integers(len(forms)))]()


def _fault(argv, code, err, caught, out):
    """What is wrong with how a command that returned ended, or None."""
    if caught:
        return f"warning: {caught[0].message}"
    if code == 1 and not (err.startswith("error: ") and err.count("\n") == 1):
        return f"exit 1 with stderr {err!r}"
    if code == 2 and not err.startswith(f"usage: bharm {argv[0]} "):
        return f"exit 2 with stderr {err!r}"
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code != 0 and (out.exists() or out.with_name("out.manifest.json").exists()):
        return f"exit {code} left an output file"
    return None


def test_mutated_files_and_edge_arguments_never_escape_main(tmp_path, capsys):
    rng = np.random.default_rng(20151)
    files = {name: tmp_path / name for name in ("diagram", "function", "graph")}
    out = tmp_path / "out"
    faults, exits = [], set()
    for k in range(COMMANDS):
        texts = {"diagram": DIAGRAM, "function": FUNCTION, "graph": GRAPH}
        for name in texts:
            if rng.random() < 0.6:
                texts[name] = _mutate(rng, texts[name])
            files[name].write_text(texts[name])
        argv = [a.format(**files) for a in _argv(rng)]
        if argv[0] != "validate":
            argv += ["--out", str(out)]
        fault = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any escape from main is a fault
                code, fault = None, f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        exits.add(code)
        fault = fault or _fault(argv, code, err, caught, out)
        if fault is not None:
            faults.append((k, argv, texts, fault))
        for f in (out, tmp_path / "out.manifest.json"):
            f.unlink(missing_ok=True)
    assert not faults, faults[:3]
    assert exits == {0, 1, 2}  # the budget reaches every outcome
