"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads as wl
from layertrace import Tracer

sys.path.insert(0, str(run.SRC))
import bharm.cli as cli  # noqa: E402

# cheap requests covering every kind of output check
CHEAP = {
    "walks-io": ["golden-walk", "golden-poisson", "walk-pascal30-mid",
                 "gen-pascal", "validate-gen-pascal", "validate-t12", "validate-broken",
                 "convert-root", "convert-ray", "energy-p200", "laplacian-p200"],
    "exact-solve": ["green-tree12-k1", "green-pascal60-k25", "poisson-pascal150",
                    "harmonic-tree12-pinned", "harmonic-pascal40", "monopole-tree",
                    "dipole-pascal", "dimension-4-tree8"],
}


def subset(name, seed=3):
    w = wl.BY_NAME[name](np.random.default_rng(seed), wl.Refs())
    w.requests = [r for r in w.requests if r.name in CHEAP[name]]
    assert len(w.requests) == len(CHEAP[name])
    return w


def run_once(tmp_path, monkeypatch, workload, main_module=cli, tracer=None):
    """One pass of `workload` in tmp_path/pass0; returns the Runner."""
    monkeypatch.chdir(tmp_path)
    run.write_inputs(workload, tmp_path / "pass0")
    r = run.Runner(main_module, run.HostProbe())
    r.run_pass(0, workload, tmp_path / "pass0", tracer)
    return r


def _corrupt(text: str) -> str:
    """Move the last number in the text by about 1%."""
    nums = list(re.finditer(r"-?\d+(\.\d+)?(e-?\d+)?", text))
    m = next((m for m in reversed(nums) if "." in m.group()), nums[-1])
    x = m.group()
    new = str(int(x) + 1) if "." not in x else repr(float(x) * 1.01 + 0.01)
    return text[:m.start()] + new + text[m.end():]


class CorruptingCli:
    """bharm.cli stand-in whose outputs (file or stdout) are corrupted."""

    @staticmethod
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        sys.stdout.write(_corrupt(buf.getvalue()) if buf.getvalue().strip() else "")
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(_corrupt(text))
        return rc


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_outputs_pass_their_checks(name, tmp_path, monkeypatch):
    r = run_once(tmp_path, monkeypatch, subset(name))
    assert r.failed == 0, r.reasons


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    r = run_once(tmp_path, monkeypatch, subset(name), CorruptingCli)
    assert r.failed == r.attempted == len(CHEAP[name]), r.reasons
    assert r.silent == r.failed


def test_reported_inconsistency_counts_as_failed(tmp_path, monkeypatch):
    w = wl.exact_solve(np.random.default_rng(3), wl.Refs())
    w.requests = [q for q in w.requests if q.name == "harmonic-pascal90"]
    r = run_once(tmp_path, monkeypatch, w)
    # the seed recursion breaks down at level 12 and says so on stderr
    assert (r.failed, r.silent) == (1, 0), r.reasons


def _traced_counts(tmp_path, monkeypatch, name):
    tracer = Tracer()
    tracer.install()
    try:
        r = run_once(tmp_path, monkeypatch, subset(name), tracer=tracer)
    finally:
        tracer.uninstall()
    return dict(tracer.calls), (r.walk_absorbed, r.walk_requested)


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_traced_counts_repeat(name, tmp_path, monkeypatch):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(_traced_counts(tmp_path / sub, monkeypatch, name))
    assert runs[0] == runs[1]
    assert runs[0][0]["cli.main"] == len(CHEAP[name])


def test_tracer_restores_patches():
    import scipy.sparse.linalg as spla
    before = (cli.main, spla.splu, cli.validate)
    t = Tracer()
    t.install()
    assert cli.main is not before[0] and spla.splu is not before[1]
    t.uninstall()
    assert (cli.main, spla.splu, cli.validate) == before


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walks-io",
                          "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walks-io",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""


# requests with no parameter the seed could draw (beyond a generator's
# lambda, chosen from a short list), so they may repeat between passes
PARAMETER_FREE = {"golden-walk", "golden-poisson", "harmonic-pascal40", "harmonic-pascal90",
                  "gen-tree", "gen-pascal", "validate-gen-tree", "validate-gen-pascal",
                  "validate-gen-bottleneck"}


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_passes_draw_distinct_requests(name):
    refs = wl.Refs()
    a, b = (wl.BY_NAME[name](np.random.default_rng([5, k]), refs) for k in range(2))
    assert [r.name for r in a.requests] == [r.name for r in b.requests]
    ins_a, ins_b = a.inputs(), b.inputs()
    repeated = {r.name for r, q in zip(a.requests, b.requests)
                if r.argv == q.argv and all(ins_a.get(f) == ins_b.get(f) for f in r.argv)}
    assert {n for n in repeated if not n.startswith("dimension-")} <= PARAMETER_FREE


def test_git_sha_reads_packed_refs(tmp_path):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "0123abcd refs/heads/other\n4567ef01 refs/heads/main\n")
    assert run.git_sha(git) == "4567ef01"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("89ab\n")
    assert run.git_sha(git) == "89ab"
    assert run.git_sha(tmp_path / "none") is None


def test_tail_percentile():
    lat = list(range(1, 52))
    value, pct = run.tail(lat)
    assert value == 41 and pct == pytest.approx(100 * 41 / 51)
