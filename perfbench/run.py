#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bharm CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload walks-io --seed 1 --seconds 45 --trace 0

One closed-loop client in one process: the benchmark calls
bharm.cli.main(argv) in-process for one request at a time, each after the
previous one returned, and checks every output against an independent
reference (perfbench/reference.py).  A run makes a fixed number of passes
over the workload's request mix, sized so that they take about --seconds
on a 2-core machine; each pass draws its own requests and input files from
(--seed, pass), so no pass repeats an earlier one's argv.  A fixed pass
count keeps the sample count, and so the tail percentile, the same from run
to run and commit to commit.

The time metrics are in seconds at a reference host speed: a fixed dense
kernel that uses no bharm code (HostProbe) is timed before every request,
and each pass's times are scaled by how much slower or faster than its
reference time the kernel ran during that pass.  On a shared host this
removes most of the drift of the machine's own speed; the raw times are in
the context line.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps each layer's
public functions (perfbench/layertrace.py), prints per-layer self times and
counts per pass, and ends with an untraced repeat of the first pass to
measure the tracing overhead.  The last stdout line is the result object;
the line before it records the context (versions, threads, source
revision).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("walks-io", "exact-solve")
# Passes per run at DESIGN_SECONDS: on a 2-core x86 machine at the seed
# commit a pass takes about 6-8 s (walks-io) and 6.5-8 s (exact-solve), and
# the passes with their output checks about 45 s.  With these counts each
# workload's two slowest request kinds have at least 11 samples, which
# keeps the latency tail inside one kind; other --seconds scale the counts.
DESIGN_SECONDS = 45
DESIGN_PASSES = {"walks-io": 6, "exact-solve": 6}
MIN_PASSES = 3
SETUP_REPS = 7
# latency tail: the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
# One BLAS thread whatever the caller's environment says: on a 2-core
# machine two OpenBLAS threads made the dense SVDs of exact-solve 2-5x
# slower and noisier than one.  Set before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Host-speed probe: PROBE_REPS SVDs of a 120x120 matrix take PROBE_REF_S
# on a 2-core x86 KVM guest (Intel Xeon) when the host is calm.
PROBE_REPS = 5
PROBE_REF_S = 0.0045
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import bharm.cli; print(time.perf_counter() - t)")


class HostProbe:
    """Times a fixed dense kernel that uses no bharm code.

    On a shared host the speed of the machine drifts by up to 2x for
    minutes at a time, so raw times of the same code spread too much
    between runs.  The kernel is timed before every request; a pass's
    times are scaled by PROBE_REF_S over the median of its probes, which
    gives seconds at the reference host speed.  Of the kernels tried, a
    small single-threaded SVD tracked the requests' slowdowns best (a
    pure-Python loop overcorrected)."""

    def __init__(self):
        import numpy as np
        self.svd = np.linalg.svd
        self.matrix = np.random.default_rng(0).standard_normal((120, 120))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            self.svd(self.matrix, compute_uv=False)
        return time.perf_counter() - t0

    def scale(self, probes: list) -> float:
        """Factor from seconds measured while the probe read `probes` to
        seconds at the reference host speed."""
        return PROBE_REF_S / statistics.median(probes)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(DESIGN_PASSES[workload] * seconds / DESIGN_SECONDS))


def tail(latencies: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies, reverse=True)
    k = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[k], 100.0 * (len(ordered) - k) / len(ordered)


def git_sha(git: Path = ROOT / ".git"):
    """HEAD's commit, from the loose ref or packed-refs; None outside a git work tree."""
    head = git / "HEAD"
    if not head.is_file():
        return None
    line = head.read_text().strip()
    if not line.startswith("ref: "):
        return line
    ref = line[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            sha, _, name = entry.partition(" ")
            if name == ref:
                return sha
    return None


def source_revision() -> dict:
    """Git sha when the checkout is a git work tree, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bharm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest()}


class Runner:
    """Runs requests closed-loop and keeps the verdicts and latencies."""

    def __init__(self, cli, probe: HostProbe):
        self.cli = cli
        self.probe = probe
        self.probes: list = []        # per pass: the probe's times before each request
        self.verdicts: dict = {}      # (pass, request index, output digest) -> verdict
        self.first_digest: dict = {}  # (pass, request index) -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.silent = 0
        self.uncaught = 0
        self.reasons: list = []
        self.walk_requested = 0       # walks asked for by `walk` requests
        self.walk_absorbed = 0        # their n_samples
        self.walks_absorbed = 0       # absorbed walks of `walk` and Monte Carlo Poisson
        self.walk_seconds = 0.0       # request time of those requests

    def run_pass(self, p: int, workload, workdir: Path, tracer=None) -> list:
        """Run pass p's requests in workdir, which holds their input files."""
        os.chdir(workdir)
        latencies = []
        self.probes.append([])
        for k, req in enumerate(workload.requests):
            self.probes[-1].append(self.probe())
            out_path = workdir / req.out if req.out else None
            if out_path is not None and out_path.exists():
                out_path.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            exc = None
            recording = tracer.record() if tracer else contextlib.nullcontext()
            with recording, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(list(req.argv))
                except Exception as e:  # an exception escaping main() fails the request
                    rc, exc = None, e
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            text = out_path.read_text() if out_path is not None and out_path.exists() else None
            self._judge((p, k), req, rc, exc, stdout.getvalue(), stderr.getvalue(), text,
                        t1 - t0)
        return latencies

    def _judge(self, pk, req, rc, exc, stdout, stderr, text, seconds) -> None:
        self.attempted += 1
        if exc is not None:
            self.uncaught += 1
        digest = hashlib.sha256(repr((rc, type(exc).__name__, stdout, stderr, text)).encode()
                                ).hexdigest()
        first = self.first_digest.setdefault(pk, digest)
        key = (*pk, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(req, rc, exc, stdout, stderr, text,
                                               reproducible=first == digest)
        failed, silent, why = self.verdicts[key]
        if failed:
            self.failed += 1
            self.silent += silent
            if len(self.reasons) < 20:
                self.reasons.append(f"{req.name}: {why}")
        if req.kind in ("walk", "poisson-mc"):
            absorbed = self._absorbed(req, text, stderr)
            self.walk_seconds += seconds
            self.walks_absorbed += absorbed
            if req.kind == "walk":
                self.walk_requested += req.walks
                self.walk_absorbed += absorbed

    def walks_per_s(self) -> float:
        return self.walks_absorbed / self.walk_seconds if self.walk_seconds else 0.0

    @staticmethod
    def _absorbed(req, text, stderr) -> int:
        if req.kind == "walk":
            if not text or "\n" not in text:
                return 0
            return int(text.splitlines()[1].rsplit(",", 1)[1])
        capped = 0
        for line in stderr.splitlines():
            if "capped walk" in line:
                capped = int(line.split()[1])
        return req.walks - capped

    @staticmethod
    def _verdict(req, rc, exc, stdout, stderr, text, reproducible):
        """(failed, silent, reason).  A silent failure is a wrong answer the
        program did not flag; an error exit, an escaped exception or a
        reported inconsistent level is a failure the program reported."""
        import reference
        if exc is not None:
            return True, False, f"uncaught {type(exc).__name__}: {exc}"
        if rc != req.expect_rc:
            return True, rc == 0, f"exit code {rc}, expected {req.expect_rc}: {stderr[:200]!r}"
        if "inconsistent" in stderr:
            return True, False, stderr.strip().splitlines()[0][:200]
        if req.kind in ("walk", "poisson-mc") and not reproducible:
            return True, True, "seeded output differs from the same request's first run"
        if req.out and text is None:
            return True, True, "no output file"
        try:
            req.check(rc, stdout, text)
        except reference.CheckFailed as e:
            return True, True, str(e)
        return False, False, ""


def write_inputs(workload, target: Path) -> None:
    target.mkdir(parents=True)
    for name, text in workload.inputs().items():
        (target / name).write_text(text)


def measure_setup(workload, workdir: Path, probe: HostProbe) -> tuple:
    """Median over SETUP_REPS of (import bharm in a fresh interpreter) +
    (render and write one pass's input files), scaled to the reference host
    speed by probes taken before each repetition; and the raw median."""
    scaled, raw = [], []
    for rep in range(SETUP_REPS):
        scale = probe.scale([probe() for _ in range(3)])
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        t_import = float(child.stdout.strip().splitlines()[-1])
        target = workdir / f"setup{rep}"
        t0 = time.perf_counter()
        write_inputs(workload, target)
        t_write = time.perf_counter() - t0
        shutil.rmtree(target)
        raw.append(t_import + t_write)
        scaled.append(scale * raw[-1])
    return statistics.median(scaled), statistics.median(raw)


def per_layer(tracer, runner, passes: int, traced_walls: list, untraced_wall: float) -> dict:
    st, calls = tracer.self_time, tracer.calls

    def s(*names):
        return sum(st.get(n, 0.0) for n in names) / passes

    def c(*names):
        return sum(calls.get(n, 0) for n in names) / passes

    splu, solves = c("linalg.splu"), c("pathspace.dirichlet_solve")
    values = {
        "cli.self_s": (s("cli.main"), "s"),
        "cli.uncaught_errors": (runner.uncaught / (passes + 1), "count"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "diagram.generate_s": (s("diagram.generate"), "s"),
        "diagram.validate_s": (s("diagram.validate"), "s"),
        "diagram.convert_s": (s("diagram.convert"), "s"),
        "fileio.parse_s": (s("fileio.parse"), "s"),
        "fileio.format_s": (s("fileio.format"), "s"),
        "operators.build_s": (s("operators.build"), "s"),
        "operators.apply_s": (s("operators.apply"), "s"),
        "energy.energy_norm_s": (s("energy.energy_norm"), "s"),
        "harmonic.solve_chain_s": (s("harmonic.solve_chain"), "s"),
        "harmonic.harm_dimension_s": (s("harmonic.harm_dimension"), "s"),
        "pathspace.walk_s": (s("pathspace.walk"), "s"),
        "pathspace.poisson_mc_s": (s("pathspace.poisson_mc"), "s"),
        "pathspace.walks_absorbed_ratio": (
            runner.walk_absorbed / runner.walk_requested if runner.walk_requested else 0.0,
            "ratio"),
        "walks_per_s": (runner.walks_per_s(), "1/s"),
        "pathspace.green_exact_s": (s("pathspace.green_exact"), "s"),
        "pathspace.dirichlet_s": (s("pathspace.dirichlet", "pathspace.dirichlet_solve"), "s"),
        "pathspace.dirichlet_solves": (solves, "count"),
        "pathspace.solves_per_factor": (solves / splu if splu else 0.0, "ratio"),
        "linalg.splu_s": (s("linalg.splu"), "s"),
        "linalg.splu_calls": (splu, "count"),
        "linalg.cg_s": (s("linalg.cg"), "s"),
        "linalg.cg_calls": (c("linalg.cg"), "count"),
        "linalg.lsqr_s": (s("linalg.lsqr"), "s"),
        "linalg.lsqr_calls": (c("linalg.lsqr"), "count"),
        "linalg.dense_s": (s("linalg.dense"), "s"),
        "linalg.dense_calls": (c("linalg.dense"), "count"),
        "trace.wall_s": (statistics.median(traced_walls), "s"),
        "trace.overhead_s": (statistics.median(traced_walls) - untraced_wall, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bharm" / "cli.py").is_file():
        print(f"error: no bharm sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np
    import scipy
    import workloads as wl

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cwd = os.getcwd()
    try:
        t_build = time.perf_counter()
        refs = wl.Refs()
        passes = passes_for(args.workload, args.seconds)
        plan = [wl.BY_NAME[args.workload](np.random.default_rng([args.seed, k]), refs)
                for k in range(passes)]
        probe = HostProbe()
        setup_s, setup_raw_s = measure_setup(plan[0], workdir, probe)
        dirs = [workdir / f"pass{k}" for k in range(passes)]
        for workload, d in zip(plan, dirs):
            write_inputs(workload, d)
        build_s = time.perf_counter() - t_build
        sys.path.insert(0, str(SRC))
        import bharm
        import bharm.cli as cli
        if Path(bharm.__file__).resolve().parent != SRC / "bharm":
            print(f"error: imported bharm from {bharm.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(cli, probe)
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t_run = time.perf_counter()
        if args.trace:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                walls = [sum(runner.run_pass(k, w, d, tracer))
                         for k, (w, d) in enumerate(zip(plan, dirs))]
            finally:
                tracer.uninstall()
            untraced_wall = sum(runner.run_pass(0, plan[0], dirs[0]))
            metrics = per_layer(tracer, runner, passes, walls, untraced_wall)
        else:
            raw = [runner.run_pass(k, w, d) for k, (w, d) in enumerate(zip(plan, dirs))]
            scales = [probe.scale(p) for p in runner.probes]
            per_pass = [[t * f for t in lat] for lat, f in zip(raw, scales)]
            pass_walls = [sum(lat) for lat in per_pass]
            latencies = [t for lat in per_pass for t in lat]
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(pass_walls), "unit": "s"},
                "req_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "req_tail_s": {"value": tail_s, "unit": "s"},
                "success_rate": {"value": 1.0 - runner.failed / runner.attempted,
                                 "unit": "ratio"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
            }
        context = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, "requests_per_pass": len(plan[0].requests),
            "client": "closed loop, 1 client, 1 process",
            "run_s": time.perf_counter() - t_run, "build_and_setup_s": build_s,
            "setup_raw_s": setup_raw_s,
            "rss_before_requests_mb": rss_before,
            "failures": runner.reasons, "silent_failures": runner.silent,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": _nproc(), "blas_threads": BLAS_THREADS,
            "BH_THREADS": {"value": os.environ.get("BH_THREADS"),
                           "note": "documented no-op at this revision"},
            **source_revision(),
        }
        if not args.trace:
            context.update(tail_percentile=tail_pct, tail_samples=len(latencies),
                           walks_per_s=runner.walks_per_s(), first_pass_s=pass_walls[0],
                           pass_walls_s=pass_walls, pass_scales=scales,
                           raw_pass_walls_s=[sum(lat) for lat in raw],
                           latencies_s=per_pass,
                           request_median_s={r.name: statistics.median(ts) for r, ts in
                                             zip(plan[0].requests, zip(*per_pass))})
        print(json.dumps({"context": context}))
        print(json.dumps({"correct": runner.silent == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
        return 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
