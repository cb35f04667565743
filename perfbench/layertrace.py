"""Outside-in per-layer tracing of bharm.

Wraps the public functions each layer exposes by replacing module (and
class) attributes at run time; nothing under src/ is edited.  Every call
through a wrapper while the tracer is recording is a span; a span's self
time is its duration minus the time of the spans nested in it, and the
tracer sums self times and counts calls per span name.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (span name, module, attribute); "Class.method" patches a class attribute.
# Names are "<layer>.<metric stem>"; several functions may share a span name.
TARGETS = [
    ("cli.main", "bharm.cli", "main"),
    ("diagram.validate", "bharm.diagram", "validate"),
    ("diagram.convert", "bharm.diagram", "diagram_from_graph"),
    ("diagram.convert", "bharm.diagram", "extract_maximal_bratteli"),
    ("diagram.generate", "bharm.fileio", "load_diagram"),
    ("fileio.parse", "bharm.fileio", "parse_diagram"),
    ("fileio.parse", "bharm.fileio", "parse_graph"),
    ("fileio.parse", "bharm.fileio", "parse_function"),
    ("fileio.format", "bharm.fileio", "format_diagram"),
    ("fileio.format", "bharm.fileio", "format_function"),
    ("operators.build", "bharm.operators", "build_level_operators"),
    ("operators.apply", "bharm.operators", "laplacian_apply"),
    ("operators.apply", "bharm.operators", "markov_apply"),
    ("energy.energy_norm", "bharm.energy", "energy_norm"),
    ("harmonic.solve_chain", "bharm.harmonic", "solve_chain"),
    ("harmonic.harm_dimension", "bharm.harmonic", "harm_dimension"),
    ("pathspace.walk", "bharm.pathspace", "simulate_walks"),
    ("pathspace.poisson", "bharm.pathspace", "poisson_kernel"),
    ("pathspace.green_exact", "bharm.pathspace", "green_exact"),
    ("pathspace.dirichlet", "bharm.pathspace", "DirichletSystem.__init__"),
    ("pathspace.dirichlet_solve", "bharm.pathspace", "DirichletSystem.solve"),
    ("linalg.splu", "scipy.sparse.linalg", "splu"),
    ("linalg.cg", "scipy.sparse.linalg", "cg"),
    ("linalg.lsqr", "scipy.sparse.linalg", "lsqr"),
    ("linalg.dense", "numpy.linalg", "svd"),
    ("linalg.dense", "numpy.linalg", "lstsq"),
    ("linalg.dense", "scipy.linalg", "orth"),
    ("linalg.dense", "scipy.linalg", "null_space"),
]


class Tracer:
    """Times spans while `recording` is set; wrappers are inert otherwise."""

    def __init__(self):
        self.recording = False
        self.self_time: dict = {}      # span name -> seconds
        self.calls: dict = {}          # span name -> count
        self._stack: list = []         # open spans: [start, child_time]
        self._patches: list = []

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            # Monte Carlo and exact Poisson are different layers of work
            span = name
            if name == "pathspace.poisson":
                span += "_mc" if kwargs.get("method", args[3] if len(args) > 3 else "") \
                    == "monte-carlo" else "_exact"
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.self_time[span] = tracer.self_time.get(span, 0.0) + dur - frame[1]
                tracer.calls[span] = tracer.calls.get(span, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target in its home module and wherever bharm modules
        imported it by name."""
        import importlib
        bharm_modules = [m for k, m in list(sys.modules.items())
                         if k == "bharm" or k.startswith("bharm.")]
        for name, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self.wrap(name, owner.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            self._patch(mod, attr, wrapped)
            for m in bharm_modules:
                if m is not mod and getattr(m, attr, None) is orig:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self._stack.clear()
