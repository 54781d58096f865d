"""Spans recorded from outside the library, by replacing module-level names.

Every wrapped call appends one span to column arrays kept in memory:
the span name, the enclosing span, the enclosing coarse span (its
"phase"), the start and end clock readings and one integer the caller
may attach (the iteration count of a ``fista`` call).  Nothing under
``src/`` knows about the tracer; :meth:`Tracer.install` swaps the names
where their callers look them up and :meth:`Tracer.uninstall` puts the
originals back.

A *coarse* tracer wraps only the phases of one experiment (instance
generation, the oracles and one ``run_scheme`` call per scheme), which
fire about a hundred times per experiment and so stay on in the runs
that report end-to-end times.  A coarse tracer may also call a
``boundary`` function before each instance and each ``run_scheme`` call,
outside every span, and, when ``boundary_every`` is set, at the first
FISTA step after each ``boundary_every`` seconds, so that long solves are
cut too; the benchmark takes its host-speed readings there.
A *detailed* tracer additionally wraps the per-iteration layers: the
prox, the objective, the FISTA loop, the exit tests and the smooth part's
value and gradient.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array

import numpy as np

NO_SPAN = -1


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, detailed: bool):
        self.detailed = detailed
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self._stack = [NO_SPAN]
        self._phase = NO_SPAN
        self.trial = -1
        # (trial, scheme) -> RestartResult, or the exception it raised.
        self.outcomes: dict[tuple[int, str], object] = {}
        # trial -> (nnz, N, n, index itemsize) of the generated instance.
        self.shapes: dict[int, tuple[int, int, int, int]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.boundary = None
        self.boundary_every: float | None = None

    # ------------------------------------------------------------------
    # recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, coarse: bool) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self._phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self.aux.append(0)
        self._stack.append(i)
        if coarse:
            self._phase = i
        return i

    def _close(self, i: int, t0: float, t1: float, coarse: bool) -> None:
        self.start[i] = t0
        self.end[i] = t1
        self._stack.pop()
        if coarse:
            self._phase = self.phase[i]

    def call(self, name: str, fn, *args, coarse: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span called ``name``."""
        i = self._open(self._id(name), coarse)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i, t0, time.perf_counter(), coarse)

    def wrap(self, fn, name: str, coarse: bool = False, aux_of=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close
        aux = self.aux

        def wrapper(*args, **kwargs):
            i = open_(nid, coarse)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i, t0, clock(), coarse)
            if aux_of is not None:
                aux[i] = aux_of(out)
            return out

        return wrapper

    def _paced(self, fn):
        """Return ``fn`` calling ``boundary`` first, at most every ``boundary_every`` s."""
        boundary, every = self.boundary, self.boundary_every
        clock = time.perf_counter
        due = clock() + every

        def wrapper(*args, **kwargs):
            nonlocal due
            if clock() >= due:
                boundary()
                due = clock() + every
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace the traced names in the library's modules."""
        # ``import fistakit.fista`` would give the re-exported function.
        mod_fista = importlib.import_module("fistakit.fista")
        mod_restart = importlib.import_module("fistakit.restart")
        mod_cli = importlib.import_module("fistakit.cli")
        config_cls = mod_cli.ExperimentConfig

        instance = config_cls.instance
        run_scheme = mod_cli.run_scheme

        def traced_instance(config, trial):
            self.trial = trial
            if self.boundary is not None:
                self.boundary()
            lp = self.call("lasso.generate", instance, config, trial)
            index_size = max(lp.A.indices.itemsize, lp.A.indptr.itemsize)
            self.shapes[trial] = (int(lp.A.nnz), lp.N, lp.n, index_size)
            if not self.detailed:
                return lp
            smooth = lp.problem.smooth
            wrapped = dataclasses.replace(
                smooth,
                value=self.wrap(smooth.value, "lasso.value"),
                grad=self.wrap(smooth.grad, "lasso.grad"),
            )
            problem = dataclasses.replace(lp.problem, smooth=wrapped)
            return dataclasses.replace(lp, problem=problem)

        def traced_run_scheme(problem, run):
            key = (self.trial, run.scheme.value)
            if self.boundary is not None:
                self.boundary()
            try:
                out = self.call(f"cli.run_scheme.{run.scheme.value}", run_scheme, problem, run)
            except Exception as exc:
                self.outcomes[key] = exc
                raise
            self.outcomes[key] = out
            return out

        self._swap(config_cls, "instance", traced_instance)
        self._swap(mod_cli, "run_scheme", traced_run_scheme)
        for attr, name in (("oracle_fstar", "oracles.fstar"),
                           ("oracle_mu", "oracles.mu"),
                           ("kkt_residual", "oracles.kkt")):
            self._swap(mod_cli, attr, self.wrap(getattr(mod_cli, attr), name, coarse=True))
        if self.boundary is not None and self.boundary_every is not None:
            self._swap(mod_fista, "composite_gradient_map",
                       self._paced(mod_fista.composite_gradient_map))
        if not self.detailed:
            return

        for mod in (mod_fista, mod_restart):
            self._swap(mod, "composite_gradient_map",
                       self.wrap(mod.composite_gradient_map, "model.prox"))
            self._swap(mod, "objective", self.wrap(mod.objective, "model.objective"))
        self._swap(mod_restart, "fista",
                   self.wrap(mod_restart.fista, "fista", aux_of=lambda res: res.n))
        for attr, scheme in (("exit_function_scheme", "func"),
                             ("exit_gradient_scheme", "grad"),
                             ("exit_optimal_value_scheme", "opt"),
                             ("exit_lcr", "lcr")):
            self._swap(mod_restart, attr,
                       self.wrap(getattr(mod_restart, attr), f"restart.exit.{scheme}"))

    def uninstall(self) -> None:
        """Put back every name :meth:`install` replaced."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # analysis

    def table(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with durations and self times added."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": parent,
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write the spans and the name table to one ``.npz`` file."""
        cols = self.table()
        np.savez(path, names=np.array(self.names), **cols)
