"""Benchmark of the fistakit scheme-comparison experiment.

Run from the root of a checkout::

    python3 perfbench/bench.py --workload desk --seed 1000 --seconds 30 --trace 0

The workloads, their default and held-out seeds and the map from layer
metrics to end-to-end metrics live in ``workloads.json`` next to this file.

One *repeat* is the experiment path a user waits for: an in-process
``fistakit.cli.run_experiment`` at ``jobs=1`` (which writes every CSV),
followed by ``verify_bounds`` on its output directory.  After a tiny
warm-up experiment, a run repeats the workload for about ``--seconds``
seconds, and never fewer than twice, so that no timing is a single shot.

``--trace 0`` reports the end-to-end metrics.  Only the coarse phases
(instance generation, the oracles, one span per ``run_scheme`` call) are
traced; they fire about a hundred times per repeat.  The FISTA step is
wrapped too, but only to take the host-speed readings inside a solve,
which costs a call and a clock reading per step.  On a shared host
the CPU may run up to twice as slow for stretches of seconds to minutes,
longer than a run, so every time is taken in *reference seconds*: a
host-speed probe (``hostspeed.py``) is read before each instance, before
each ``run_scheme`` call, every tenth of a second inside a solve and
around each verification, and each interval is scaled by the probe's
speed around it, the probes' own time left out.  The phase times are
taken per trial (per trial and scheme for the solves), and the median
over repeats of each is summed over trials; ``experiment_s`` and
``verify_s`` are medians over all their samples.  A scheme's solve time
is reported per iteration, ``solve_us_per_iter.<scheme>``: its summed
time over its summed iterations; the count itself is ``iters.<scheme>``.
At paper scale the four trials' counts, and so their total times, spread
twice as widely between seeds as the time per iteration does.
``setup_s`` is the sum over trials of the median of at least eleven
set-ups: one per repeat plus nine passes that only build the instances.
The run's median probe time and the unscaled experiment times are in the
metadata line.

``--trace 1`` alternates untraced repeats with repeats in which every
per-iteration layer is wrapped too (see ``tracer.py``), reports the
per-layer metrics (each the minimum over traced repeats) and the tracing
overhead (fastest traced over fastest untraced repeat, minus 1).  The
traced and untraced repeats must give identical iteration counts and
output digests.

Every repeat passes through the correctness gate: each (trial, scheme)
solve is one operation, and it fails on an exception, an exhausted
budget, a final ``||g||_*`` above ``eps``, a broken prox identity
``prox_calls == iterations + calls + outer_checks`` or a ``FAIL`` from
``verify_bounds`` for its trial.

The line before the last one on standard output carries the run's
metadata; the last line is ``{"correct", "attempted", "failed",
"metrics"}``.  Outputs, results and the spans of the last traced repeat
are written under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One process, one thread: a BLAS thread pool on a small shared host would
# measure the scheduler rather than the library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import scipy

from hostspeed import REFERENCE_S, HostSpeed
from tracer import Tracer

sys.path.insert(0, str(SRC))
try:
    from fistakit import cli as fk_cli
except ImportError as exc:  # main() reports it and exits with code 2
    fk_cli = None
    IMPORT_ERROR = exc

SCHEMES = ("none", "func", "grad", "opt", "lcr")
SETUP_PASSES = 9
MIN_REPEATS = 2
VERIFY_REPEATS = 5
# Longest stretch of a solve between two host-speed readings, in seconds.
PROBE_EVERY_S = 0.1
DETERMINISTIC_FILES = ("stats.csv", "trials.csv", "oracles.csv")


# ----------------------------------------------------------------------
# workloads


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def workload_config(spec: dict, seed: int, out: Path):
    """The ``ExperimentConfig`` of one workload at one seed."""
    return fk_cli.ExperimentConfig(**spec["config"], seed=seed, out=out, jobs=1)


def warmup_config(config, out: Path):
    """A one-trial miniature of ``config`` on the same code paths."""
    if config.family == "lasso":
        N, n = 8, 10
    else:
        N, n = 12, 8
    return dataclasses.replace(config, N=N, n=n, trials=1, seed=0, out=out)


# ----------------------------------------------------------------------
# one repeat


@dataclasses.dataclass
class Repeat:
    """Measurements and checks of one experiment repeat."""

    traced: bool
    tracer: Tracer | None
    experiment_s: float
    experiment_raw_s: float
    verify_s: list[float] = dataclasses.field(default_factory=list)
    setup: dict[int, float] = dataclasses.field(default_factory=dict)
    oracle: dict[int, float] = dataclasses.field(default_factory=dict)
    solve: dict[tuple[int, str], float] = dataclasses.field(default_factory=dict)
    iterations: dict[tuple[int, str], int] = dataclasses.field(default_factory=dict)
    iters: dict[str, float] = dataclasses.field(default_factory=dict)
    digest: str = ""
    export_bytes: int = 0
    trace_rows: int = 0
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)


def _gate(outcome, eps: float, verify_failed: bool) -> str:
    """Why one (trial, scheme) solve failed, or '' when it passed."""
    if outcome is None:
        return "not run"
    if isinstance(outcome, BaseException):
        return f"exception: {outcome!r}"
    trace = outcome.trace
    if trace.exhausted:
        return "budget exhausted"
    if not trace.final_g_norm <= eps:
        return f"final ||g||_* {trace.final_g_norm!r} > eps"
    if trace.total_prox_calls != trace.total_iterations + trace.calls + trace.outer_checks:
        return "prox identity broken"
    if verify_failed:
        return "verify_bounds FAIL"
    return ""


def _read_outputs(rep: Repeat, out: Path) -> None:
    """Digest the deterministic outputs; count exported bytes and rows."""
    sha = hashlib.sha256()
    files = [out / name for name in DETERMINISTIC_FILES]
    files += sorted((out / "traces").iterdir())
    for path in files:
        data = path.read_bytes()
        sha.update(path.relative_to(out).as_posix().encode() + b"\0")
        sha.update(data + b"\0")
        if path.parent.name == "traces" and not path.stem.endswith(("_restarts", "_lcr_nj")):
            rep.trace_rows += data.count(b"\n") - 1
    rep.digest = sha.hexdigest()
    rep.export_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    lines = (out / "stats.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rep.iters[row["scheme"]] = float(row["avg_iterations"])


def _phase_times(rep: Repeat, scale) -> None:
    """Per-trial times of the coarse phases, from the repeat's spans."""
    tab = rep.tracer.table()
    ids = {name: i for i, name in enumerate(rep.tracer.names)}
    generate = tab["name"] == ids["lasso.generate"]
    trial_of = np.cumsum(generate) - 1
    oracle_ids = {ids[n] for n in ("oracles.fstar", "oracles.mu", "oracles.kkt") if n in ids}
    solve_ids = {ids[f"cli.run_scheme.{s}"]: s for s in SCHEMES if f"cli.run_scheme.{s}" in ids}
    coarse = generate | np.isin(tab["name"], list(oracle_ids | set(solve_ids)))
    durations = scale(tab["start"][coarse], tab["end"][coarse])
    for nid, trial, dur in zip(tab["name"][coarse].tolist(), trial_of[coarse].tolist(),
                               durations.tolist()):
        if nid == ids["lasso.generate"]:
            rep.setup[trial] = dur
        elif nid in oracle_ids:
            rep.oracle[trial] = rep.oracle.get(trial, 0.0) + dur
        elif nid in solve_ids:
            rep.solve[(trial, solve_ids[nid])] = dur


def _unscaled(t0, t1):
    return t1 - t0


def run_repeat(config, traced: bool, speed: HostSpeed | None = None) -> Repeat:
    """One experiment plus verification, measured and gated.

    With ``speed``, host-speed readings are taken at the phase boundaries
    and every time is in reference seconds; without, in seconds.
    """
    shutil.rmtree(config.out, ignore_errors=True)
    gc.collect()
    tracer = Tracer(detailed=traced)
    if speed is not None:
        tracer.boundary = speed.take
        tracer.boundary_every = PROBE_EVERY_S
        speed.take()
    tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.call("cli.run_experiment", fk_cli.run_experiment, config)
    except Exception as exc:  # counted by the gate, reported in the metadata
        error = exc
    finally:
        t1 = time.perf_counter()
        tracer.uninstall()
    if speed is not None:
        speed.take()

    verify_spans = []
    failed_trials: set[int] = set()
    if error is None:
        try:
            for _ in range(VERIFY_REPEATS):
                t2 = time.perf_counter()
                checks, _ = fk_cli.verify_bounds(config.out)
                verify_spans.append((t2, time.perf_counter()))
                if speed is not None:
                    speed.take()
        except Exception as exc:  # unreadable output fails every operation
            error = exc
        else:
            failed_trials = {c.trial for c in checks if c.status == "FAIL"}

    scale = _unscaled if speed is None else speed.scaled
    rep = Repeat(traced=traced, tracer=tracer, experiment_s=scale(t0, t1), experiment_raw_s=t1 - t0,
                 verify_s=[scale(a, b) for a, b in verify_spans])
    if error is not None:
        rep.failures.append(f"run: {error!r}")
    else:
        _read_outputs(rep, config.out)
        _phase_times(rep, scale)

    for trial in range(config.trials):
        for scheme in config.schemes:
            rep.attempted += 1
            outcome = tracer.outcomes.get((trial, scheme.value))
            if error is not None and not isinstance(outcome, BaseException):
                outcome = error
            reason = _gate(outcome, config.epsilon, trial in failed_trials)
            if not reason:
                rep.iterations[(trial, scheme.value)] = outcome.trace.total_iterations
            else:
                rep.failures.append(f"trial {trial} {scheme.value}: {reason}")
    return rep


# ----------------------------------------------------------------------
# metrics


def _sum_of_medians(samples: dict) -> float:
    return float(sum(statistics.median(v) for v in samples.values()))


def _per_key(dicts) -> dict:
    merged: dict = {}
    for d in dicts:
        for key, value in d.items():
            merged.setdefault(key, []).append(value)
    return merged


def _matvec_bytes(nnz: int, N: int, n: int, index_size: int) -> int:
    """Bytes one sparse matvec with A or A^T moves, computed from its sizes.

    Values and indices of every stored entry, the pointer array, the
    input vector and the output vector, each touched once.
    """
    return (8 + index_size) * nnz + index_size * (n + 1) + 8 * (N + n)


def end_to_end(reps: list[Repeat], setup_passes: list[dict[int, float]]) -> dict:
    """The end-to-end metrics of a ``--trace 0`` run."""
    solve = _per_key(r.solve for r in reps)
    metrics = {
        "experiment_s": (statistics.median(r.experiment_s for r in reps), "s"),
        "setup_s": (_sum_of_medians(_per_key([*(r.setup for r in reps), *setup_passes])), "s"),
        "oracle_s": (_sum_of_medians(_per_key(r.oracle for r in reps)), "s"),
    }
    for s in SCHEMES:
        keys = [k for k in solve if k[1] == s]
        seconds = _sum_of_medians({k: solve[k] for k in keys})
        iterations = sum(reps[0].iterations[k] for k in keys)
        metrics[f"solve_us_per_iter.{s}"] = (1e6 * seconds / iterations, "us")
    metrics["verify_s"] = (statistics.median(t for r in reps for t in r.verify_s), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    for s in SCHEMES:
        metrics[f"iters.{s}"] = (reps[0].iters[s], "count")
    return metrics


def per_layer(rep: Repeat, config) -> dict:
    """The per-layer metrics of one detailed-traced repeat."""
    tracer = rep.tracer
    tab = tracer.table()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        return tab["name"] == ids.get(name, -1)

    def count(name):
        return int(np.count_nonzero(spans(name)))

    def total(name, col="dur"):
        return float(tab[col][spans(name)].sum())

    def per_call(name, col="dur", scale=1e6):
        calls = count(name)
        return scale * total(name, col) / calls if calls else 0.0

    prox_calls = count("model.prox")
    phase = tab["phase"]
    in_fstar = np.zeros(phase.size, dtype=bool)
    has_phase = phase >= 0
    in_fstar[has_phase] = tab["name"][phase[has_phase]] == ids["oracles.fstar"]
    shapes = [tracer.shapes[t] for t in sorted(tracer.shapes)]
    fista_iters = int(tab["aux"][spans("fista")].sum())

    m = {
        "lasso.grad.calls": (count("lasso.grad"), "count"),
        "lasso.grad.us": (per_call("lasso.grad"), "us"),
        "lasso.value.calls": (count("lasso.value"), "count"),
        "lasso.value.us": (per_call("lasso.value"), "us"),
        # Computed from call counts: a gradient is A x then A^T r, a value A x.
        "lasso.matvecs_per_iter": ((2 * count("lasso.grad") + count("lasso.value")) / prox_calls,
                                   "ratio"),
        "lasso.matvec_bytes": (float(np.mean([_matvec_bytes(*s) for s in shapes])), "B"),
        "lasso.generate.ms": (per_call("lasso.generate", scale=1e3), "ms"),
        "model.prox.calls": (prox_calls, "count"),
        "model.prox.self_us": (per_call("model.prox", "self"), "us"),
        "model.objective.calls": (count("model.objective"), "count"),
        "model.objective.self_us": (per_call("model.objective", "self"), "us"),
        "fista.calls": (count("fista"), "count"),
        "fista.self_us_per_iter": (1e6 * total("fista", "self") / fista_iters, "us"),
    }
    for s in ("func", "grad", "opt", "lcr"):
        m[f"restart.exit.{s}.us"] = (per_call(f"restart.exit.{s}"), "us")
    for s in SCHEMES:
        traces = [tracer.outcomes[(t, s)].trace for t in range(config.trials)]
        iterations = sum(tr.total_iterations for tr in traces)
        m[f"restart.restarts.{s}"] = (sum(tr.calls - 1 for tr in traces), "count")
        m[f"restart.outer_checks.{s}"] = (sum(tr.outer_checks for tr in traces), "count")
        # Waste: init proxes plus outer checks per useful iteration.
        m[f"restart.prox_per_iter.{s}"] = (
            sum(tr.calls + tr.outer_checks for tr in traces) / iterations, "ratio")
    m.update({
        "oracles.fstar.s": (total("oracles.fstar"), "s"),
        "oracles.fstar.prox_calls": (int(np.count_nonzero(spans("model.prox") & in_fstar)), "count"),
        "oracles.kkt.us": (per_call("oracles.kkt"), "us"),
        "oracles.mu.ms": (per_call("oracles.mu", scale=1e3), "ms"),
        "cli.export.s": (total("cli.run_experiment", "self"), "s"),
        "cli.export.bytes": (rep.export_bytes, "B"),
        "cli.trace_rows": (rep.trace_rows, "count"),
    })
    return m


# ----------------------------------------------------------------------
# metadata


def _git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metadata(workload: str, seed: int, spec: dict, iters: dict) -> dict:
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"].get(workload)
    pinned = baseline["iters"] if baseline and seed == spec["default_seed"] else None
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": spec["default_seed"],
        "holdout_seed": spec["holdout_seed"],
        # The paper's result: a default-seed run should reproduce the pinned counts.
        "iters_match_baseline": None if pinned is None else pinned == iters,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
    }


# ----------------------------------------------------------------------
# a whole run


def measure(config, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Warm up, repeat the experiment for ``seconds``, gate and summarise.

    Returns ``(result, details)``: the result object printed last, and
    the run's details (repeat counts, digests, samples and failures).
    """
    speed = HostSpeed(config.N, config.n, 1.0 - config.sparsity)
    warm = warmup_config(config, config.out.with_name(config.out.name + "-warmup"))
    run_repeat(warm, traced=trace)
    shutil.rmtree(warm.out, ignore_errors=True)

    start = time.perf_counter()
    speed.take()
    setup_passes: list[dict[int, float]] = []
    if not trace:
        for _ in range(SETUP_PASSES):
            spans = {}
            for t in range(config.trials):
                speed.take()
                t0 = time.perf_counter()
                config.instance(t)
                spans[t] = (t0, time.perf_counter())
            speed.take()
            setup_passes.append({t: speed.scaled(a, b) for t, (a, b) in spans.items()})

    reps: list[Repeat] = []
    layers: list[dict] = []
    last_traced = None
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = run_repeat(config, traced, None if trace else speed)
        last = time.perf_counter() - t0
        if traced and not rep.failures:
            layers.append(per_layer(rep, config))
            last_traced = rep.tracer
        rep.tracer = None  # spans are large; keep only the last traced set
        reps.append(rep)
        if len(reps) >= MIN_REPEATS and time.perf_counter() - start + last > seconds:
            break

    speed.take()
    failures = [f for r in reps for f in r.failures]
    ok = not failures
    deterministic = (len({r.digest for r in reps}) == 1
                     and len({json.dumps(r.iters, sort_keys=True) for r in reps}) == 1)
    details = {
        "repeats": len(reps),
        "traced_repeats": sum(r.traced for r in reps),
        "digest": reps[0].digest,
        "deterministic": deterministic,
        "iters": reps[0].iters,
        "failures": failures[:20],
        "host_probe_ms": speed.median_ms(),
        "host_probe_readings": len(speed.seconds),
    }

    metrics: dict = {}
    if ok:
        if trace:
            untraced = [r.experiment_raw_s for r in reps if not r.traced]
            traced = [r.experiment_raw_s for r in reps if r.traced]
            for name, values in _per_key(layers).items():
                metrics[name] = (min(v for v, _ in values), values[0][1])
            overhead = min(traced) / min(untraced) - 1.0
            metrics["trace_overhead"] = (overhead, "ratio")
            details["experiment_s"] = {"untraced": untraced, "traced": traced}
            last_traced.save(config.out.with_name(f"spans-{config.out.name}.npz"))
        else:
            metrics = end_to_end(reps, setup_passes)
            details["samples"] = {
                "experiment_s": [r.experiment_s for r in reps],
                "experiment_unscaled_s": [r.experiment_raw_s for r in reps],
                "verify_s": [r.verify_s for r in reps],
                "setup": [list(r.setup.values()) for r in reps] + [list(p.values()) for p in setup_passes],
                "oracle": [list(r.oracle.values()) for r in reps],
                "solve": {s: [[v for k, v in sorted(r.solve.items()) if k[1] == s] for r in reps]
                          for s in SCHEMES},
            }
    result = {
        "correct": ok and deterministic,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(1 for f in failures if not f.startswith("run: ")),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="instance base seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if fk_cli is None:
        print(f"cannot import fistakit from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(fk_cli.__file__).resolve().is_relative_to(SRC):
        print(f"fistakit was imported from {fk_cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = workloads["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    config = workload_config(spec, seed, OUT / args.workload)
    result, details = measure(config, args.seconds, bool(args.trace))
    meta = metadata(args.workload, seed, spec, details["iters"])
    meta.update(seconds=args.seconds, trace=args.trace, reference_probe_ms=1e3 * REFERENCE_S,
                **details)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
