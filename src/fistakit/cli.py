"""Batch experiment harness and command line interface.

Reproduces the scheme-comparison protocol at configurable scale: generate
a family of randomized instances, compute a high-accuracy reference value
per instance, run the selected schemes from the zero start, and emit
iteration statistics plus per-instance convergence traces as CSV.  A
separate ``verify`` command re-reads the emitted files and checks every
applicable convergence guarantee against them.

Commands::

    fistakit run    --config FILE [overrides]   # full experiment
    fistakit gen    --out FILE [--seed ...]     # emit one problem file
    fistakit solve  PROBLEM --scheme lcr ...    # one scheme on one file
    fistakit verify --out DIR                   # bound report from traces

Exit codes: 0 success, 1 any invalid trial or failed bound, 2 config
error.  All floats are serialized with 17 significant digits; outputs are
deterministic functions of the configuration, independent of --jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .fista import DEFAULT_ITERATION_BUDGET
from .lasso import LassoProblem, LassoSpec, generate, load_problem, save_problem
from .model import composite_gradient_map, objective
from .oracles import OracleError, kkt_residual, oracle_fstar, oracle_mu
from .restart import RestartRecord, RestartRun, RestartTrace, Scheme, run_scheme

__all__ = [
    "ExperimentConfig",
    "SchemeStats",
    "run_experiment",
    "export_trace",
    "verify_bounds",
    "main",
]

# Tolerance policy for rate checks: a relative factor on the bound plus an
# absolute allowance for float evaluation noise.
BOUND_REL = 1e-8
BOUND_ABS = 1e-12


def fmt(x: float) -> str:
    """17-significant-digit decimal form (exact float64 round trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one experiment run."""

    N: int = 600
    n: int = 800
    alpha: float = 0.01
    sparsity: float = 0.9
    family: str = "lasso"
    trials: int = 100
    schemes: tuple[Scheme, ...] = tuple(Scheme)
    epsilon: float = 1e-11
    oracle_epsilon: float = 1e-12
    seed: int = 0
    out: Path = Path("out")
    jobs: int = 1
    strict_exit: bool = False
    budget: int = DEFAULT_ITERATION_BUDGET

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for scheme in self.schemes:
            _restart_run(self, scheme, np.zeros(0))
        if not 0 < self.oracle_epsilon < self.epsilon:
            raise ValueError("oracle_epsilon must be > 0 and smaller than epsilon")
        self._spec()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        repeated = {s.value for s in self.schemes if self.schemes.count(s) > 1}
        if repeated:
            raise ValueError(f"schemes repeated: {', '.join(sorted(repeated))}")

    def _spec(self) -> LassoSpec:
        """The spec of trial 0's instance; it raises ``ValueError`` on bad settings."""
        return LassoSpec(**{name: getattr(self, name) for name in _GEN_KEYS})

    def instance(self, trial: int) -> LassoProblem:
        return generate(replace(self._spec(), seed=self.seed + trial))


@dataclass(frozen=True)
class SchemeStats:
    """Aggregate iteration statistics of one scheme across valid trials."""

    scheme: Scheme
    average: float
    median: float
    maximum: int
    minimum: int
    average_prox_calls: float
    trials: int


# ----------------------------------------------------------------------
# config file handling


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` document; '#' starts a comment."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_schemes(text: str) -> tuple[Scheme, ...]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(Scheme.from_name(name) for name in names)


# Every run setting, once: its config-file key (``--key`` on the command
# line, with '-' for '_'), its ExperimentConfig field, and the parser of its
# text.  Flags (of run, gen and solve), config files and run_meta.json all
# follow this table, and ExperimentConfig holds every default.
_CONFIG_KEYS = (
    ("N", "N", int),
    ("n", "n", int),
    ("alpha", "alpha", float),
    ("sparsity", "sparsity", float),
    ("family", "family", str),
    ("trials", "trials", int),
    ("schemes", "schemes", _parse_schemes),
    ("eps", "epsilon", float),
    ("oracle_eps", "oracle_epsilon", float),
    ("seed", "seed", int),
    ("out", "out", Path),
    ("jobs", "jobs", int),
    ("strict_exit", "strict_exit", _parse_bool),
    ("budget", "budget", int),
)

_FLAG_HELP = {
    "family": "lasso or least-squares",
    "schemes": "comma list from {" + ",".join(s.value for s in Scheme) + "}",
    "strict_exit": "check the tolerance only between restarts",
}

# Left out of run_meta.json: outputs must not depend on where they are
# written or on parallelism.
_UNRECORDED_KEYS = ("out", "jobs")

# The settings each command takes as flags.
_RUN_KEYS = tuple(key for key, _, _ in _CONFIG_KEYS)
_GEN_KEYS = tuple(f.name for f in fields(LassoSpec))
_SOLVE_KEYS = ("eps", "oracle_eps", "strict_exit", "budget")


def _parse_settings(settings: dict[str, str]) -> dict:
    """ExperimentConfig field -> value: the defaults, with ``settings``
    (config key -> text) read by the table's parsers."""
    parsers = {key: (name, parse) for key, name, parse in _CONFIG_KEYS}
    values = {f.name: f.default for f in fields(ExperimentConfig)}
    for key, raw in settings.items():
        if key not in parsers:
            raise ValueError(f"unknown config key {key!r}")
        name, parse = parsers[key]
        values[name] = parse(raw)
    return values


def build_config(settings: dict[str, str]) -> ExperimentConfig:
    """The configuration of ``key = value`` settings (config key -> text)."""
    return ExperimentConfig(**_parse_settings(settings))


# ----------------------------------------------------------------------
# CSV output

_TRACE_HEADER = "scheme,k,f,g_dual_norm"
_RESTART_HEADER = "j,n_obs,n_eff,f_r,g_dual_norm"


def _write_csv(path, header: str, lines) -> None:
    """Write a header line and then each already formatted line."""
    Path(path).write_text("\n".join([header, *lines]) + "\n", newline="\n")


def _trace_lines(scheme: str, trace: RestartTrace) -> list[str]:
    """The rows ``scheme,k,f(x_k),||g(y_{k-1})||_*`` of the run, as one string.

    ``k`` counts across restarts.  The rows take one ``%`` over a flat
    tuple of the run's history (``%.17g`` is :func:`fmt`); a run without
    rows gives no string, so that no blank line is written.
    """
    n = len(trace.g_norms)
    if not n:
        return []
    flat = [None] * (3 * n)
    flat[0::3] = range(1, n + 1)
    flat[1::3] = trace.f_vals
    flat[2::3] = trace.g_norms
    return ["\n".join([scheme.replace("%", "%%") + ",%d,%.17g,%.17g"] * n) % tuple(flat)]


def _restart_line(rec: RestartRecord) -> str:
    return f"{rec.j},{rec.n_obs},{rec.n_eff},{fmt(rec.f_r)},{fmt(rec.g_dual_norm)}"


def export_trace(trace: RestartTrace, path, scheme: str) -> None:
    """Write the per-iteration rows of one run as CSV, under a header line.

    An empty trace produces a header-only file.
    """
    _write_csv(path, _TRACE_HEADER, _trace_lines(scheme, trace))


def _write_trial_traces(out_dir: Path, trial: int, results: dict[str, RestartTrace]) -> None:
    traces = out_dir / "traces"
    _write_csv(traces / f"trial_{trial:04d}.csv", _TRACE_HEADER,
               (line for name, trace in results.items() for line in _trace_lines(name, trace)))
    _write_csv(traces / f"trial_{trial:04d}_restarts.csv", "scheme," + _RESTART_HEADER,
               (f"{name},{_restart_line(rec)}"
                for name, trace in results.items() for rec in trace.records))


# ----------------------------------------------------------------------
# trial execution


def _run_trial(config: ExperimentConfig, trial: int) -> dict:
    """Run every selected scheme on instance ``trial``; write its trace files.

    Any exception inside the trial marks it invalid, with the exception as
    its reason and the traceback on stderr, so that one bad trial does not
    end the run or the worker pool.
    """
    try:
        return _solve_trial(config, trial)
    except Exception as exc:
        print(f"trial {trial} raised:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return {"trial": trial, "valid": False, "reason": f"{type(exc).__name__}: {exc}",
                "schemes": {}, "oracle": None}


def _restart_run(settings, scheme: Scheme, x_star: np.ndarray) -> RestartRun:
    """The run from zero that ``settings`` (a config, or solve's flags) ask for."""
    return RestartRun(scheme=scheme, epsilon=settings.epsilon, r0=np.zeros(x_star.size),
                      early_exit=not settings.strict_exit, budget=settings.budget,
                      x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None)


def _solve_trial(config: ExperimentConfig, trial: int) -> dict:
    lp = config.instance(trial)
    summary: dict = {"trial": trial, "valid": True, "reason": "", "schemes": {}, "oracle": None}
    try:
        f_star, x_star = oracle_fstar(lp, tight_eps=config.oracle_epsilon, budget=config.budget)
    except OracleError as exc:
        summary["valid"] = False
        summary["reason"] = f"oracle: {exc}"
        return summary

    r0 = np.zeros(lp.n)
    x0 = composite_gradient_map(lp.problem, r0).y_plus
    try:
        mu = oracle_mu(lp)
    except OracleError:
        mu = math.nan
    summary["oracle"] = {
        "f_star": f_star,
        "kkt_residual": kkt_residual(lp, x_star),
        "f_r0": objective(lp.problem, r0),
        "f_x0": objective(lp.problem, x0),
        "x0_dist_r": lp.metric.norm(x0 - x_star),
        "mu": mu,
    }

    results: dict[str, RestartTrace] = {}
    for scheme in config.schemes:
        trace = run_scheme(lp.problem, _restart_run(config, scheme, x_star)).trace
        results[scheme.value] = trace
        summary["schemes"][scheme.value] = {
            "iterations": trace.total_iterations,
            "prox_calls": trace.total_prox_calls,
            "final_g_dual_norm": trace.final_g_norm,
            "f_final": trace.records[-1].f_r,
            "exhausted": trace.exhausted,
        }
    exhausted = [name for name, row in summary["schemes"].items() if row["exhausted"]]
    if exhausted:
        summary["valid"] = False
        summary["reason"] = "budget exhausted: " + " ".join(exhausted)
    _write_trial_traces(config.out, trial, results)
    return summary


def _aggregate(config: ExperimentConfig, summaries: list[dict]) -> list[SchemeStats]:
    valid = [s for s in summaries if s["valid"]]
    stats = []
    for scheme in config.schemes:
        iters = [s["schemes"][scheme.value]["iterations"] for s in valid]
        prox = [s["schemes"][scheme.value]["prox_calls"] for s in valid]
        if not iters:
            continue
        stats.append(
            SchemeStats(
                scheme=scheme,
                average=float(np.mean(iters)),
                median=float(np.median(iters)),
                maximum=int(max(iters)),
                minimum=int(min(iters)),
                average_prox_calls=float(np.mean(prox)),
                trials=len(iters),
            )
        )
    return stats


def _stats_text(stats: list[SchemeStats]) -> str:
    if not stats:
        return "no valid trials\n"
    names = [st.scheme.value for st in stats]
    width = max(12, *(len(n) + 2 for n in names))
    rows = [
        ("Avg. Iter.", [f"{st.average:.1f}" for st in stats]),
        ("Median Iter.", [fmt(st.median) for st in stats]),
        ("Max. Iter.", [str(st.maximum) for st in stats]),
        ("Min. Iter.", [str(st.minimum) for st in stats]),
        ("Avg. Prox.", [f"{st.average_prox_calls:.1f}" for st in stats]),
    ]
    out = ["Exit Cond.".ljust(14) + "".join(n.rjust(width) for n in names)]
    for label, cells in rows:
        out.append(label.ljust(14) + "".join(c.rjust(width) for c in cells))
    out.append(f"(valid trials: {stats[0].trials})")
    return "\n".join(out) + "\n"


def run_experiment(config: ExperimentConfig) -> tuple[list[SchemeStats], int]:
    """Execute the full protocol; returns the stats and a process exit code."""
    out = config.out
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for stale in traces.glob("trial_*.csv"):  # a rerun keeps only the traces it writes
        stale.unlink()

    meta = {key: getattr(config, name) for key, name, _ in _CONFIG_KEYS
            if key not in _UNRECORDED_KEYS}
    meta["schemes"] = [s.value for s in config.schemes]
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       newline="\n")

    jobs = min(config.jobs, config.trials)
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            summaries = pool.starmap(_run_trial, [(config, i) for i in range(config.trials)])
    else:
        summaries = [_run_trial(config, i) for i in range(config.trials)]

    _write_csv(out / "trials.csv",
               "trial,scheme,iterations,prox_calls,final_g_dual_norm,f_final,status",
               (f"{s['trial']},{name},{row['iterations']},{row['prox_calls']},"
                f"{fmt(row['final_g_dual_norm'])},{fmt(row['f_final'])},"
                f"{'exhausted' if row['exhausted'] else 'ok'}"
                for s in summaries for name, row in s["schemes"].items()))
    _write_csv(out / "oracles.csv", "trial,f_star,kkt_residual,f_r0,f_x0,x0_dist_r,mu",
               (f"{s['trial']},{fmt(o['f_star'])},{fmt(o['kkt_residual'])},"
                f"{fmt(o['f_r0'])},{fmt(o['f_x0'])},{fmt(o['x0_dist_r'])},{fmt(o['mu'])}"
                for s in summaries if (o := s["oracle"]) is not None))

    invalid = [s for s in summaries if not s["valid"]]
    if invalid:
        _write_csv(out / "invalid.csv", "trial,reason",
                   (f"{s['trial']},{' '.join(s['reason'].replace(',', ';').split())}"
                    for s in invalid))
    else:  # a clean rerun into the same directory leaves no stale list
        (out / "invalid.csv").unlink(missing_ok=True)

    stats = _aggregate(config, summaries)
    _write_csv(out / "stats.csv",
               "scheme,avg_iterations,median_iterations,max_iterations,"
               "min_iterations,avg_prox_calls,valid_trials",
               (f"{st.scheme.value},{fmt(st.average)},{fmt(st.median)},"
                f"{st.maximum},{st.minimum},{fmt(st.average_prox_calls)},{st.trials}"
                for st in stats))
    text = _stats_text(stats)
    (out / "stats.txt").write_text(text, newline="\n")
    print(text, end="")
    for s in invalid:
        print(f"invalid trial {s['trial']}: {s['reason']}", file=sys.stderr)
    return stats, (1 if invalid else 0)


# ----------------------------------------------------------------------
# bound verification


def _read_csv(path) -> list[dict[str, str]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@dataclass(frozen=True)
class BoundCheck:
    trial: int
    name: str
    status: str  # PASS / FAIL / SKIP
    bound: float = math.nan
    observed: float = math.nan
    detail: str = ""

    def line(self) -> str:
        parts = [f"trial={self.trial:04d}", f"check={self.name}", f"status={self.status}"]
        if not math.isnan(self.bound):
            parts.append(f"bound={self.bound:.6e}")
        if not math.isnan(self.observed):
            parts.append(f"observed={self.observed:.6e}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


# Allowance for the evaluation error of objective differences read back
# from file: this many ulps (64 eps) of the largest magnitude involved.
FLOAT_NOISE = 64.0 * np.finfo(float).eps

# One ``none`` row of a trace CSV: k, f(x_k) and ||g(y_{k-1})||_*.
_NONE_ROW = np.dtype([("k", np.int64), ("f", np.float64), ("g_dual_norm", np.float64)])


def _float_noise(a, b):
    """``FLOAT_NOISE * max(1, |a|, |b|)``, elementwise; a NaN is passed over."""
    return FLOAT_NOISE * np.fmax(np.fmax(1.0, np.abs(a)), np.abs(b))


def _none_rows(path) -> np.ndarray:
    """The rows of scheme ``none`` of a trace CSV, in file order, as ``_NONE_ROW`` records.

    Rows of other schemes are not parsed.  A ``none`` row with a field
    missing, a non-numeric ``f`` or ``g_dual_norm`` or a non-integer ``k``
    raises ``ValueError``.
    """
    lines = Path(path).read_text().splitlines()
    if lines and lines[0] != _TRACE_HEADER:
        raise ValueError(f"{path}: header is not {_TRACE_HEADER!r}")
    rows = [line for line in lines[1:] if line.startswith("none,") or line == "none"]
    if not rows:
        return np.empty(0, _NONE_ROW)
    return np.loadtxt(rows, dtype=_NONE_ROW, delimiter=",", usecols=(1, 2, 3),
                      comments=None, ndmin=1)


def _rate_check(trial: int, name: str, k, observed, bound) -> BoundCheck:
    """Check ``observed <= bound``, within its allowance, on every row.

    Reports the first row of largest margin.  A NaN margin in any row
    fails, and the first such row is reported.
    """
    margin = observed - (bound * (1.0 + BOUND_REL) + BOUND_ABS)
    i = int(np.argmax(margin))  # argmax takes the first NaN as the largest
    return BoundCheck(trial, name, "PASS" if margin[i] <= 0 else "FAIL",
                      bound=float(bound[i]), observed=float(observed[i]),
                      detail=f"worst_k={k[i]}")


def _claim_check(trial: int, name: str, violations: list[float], **extra) -> BoundCheck:
    """FAIL when a claim has violations, observing the largest one."""
    return BoundCheck(trial, name, "FAIL" if violations else "PASS",
                      observed=max(violations, default=math.nan), **extra)


def _none_checks(trial: int, nr: np.ndarray, f_star: float, dist: float, f_x0: float,
                 mu: float) -> list[BoundCheck]:
    """The ``nr-*`` checks of one trial from its ``none`` rows (see :func:`_none_rows`).

    An empty trace has none.
    """
    if not nr.size:
        return []
    k, f, g = nr["k"], nr["f"], nr["g_dual_norm"]
    # inf and NaN pass through silently, as in Python float arithmetic.
    with np.errstate(all="ignore"):
        checks = [
            _rate_check(trial, "nr-objective-rate", k, f - f_star,
                        2.0 * dist * dist / (k + 1) ** 2),
            # g at y_{k-1}: (k-1) + 2
            _rate_check(trial, "nr-gradient-rate", k, g, 4.0 * dist / (k + 1)),
        ]
        if not math.isfinite(mu):
            checks.append(BoundCheck(trial, "nr-growth-checks", "SKIP",
                                     detail="no growth parameter"))
            return checks
        k_mono = math.floor(2.0 / math.sqrt(mu))
        k_contr = math.floor(2.0 * math.sqrt(math.e + 1.0) / math.sqrt(mu))
        noise = _float_noise(f_x0, f)
        monotone = f[(k >= k_mono) & (f > f_x0 + noise)]
        gap, drop = f - f_star, (f_x0 - f) / math.e
        excess = (gap - drop)[(k >= k_contr) & (gap > drop + noise)]
    checks.append(_claim_check(trial, "nr-monotone-after", monotone.tolist(),
                               bound=f_x0, detail=f"k_min={k_mono}"))
    checks.append(_claim_check(trial, "nr-contraction-after", excess.tolist(),
                               detail=f"k_min={k_contr}"))
    return checks


def verify_bounds(out_dir) -> tuple[list[BoundCheck], int]:
    """Re-check every applicable convergence guarantee from emitted files.

    Produces one record per (trial, inequality): the binding bound value,
    the worst observed value, and PASS/FAIL (SKIP when an oracle quantity
    is unavailable).  Returns the records and the number of failures.
    A growth parameter ``mu <= 0`` in ``oracles.csv`` raises ``ValueError``.
    """
    out = Path(out_dir)
    meta = json.loads((out / "run_meta.json").read_text())
    eps = float(meta["eps"])
    oracle_rows = {int(r["trial"]): r for r in _read_csv(out / "oracles.csv")}
    prox_totals: dict[tuple[int, str], int] = {
        (int(r["trial"]), r["scheme"]): int(r["prox_calls"])
        for r in _read_csv(out / "trials.csv")
    }
    checks: list[BoundCheck] = []

    for trial in range(int(meta["trials"])):
        if trial not in oracle_rows:
            checks.append(BoundCheck(trial, "all", "SKIP", detail="no oracle row"))
            continue
        o = oracle_rows[trial]
        f_star = float(o["f_star"])
        dist = float(o["x0_dist_r"])
        f_x0 = float(o["f_x0"])
        f_r0 = float(o["f_r0"])
        mu = float(o["mu"])
        if mu <= 0.0:
            raise ValueError(f"trial {trial}: growth parameter mu must be > 0, got {o['mu']}")
        nr = _none_rows(out / "traces" / f"trial_{trial:04d}.csv")
        lcr = sorted(  # by j
            (int(r["j"]), int(r["n_obs"]), float(r["f_r"]), float(r["g_dual_norm"]))
            for r in _read_csv(out / "traces" / f"trial_{trial:04d}_restarts.csv")
            if r["scheme"] == "lcr"
        )

        checks += _none_checks(trial, nr, f_star, dist, f_x0, mu)

        if lcr:
            checks.append(_claim_check(
                trial, "lcr-restart-decrease",
                [0.5 * g * g - (f_prev - f_curr)
                 for (_, _, f_prev, g), (_, _, f_curr, _) in zip(lcr, lcr[1:])
                 if not math.isnan(g)
                 and 0.5 * g * g > (f_prev - f_curr) + _float_noise(f_prev, f_curr)],
                detail=f"pairs={len(lcr) - 1}",
            ))
            if not math.isfinite(mu):
                checks.append(BoundCheck(trial, "lcr-growth-checks", "SKIP",
                                         detail="no growth parameter"))
            else:
                nj_bound = math.ceil(4.0 * math.sqrt(math.e + 1.0) / math.sqrt(mu))
                worst_n = max(n_obs for _, n_obs, _, _ in lcr)
                checks.append(BoundCheck(
                    trial, "lcr-iteration-bound",
                    "PASS" if worst_n <= nj_bound else "FAIL",
                    bound=float(nj_bound), observed=float(worst_n),
                ))
                total_bound = (16.0 / math.sqrt(mu)) * math.ceil(
                    math.log1p(2.0 * (f_r0 - f_star) / (eps * eps))
                )
                total = prox_totals.get((trial, "lcr"))
                if total is not None:
                    checks.append(BoundCheck(
                        trial, "lcr-total-bound",
                        "PASS" if total <= total_bound else "FAIL",
                        bound=total_bound, observed=float(total),
                    ))

    return checks, sum(c.status == "FAIL" for c in checks)


# ----------------------------------------------------------------------
# argparse front end


def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    # Values stay text here and are parsed with the config file's, so that
    # bad input is a config error rather than an argparse one.
    for key, _, parse in _CONFIG_KEYS:
        if key not in keys:
            continue
        flag, help_text = "--" + key.replace("_", "-"), _FLAG_HELP.get(key)
        if parse is _parse_bool:
            p.add_argument(flag, dest=key, action="store_const", const="true", help=help_text)
        else:
            p.add_argument(flag, dest=key, help=help_text)


def _flag_settings(args, keys) -> dict[str, str]:
    """Config key -> text of each of the ``keys`` flags given on the command line."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _check_out_dir(path: Path, *files: str) -> None:
    """Raise ``ValueError`` unless ``path`` can be a directory and each of its ``files`` a file."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"output directory {path}: {existing} is not a directory")
    for taken in (path / name for name in files):
        if taken.exists() and not taken.is_file():
            raise ValueError(f"output file {taken} exists and is not a file")


def _cmd_run(args) -> int:
    try:
        settings = parse_config_file(args.config) if args.config else {}
        config = build_config(settings | _flag_settings(args, _RUN_KEYS))
        traces = config.out / "traces"  # the run unlinks every trial_*.csv entry there
        _check_out_dir(traces, *(stale.name for stale in traces.glob("trial_*.csv")))
        _check_out_dir(config.out, "run_meta.json", "trials.csv", "oracles.csv", "invalid.csv",
                       "stats.csv", "stats.txt")
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _, code = run_experiment(config)
    return code


def _cmd_gen(args) -> int:
    try:
        config = build_config(_flag_settings(args, _GEN_KEYS))
        lp = config.instance(0)
        save_problem(lp, args.out)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out} (N={lp.N}, n={lp.n}, nnz={lp.A.nnz})")
    return 0


def _cmd_solve(args) -> int:
    try:
        # Not an ExperimentConfig: solve lets eps be as tight as oracle_eps.
        settings = SimpleNamespace(**_parse_settings(_flag_settings(args, _SOLVE_KEYS)))
        lp = load_problem(args.problem)
        scheme = Scheme.from_name(args.scheme)
        needs_oracle = scheme is Scheme.OPTIMAL_VALUE
        if needs_oracle and not 0 < settings.oracle_epsilon < math.inf:
            raise ValueError("oracle_epsilon must be finite and > 0")
        # Zero stands in for x*, so that bad settings stop solve before the oracle runs.
        run = _restart_run(settings, scheme, np.zeros(lp.n))
        if args.out is not None:
            _check_out_dir(args.out, "trace.csv", "restarts.csv")
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if needs_oracle:
        try:
            _, x_star = oracle_fstar(lp, tight_eps=settings.oracle_epsilon, budget=run.budget)
        except OracleError as exc:
            print(f"oracle failure: {exc}", file=sys.stderr)
            return 1
        run = replace(run, x_star=x_star)
    outcome = run_scheme(lp.problem, run)
    trace = outcome.trace
    print(f"scheme={scheme.value} iterations={trace.total_iterations} "
          f"prox_calls={trace.total_prox_calls} restarts={len(trace.records) - 1}")
    print(f"f_final={fmt(trace.records[-1].f_r)} "
          f"final_g_dual_norm={fmt(trace.final_g_norm)} exhausted={trace.exhausted}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        export_trace(trace, args.out / "trace.csv", scheme.value)
        _write_csv(args.out / "restarts.csv", _RESTART_HEADER, map(_restart_line, trace.records))
    return 1 if trace.exhausted else 0


def _cmd_verify(args) -> int:
    try:
        _check_out_dir(args.out, "bound_report.txt")
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        checks, failures = verify_bounds(args.out)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read run output: {exc}", file=sys.stderr)
        return 2
    report = "\n".join(c.line() for c in checks) + "\n"
    (args.out / "bound_report.txt").write_text(report, newline="\n")
    print(report, end="")
    counts = Counter(c.status for c in checks)
    print(f"{counts['PASS']} passed, {counts['FAIL']} failed, {counts['SKIP']} skipped")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fistakit",
        description="Restart-scheme experiments for composite first-order solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config")
    p_run.add_argument("--config", type=Path, help="flat key = value config file")
    _add_config_flags(p_run, _RUN_KEYS)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate one problem file")
    _add_config_flags(p_gen, _GEN_KEYS)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run one scheme on one problem file")
    p_solve.add_argument("problem", type=Path)
    p_solve.add_argument("--scheme", required=True,
                         choices=[s.value for s in Scheme])
    _add_config_flags(p_solve, _SOLVE_KEYS)
    p_solve.add_argument("--out", type=Path, default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check bounds against emitted traces")
    p_verify.add_argument("--out", type=Path, required=True,
                          help="output directory of a previous run")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
