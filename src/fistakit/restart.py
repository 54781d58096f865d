"""The restart driver and its exit conditions.

Restarting re-invokes the accelerated loop from its latest iterate, which
resets the momentum sequence to ``t_0 = 1`` and suppresses the oscillation
the momentum causes on ill-conditioned problems.  Four exit conditions are
shipped:

* function scheme: restart when the objective stops decreasing,
* gradient scheme: restart when the prox step opposes recent movement,
* optimal-value scheme: restart once the gap to a known optimum has
  contracted by a factor e^2,
* lcr scheme: a history-based contraction test (no optimum needed) that,
  combined with a doubling rule on the minimum inner iteration count,
  yields a linearly convergent method on problems with quadratic
  functional growth.

One driver, :func:`run_scheme`, runs every scheme; it stops once the
composite gradient dual norm reaches the run's ``epsilon``.  In
early-exit mode (the default) every prox evaluation is checked and the
run returns immediately on success; in strict mode only the
between-restart check is performed, at the cost of one extra prox per
restart.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fista import (
    DEFAULT_ITERATION_BUDGET,
    ExitCondition,
    SolveTrace,
    fista,
    gradient_norm_below,
)
from .model import CompositeProblem, ProxCounter, composite_gradient_map, objective

__all__ = [
    "Scheme",
    "RestartRun",
    "RestartRecord",
    "RestartTrace",
    "RestartResult",
    "exit_function_scheme",
    "exit_gradient_scheme",
    "exit_optimal_value_scheme",
    "exit_lcr",
    "run_scheme",
]

class Scheme(enum.Enum):
    """The five solver configurations the experiment harness compares."""

    NO_RESTART = "none"
    FUNCTION = "func"
    GRADIENT = "grad"
    OPTIMAL_VALUE = "opt"
    LCR = "lcr"

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown scheme {name!r}; expected one of "
                         f"{[s.value for s in cls]}")


def exit_function_scheme(k, f_history, prox, x_prev, x_k) -> bool:
    """True iff the objective failed to decrease: ``f(x_k) >= f(x_{k-1})``."""
    return f_history[k] >= f_history[k - 1]


def exit_gradient_scheme(k, f_history, prox, x_prev, x_k) -> bool:
    """True iff ``<g(y_{k-1}), x_{k-1} - x_k> <= 0``.

    The prox step has stopped being aligned with the recent movement, the
    telltale of momentum overshoot.
    """
    return float(np.dot(prox.g, x_prev - x_k)) <= 0.0


def exit_optimal_value_scheme(k, f_history, prox, x_prev, x_k, f_star: float) -> bool:
    """True iff ``f(x_k) - f_star <= (f(x_0) - f_star) / e^2``.

    Requires the optimal value; the call contracts the optimality gap by
    at least e^2 before restarting.  Like :func:`exit_lcr`, it also holds
    when the last prox has ``||g||_* = 0``: ``x_k`` is then a fixed point,
    and with ``f(x_0)`` a rounding step below ``f_star`` the gap test
    could never hold.
    """
    if prox.g_dual_norm == 0.0:
        return True
    return f_history[k] - f_star <= (f_history[0] - f_star) / (math.e ** 2)


def exit_lcr(k, f_history, prox, x_prev, x_k) -> bool:
    """History-based contraction test with pivot ``m = floor(k/2) + 1``.

    True iff both ``f(x_m) - f(x_k) <= (f(x_0) - f(x_m)) / e`` and
    ``f(x_k) <= f(x_0)``.  At ``k = 1`` the pivot equals ``k`` and the
    first inequality degenerates to ``0 <= (f(x_0) - f(x_1)) / e``, so the
    condition can fire after a single decreasing iteration; the formula is
    applied literally.  It also holds when the last prox has ``||g||_* = 0``:
    ``x_k`` is then a fixed point, whose ``f`` may cycle at rounding level.
    """
    if prox.g_dual_norm == 0.0:
        return True
    fh = f_history
    m = k // 2 + 1
    return (fh[m] - fh[k] <= (fh[0] - fh[m]) / math.e) and (fh[k] <= fh[0])


@dataclass(frozen=True)
class RestartRun:
    """Configuration of one restart-scheme run.

    ``early_exit`` selects the stopping style: when True every computed
    prox is tested against ``epsilon`` and the run aborts on success; when
    False the test happens only between restarts, via one extra counted
    prox at each restart point.
    """

    scheme: Scheme
    epsilon: float
    r0: np.ndarray
    early_exit: bool = True
    f_star: float | None = None
    budget: int = DEFAULT_ITERATION_BUDGET

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.scheme is Scheme.OPTIMAL_VALUE:
            if self.f_star is None or not math.isfinite(self.f_star):
                raise ValueError("the optimal-value scheme requires a finite f_star")
        r0 = np.array(self.r0, dtype=np.float64, copy=True)
        if r0.ndim != 1:
            raise ValueError("r0 must be a 1-D vector")
        r0.setflags(write=False)
        object.__setattr__(self, "r0", r0)


@dataclass
class RestartRecord:
    """Per-restart summary row.

    ``j = 0`` describes the raw start point (zero iterations).  ``n_obs``
    is the iteration count the inner call actually ran; ``n_eff`` is the
    value carried to the next call's ``k_min`` (differs from ``n_obs``
    only for the lcr scheme after a doubling step).  ``g_dual_norm`` is
    ``||g(r_j)||_*`` and is NaN when the run ended before that prox was
    ever evaluated (the final record in early-exit mode).
    """

    j: int
    n_obs: int
    n_eff: int
    f_r: float
    g_dual_norm: float = math.nan


@dataclass
class RestartTrace:
    """Aggregate trace of one run: restart records plus inner traces."""

    records: list[RestartRecord] = field(default_factory=list)
    segments: list[SolveTrace] = field(default_factory=list)
    total_prox_calls: int = 0
    outer_checks: int = 0
    final_g_norm: float = math.nan
    exhausted: bool = False

    @property
    def total_iterations(self) -> int:
        """Sum of observed inner iteration counts (the benchmark quantity)."""
        return sum(rec.n_obs for rec in self.records)

    @property
    def calls(self) -> int:
        """Number of inner solver invocations (each costs one init prox)."""
        return len(self.segments)


@dataclass
class RestartResult:
    """Final iterate and trace of a restart run."""

    r_star: np.ndarray
    trace: RestartTrace


def _exit_test(run: RestartRun) -> ExitCondition | None:
    """Exit test of the inner calls of ``run.scheme``.

    "none" exits on the tolerance itself, so its single call ends the run.
    In early-exit mode it needs no test: the abort on ``abort_tol =
    epsilon`` checks the same ``||g||_*`` first and so always fires
    before it.  The names are looked up at call time, so a wrapper put in
    their place sees every test.
    """
    if run.scheme is Scheme.NO_RESTART:
        return None if run.early_exit else gradient_norm_below(run.epsilon)
    if run.scheme is Scheme.FUNCTION:
        return exit_function_scheme
    if run.scheme is Scheme.GRADIENT:
        return exit_gradient_scheme
    if run.scheme is Scheme.OPTIMAL_VALUE:
        return partial(exit_optimal_value_scheme, f_star=run.f_star)
    return exit_lcr


def run_scheme(problem: CompositeProblem, run: RestartRun) -> RestartResult:
    """Restarted FISTA: inner calls from the latest restart point until ``||g||_* <= epsilon``.

    The schemes differ only in the exit test of the inner calls (see
    :func:`_exit_test`) and in the ``k_min`` each call gets.  Every call
    but the lcr scheme's runs with ``k_min = 0``.  The lcr scheme's first
    call does too; each later call ``j`` runs with ``k_min`` equal to the
    previous effective count ``n_{j-1}``, and whenever the decrease
    achieved by call ``j`` exceeds 1/e of the previous call's decrease,
    the effective count doubles (``n_j = 2 n_{j-1}``), which is what
    steers the restart period toward the unknown optimal one.  A
    truncated final call (aborted or out of budget) takes no doubling
    decision.  Iteration counts actually observed are kept separately from
    the effective ones so traces stay truthful.

    In strict mode each completed call is followed by one counted prox at
    the new restart point, which ends the run when it meets the tolerance;
    the lcr scheme checks only from its second call onward, and "none"
    never, since its call ends the run.  One prox per call is reserved
    inside the budget for the call's initialization.
    """
    exit_test = _exit_test(run)
    lcr = run.scheme is Scheme.LCR
    counter = ProxCounter()
    abort_tol = run.epsilon if run.early_exit else None
    r = run.r0
    form = problem.smooth.least_squares
    r_res = None  # A r - b, carried from call to call
    trace = RestartTrace(records=[RestartRecord(j=0, n_obs=0, n_eff=0,
                                                f_r=objective(problem, r))])
    k_min = 0
    prev_decrease: float | None = None  # f(r_{j-2}) - f(r_{j-1}), lcr only
    while True:
        if counter.count >= run.budget:
            trace.exhausted = True
            break
        j = trace.calls + 1
        res = fista(
            problem, r,
            k_min=k_min,
            exit_condition=exit_test,
            budget=max(run.budget - counter.count - 1, 0),
            abort_tol=abort_tol,
            counter=counter,
            residual=r_res,
        )
        decrease = trace.records[-1].f_r - res.f_final
        r, r_res = res.x, res.residual
        n_eff = res.n
        if lcr and not (res.aborted or res.exhausted):
            if prev_decrease is not None and decrease > prev_decrease / math.e:
                n_eff = 2 * k_min
            prev_decrease = decrease
            k_min = n_eff
        # The init prox of this call evaluates g at the previous restart point.
        trace.records[-1].g_dual_norm = res.init_g_dual_norm
        rec = RestartRecord(j=j, n_obs=res.n, n_eff=n_eff, f_r=res.f_final)
        trace.records.append(rec)
        trace.segments.append(res.trace)
        if res.exhausted:
            trace.exhausted = True
            break
        if res.aborted or run.scheme is Scheme.NO_RESTART:
            # Both stopping styles fire on g(y_{k-1}), whose norm is the last
            # recorded one (or the init value when the start was already good).
            trace.final_g_norm = res.last_g_dual_norm
            break
        if run.early_exit or (lcr and j == 1):
            continue
        if counter.count >= run.budget:
            trace.exhausted = True
            break
        check = composite_gradient_map(problem, r, counter, grad=form.grad_at_residual(r_res))
        trace.outer_checks += 1
        rec.g_dual_norm = check.g_dual_norm
        if check.g_dual_norm <= run.epsilon:
            trace.final_g_norm = check.g_dual_norm
            break
    trace.total_prox_calls = counter.count
    return RestartResult(r_star=r, trace=trace)
