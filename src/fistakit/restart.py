"""The restart driver and its exit conditions.

Restarting re-invokes the accelerated loop from its latest iterate, which
resets the momentum sequence to ``t_0 = 1`` and suppresses the oscillation
the momentum causes on ill-conditioned problems.  Four exit conditions are
shipped:

* function scheme: restart when the objective stops decreasing,
* gradient scheme: restart when the prox step opposes recent movement,
* optimal-value scheme: restart once the gap to a known minimizer ``x*``,
  taken from ``x*`` and the loop's residual, has contracted by e^2,
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
    fista,
    gradient_norm_below,
)
from .model import (CompositeProblem, ProxCounter, WeightedL1, _as_locked_vector,
                    composite_gradient_map, objective)

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


def exit_function_scheme(k, f_history, prox, x_prev, x_k, r_x) -> bool:
    """True iff the objective failed to decrease: ``f(x_k) >= f(x_{k-1})``."""
    return f_history[k] >= f_history[k - 1]


def exit_gradient_scheme(k, f_history, prox, x_prev, x_k, r_x) -> bool:
    """True iff ``<g(y_{k-1}), x_{k-1} - x_k> <= 0``.

    The prox step has stopped being aligned with the recent movement, the
    telltale of momentum overshoot.
    """
    return float(np.dot(prox.g, x_prev - x_k)) <= 0.0


class _OptimalGap:
    """``f(x) - f(x*)`` from ``x`` and its residual ``r = A x - b``, with no matvec::

        gap(x, r) = ||r - r*||^2 / (2N) + w . (|x| - sigma x) + c . x - c . x*

    Here ``r* = A x* - b``, ``g* = A^T r* / N``, ``w`` the l1 weights (0
    without an l1 term), ``sigma = sign(x*)``, or ``clip(-g*/w, -1, 1)``
    where ``x* = 0`` (0 where ``w = 0``), and ``c = g* + w sigma``, a KKT
    defect or a box multiplier, so no term cancels at the size of ``f``.
    ``target`` is ``gap(x_0) / e^2`` of the call the test last started.
    ``slack = m u / (1 - m u)``, ``m = n + N + 8``, ``u = 2^-53``, bounds
    the rounding of ``f(x_k) - f*`` relative to ``f(x_k) + f*``.
    """

    def __init__(self, problem: CompositeProblem, x_star: np.ndarray):
        form = self.form = problem.smooth
        r_star = self.r_star = form.residual(x_star)
        g_star = form.grad_at_residual(r_star)
        psi = problem.nonsmooth
        w = psi.weights if isinstance(psi, WeightedL1) else np.zeros_like(g_star)
        ratio = np.divide(-g_star, w, out=np.zeros_like(g_star), where=w > 0)
        self.sigma = np.where(x_star != 0, np.sign(x_star), np.clip(ratio, -1.0, 1.0))
        self.w = w if w.any() else None  # no weight: that term of the gap is +0
        self.c = g_star + w * self.sigma
        self.c_x_star = float(self.c.dot(x_star))
        self.f_star = form.value_at_residual(r_star) + psi.value(x_star)
        m_u = (form.dim + form.b.size + 8) * 2.0 ** -53
        self.slack = m_u / (1.0 - m_u)

    def __call__(self, x, r) -> float:
        d = r - self.r_star
        gap = 0.5 * float(d.dot(d)) / self.form._N
        if self.w is not None:
            gap += float(self.w.dot(abs(x) - self.sigma * x))
        return gap + float(self.c.dot(x)) - self.c_x_star


def exit_optimal_value_scheme(k, f_history, prox, x_prev, x_k, r_x, gap: _OptimalGap) -> bool:
    """True iff ``gap(x_k, r_x) <= gap(x_0, r_0) / e^2`` (see :class:`_OptimalGap`).

    The gap stays exact where ``f(x_k) - f*`` is below the rounding of
    ``f``.  At ``k = 1`` the test fixes the call's start gap from ``x_prev
    = x_0``, one matvec per call.  It returns False early, at no vector
    cost, when ``f(x_k) - f* > target + slack (f(x_k) + f*)``, which only
    steps the gap rejects meet.  Like :func:`exit_lcr`, it holds at ``g = 0``.
    """
    if prox.g_dual_norm == 0.0:
        return True
    if k == 1:
        gap.target = gap(x_prev, gap.form.residual(x_prev)) / math.e ** 2
    f_k, f_star = f_history[k], gap.f_star
    if f_k - f_star > gap.target + gap.slack * (f_k + f_star):
        return False
    return gap(x_k, r_x) <= gap.target


def exit_lcr(k, f_history, prox, x_prev, x_k, r_x) -> bool:
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
    prox at each restart point.  The optimal-value scheme measures its
    gap from ``x_star``, a minimizer, held as a locked finite 1-D copy.
    """

    scheme: Scheme
    epsilon: float
    r0: np.ndarray
    early_exit: bool = True
    x_star: np.ndarray | None = None
    budget: int = DEFAULT_ITERATION_BUDGET

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise TypeError(f"scheme must be a Scheme, got {self.scheme!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        object.__setattr__(self, "r0", _as_locked_vector(self.r0, "r0"))
        if self.x_star is not None:
            x_star = _as_locked_vector(self.x_star, "x_star")
            if not np.all(np.isfinite(x_star)):
                raise ValueError("x_star must be finite")
            object.__setattr__(self, "x_star", x_star)
        elif self.scheme is Scheme.OPTIMAL_VALUE:
            raise ValueError("the optimal-value scheme requires a minimizer x_star")


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
    """Aggregate trace of one run: restart records plus its per-iteration history.

    ``f_vals[i]`` and ``g_norms[i]`` are ``f(x_k)`` and ``||g(y_{k-1})||_*``
    of the run's ``k = i + 1``, counted across inner calls; the records'
    ``n_obs`` place the restarts.
    """

    records: list[RestartRecord] = field(default_factory=list)
    f_vals: list[float] = field(default_factory=list)
    g_norms: list[float] = field(default_factory=list)
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
        return max(len(self.records) - 1, 0)


@dataclass
class RestartResult:
    """Final iterate and trace of a restart run."""

    r_star: np.ndarray
    trace: RestartTrace


def _exit_test(problem: CompositeProblem, run: RestartRun) -> ExitCondition | None:
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
        return partial(exit_optimal_value_scheme, gap=_OptimalGap(problem, run.x_star))
    return exit_lcr


def run_scheme(problem: CompositeProblem, run: RestartRun) -> RestartResult:
    """Restarted FISTA: inner calls from the latest restart point until ``||g||_* <= epsilon``.

    The schemes differ only in the exit test of the inner calls (see
    :func:`_exit_test`) and in the ``k_min`` each call gets.  Every call
    but the lcr scheme's runs with ``k_min = 0``.  The lcr scheme reads
    its schedule from the records: call ``j`` runs with ``k_min`` equal to
    the previous record's effective count ``n_{j-1}`` (0 for the first
    call), and a completed call ``j >= 2`` whose decrease ``f(r_{j-1}) -
    f(r_j)`` exceeds 1/e of the previous call's decrease doubles it
    (``n_j = 2 n_{j-1}``), which is what steers the restart period toward
    the unknown optimal one.  A truncated final call (aborted or out of
    budget) takes no doubling decision.  Iteration counts actually
    observed are kept separately from the effective ones so traces stay
    truthful.

    In strict mode each completed call is followed by one counted prox at
    the new restart point, which ends the run when it meets the tolerance;
    the lcr scheme checks only from its second call onward, and "none"
    never, since its call ends the run.  One prox per call is reserved
    inside the budget for the call's initialization.  The budget ends a
    run in one place: calls go on while the prox count is below it, and a
    run that reaches it is flagged exhausted.
    """
    exit_test = _exit_test(problem, run)
    lcr = run.scheme is Scheme.LCR
    counter = ProxCounter()
    abort_tol = run.epsilon if run.early_exit else None
    r = run.r0
    r_res = None  # A r - b, carried from call to call
    records = [RestartRecord(j=0, n_obs=0, n_eff=0, f_r=objective(problem, r))]
    trace = RestartTrace(records=records)
    while counter.count < run.budget:
        j, prev = len(records), records[-1]
        res = fista(
            problem, r,
            k_min=prev.n_eff if lcr else 0,
            exit_condition=exit_test,
            budget=run.budget - counter.count - 1,
            abort_tol=abort_tol,
            counter=counter,
            residual=r_res,
        )
        r, r_res = res.x, res.residual
        rec = RestartRecord(j=j, n_obs=res.n, n_eff=res.n, f_r=res.f_history[-1])
        if (lcr and j >= 2 and not (res.aborted or res.exhausted)
                and prev.f_r - rec.f_r > (records[-2].f_r - prev.f_r) / math.e):
            rec.n_eff = 2 * prev.n_eff
        # The init prox of this call evaluates g at the previous restart point.
        prev.g_dual_norm = res.g_history[0]
        records.append(rec)
        trace.f_vals += res.f_history[1:]
        trace.g_norms += res.g_history[1:]
        if res.aborted or (run.scheme is Scheme.NO_RESTART and not res.exhausted):
            trace.final_g_norm = res.g_history[-1]
            break
        if run.early_exit or (lcr and j == 1) or counter.count >= run.budget:
            continue
        check = composite_gradient_map(problem, r, counter,
                                       grad=problem.smooth.grad_at_residual(r_res))
        trace.outer_checks += 1
        rec.g_dual_norm = check.g_dual_norm
        if check.g_dual_norm <= run.epsilon:
            trace.final_g_norm = check.g_dual_norm
            break
    else:
        trace.exhausted = True
    trace.total_prox_calls = counter.count
    return RestartResult(r_star=r, trace=trace)
