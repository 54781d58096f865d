"""Accelerated proximal gradient loop (FISTA) with pluggable exit conditions.

One solver call runs the classic momentum recursion from a start point
``z``::

    y_0 = x_0 = z_plus                      (one prox at z)
    repeat  k = 1, 2, ...
        x_k = prox step at y_{k-1}          (one prox per iteration)
        t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2
        y_k = x_k + ((t_{k-1} - 1) / t_k) (x_k - x_{k-1})
        evaluate the exit condition
    until exit is true and k >= k_min

Each step takes the gradient of ``h`` at ``y_{k-1}`` (inside the prox)
and the objective at ``x_k``.  The smooth part has the least-squares
form ``h(x) = ||A x - b||^2 / (2N)``, so the loop carries the residual
``r_x = A x_k - b``::

    f(x_k)        = ||r_x||^2 / (2N) + psi(x_k)
    r_y           = r_x + beta_k (r_x - r_{x,k-1})     (no matvec)
    grad h(y_k)   = A^T r_y / N

so a step costs two matvecs (``A x_k`` and ``A^T r_y``) instead of three.
The call returns ``r_x`` of its final iterate, and the restart driver hands
it to the next call, whose initialization prox then needs only ``A^T``.

Each step is fused: ``A^T r_y`` and ``A x_k`` straight on the compiled
kernels that the form holds (see :class:`~fistakit.model.LeastSquares`),
the prox of :func:`~fistakit.model.composite_gradient_map` without its
checks (``checked=False``), then ``f`` from the residual and ``psi``
without a call to :func:`~fistakit.model.objective`.  Every prox goes
through this module's name ``composite_gradient_map``, and each call's
``f(x_0)`` through its name ``objective``; the benchmark wraps these
names to read the host's speed inside long solves and to time the step.
Each call's start stays checked: ``z``, the caller's ``residual`` and
its products, which go through the form's checked methods, the init
prox and ``f(x_0)``.  The kernels check no length, and inside the loop
``r_y`` and ``x_k`` have the right length and dtype by construction.
Inside the loop only ``f`` is checked.  A non-finite entry of ``y``,
of the gradient or of ``x_k`` reaches ``f`` through ``A x_k``, so the loop
raises ``non-finite objective at iteration k``; a column of ``A`` that
stores no entry has a zero gradient entry and never creates one.  A clip
to a box could turn such an entry into a finite ``x_k``, so on a problem
with a box constraint the step keeps the prox's checks.

Exit conditions are pure predicates called with the step's values, as
``condition(k, f_history, prox, x_prev, x_k)`` (see :data:`ExitCondition`);
the concrete restart conditions live in :mod:`fistakit.restart`.  The loop
is guarded by a hard iteration budget, and can optionally abort the moment
``||g(y_{k-1})||_*`` drops below a tolerance, reusing the prox already
computed in the x-update (the usual cheap stopping rule, and the one the
restart driver uses in early-exit mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import (
    CompositeProblem,
    ProxCounter,
    ProxStep,
    _validate_point,
    composite_gradient_map,
    objective,
)

__all__ = [
    "DEFAULT_ITERATION_BUDGET",
    "TSequence",
    "SolveTrace",
    "FistaResult",
    "ExitCondition",
    "gradient_norm_below",
    "fista",
]

DEFAULT_ITERATION_BUDGET = 10_000_000


class TSequence:
    """Momentum coefficient sequence t_0 = 1, t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2.

    Satisfies ``t_{k-1}^2 = t_k^2 - t_k`` and ``t_k >= (k + 2) / 2``.
    """

    __slots__ = ("t_prev", "t_curr")

    def __init__(self):
        self.t_prev = 1.0
        self.t_curr = 1.0

    def step(self) -> None:
        t = self.t_curr
        self.t_prev = t
        self.t_curr = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))

    @property
    def momentum(self) -> float:
        """Extrapolation weight ``(t_{k-1} - 1) / t_k`` after ``k`` steps."""
        return (self.t_prev - 1.0) / self.t_curr

    @staticmethod
    def generate(k_max: int) -> np.ndarray:
        """Array ``[t_0, ..., t_{k_max}]``; loop kept tight for large k."""
        out = np.empty(k_max + 1)
        t = 1.0
        out[0] = t
        sqrt = math.sqrt
        for k in range(1, k_max + 1):
            t = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            out[k] = t
        return out


ExitCondition = Callable[[int, list[float], ProxStep, np.ndarray, np.ndarray], bool]
"""Exit test called as ``condition(k, f_history, prox, x_prev, x_k)`` after step ``k``.

``f_history[i]`` is ``f(x_i)`` for ``i = 0..k`` (``x_0 = z_plus``), and
``prox`` is the prox step computed at ``y_{k-1}`` this iteration, so
``g(y_{k-1})`` is available without recomputation.  A test must not mutate
its arguments.
"""


def gradient_norm_below(eps: float) -> ExitCondition:
    """Exit condition ``||g(y_{k-1})||_* <= eps``."""
    if eps <= 0:
        raise ValueError("eps must be > 0")

    def condition(k, f_history, prox, x_prev, x_k) -> bool:
        return prox.g_dual_norm <= eps

    return condition


@dataclass
class SolveTrace:
    """Per-iteration record of one solver call.

    ``f_history[k]`` is the objective at ``x_k`` for ``k = 0..n``, where
    ``x_0 = z_plus`` is the post-prox start point.  ``g_norms[i]`` belongs
    to iteration ``k = i + 1``: ``||g(y_{k-1})||_*``.
    """

    f_history: list[float]
    g_norms: list[float] = field(default_factory=list)

    @property
    def f_vals(self) -> list[float]:
        """``[f(x_1), ..., f(x_n)]``, one per iteration."""
        return self.f_history[1:]


@dataclass
class FistaResult:
    """Outcome of one solver call: ``x`` is the final iterate, ``n`` its index.

    The call took ``n + 1`` prox evaluations (the iterations plus the
    initialization prox at z).  ``aborted`` marks an early exit on the
    gradient tolerance; ``exhausted`` marks a budget stop.  ``residual``
    is ``A x - b`` of the smooth part's least-squares form, ready to be
    passed to the next call started from ``x``.
    """

    x: np.ndarray
    n: int
    trace: SolveTrace
    aborted: bool
    exhausted: bool
    init_g_dual_norm: float
    residual: np.ndarray

    @property
    def f_final(self) -> float:
        return self.trace.f_history[-1]

    @property
    def last_g_dual_norm(self) -> float:
        """Most recent ``||g||_*`` seen (the qualifying value on abort)."""
        return self.trace.g_norms[-1] if self.trace.g_norms else self.init_g_dual_norm


def fista(
    problem: CompositeProblem,
    z,
    k_min: int = 0,
    exit_condition: ExitCondition | None = None,
    budget: int = DEFAULT_ITERATION_BUDGET,
    abort_tol: float | None = None,
    counter: ProxCounter | None = None,
    residual: np.ndarray | None = None,
) -> FistaResult:
    """Run the accelerated proximal gradient loop from ``z``.

    The loop exits at the first ``k >= k_min`` with ``exit_condition``
    true, or when the iteration ``budget`` runs out (flagged, not an
    error).  With ``abort_tol`` set, the call additionally returns the
    moment any computed prox satisfies ``||g||_* <= abort_tol``, including
    the initialization prox; this abort bypasses both ``k_min`` and the
    exit condition.

    Parameters
    ----------
    problem : CompositeProblem
    z : array_like
        Start point; the loop actually starts at ``x_0 = z_plus``.
    k_min : int
        Minimum iteration count before the exit condition may fire.
    exit_condition : callable, optional
        Pure predicate ``condition(k, f_history, prox, x_prev, x_k)`` (see
        :data:`ExitCondition`); ``None`` never exits.
    budget : int
        Hard cap on iterations for this call.
    abort_tol : float, optional
        Gradient dual-norm tolerance for the early abort.
    counter : ProxCounter, optional
        Shared prox-call counter (one init prox plus one per iteration).
    residual : ndarray, optional
        ``A z - b`` of the smooth part's least-squares form, as returned on
        :attr:`FistaResult.residual`; saves the matvec ``A z``.
    """
    if k_min < 0:
        raise ValueError("k_min must be >= 0")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    z = _validate_point(problem, z, "z")
    form = problem.smooth.least_squares
    if residual is None:
        residual = form.residual(z)
    init = composite_gradient_map(problem, z, counter, grad=form.grad_at_residual(residual))
    x = init.y_plus
    r_x = form.residual(x)
    f0 = objective(problem, x, r_x)
    if not math.isfinite(f0):
        raise ValueError("non-finite objective at the start point")
    trace = SolveTrace(f_history=[f0])

    if abort_tol is not None and init.g_dual_norm <= abort_tol:
        return FistaResult(
            x=x, n=0, trace=trace, aborted=True, exhausted=False,
            init_g_dual_norm=init.g_dual_norm, residual=r_x,
        )

    ts = TSequence()
    y = x
    r_y = r_x
    k = 0
    aborted = False
    exhausted = False

    f_history = trace.f_history
    f_append, g_append = f_history.append, trace.g_norms.append
    isfinite = math.isfinite
    zeros = np.zeros
    h_of, psi_of = form.value_at_residual, problem.nonsmooth.value
    # The form's two products straight on its kernels (see LeastSquares):
    # r_y and x are float64 vectors of the right length by construction.
    csr_matvec, n, N, indptr, indices, data = form._ATr
    csc_matvec = form._Ax[0]
    support, b, N_float = form._support, form.b, form._N
    # A clip to a box can turn a non-finite entry of y or of the gradient
    # into a finite x that f never sees, so a boxed problem keeps the checks.
    checked = problem.constraint is not None
    while True:
        if k >= budget:
            exhausted = True
            break
        k += 1
        grad = zeros(n)
        csr_matvec(n, N, indptr, indices, data, r_y, grad)
        grad /= N_float
        prox = composite_gradient_map(problem, y, counter, grad, checked=checked)
        x_prev, x = x, prox.y_plus
        if support is None:
            Ax = zeros(N)
            csc_matvec(N, n, indptr, indices, data, x, Ax)
        else:
            Ax = support(x)
        Ax -= b
        r_prev, r_x = r_x, Ax
        # f is the objective without its checks; the prox clips x into the
        # constraint box, so no constraint test.
        fk = h_of(r_x) + psi_of(x)
        if not isfinite(fk):
            raise ValueError(f"non-finite objective at iteration {k}")
        f_append(fk)
        g_norm = prox.g_dual_norm
        g_append(g_norm)
        if abort_tol is not None and g_norm <= abort_tol:
            aborted = True
            break
        ts.step()
        beta = ts.momentum
        # x + beta * (x - x_prev) with one temporary; the same bits.
        y = x - x_prev
        y *= beta
        y += x
        r_y = r_x - r_prev
        r_y *= beta
        r_y += r_x
        if (exit_condition is not None and k >= k_min
                and exit_condition(k, f_history, prox, x_prev, x)):
            break

    return FistaResult(
        x=x, n=k, trace=trace, aborted=aborted, exhausted=exhausted,
        init_g_dual_norm=init.g_dual_norm, residual=r_x,
    )
