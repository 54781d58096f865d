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
it to the next call, whose initialization prox then needs no ``A z``.

Each step, and the initialization prox as a step at ``y = z`` with the
caller's residual as ``r_y``, is fused and writes one new zeroed vector
``s`` of length ``N + n``, which holds ``r_x`` in its head and ``x_k`` in
its tail.
``A^T r_y`` goes into the tail from the problem's bound product ``_ATr``
(see :class:`~fistakit.model.CompositeProblem`), which reads ``r_y``
from the head of the extrapolated vector ``ys``; the prox of
:func:`~fistakit.model.composite_gradient_map` turns it into ``x_k`` in
place (``out=``) without its checks (``checked=False``); ``A x_k - b``
goes into the head from the form's ``_Ax``; and ``f`` follows from the
residual and ``psi`` without a call to :func:`~fistakit.model.objective`.
``x_k`` and ``r_x`` move together, so one extrapolation of ``s`` gives
``ys``, which holds ``r_y`` and ``y_k`` as its head and tail.  On a
large weighted-l1 problem without a box, ``_ATr`` also reads ``y_k``
and leaves at +0 the rows it certifies the prox maps to ``x_k = +0``
anyway, with the full product's bits (see
:class:`~fistakit.model._ScreenedProduct`); the problem chose it when
it was built, so the loop takes no per-step branch.  Every step's vectors
are new, so the iterates and residuals a call hands out, views of its
last ``s``, never change.  Every prox, the init prox included, goes
through this module's name ``composite_gradient_map`` with
``checked=False`` unless the problem has a box, and each call's
``f(x_0)`` through its name ``objective``; the benchmark wraps these
names to read the host's speed inside long solves and to time the step.
Each call's start checks ``z``, the shape of the caller's ``residual``
before any product runs, and ``f(x_0)`` through ``objective``, whose
check of ``x_0`` rejects a non-finite start gradient: without a box, a
non-finite gradient always gives a non-finite ``x_0``.  The bound
products check no length, and ``ys`` and ``x_k`` have the right length
and dtype by construction.
Inside the loop only ``f`` is checked.  A non-finite entry of ``y``,
of the gradient or of ``x_k`` reaches ``f`` through ``A x_k``, so the loop
raises ``non-finite objective at iteration k``; a column of ``A`` that
stores no entry has a zero gradient entry and never creates one, and a
screened step has a finite ``r_y`` and a zero ``y_k`` on the rows it
skips.  A clip
to a box could turn such an entry into a finite ``x_k``, so on a problem
with a box constraint the step keeps the prox's checks.

Exit conditions are predicates called with the step's values, as
``condition(k, f_history, prox, x_prev, x_k, r_x)`` (see :data:`ExitCondition`);
the concrete restart conditions live in :mod:`fistakit.restart`.  The loop
is guarded by a hard iteration budget, and can optionally abort the moment
``||g(y_{k-1})||_*`` drops below a tolerance, reusing the prox already
computed in the x-update (the usual cheap stopping rule, and the one the
restart driver uses in early-exit mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    CompositeProblem,
    ProxCounter,
    _validate_point,
    _vector,
    composite_gradient_map,
    objective,
)

__all__ = [
    "DEFAULT_ITERATION_BUDGET",
    "TSequence",
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


ExitCondition = Callable[..., bool]
"""Exit test called as ``condition(k, f_history, prox, x_prev, x_k, r_x)`` after step ``k``.

``f_history[i]`` is ``f(x_i)`` for ``i = 0..k`` (``x_0 = z_plus``),
``prox`` the prox step at ``y_{k-1}`` of this iteration (so ``g(y_{k-1})``
needs no recomputation) and ``r_x`` the residual ``A x_k - b`` the loop
carries (so a test needs no matvec).  A test must not mutate them.
"""


def gradient_norm_below(eps: float) -> ExitCondition:
    """Exit condition ``||g(y_{k-1})||_* <= eps``."""
    if not eps > 0:
        raise ValueError("eps must be > 0")

    def condition(k, f_history, prox, x_prev, x_k, r_x) -> bool:
        return prox.g_dual_norm <= eps

    return condition


@dataclass
class FistaResult:
    """Outcome of one solver call: ``x`` is the final iterate, ``n`` its index.

    ``f_history[k]`` is the objective at ``x_k`` and ``g_history[k]`` the
    ``||g||_*`` of the prox that produced ``x_k``, for ``k = 0..n``: the
    initialization prox at ``z`` for ``x_0 = z_plus``, the step at
    ``y_{k-1}`` after.  The call took ``n + 1`` prox evaluations.
    ``aborted`` marks an early exit on the gradient tolerance, whose
    qualifying value is ``g_history[-1]``; ``exhausted`` marks a budget
    stop.  ``residual`` is
    ``A x - b`` of the smooth part, ready to be
    passed to the next call started from ``x``.  After a step, ``x`` and
    ``residual`` are the head and tail of the step's one vector, which
    nothing writes once the step is done.
    """

    x: np.ndarray
    n: int
    f_history: list[float]
    g_history: list[float]
    aborted: bool
    exhausted: bool
    residual: np.ndarray


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
        Predicate ``condition(k, f_history, prox, x_prev, x_k, r_x)`` (see
        :data:`ExitCondition`); ``None`` never exits.
    budget : int
        Hard cap on iterations for this call.
    abort_tol : float, optional
        Gradient dual-norm tolerance for the early abort.
    counter : ProxCounter, optional
        Shared prox-call counter (one init prox plus one per iteration).
    residual : ndarray, optional
        ``A z - b`` of the smooth part, as returned on
        :attr:`FistaResult.residual`; saves the matvec ``A z``.
    """
    if k_min < 0:
        raise ValueError("k_min must be >= 0")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if abort_tol is not None and not abort_tol >= 0:
        raise ValueError("abort_tol must be >= 0")
    z = _validate_point(problem, z, "z")
    form = problem.smooth
    # The problem's A^T r_y and the form's A x (see CompositeProblem and
    # LeastSquares), which check no length: ys and x are float64 vectors of
    # the right length by construction.
    ATr, Ax, b, N_float = problem._ATr, form._Ax, form.b, form._N
    N = b.size
    size = N + form.dim
    # A clip to a box can turn a non-finite entry of y or of the gradient
    # into a finite x that f never sees, so a boxed problem keeps the checks.
    checked = problem.constraint is not None
    zeros = np.zeros
    if residual is None:
        residual = form.residual(z)
    # The init prox is a step at y = z with r_y the caller's residual, checked
    # for its shape before the kernel; its s holds r_x and x_0.
    s = zeros(size)
    r_x, grad = s[:N], s[N:]
    ATr(np.concatenate((_vector(residual, N), z)), grad)
    grad /= N_float
    init = composite_gradient_map(problem, z, counter, grad, checked=checked, out=grad)
    x = grad
    Ax(x, r_x)
    r_x -= b
    # Its check of x_0 rejects a non-finite gradient of an unboxed problem.
    f0 = objective(problem, x, r_x)
    if not math.isfinite(f0):
        raise ValueError("non-finite objective at the start point")
    f_history, g_history = [f0], [init.g_dual_norm]
    aborted = abort_tol is not None and g_history[0] <= abort_tol
    exhausted = False
    ts = TSequence()
    ys, y = s, x
    k = 0

    f_append, g_append = f_history.append, g_history.append
    isfinite = math.isfinite
    h_of, psi_of = form.value_at_residual, problem.nonsmooth.value
    while not aborted:
        if k >= budget:
            exhausted = True
            break
        k += 1
        # The products add into the zeroed s: A^T r_y, read from the head of
        # ys, into its tail, which the prox then turns into x_k in place, and
        # A x_k into its head.
        s_prev, s = s, zeros(size)
        r_x, grad = s[:N], s[N:]
        ATr(ys, grad)
        grad /= N_float
        prox = composite_gradient_map(problem, y, counter, grad, checked=checked, out=grad)
        x_prev, x = x, grad
        Ax(x, r_x)
        r_x -= b
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
        # s + beta * (s - s_prev) with one temporary, which gives r_y and
        # y_k with the bits of their own extrapolations.
        ys = s - s_prev
        ys *= beta
        ys += s
        y = ys[N:]
        if (exit_condition is not None and k >= k_min
                and exit_condition(k, f_history, prox, x_prev, x, r_x)):
            break

    return FistaResult(
        x=x, n=k, f_history=f_history, g_history=g_history, aborted=aborted,
        exhausted=exhausted, residual=r_x,
    )
