"""High-accuracy reference values for verifying convergence guarantees.

These oracles check the solver; only the opt scheme, which needs the
minimizer, runs on one.  The optimum of an instance with no box and no nonzero l1 weight (the
least-squares family) comes from one dense least-squares solve, so it
does not depend on any restart scheme.  That of a lasso instance comes
from an lcr proposal plus active-set solve: a loose lcr run gives the
support and signs, and conjugate gradients on the support solve the
first-order conditions to rounding level, so the digits of ``f*`` do not
come from the solver under test.  Both are cross-checked against the
first-order optimality conditions.  A boxed instance keeps an
extra-tight lcr solve.  The growth parameter of a strongly convex
least-squares instance comes from a dense eigendecomposition (desk
scale only).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .fista import DEFAULT_ITERATION_BUDGET
from .lasso import LassoProblem
from .model import composite_gradient_map, objective
from .restart import RestartRun, Scheme, run_scheme

__all__ = ["OracleError", "kkt_residual", "oracle_fstar", "oracle_mu"]


# Largest KKT residual an optimal-value reference may keep.
KKT_TOL = 1e-6
# Tolerance of the lcr run whose support and signs seed the active-set
# polish of a lasso reference (the oracle's own tolerance when looser).
PROPOSAL_EPS = 1e-6
# Most active-set rounds the polish may take before the oracle gives up.
POLISH_ROUNDS = 20
# Conjugate-gradient steps a support solve may take per support column.
CG_STEPS_PER_COLUMN = 4
# An instance counts as rank deficient when its smallest eigenvalue is at
# most this times the largest (or times 1, if that is larger).
RANK_TOL = 1e-10


class OracleError(RuntimeError):
    """An oracle could not produce a trustworthy value."""


def kkt_residual(lp: LassoProblem, x) -> float:
    """Worst first-order optimality violation at ``x``.

    Defined for the unconstrained (weighted) l1 families: at a minimizer,
    ``grad h(x)_i = -sign(x_i) w_i`` wherever ``x_i != 0`` and
    ``|grad h(x)_i| <= w_i`` elsewhere.  Returns the largest absolute
    violation across coordinates.
    """
    if lp.problem.constraint is not None:
        raise ValueError("KKT residual is only defined for unconstrained problems")
    w = np.zeros(lp.n) if lp.weights is None else lp.weights
    x = np.asarray(x, dtype=np.float64)
    grad = lp.problem.smooth.grad(x)
    on_support = x != 0.0
    resid = np.where(
        on_support,
        np.abs(grad + np.sign(x) * w),
        np.maximum(np.abs(grad) - w, 0.0),
    )
    return float(resid.max()) if resid.size else 0.0


def _is_smooth(lp: LassoProblem) -> bool:
    """No box and no nonzero l1 weight: the objective is ``h`` alone."""
    return lp.problem.constraint is None and (lp.weights is None or not np.any(lp.weights))


def _lcr(lp: LassoProblem, eps: float, budget: int) -> np.ndarray:
    """The point an lcr run from zero reaches at ``eps`` within ``budget`` prox calls."""
    run = RestartRun(scheme=Scheme.LCR, epsilon=eps, r0=np.zeros(lp.n), budget=budget)
    result = run_scheme(lp.problem, run)
    if result.trace.exhausted:
        raise OracleError(f"optimal-value oracle exhausted its budget of {budget} prox calls")
    return result.r_star


def _support_solve(A_S, rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``A_S^T A_S x = rhs`` by conjugate gradients from ``x0``, with sparse products only.

    Stops once the residual is at rounding level, ``eps * ||rhs||``, or
    after ``CG_STEPS_PER_COLUMN`` steps per column of ``A_S``, or where a
    search direction has no positive curvature left to use.
    """
    A_T = A_S.T  # the CSR transpose of the CSC slice, no copy
    x = x0.copy()
    r = rhs - A_T @ (A_S @ x)
    p = r.copy()
    rr = float(r @ r)
    tol = np.finfo(np.float64).eps * float(np.linalg.norm(rhs))
    for _ in range(CG_STEPS_PER_COLUMN * x.size):
        if math.sqrt(rr) <= tol:
            break
        q = A_T @ (A_S @ p)
        pq = float(p @ q)
        if not pq > 0.0:
            break
        alpha = rr / pq
        x += alpha * p
        r -= alpha * q
        rr, rr_prev = float(r @ r), rr
        p *= rr / rr_prev
        p += r
    return x


def _polish(lp: LassoProblem, x0: np.ndarray) -> np.ndarray:
    """The lasso minimizer, by active-set rounds from the support and signs of ``x0``.

    Each round solves the first-order conditions on the support ``S`` with
    signs ``s``, ``A_S^T A_S x_S = A_S^T b - N w_S s``, warm started from
    the current ``x_S``.  Coordinates whose sign flips leave ``S``; when
    none does, zero coordinates with ``|grad h_i| > w_i`` join it, starting
    at 0 with the sign that descends.  A round that changes nothing ends
    the polish: its point meets the first-order conditions, so it is the
    minimizer.  Raises :class:`OracleError` after ``POLISH_ROUNDS`` rounds
    or on a non-finite solve.
    """
    A, b, w = lp.A, lp.b, lp.weights
    x = np.asarray(x0, dtype=np.float64)
    S = np.flatnonzero(x)
    s = np.sign(x[S])
    for _ in range(POLISH_ROUNDS):
        A_S = A[:, S]
        x_S = _support_solve(A_S, A_S.T @ b - lp.N * w[S] * s, x[S])
        if not np.isfinite(x_S).all():
            raise OracleError("active-set solve produced a non-finite point")
        x = np.zeros(lp.n)
        x[S] = x_S
        kept = np.sign(x_S) == s
        if not kept.all():
            x[S[~kept]] = 0.0
            S, s = S[kept], s[kept]
            continue
        grad = lp.problem.smooth.grad(x)
        joining = np.flatnonzero((x == 0.0) & (np.abs(grad) > w))
        if joining.size == 0:
            return x
        S = np.concatenate([S, joining])
        s = np.concatenate([s, -np.sign(grad[joining])])
    raise OracleError(f"active-set polish did not settle in {POLISH_ROUNDS} rounds")


def oracle_fstar(
    lp: LassoProblem,
    tight_eps: float = 1e-12,
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> tuple[float, np.ndarray]:
    """Reference optimal value and minimizer.

    Without a box or a nonzero l1 weight, the minimizer is one dense
    least-squares solve (LAPACK ``gelsy``, which takes rank-deficient
    designs and does not square the condition number).  A lasso instance
    takes an lcr proposal plus active-set solve: the lcr scheme runs from
    zero to ``max(tight_eps, PROPOSAL_EPS)`` within ``budget`` prox calls,
    and :func:`_polish` solves the first-order conditions on the support
    and signs of its point.  Either result is accepted only when its
    composite gradient has dual norm at most ``tight_eps`` and it passes
    the first-order conditions (:func:`kkt_residual` at most ``KKT_TOL``).
    A boxed instance takes the lcr scheme down to ``tight_eps`` itself.
    ``tight_eps`` must be tighter than any tolerance the oracle's
    consumers use and finite and > 0, and ``budget`` at least 1, on every
    path (``ValueError`` otherwise).  Raises :class:`OracleError` when the
    lcr budget runs out, the polish does not settle or a check fails, so
    callers can skip rather than trust a bad reference; no path falls
    back on another.
    """
    if not 0 < tight_eps < math.inf:
        raise ValueError(f"tight_eps must be finite and > 0, got {tight_eps!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    if lp.problem.constraint is not None:
        x_star = _lcr(lp, tight_eps, budget)
        return float(objective(lp.problem, x_star)), x_star
    if _is_smooth(lp):
        x_star = linalg.lstsq(lp.A.toarray(), lp.b, lapack_driver="gelsy")[0]
        source = "direct least-squares solution"
    else:
        x_star = _polish(lp, _lcr(lp, max(tight_eps, PROPOSAL_EPS), budget))
        source = "active-set solution"
    g_norm = composite_gradient_map(lp.problem, x_star).g_dual_norm
    if not g_norm <= tight_eps:
        raise OracleError(f"{source} has ||g||_* = {g_norm:.3e} > {tight_eps:.1e}")
    resid = kkt_residual(lp, x_star)
    if resid > KKT_TOL:
        raise OracleError(
            f"oracle solution fails the optimality check: residual {resid:.3e} "
            f"> {KKT_TOL:.1e}"
        )
    return float(objective(lp.problem, x_star)), x_star


def oracle_mu(lp: LassoProblem) -> float:
    """Quadratic growth parameter of a strongly convex instance.

    For a plain least-squares instance (no l1 term, no constraint, full
    column rank) the objective grows quadratically in the metric norm with
    parameter equal to the smallest eigenvalue of the metric-whitened
    curvature ``R^{-1/2} H R^{-1/2}``, ``H = A^T A / N``.  Dense
    eigendecomposition; intended for desk-scale verification only.
    """
    if not _is_smooth(lp):
        raise OracleError("growth oracle requires an unconstrained, weight-free instance")
    if lp.N < lp.n:
        raise OracleError("growth oracle requires N >= n")
    H = (lp.A.T @ lp.A).toarray() / lp.N
    inv_sqrt = 1.0 / np.sqrt(lp.metric.diag)
    M = H * np.outer(inv_sqrt, inv_sqrt)
    evals = linalg.eigvalsh(M)
    mu = float(evals[0])
    if not math.isfinite(mu) or mu <= RANK_TOL * max(float(evals[-1]), 1.0):
        raise OracleError(f"instance is rank deficient (smallest eigenvalue {mu:.3e})")
    return mu
