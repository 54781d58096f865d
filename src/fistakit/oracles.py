"""High-accuracy reference values for verifying convergence guarantees.

These oracles check the solver; only the opt scheme, which needs the
minimizer, runs on one.  The optimum of an instance with no box and no nonzero l1 weight (the
least-squares family) comes from one dense least-squares solve, so it
does not depend on any restart scheme; that of a lasso or boxed instance
comes from an extra-tight lcr solve.  Either is cross-checked against the
first-order optimality conditions.  The growth parameter of a strongly
convex least-squares instance comes from a dense eigendecomposition
(desk scale only).
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


def oracle_fstar(
    lp: LassoProblem,
    tight_eps: float = 1e-12,
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> tuple[float, np.ndarray]:
    """Reference optimal value and minimizer.

    Without a box or a nonzero l1 weight, the minimizer is one dense
    least-squares solve (LAPACK ``gelsy``, which takes rank-deficient
    designs and does not square the condition number), accepted only when
    its composite gradient has dual norm at most ``tight_eps``.  Otherwise
    the lcr scheme runs from zero down to ``tight_eps`` within ``budget``
    prox calls.  ``tight_eps`` must be tighter than any tolerance the
    oracle's consumers use and finite and > 0, and ``budget`` at least 1,
    on either path (``ValueError`` otherwise).  An unconstrained result
    must also pass the first-order conditions (:func:`kkt_residual` at
    most ``KKT_TOL``).  Raises :class:`OracleError` when the lcr budget
    runs out or a check fails, so callers can skip rather than trust a bad
    reference; neither path falls back on the other.
    """
    if not 0 < tight_eps < math.inf:
        raise ValueError(f"tight_eps must be finite and > 0, got {tight_eps!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    if _is_smooth(lp):
        x_star = linalg.lstsq(lp.A.toarray(), lp.b, lapack_driver="gelsy")[0]
        g_norm = composite_gradient_map(lp.problem, x_star).g_dual_norm
        if not g_norm <= tight_eps:
            raise OracleError(
                f"direct least-squares solution has ||g||_* = {g_norm:.3e} > {tight_eps:.1e}"
            )
    else:
        run = RestartRun(scheme=Scheme.LCR, epsilon=tight_eps, r0=np.zeros(lp.n),
                         budget=budget)
        result = run_scheme(lp.problem, run)
        if result.trace.exhausted:
            raise OracleError(
                f"optimal-value oracle exhausted its budget of {budget} prox calls"
            )
        x_star = result.r_star
    f_star = objective(lp.problem, x_star)
    if lp.problem.constraint is None:
        resid = kkt_residual(lp, x_star)
        if resid > KKT_TOL:
            raise OracleError(
                f"oracle solution fails the optimality check: residual {resid:.3e} "
                f"> {KKT_TOL:.1e}"
            )
    return float(f_star), x_star


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
