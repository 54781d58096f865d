"""High-accuracy reference values for verifying convergence guarantees.

These oracles exist to check the solver, never to drive it: the optimal
value comes from an extra-tight solve cross-checked against the first
order optimality conditions, and the growth parameter of a strongly
convex least-squares instance comes from a dense eigendecomposition
(desk scale only).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .fista import DEFAULT_ITERATION_BUDGET
from .lasso import LassoProblem
from .model import objective
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


def oracle_fstar(
    lp: LassoProblem,
    tight_eps: float = 1e-12,
    budget: int = DEFAULT_ITERATION_BUDGET,
) -> tuple[float, np.ndarray]:
    """Reference optimal value and minimizer via an extra-tight solve.

    Runs the lcr scheme from zero down to ``tight_eps`` (which must be
    tighter than any tolerance the oracle's consumers use) and validates
    the result against the first-order conditions when those apply.
    Raises :class:`OracleError` when the budget runs out or validation
    fails, so callers can skip rather than trust a bad reference.
    """
    run = RestartRun(scheme=Scheme.LCR, epsilon=tight_eps, r0=np.zeros(lp.n), budget=budget)
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
    if lp.problem.constraint is not None:
        raise OracleError("growth oracle requires an unconstrained instance")
    if lp.weights is not None and np.any(lp.weights):
        raise OracleError("growth oracle requires a smooth (weight-free) instance")
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
