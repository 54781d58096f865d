import importlib
import math
import types
from pathlib import Path

import numpy as np
import pytest

from fistakit import (Box, CompositeProblem, LeastSquares, Metric, WeightedL1, Zero,
                      composite_gradient_map, model, objective)
from fistakit.fista import FistaResult, TSequence
from fistakit.cli import BOUND_ABS, BOUND_REL, BoundCheck


def make_quadratic(Q, c, metric_diag=None, nonsmooth=None, constraint=None):
    """Problem with h(x) = 0.5 (x-c)' Q (x-c) for a symmetric PSD Q.

    ``h`` is built as the least-squares form ``||A x - b||^2 / (2n)`` with
    ``A = sqrt(n max(L, 0)) V'`` from ``Q = V L V'`` and ``b = A c``, which
    equals it up to rounding.  Defaults the metric to Gershgorin row sums
    of |Q|, which dominates Q.
    """
    Q = np.asarray(Q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    evals, V = np.linalg.eigh(Q)
    A = np.sqrt(n * np.maximum(evals, 0.0))[:, None] * V.T
    if metric_diag is None:
        metric_diag = np.abs(Q).sum(axis=1)
    return CompositeProblem(
        smooth=LeastSquares(A, A @ c),
        nonsmooth=Zero() if nonsmooth is None else nonsmooth,
        metric=Metric(metric_diag),
        constraint=constraint,
    )


def soft_threshold(t, lam):
    """Shrinkage operator ``sign(t) * max(|t| - lam, 0)``, elementwise.

    Computed as ``t - clip(t, -lam, lam)``, which has the same value on
    every entry.  Entries in ``[-lam, lam]`` map to +0, ties at
    ``|t| == lam`` included; only ``t = -0`` may keep its sign, and only
    when ``lam`` is 0.  This is the closed-form prox of a (weighted) l1
    term under a diagonal metric, the form the prox computes inline.
    """
    return t - np.minimum(np.maximum(t, -lam), lam)


def count_fista_module_calls(monkeypatch):
    """Wrap ``composite_gradient_map`` and ``objective`` of ``fistakit.fista``; return the tally.

    ``unchecked`` counts the proxes called with ``checked=False``.
    """
    # The package's fista function shadows the submodule as an attribute.
    fista_module = importlib.import_module("fistakit.fista")
    tally = {"prox": 0, "unchecked": 0, "objective": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            if kwargs.get("checked") is False:
                tally["unchecked"] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fista_module, "composite_gradient_map",
                        counting("prox", fista_module.composite_gradient_map))
    monkeypatch.setattr(fista_module, "objective",
                        counting("objective", fista_module.objective))
    return tally


def checked_fista(problem, z, k_min=0, exit_condition=None, budget=10_000_000, abort_tol=None,
                  counter=None, residual=None):
    """Reference for ``fistakit.fista``.

    Every step goes through the checked ``composite_gradient_map`` and
    ``objective``, with the residual carried as the solver carries it; the
    solver's fused step must give the same bits.
    """
    form = problem.smooth
    z = np.asarray(z, dtype=np.float64)
    if residual is None:
        residual = form.residual(z)
    init = composite_gradient_map(problem, z, counter, grad=form.grad_at_residual(residual))
    x = init.y_plus
    r_x = form.residual(x)
    f_history, g_history = [objective(problem, x, r_x)], [init.g_dual_norm]
    if not math.isfinite(f_history[0]):
        raise ValueError("non-finite objective at the start point")
    result = dict(f_history=f_history, g_history=g_history, aborted=False, exhausted=False)
    if abort_tol is not None and init.g_dual_norm <= abort_tol:
        return FistaResult(x=x, n=0, residual=r_x, **dict(result, aborted=True))
    ts = TSequence()
    y, r_y, k = x, r_x, 0
    while True:
        if k >= budget:
            result["exhausted"] = True
            break
        k += 1
        prox = composite_gradient_map(problem, y, counter, grad=form.grad_at_residual(r_y))
        x_prev, x = x, prox.y_plus
        r_prev, r_x = r_x, form.residual(x)
        fk = objective(problem, x, r_x)
        if not math.isfinite(fk):
            raise ValueError(f"non-finite objective at iteration {k}")
        f_history.append(fk)
        g_history.append(prox.g_dual_norm)
        if abort_tol is not None and prox.g_dual_norm <= abort_tol:
            result["aborted"] = True
            break
        ts.step()
        beta = ts.momentum
        y = x + beta * (x - x_prev)
        r_y = r_x + beta * (r_x - r_prev)
        if (exit_condition is not None and k >= k_min
                and exit_condition(k, f_history, prox, x_prev, x, r_x)):
            break
    return FistaResult(x=x, n=k, residual=r_x, **result)


def random_spd(rng, n, cond=10.0):
    """Random symmetric positive definite matrix with roughly the given conditioning."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = np.geomspace(1.0, cond, n)
    return (basis * evals) @ basis.T


def count_kernel_calls(monkeypatch, nnz=None):
    """Wrap the compiled kernels on ``model._sparsetools``; each call adds one to ``tally[0]``.

    Every product of a least-squares form, ``A x`` and ``A^T r``, makes
    exactly one kernel call, whether through the form's methods or in the
    fused loop of ``fistakit.fista``.  A form binds its kernels when it is
    built, and a support cache or screened product its restricted product
    from them, so only forms built after this call are counted.  With
    ``nnz``, the number of entries ``A`` stores, given, ``tally[1]`` counts
    the ``csc_matvec`` calls and ``tally[2]`` the ``csr_matvec`` calls over
    fewer entries: the restricted products of a support cache and of a
    screened product.
    """
    tally = [0, 0, 0]
    kernels = model._sparsetools

    def counting(kernel, slot):
        def wrapper(*args):
            tally[0] += 1
            tally[slot] += nnz is not None and args[2][-1] < nnz
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(model, "_sparsetools", types.SimpleNamespace(
        csr_matvec=counting(kernels.csr_matvec, 2),
        csc_matvec=counting(kernels.csc_matvec, 1)))
    return tally


def screened_pair(make):
    """``make()`` built with the gate of the support and screened products at 0 and at inf.

    The first problem screens ``A^T r`` when it has a weighted-l1 term and
    no box; the second never does.
    """
    built = []
    for min_nnz in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SUPPORT_MIN_NNZ", min_nnz)
            built.append(make())
    return built


def record_certificates(monkeypatch):
    """Wrap ``_ScreenedProduct._rebuild``; the returned list collects every certificate built."""
    certs = []
    rebuild = model._ScreenedProduct._rebuild

    def recording(self, ys, c):
        certs.append(rebuild(self, ys, c))
        return certs[-1]

    monkeypatch.setattr(model._ScreenedProduct, "_rebuild", recording)
    return certs


# Relative descent-lemma violations up to this size count as rounding.
DESCENT_REL_TOL = 1e-9


def check_descent_lemma(problem, rng, samples=50):
    """Spot-check the quadratic upper bound of ``h`` against the metric.

    Samples point pairs and returns the worst relative violation of
    ``h(x) <= h(y) + <grad h(y), x - y> + 0.5 ||x - y||_R^2`` (0.0 when the
    bound holds everywhere sampled, up to ``DESCENT_REL_TOL``).  A positive
    return means the metric does not dominate the curvature of ``h``.
    """
    n = problem.dim
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        hx = problem.smooth.value(x)
        hy = problem.smooth.value(y)
        gy = problem.smooth.grad(y)
        d = x - y
        bound = hy + float(np.dot(gy, d)) + 0.5 * float(np.dot(problem.metric.diag * d, d))
        denom = max(abs(hx), abs(bound), 1.0)
        worst = max(worst, (hx - bound) / denom)
    return worst if worst > DESCENT_REL_TOL else 0.0


def reference_none_rows(path):
    """``(k, f, g_dual_norm)`` of each ``none`` row of a trace CSV, read row by row."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return [(int(r["k"]), float(r["f"]), float(r["g_dual_norm"]))
            for r in rows if r["scheme"] == "none"]


def _reference_float_noise(*values):
    scale = max([1.0, *map(abs, values)])
    return 64.0 * np.finfo(float).eps * scale


def _reference_rate_check(trial, name, rows, bound_at):
    # The first row of largest margin, or the first row of NaN margin.
    worst = None
    for k, observed in rows:
        bound = bound_at(k)
        margin = observed - (bound * (1.0 + BOUND_REL) + BOUND_ABS)
        if worst is None or margin > worst[0] or math.isnan(margin):
            worst = (margin, k, observed, bound)
            if math.isnan(margin):
                break
    margin, k, observed, bound = worst
    return BoundCheck(trial, name, "PASS" if margin <= 0 else "FAIL",
                      bound=bound, observed=observed, detail=f"worst_k={k}")


def _reference_claim_check(trial, name, violations, **extra):
    return BoundCheck(trial, name, "FAIL" if violations else "PASS",
                      observed=max(violations, default=math.nan), **extra)


def reference_none_checks(trial, nr, f_star, dist, f_x0, mu):
    """The ``nr-*`` checks of ``verify_bounds`` in scalar form, one Python float per row.

    ``nr`` is a list of ``(k, f, g_dual_norm)`` tuples.  This is the row by
    row form the array checks of ``fistakit.cli`` replace, kept as their
    reference: they must give the same records on every input.
    """
    if not nr:
        return []
    checks = [
        _reference_rate_check(trial, "nr-objective-rate", ((k, f - f_star) for k, f, _ in nr),
                              lambda k: 2.0 * dist * dist / (k + 1) ** 2),
        _reference_rate_check(trial, "nr-gradient-rate", ((k, g) for k, _, g in nr),
                              lambda k: 4.0 * dist / (k + 1)),
    ]
    if not math.isfinite(mu):
        checks.append(BoundCheck(trial, "nr-growth-checks", "SKIP", detail="no growth parameter"))
        return checks
    k_mono = math.floor(2.0 / math.sqrt(mu))
    k_contr = math.floor(2.0 * math.sqrt(math.e + 1.0) / math.sqrt(mu))
    # The allowance is a numpy scalar, which warns on overflow where a float
    # would not; the values are those of the unwarned arithmetic.
    with np.errstate(all="ignore"):
        monotone = [f for k, f, _ in nr
                    if k >= k_mono and f > f_x0 + _reference_float_noise(f_x0, f)]
        excess = [(f - f_star) - (f_x0 - f) / math.e for k, f, _ in nr
                  if k >= k_contr
                  and f - f_star > (f_x0 - f) / math.e + _reference_float_noise(f_x0, f)]
    checks.append(_reference_claim_check(trial, "nr-monotone-after", monotone,
                                         bound=f_x0, detail=f"k_min={k_mono}"))
    checks.append(_reference_claim_check(trial, "nr-contraction-after", excess,
                                         detail=f"k_min={k_contr}"))
    return checks


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_lasso():
    from fistakit import LassoSpec, generate

    return generate(LassoSpec(N=20, n=30, alpha=0.01, sparsity=0.5, seed=5))


def sample_feasible(rng, problem, scale=2.0):
    """Random point inside the problem's feasible set."""
    x = scale * rng.standard_normal(problem.dim)
    box = problem.constraint
    return x if box is None else np.clip(x, box.lower, box.upper)


def problem_zoo(rng, n=6):
    """Representative problems covering the shipped nonsmooth/constraint family."""
    Q = random_spd(rng, n, cond=30.0)
    c = rng.standard_normal(n)
    w = rng.uniform(0.0, 0.5, n)
    box = Box(-0.5 * np.ones(n), 0.8 * np.ones(n))
    return [
        make_quadratic(Q, c),
        make_quadratic(Q, c, nonsmooth=WeightedL1(w)),
        make_quadratic(Q, c, constraint=box),
        make_quadratic(Q, c, nonsmooth=WeightedL1(w), constraint=box),
    ]
