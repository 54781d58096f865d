"""Composite problem model: metric, prox toolbox, and the composite gradient map.

A problem is the sum of a smooth convex function ``h`` and a nonsmooth
closed convex term ``psi``, minimized over a constraint set ``X`` that is
either all of space or a box.  Smoothness is measured against a diagonal
positive definite metric ``R``::

    h(x) <= h(y) + <grad h(y), x - y> + 0.5 * ||x - y||_R^2

The central operation is the composite gradient map at a point ``y``: the
unique minimizer ``y_plus`` of ``psi(x) + <grad h(y), x - y> +
0.5 * ||x - y||_R^2`` over ``X``, together with ``g(y) = R (y - y_plus)``.
``g(y) = 0`` characterizes optimality, and ``||g(y)||_*`` (the R-inverse
weighted norm) is the natural residual for stopping rules.

Everything here is immutable after construction and safe to share across
concurrent solver runs; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

__all__ = [
    "Metric",
    "Box",
    "LeastSquares",
    "SmoothPart",
    "Zero",
    "WeightedL1",
    "BoxIndicator",
    "CompositeProblem",
    "ProxStep",
    "ProxCounter",
    "soft_threshold",
    "composite_gradient_map",
    "objective",
]


def _as_locked_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def soft_threshold(t, lam):
    """Shrinkage operator ``sign(t) * max(|t| - lam, 0)``, elementwise.

    Computed as ``t - clip(t, -lam, lam)``, which has the same value on
    every entry.  Entries in ``[-lam, lam]`` map to +0, ties at
    ``|t| == lam`` included; only ``t = -0`` may keep its sign, and only
    when ``lam`` is 0.  This is the closed-form prox of a (weighted) l1
    term under a diagonal metric.
    """
    return t - np.minimum(np.maximum(t, -lam), lam)


def _csr_matvec(M, v) -> np.ndarray:
    """``M @ v`` for a float64 CSR matrix given as ``(n_row, n_col, indptr, indices, data)``.

    This is the compiled kernel that ``@`` calls, reached without reading
    scipy's properties.  The kernel reads ``v`` without checking its
    length, so the shape is checked here first.
    """
    n_row, n_col, indptr, indices, data = M
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (n_col,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n_col},)")
    out = np.zeros(n_row)
    _sparsetools.csr_matvec(n_row, n_col, indptr, indices, data, v, out)
    return out


@dataclass(frozen=True)
class Metric:
    """Diagonal positive definite metric R.

    Defines the primal norm ``||x||_R = sqrt(sum R_ii x_i^2)`` and its dual
    ``||v||_* = sqrt(sum v_i^2 / R_ii)``.  Every diagonal entry must be
    strictly positive and finite; degenerate entries are rejected here
    rather than patched (generators are responsible for flooring).
    """

    diag: np.ndarray

    def __post_init__(self):
        arr = _as_locked_vector(self.diag, "diag")
        if arr.size == 0:
            raise ValueError("metric diagonal must be nonempty")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("metric diagonal entries must be finite and > 0")
        object.__setattr__(self, "diag", arr)

    @property
    def dim(self) -> int:
        return self.diag.size

    def norm(self, x) -> float:
        """Weighted norm ``||x||_R``."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.sqrt(np.dot(self.diag * x, x)))

    def dual_norm(self, v) -> float:
        """Dual norm ``||v||_* = ||v||_{R^-1}``."""
        v = np.asarray(v, dtype=np.float64)
        return float(np.sqrt(np.dot(v / self.diag, v)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower, upper]``; entries may be -inf/+inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=np.float64, copy=True)
        hi = np.array(self.upper, dtype=np.float64, copy=True)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("empty box: some lower bound exceeds its upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def intersect(self, other: "Box") -> "Box":
        return Box(np.maximum(self.lower, other.lower), np.minimum(self.upper, other.upper))


@dataclass(frozen=True, eq=False)
class LeastSquares:
    """Least-squares form ``h(x) = ||A x - b||^2 / (2N)`` of a smooth part.

    ``A`` is an ``(N, n)`` matrix supporting ``@`` (dense or scipy sparse).
    Value and gradient both follow from the residual ``r = A x - b``:
    ``h = ||r||^2 / (2N)`` and ``grad h = A^T r / N``.  The residual is
    affine in ``x``, so a solver that forms a point as a linear
    combination of points whose residuals it holds gets that point's
    residual by the same combination, without a matvec.

    When ``A`` is a float64 scipy CSR or CSC matrix, both products skip
    ``@`` and call scipy's compiled kernel ``_sparsetools.csr_matvec``
    (a private name) on CSR forms of ``A`` and ``A^T``, which the first
    product builds.  ``A`` must not be mutated after construction.
    """

    A: object
    b: np.ndarray
    AT: object = field(init=False, repr=False)
    _N: float = field(init=False, repr=False)  # N as a float, for the divisions

    def __post_init__(self):
        shape = getattr(self.A, "shape", ())
        if len(shape) != 2:
            raise ValueError("A must be a 2-D matrix")
        b = _as_locked_vector(self.b, "b")
        if b.shape != (shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({shape[0]},)")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "AT", self.A.T)
        object.__setattr__(self, "_N", float(shape[0]))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @cached_property
    def _csr(self):
        """``(A, A^T)`` as CSR operands for :func:`_csr_matvec`, or None for ``@``."""
        A = self.A
        if not (sparse.issparse(A) and A.format in ("csr", "csc") and A.dtype == np.float64):
            return None
        return tuple((*M.shape, M.indptr, M.indices, M.data) for M in (A.tocsr(), self.AT.tocsr()))

    def residual(self, x) -> np.ndarray:
        """``A x - b`` (one matvec)."""
        csr = self._csr
        Ax = self.A @ x if csr is None else _csr_matvec(csr[0], x)
        return Ax - self.b

    def value_at_residual(self, r) -> float:
        """``||r||^2 / (2N)``, the value at the point whose residual is ``r``."""
        return 0.5 * float(r.dot(r)) / self._N

    def grad_at_residual(self, r) -> np.ndarray:
        """``A^T r / N`` (one matvec), the gradient at the point whose residual is ``r``."""
        csr = self._csr
        ATr = self.AT @ r if csr is None else _csr_matvec(csr[1], r)
        return ATr / self._N

    def value(self, x) -> float:
        return self.value_at_residual(self.residual(x))

    def grad(self, x) -> np.ndarray:
        return self.grad_at_residual(self.residual(x))


@dataclass(frozen=True)
class SmoothPart:
    """Smooth convex term ``h`` given by value and gradient callables.

    The callables must be pure: ``value(x) -> float`` and
    ``grad(x) -> ndarray`` of length ``dim``.  Smoothness with respect to
    the problem metric is the caller's responsibility.

    A smooth part may also declare the least-squares form
    ``h(x) = ||A x - b||^2 / (2N)`` (see :meth:`from_least_squares`).  The
    callables then stay valid, and the FISTA loop instead carries the
    residual ``A x - b`` from step to step, which takes two matvecs per
    step (``A x_k`` and ``A^T r_y``) where the callables take three.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    dim: int
    least_squares: LeastSquares | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.least_squares is not None and self.least_squares.dim != self.dim:
            raise ValueError("least-squares matrix width disagrees with dim")

    @classmethod
    def from_least_squares(cls, A, b) -> "SmoothPart":
        """Smooth part ``h(x) = ||A x - b||^2 / (2N)`` with the form declared."""
        form = LeastSquares(A, b)
        return cls(value=form.value, grad=form.grad, dim=form.dim, least_squares=form)

    def residual(self, x) -> np.ndarray | None:
        """``A x - b`` under a declared least-squares form, else None."""
        return None if self.least_squares is None else self.least_squares.residual(x)

    def grad_at_residual(self, r) -> np.ndarray | None:
        """Gradient at the point whose residual is ``r``; None when ``r`` is None."""
        return None if r is None else self._declared().grad_at_residual(r)

    def _declared(self) -> LeastSquares:
        if self.least_squares is None:
            raise ValueError("a residual needs a declared least-squares form")
        return self.least_squares


class Zero:
    """Nonsmooth term identically equal to zero."""

    def value(self, x) -> float:
        return 0.0

    def __repr__(self):
        return "Zero()"


@dataclass(frozen=True)
class WeightedL1:
    """Weighted l1 term ``sum_i w_i |x_i|`` with weights ``w >= 0``."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_locked_vector(self.weights, "weights")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("l1 weights must be finite and >= 0")
        object.__setattr__(self, "weights", w)

    def value(self, x) -> float:
        return float(self.weights.dot(np.abs(x)))


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of a box: 0 inside, +inf outside."""

    box: Box

    def value(self, x) -> float:
        return 0.0 if self.box.contains(x) else np.inf


@dataclass(frozen=True)
class CompositeProblem:
    """The triple (h, psi, X) with its metric R.

    ``constraint is None`` means X is all of space.  The nonsmooth part is
    one of :class:`Zero`, :class:`WeightedL1`, :class:`BoxIndicator`; this
    family keeps the prox separable and closed form under the diagonal
    metric.  Construction validates dimension agreement and that the
    intersection of X with dom(psi) is a nonempty box (or all of space).
    """

    smooth: SmoothPart
    nonsmooth: object
    metric: Metric
    constraint: Box | None = None

    def __post_init__(self):
        n = self.smooth.dim
        if self.metric.dim != n:
            raise ValueError(f"metric dim {self.metric.dim} != problem dim {n}")
        if isinstance(self.nonsmooth, WeightedL1) and self.nonsmooth.weights.size != n:
            raise ValueError("l1 weight vector length disagrees with problem dim")
        if isinstance(self.nonsmooth, BoxIndicator) and self.nonsmooth.box.dim != n:
            raise ValueError("indicator box dim disagrees with problem dim")
        if self.constraint is not None and self.constraint.dim != n:
            raise ValueError("constraint box dim disagrees with problem dim")
        # Intersection of the constraint set with dom(psi); Box.intersect
        # raises on emptiness, which makes infeasibility a construction error.
        feasible = self.constraint
        if isinstance(self.nonsmooth, BoxIndicator):
            inner = self.nonsmooth.box
            feasible = inner if feasible is None else feasible.intersect(inner)
        object.__setattr__(self, "_feasible_box", feasible)
        # The soft-threshold level of the weighted-l1 prox and its negative,
        # computed once.
        threshold = neg_threshold = None
        if isinstance(self.nonsmooth, WeightedL1):
            threshold = _as_locked_vector(self.nonsmooth.weights / self.metric.diag, "threshold")
            neg_threshold = _as_locked_vector(-threshold, "threshold")
        object.__setattr__(self, "_l1_threshold", threshold)
        object.__setattr__(self, "_l1_neg_threshold", neg_threshold)

    @property
    def dim(self) -> int:
        return self.smooth.dim

    @property
    def feasible_box(self) -> Box | None:
        """Intersection of X with dom(psi), or None when it is all of space."""
        return self._feasible_box


class ProxStep(NamedTuple):
    """Result of one composite gradient map evaluation at a point y.

    ``g = R (y - y_plus)`` exactly, and ``y_plus`` is feasible (it lies in
    the intersection of X with dom(psi)).  A named tuple, because the
    FISTA loop builds one per step.
    """

    y_plus: np.ndarray
    g: np.ndarray
    g_dual_norm: float


class ProxCounter:
    """Mutable counter threaded through solvers to audit prox-call totals."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` by a count, which skips the Python-level ``.all()``."""
    return np.count_nonzero(np.isfinite(v)) == v.size


def _validate_point(problem: CompositeProblem, x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.dim,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({problem.dim},)")
    if not _all_finite(x):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def composite_gradient_map(
    problem: CompositeProblem, y, counter: ProxCounter | None = None, grad=None
) -> ProxStep:
    """Composite gradient map at ``y``.

    Returns the unique minimizer over X of
    ``psi(x) + <grad h(y), x - y> + 0.5 * ||x - y||_R^2`` together with the
    composite gradient ``g(y) = R (y - y_plus)`` and its dual norm.  The
    diagonal metric makes the problem separable, so the solution is closed
    form per coordinate: an R-scaled gradient step, soft thresholding for a
    weighted-l1 term, then clipping to the feasible box.

    Parameters
    ----------
    problem : CompositeProblem
    y : array_like of length ``problem.dim``, finite
    counter : ProxCounter, optional
        Incremented once per call when given.
    grad : array_like, optional
        ``grad h(y)`` when the caller already has it (the FISTA loop gets
        it from a carried residual); computed from ``problem.smooth.grad``
        otherwise.  It is checked like a computed gradient.

    Raises
    ------
    ValueError
        On dimension mismatch or non-finite input/gradient.
    """
    y = _validate_point(problem, y, "y")
    if grad is None:
        grad = problem.smooth.grad(y)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != y.shape:
        raise ValueError("gradient shape disagrees with problem dim")
    if not _all_finite(grad):
        raise ValueError("gradient is non-finite at the query point")

    # soft_threshold, the clip to the box and Metric.dual_norm inline, by
    # ufuncs without np.clip's Python wrapper, since this runs once per step.
    diag = problem.metric.diag
    u = y - grad / diag
    threshold = problem._l1_threshold
    if threshold is not None:
        u -= np.minimum(np.maximum(u, problem._l1_neg_threshold), threshold)
    box = problem._feasible_box
    if box is not None:
        u = np.minimum(np.maximum(u, box.lower), box.upper)
    g = diag * (y - u)
    step = ProxStep(u, g, math.sqrt((g / diag).dot(g)))
    if counter is not None:
        counter.count += 1
    return step


def objective(problem: CompositeProblem, x, residual=None) -> float:
    """Extended-real objective ``f(x) = h(x) + psi(x)``.

    Returns +inf when ``x`` violates an indicator term or the constraint
    set, following the convention that the constrained problem is the
    unconstrained minimization of ``f + I_X``.  ``residual``, the value of
    ``A x - b`` under a declared least-squares form, gives ``h(x)``
    without a matvec.
    """
    x = _validate_point(problem, x, "x")
    if problem.constraint is not None and not problem.constraint.contains(x):
        return np.inf
    psi = problem.nonsmooth.value(x)
    if psi == math.inf:
        return np.inf
    smooth = problem.smooth
    if residual is None:
        h = smooth.value(x)
    else:
        # The declared form itself; _declared() only runs to raise when there is none.
        h = (smooth.least_squares or smooth._declared()).value_at_residual(residual)
    return float(h) + float(psi)

