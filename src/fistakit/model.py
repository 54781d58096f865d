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
The one piece of mutable state is the column-subset cache of a large
:class:`LeastSquares` form: a memo that each product reads once and that
never changes a result, only the time the product takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "composite_gradient_map",
    "objective",
]


def _as_locked_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


# A least-squares form computes ``A x`` over a cached subset of the columns
# of ``A`` (see _SupportProduct) when ``A`` stores at least this many entries.
# Below it the bookkeeping costs more than the skipped columns save.
_SUPPORT_MIN_NNZ = 16_384


def _vector(v, size: int) -> np.ndarray:
    """``v`` as a contiguous float64 vector of length ``size``; the kernels check no length."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"vector has shape {v.shape}, expected ({size},)")
    return v


def _sparse_matvec(M, v) -> np.ndarray:
    """``M @ v`` for ``M = (kernel, n_row, n_col, indptr, indices, data)``, float64 data.

    ``kernel`` is scipy's compiled ``_sparsetools.csc_matvec`` (for ``A x``
    of a CSC ``A``) or ``csr_matvec`` (for ``A^T r``, reading the same
    arrays as the CSR matrix ``A^T``): private names, the kernels that
    ``@`` calls, reached without reading scipy's properties.  The form's
    methods (which each solver call's start, the restart driver's outer
    checks and the oracles use) and the support product call the kernels
    through here; the fused FISTA loop calls them itself.  Both start
    each output entry at +0 and add its terms in ascending index order
    (``csr_matvec`` when the stored indices are sorted), so a canonical
    CSR ``A`` and its CSC copy give ``A x`` the same bits.
    """
    kernel, n_row, n_col, indptr, indices, data = M
    v = _vector(v, n_col)
    out = np.zeros(n_row)
    kernel(n_row, n_col, indptr, indices, data, v, out)
    return out


class _SupportProduct:
    """``A x`` of a finite float64 CSC ``A`` over a cached set of its columns.

    Per row, the full product adds the terms ``a_ij x_j`` in ascending
    column order starting from +0, and in round-to-nearest such a sum is
    never -0.  A column with ``x_j = +-0`` adds a finite ``+-0``, which
    leaves such a sum unchanged, so the product over any column set that
    holds the support of ``x`` has the bits of the full one.  ``A`` must
    be finite (``inf * 0`` is NaN) and must not change.

    The cache is a memo: one tuple of the cached columns, the others, the
    product operand of ``A`` restricted to the cached columns, and the
    support of the last point that had a nonzero outside them.  A call
    reads it once and replaces it whole, so a call that runs beside
    another still gets the full product's bits.  A point that is zero
    outside the cached columns takes the restricted product.  Any other
    takes the full product, and its support is cached when the previous
    such point had the same support, so a support that changes at every
    step costs no rebuilds.
    """

    __slots__ = ("_full", "_counts", "_memo")

    def __init__(self, full):
        """``full`` is the ``csc_matvec`` operand of all of ``A`` (see :func:`_sparse_matvec`)."""
        _, _, n_col, indptr, _, _ = full
        self._full = full
        self._counts = np.diff(indptr)  # stored entries per column
        self._memo = self._cached(np.zeros(n_col, dtype=bool), None)

    def _cached(self, mask, missed):
        _, n_row, _, indptr, indices, data = self._full
        cols = np.flatnonzero(mask)
        keep = np.repeat(mask, self._counts)
        sub_indptr = np.zeros(cols.size + 1, dtype=indptr.dtype)
        np.cumsum(self._counts[mask], out=sub_indptr[1:])
        sub = (_sparsetools.csc_matvec, n_row, cols.size, sub_indptr, indices[keep], data[keep])
        return cols, np.flatnonzero(~mask), sub, missed

    def __call__(self, x) -> np.ndarray:
        x = _vector(x, self._full[2])
        cols, outside, sub, missed = self._memo
        if np.count_nonzero(x.take(outside)):
            mask = x != 0
            if missed is None or not np.array_equal(mask, missed):
                self._memo = (cols, outside, sub, mask)
                return _sparse_matvec(self._full, x)
            cols, outside, sub, missed = self._memo = self._cached(mask, None)
        return _sparse_matvec(sub, x.take(cols))


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

    ``A`` is an ``(N, n)`` matrix: a dense array or a scipy sparse matrix
    of any format and real dtype.  Value and gradient both follow from the
    residual ``r = A x - b``: ``h = ||r||^2 / (2N)`` and
    ``grad h = A^T r / N``.  The residual is affine in ``x``, so a solver
    that forms a point as a linear combination of points whose residuals
    it holds gets that point's residual by the same combination, without a
    matvec.

    The form holds ``A`` as its own float64 CSC copy, with ``data``,
    ``indices`` and ``indptr`` locked, so later edits to the caller's
    matrix reach neither ``A`` nor the products.  Both products call
    scipy's compiled kernels on these arrays: ``csr_matvec`` reads them as
    the CSR matrix ``A^T`` for ``A^T r``, and ``csc_matvec`` gives ``A x``.
    When ``A`` is finite and stores at least ``_SUPPORT_MIN_NNZ`` entries,
    ``A x`` runs over a cached column set that holds the support of ``x``
    instead (see :class:`_SupportProduct`), with the same bits.

    The methods check their vector's length before a kernel runs.  The
    fused loop of :func:`fistakit.fista.fista` calls the kernels of
    ``_ATr`` and ``_Ax`` (or ``_support``) itself, on vectors it builds,
    with the bits of :meth:`grad_at_residual` and :meth:`residual`.
    """

    A: sparse.csc_array
    b: np.ndarray
    _N: float = field(init=False, repr=False)  # N as a float, for the divisions
    # The _sparse_matvec operands of A x and A^T r.
    _Ax: tuple = field(init=False, repr=False)
    _ATr: tuple = field(init=False, repr=False)
    _support: _SupportProduct | None = field(init=False, repr=False)

    def __post_init__(self):
        A = sparse.csc_array(self.A, dtype=np.float64, copy=True)
        arrays = (A.indptr, A.indices, A.data)
        for arr in arrays:
            arr.setflags(write=False)
        N, n = A.shape
        b = _as_locked_vector(self.b, "b")
        if b.shape != (N,):
            raise ValueError(f"b has shape {b.shape}, expected ({N},)")
        Ax = (_sparsetools.csc_matvec, N, n, *arrays)
        support = None
        if A.nnz >= _SUPPORT_MIN_NNZ and _all_finite(A.data):
            support = _SupportProduct(Ax)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_N", float(N))
        object.__setattr__(self, "_Ax", Ax)
        object.__setattr__(self, "_ATr", (_sparsetools.csr_matvec, n, N, *arrays))
        object.__setattr__(self, "_support", support)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def residual(self, x) -> np.ndarray:
        """``A x - b`` (one matvec)."""
        support = self._support
        Ax = _sparse_matvec(self._Ax, x) if support is None else support(x)
        return Ax - self.b

    def value_at_residual(self, r) -> float:
        """``||r||^2 / (2N)``, the value at the point whose residual is ``r``."""
        return 0.5 * float(r.dot(r)) / self._N

    def grad_at_residual(self, r) -> np.ndarray:
        """``A^T r / N`` (one matvec), the gradient at the point whose residual is ``r``."""
        return _sparse_matvec(self._ATr, r) / self._N

    def value(self, x) -> float:
        return self.value_at_residual(self.residual(x))

    def grad(self, x) -> np.ndarray:
        return self.grad_at_residual(self.residual(x))


@dataclass(frozen=True)
class SmoothPart:
    """Smooth convex term in the least-squares form ``h(x) = ||A x - b||^2 / (2N)``.

    Build one with :meth:`from_least_squares`.  The FISTA loop carries the
    residual ``A x - b`` of ``least_squares`` from step to step, two
    matvecs per step (``A x_k`` and ``A^T r_y``).  ``value`` and ``grad``
    are the form's own pure callables unless replaced; the prox calls
    ``grad`` when it is given no gradient, and :func:`objective` calls
    ``value`` when it is given no residual.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    least_squares: LeastSquares

    def __post_init__(self):
        if not isinstance(self.least_squares, LeastSquares):
            raise TypeError("a smooth part needs its least-squares form")

    @property
    def dim(self) -> int:
        return self.least_squares.dim

    @classmethod
    def from_least_squares(cls, A, b) -> "SmoothPart":
        """Smooth part ``h(x) = ||A x - b||^2 / (2N)``."""
        form = LeastSquares(A, b)
        return cls(value=form.value, grad=form.grad, least_squares=form)


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
    intersection of X with dom(psi) is a nonempty box (or all of space),
    and sets ``feasible_box`` to that box (None when it is all of space).
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
        object.__setattr__(self, "feasible_box", feasible)
        # The soft-threshold level of the weighted-l1 prox and its negative,
        # computed once.
        threshold = neg_threshold = None
        if isinstance(self.nonsmooth, WeightedL1):
            with np.errstate(over="ignore"):  # +inf, the exact limit, maps finite u to +0
                threshold = self.nonsmooth.weights / self.metric.diag
            threshold = _as_locked_vector(threshold, "threshold")
            neg_threshold = _as_locked_vector(-threshold, "threshold")
        object.__setattr__(self, "_l1_threshold", threshold)
        object.__setattr__(self, "_l1_neg_threshold", neg_threshold)

    @property
    def dim(self) -> int:
        return self.smooth.dim


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
    problem: CompositeProblem, y, counter: ProxCounter | None = None, grad=None,
    *, checked: bool = True,
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
    checked : bool
        False skips the checks of ``y`` and ``grad``: the caller vouches
        that both are float64 vectors of length ``problem.dim``, and a
        non-finite entry gives a non-finite result instead of an error.
        The fused step of :func:`fistakit.fista.fista` passes False.

    Raises
    ------
    ValueError
        On dimension mismatch or non-finite input/gradient.
    """
    if checked:
        y = _validate_point(problem, y, "y")
        if grad is None:
            grad = problem.smooth.grad(y)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != y.shape:
            raise ValueError("gradient shape disagrees with problem dim")
        if not _all_finite(grad):
            raise ValueError("gradient is non-finite at the query point")
    # Soft thresholding, the clip to the box and Metric.dual_norm inline, by
    # ufuncs without np.clip's Python wrapper, since this runs once per step.
    diag = problem.metric.diag
    u = y - grad / diag
    threshold = problem._l1_threshold
    if threshold is not None:
        u -= np.minimum(np.maximum(u, problem._l1_neg_threshold), threshold)
    box = problem.feasible_box
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
    ``A x - b`` under the smooth part's least-squares form, gives ``h(x)``
    without a matvec.
    """
    x = _validate_point(problem, x, "x")
    if problem.constraint is not None and not problem.constraint.contains(x):
        return np.inf
    psi = problem.nonsmooth.value(x)
    if psi == math.inf:
        return np.inf
    smooth = problem.smooth
    h = smooth.value(x) if residual is None else smooth.least_squares.value_at_residual(residual)
    return float(h) + float(psi)

