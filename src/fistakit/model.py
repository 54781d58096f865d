"""Composite problem model: metric, prox toolbox, and the composite gradient map.

A problem is the sum of a smooth convex function ``h`` and a nonsmooth
term ``psi``, minimized over a constraint set ``X``: ``psi`` is zero or a
weighted l1 term, and ``X`` is a box or all of space.  Smoothness is
measured against a diagonal positive definite metric ``R``::

    h(x) <= h(y) + <grad h(y), x - y> + 0.5 * ||x - y||_R^2

The central operation is the composite gradient map at a point ``y``: the
unique minimizer ``y_plus`` of ``psi(x) + <grad h(y), x - y> +
0.5 * ||x - y||_R^2`` over ``X``, together with ``g(y) = R (y - y_plus)``.
``g(y) = 0`` characterizes optimality, and ``||g(y)||_*`` (the R-inverse
weighted norm) is the natural residual for stopping rules.

Everything here is immutable after construction and safe to share across
concurrent solver runs; all operations are pure functions of their inputs.
The two pieces of mutable state belong to a large problem: the
column-subset cache of its :class:`LeastSquares` form's ``A x`` and the
screened rows of the ``A^T r`` of its fused step (see
:class:`_SupportProduct` and :class:`_ScreenedProduct`).  Each is a memo
that each product reads once and, when it changes it, replaces whole, and
that never changes a result, only the time the product takes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

try:  # the ufunc behind np.clip, without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1
    from numpy.core.umath import clip as _clip

__all__ = [
    "Metric",
    "Box",
    "LeastSquares",
    "Zero",
    "WeightedL1",
    "CompositeProblem",
    "ProxStep",
    "ProxCounter",
    "composite_gradient_map",
    "objective",
]


def _as_locked_vector(v, name: str) -> np.ndarray:
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real, got a complex dtype")
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


def _restrict(full: functools.partial, counts: np.ndarray, keep: np.ndarray) -> functools.partial:
    """``full`` with the compressed lines of ``A`` that ``keep`` leaves out emptied.

    ``full`` is a compiled kernel bound to ``(n_row, n_col, indptr, indices,
    data)`` and ``counts`` the stored entries of each compressed line: the
    columns of a ``csc_matvec`` or the rows of a ``csr_matvec``.  Every line
    stays, so the product takes the vectors ``full`` takes; an emptied line
    adds no term, and its output entry of a ``csr_matvec`` stays at the
    buffer's +0.
    """
    n_row, n_col, indptr, indices, data = full.args
    stored = np.repeat(keep, counts)
    sub_indptr = np.zeros_like(indptr)
    np.cumsum(counts * keep, out=sub_indptr[1:])
    return functools.partial(full.func, n_row, n_col, sub_indptr, indices[stored], data[stored])


class _SupportProduct:
    """``A x`` of a finite float64 CSC ``A`` over a cached set of its columns.

    Per row, the full product adds the terms ``a_ij x_j`` in ascending
    column order starting from +0, and in round-to-nearest such a sum is
    never -0.  A column with ``x_j = +-0`` adds a finite ``+-0``, which
    leaves such a sum unchanged, so the product over any column set that
    holds the support of ``x`` has the bits of the full one.  ``A`` must
    be finite (``inf * 0`` is NaN) and must not change.  Like the kernel
    it stands in for, a call adds ``A x`` into a zeroed ``out`` and checks
    no length: ``x`` must be a contiguous float64 vector of length ``n``.

    The cache is a memo: one tuple of the columns outside the cached set,
    the ``csc_matvec`` product of ``A`` with those columns emptied, and
    the support of the last point that had a nonzero outside them.  A call
    reads it once and replaces it whole, so a call that runs beside
    another still gets the full product's bits.  A point that is zero
    outside the cached columns takes the restricted product.  Any other
    takes the full product, and its support is cached when the previous
    such point had the same support, so a support that changes at every
    step costs no rebuilds.
    """

    __slots__ = ("_full", "_counts", "_memo")

    def __init__(self, full: functools.partial):
        """``full`` is the ``csc_matvec`` product of all of ``A`` (see :class:`LeastSquares`)."""
        self._full = full
        self._counts = np.diff(full.args[2])  # stored entries per column
        self._memo = self._cached(np.zeros(full.args[1], dtype=bool))

    def _cached(self, mask):
        return np.flatnonzero(~mask), _restrict(self._full, self._counts, mask), None

    def __call__(self, x, out) -> None:
        outside, sub, missed = self._memo
        if np.count_nonzero(x.take(outside)):
            mask = x != 0
            if missed is None or not np.array_equal(mask, missed):
                self._memo = (outside, sub, mask)
                return self._full(x, out)
            outside, sub, missed = self._memo = self._cached(mask)
        sub(x, out)


class _ScreenedProduct:
    """``A^T r`` for the fused step of a weighted-l1 problem, without the rows the prox zeroes.

    Called as ``product(ys, out)``, with ``r_y`` in the first ``N`` entries
    of ``ys``, ``y`` after them and ``out`` a zeroed float64 vector of
    length ``n``, it adds into ``out`` the full ``csr_matvec`` product
    ``A^T r_y`` or the same product with a certified row set ``S``
    emptied, which leaves the step's bits unchanged.  ``A`` must be finite
    and must not change, and the problem must have no box.

    The certificate.  With ``u = 2^-53``, ``m = N + 8``, ``gamma = m u /
    (1 - m u)``, ``E = m 2^-1074`` and ``a_j = ||A_j||``, the computed sum
    ``s_j`` of row ``j`` of ``A^T`` times ``r`` is within ``gamma a_j ||r||
    + E`` of ``A_j^T r`` in any order, ``E`` covering underflow.  From the
    full product ``c = A^T r_0`` of the last rebuild, with ``d = r - r_0``,
    the condition::

        a_j (1 + gamma) ||d|| <= N w_j - |c_j| - 2 gamma a_j ||r_0|| - 2E

    gives ``|s_j| <= |c_j| + a_j ||d|| + gamma a_j (||r|| + ||r_0||) + 2E
    <= N w_j``.  Rounding is monotone, so ``fl(fl(|s_j| / N) / R_jj) <=
    fl(w_j / R_jj) = t_j``, the prox's threshold.  If also ``y_j = +-0``
    and ``0 < t_j < inf``, the prox's ``u_j = y_j - fl(fl(s_j / N) /
    R_jj)`` lies in ``[-t_j, t_j]`` for ``s_j`` and for the +0 of an
    emptied row alike, so both give ``x_j = u_j - u_j = +0`` and ``g_j =
    R_jj y_j``.  (At ``t_j = 0`` the clip may keep a -0; at ``t_j = inf``
    it turns ``-inf`` into NaN.)

    A rebuild evaluates the right side with ``sqrt(q + E) (1 + gamma)``
    for ``a_j`` and ``||r_0||`` (``q`` the computed sum of squares),
    ``N w_j (1 - gamma)`` and ``3 gamma`` for ``2 gamma``, divided by
    ``a_j (1 + 2 gamma)``: each extra ``gamma`` covers the roundings of
    the formula that computes it.  That gives a limit ``delta_j`` on
    ``||d||``.  ``S`` takes the rows with ``y_j = 0``, ``0 < t_j < inf``
    and ``delta_j`` positive and at least its tenth percentile, so one
    tight row does not end the memo at once; ``delta`` is their least
    ``delta_j``.  A step is screened when ``y`` is ``+-0`` on ``S`` and
    the computed ``d . d <= delta^2 (1 - 4 gamma) - E``, which bounds the
    true ``||d||^2`` by ``delta^2``; a NaN or infinite entry of ``r``
    fails this test.  No row with ``a_j`` outside ``[2^-250, 2^250)`` or
    ``N w_j >= 2^250`` is screened, nor any at ``||r_0|| >= 2^250``, so
    no sum nears overflow and the limit stays finite.

    The memo is one pair: the certificate (the positions of ``S`` in
    ``ys``, ``r_0``, the limit on ``d . d`` and the product with ``S``
    emptied) and the full products left before the next rebuild.  A call
    reads it once and, when it changes it, replaces it whole, so a call
    that runs beside another still gets the full product's bits; a
    screened step writes nothing.  A failed test takes the full product
    and starts a wait of ``WAIT`` full products, the last of which
    rebuilds, so the fast first steps of a solve, where the residual
    outruns any certificate, do not pay a rebuild at every step.  A run
    leaves the next one on the same problem a certificate, which stays
    valid, and at most ``WAIT`` full products of wait.
    """

    __slots__ = ("_full", "_counts", "_N", "_gamma", "_tiny", "_cap", "_spread", "_den",
                 "_none", "_memo")

    WAIT = 32  # full products from a failed test to the rebuild
    RANGE = 2.0 ** 250  # bound on a_j, N w_j and ||r_0|| of a screened row

    def __init__(self, full: functools.partial, threshold: np.ndarray, weights: np.ndarray):
        """``full`` is the ``csr_matvec`` product ``A^T r`` (see :class:`LeastSquares`)."""
        n, N, indptr, _, data = full.args
        self._full = full
        counts = self._counts = np.diff(indptr)  # stored entries per row of A^T
        self._N = N
        m_u = (N + 8) * 2.0 ** -53
        gamma = self._gamma = m_u / (1.0 - m_u)
        tiny = self._tiny = (N + 8) * 2.0 ** -1074
        with np.errstate(over="ignore"):  # +inf, which leaves the row out
            # The rows' sums of squares; reduceat gives an empty row the next entry.
            sq = np.add.reduceat(np.append(data * data, 0.0), indptr[:-1])
            cap = N * weights * (1.0 - gamma)
        norm = np.sqrt(np.where(counts > 0, sq, 0.0) + tiny) * (1.0 + gamma)
        ok = ((threshold > 0.0) & (threshold < np.inf) & (cap < self.RANGE)
              & (norm >= 1.0 / self.RANGE) & (norm < self.RANGE))
        # The row terms of the limit, with -1 for the cap of a row never
        # screened, which makes its limit negative.
        self._cap = np.where(ok, cap, -1.0)
        self._spread = np.where(ok, 3.0 * gamma * norm, 0.0)
        self._den = np.where(ok, norm * (1.0 + 2.0 * gamma), 1.0)
        self._none = (np.zeros(0, dtype=np.intp), np.zeros(N), -math.inf, None)
        self._memo = (self._none, 1)  # the first call rebuilds

    def _rebuild(self, ys, c) -> tuple:
        """The certificate at ``r_0 = ys[:N]``, from ``c``, its full product."""
        N = self._N
        r0 = ys[:N].copy()
        rho = math.sqrt(r0.dot(r0) + self._tiny) * (1.0 + self._gamma)
        if rho < self.RANGE:
            delta = (self._cap - abs(c) - rho * self._spread - 2.0 * self._tiny) / self._den
            ok = (delta > 0.0) & (ys[N:] == 0.0)
            if ok.any():
                v = delta[ok]
                low = np.partition(v, v.size // 10)[v.size // 10]
                limit = low * low * (1.0 - 4.0 * self._gamma) - self._tiny
                held = ok & (delta >= low)
                return (np.flatnonzero(held) + N, r0, limit,
                        _restrict(self._full, self._counts, ~held))
        return self._none

    def __call__(self, ys, out) -> None:
        cert, wait = self._memo
        held, r0, limit, sub = cert
        r = ys[:self._N]
        if not wait and not np.count_nonzero(ys.take(held)):
            d = r - r0
            if d.dot(d) <= limit:
                return sub(r, out)
        self._full(r, out)
        if wait == 1:
            self._memo = (self._rebuild(ys, out), 0)
        else:  # a failed test starts the wait
            self._memo = (cert, wait - 1 if wait else self.WAIT)


@dataclass(frozen=True)
class Metric:
    """Diagonal positive definite metric R.

    Defines the primal norm ``||x||_R = sqrt(sum R_ii x_i^2)`` and its dual
    ``||v||_* = sqrt(sum v_i^2 / R_ii)``, which the prox computes inline
    for ``g``.  Every diagonal entry must be
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


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower, upper]``; entries may be -inf/+inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.lower) or np.iscomplexobj(self.upper):
            raise ValueError("box bounds must be real, got a complex dtype")
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


@dataclass(frozen=True, eq=False)
class LeastSquares:
    """Smooth part of a composite problem, ``h(x) = ||A x - b||^2 / (2N)``.

    ``A`` is an ``(N, n)`` matrix: a dense array or a scipy sparse matrix
    of any format and real dtype, and ``b`` a finite real vector of length
    ``N``; a complex one raises ``ValueError``.  Value and gradient both
    follow from the residual ``r = A x - b``: ``h = ||r||^2 / (2N)`` and
    ``grad h = A^T r / N``.
    The residual is affine in ``x``, so a solver that forms a point as a
    linear combination of points whose residuals it holds gets that
    point's residual by the same combination, without a matvec.

    The form holds ``A`` as its own float64 CSC copy, with ``data``,
    ``indices`` and ``indptr`` locked, so later edits to the caller's
    matrix reach neither ``A`` nor the products.  It binds each product
    once, as ``product(v, out)``, which adds it into a zeroed contiguous
    float64 ``out`` and checks no length: ``_ATr`` is scipy's compiled
    ``csr_matvec`` reading these arrays as the CSR matrix ``A^T``, and
    ``_Ax`` is ``csc_matvec``, or, when ``A`` is finite and stores at
    least ``_SUPPORT_MIN_NNZ`` entries, the same product over a cached
    column set that holds the support of ``x`` (see
    :class:`_SupportProduct`), with the same bits.  These are private
    names, the kernels that ``@`` calls, reached without its dispatch.
    Both start each output entry at +0 and add its terms in ascending
    index order (``csr_matvec`` when the stored indices are sorted), so a
    canonical CSR ``A`` and its CSC copy give ``A x`` the same bits.

    The methods check their vector's length before the product runs.  The
    fused loop of :func:`fistakit.fista.fista` calls ``_Ax`` and, through
    its problem (see :class:`CompositeProblem`), ``_ATr`` itself, writing
    into the two halves of the one buffer it builds per step, with the
    bits of :meth:`residual` and :meth:`grad_at_residual`.  ``_ATr`` reads
    only the first ``N`` entries of its vector, so the loop passes it a
    vector that holds ``y`` after ``r_y``.
    ``value`` and ``grad`` are the form's own ``_value`` and ``_grad``
    unless given, so that a tracer can wrap them: the prox calls ``grad``
    when given no gradient, and :func:`objective` ``value`` when given no residual.
    """

    A: sparse.csc_array
    b: np.ndarray
    value: Callable[[np.ndarray], float] | None = field(default=None, repr=False)
    grad: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    dim: int = field(init=False, repr=False)  # n, the width of A
    _N: float = field(init=False, repr=False)  # N as a float, for the divisions
    # A x and A^T r, each called as product(v, out).
    _Ax: Callable[[np.ndarray, np.ndarray], None] = field(init=False, repr=False)
    _ATr: Callable[[np.ndarray, np.ndarray], None] = field(init=False, repr=False)

    def __post_init__(self):
        if np.iscomplexobj(self.A):
            raise ValueError("A must have a real dtype, got a complex one")
        A = sparse.csc_array(self.A, dtype=np.float64, copy=True)
        arrays = (A.indptr, A.indices, A.data)
        for arr in arrays:
            arr.setflags(write=False)
        N, n = A.shape
        b = _as_locked_vector(self.b, "b")
        if b.shape != (N,):
            raise ValueError(f"b has shape {b.shape}, expected ({N},)")
        if not _all_finite(b):
            raise ValueError("b must be finite")
        Ax = functools.partial(_sparsetools.csc_matvec, N, n, *arrays)
        if A.nnz >= _SUPPORT_MIN_NNZ and _all_finite(A.data):
            Ax = _SupportProduct(Ax)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_N", float(N))
        object.__setattr__(self, "_Ax", Ax)
        object.__setattr__(self, "_ATr", functools.partial(_sparsetools.csr_matvec, n, N, *arrays))
        # Not given, or a form's own method carried over by dataclasses.replace: the class's
        # method answers, as holding its own bound method would make each form a cycle.
        for name in ("value", "grad"):
            given = getattr(self, name)
            if given is None or getattr(given, "__func__", None) is getattr(LeastSquares, name):
                object.__delattr__(self, name)

    def residual(self, x) -> np.ndarray:
        """``A x - b`` (one matvec)."""
        Ax = np.zeros(self.b.size)
        self._Ax(_vector(x, self.dim), Ax)
        return Ax - self.b

    def value_at_residual(self, r) -> float:
        """``||r||^2 / (2N)``, the value at the point whose residual is ``r``."""
        return 0.5 * float(r.dot(r)) / self._N

    def grad_at_residual(self, r) -> np.ndarray:
        """``A^T r / N`` (one matvec), the gradient at the point whose residual is ``r``."""
        ATr = np.zeros(self.dim)
        self._ATr(_vector(r, self.b.size), ATr)
        return ATr / self._N

    def _value(self, x) -> float:
        return self.value_at_residual(self.residual(x))

    def _grad(self, x) -> np.ndarray:
        return self.grad_at_residual(self.residual(x))


# Set after the class body, where they would be taken for the fields' defaults.
LeastSquares.value, LeastSquares.grad = LeastSquares._value, LeastSquares._grad


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
class CompositeProblem:
    """The triple (h, psi, X) with its metric R.

    ``constraint is None`` means X is all of space.  Construction raises
    ``TypeError`` unless the smooth part is a :class:`LeastSquares` and the
    nonsmooth part :class:`Zero` or :class:`WeightedL1`, the family whose
    prox is separable and closed form under the diagonal metric, and
    validates dimension agreement.

    ``_ATr`` is the ``A^T r_y`` of the fused step of
    :func:`fistakit.fista.fista`: the form's own, or, for a weighted-l1
    term without a box on a form whose ``A x`` takes the support product,
    a :class:`_ScreenedProduct` with the same bits.
    """

    smooth: LeastSquares
    nonsmooth: Zero | WeightedL1
    metric: Metric
    constraint: Box | None = None

    def __post_init__(self):
        if not isinstance(self.smooth, LeastSquares):
            raise TypeError("the smooth part must be a LeastSquares, "
                            f"got {type(self.smooth).__name__}")
        n = self.smooth.dim
        if self.metric.dim != n:
            raise ValueError(f"metric dim {self.metric.dim} != problem dim {n}")
        if not isinstance(self.nonsmooth, (Zero, WeightedL1)):
            raise TypeError("the nonsmooth term must be Zero() or a WeightedL1, "
                            f"got {type(self.nonsmooth).__name__}")
        if isinstance(self.nonsmooth, WeightedL1) and self.nonsmooth.weights.size != n:
            raise ValueError("l1 weight vector length disagrees with problem dim")
        if self.constraint is not None and self.constraint.dim != n:
            raise ValueError("constraint box dim disagrees with problem dim")
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
        # Screened under the support product's gate: a finite A of at least
        # _SUPPORT_MIN_NNZ entries.
        ATr = self.smooth._ATr
        if (threshold is not None and self.constraint is None
                and isinstance(self.smooth._Ax, _SupportProduct)):
            ATr = _ScreenedProduct(ATr, threshold, self.nonsmooth.weights)
        object.__setattr__(self, "_ATr", ATr)

    @property
    def dim(self) -> int:
        return self.smooth.dim


class ProxStep(NamedTuple):
    """Result of one composite gradient map evaluation at a point y.

    ``g = R (y - y_plus)`` exactly, and ``y_plus`` is feasible (it lies in
    X).  A named tuple, because the FISTA loop builds one per step.
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
    *, checked: bool = True, out: np.ndarray | None = None,
) -> ProxStep:
    """Composite gradient map at ``y``.

    Returns the unique minimizer over X of
    ``psi(x) + <grad h(y), x - y> + 0.5 * ||x - y||_R^2`` together with the
    composite gradient ``g(y) = R (y - y_plus)`` and its dual norm.  The
    diagonal metric makes the problem separable, so the solution is closed
    form per coordinate: an R-scaled gradient step, soft thresholding for a
    weighted-l1 term, then clipping to the constraint box.

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
    out : ndarray, optional
        Contiguous float64 vector of length ``problem.dim`` that receives
        ``y_plus``, which the step then holds; a new vector otherwise.  It
        may be ``grad`` itself, which is then overwritten (the fused step
        turns its gradient into ``x_k`` this way), but must not overlap
        ``y``.  The result has the same bits either way.

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
    # y - grad / diag, soft thresholding, the clip to the box and the dual
    # norm ||g||_* inline, by ufuncs without np.clip's Python wrapper, since
    # this runs once per step.
    diag = problem.metric.diag
    u = np.divide(grad, diag, out=out)
    np.subtract(y, u, out=u)
    threshold = problem._l1_threshold
    if threshold is not None:
        u -= _clip(u, problem._l1_neg_threshold, threshold)
    box = problem.constraint
    if box is not None:
        # Not the clip ufunc in place: over a vector of one entry it keeps
        # u at a tie of signed zeros, where this pair gives the bound.
        np.maximum(u, box.lower, out=u)
        np.minimum(u, box.upper, out=u)
    g = diag * (y - u)
    step = ProxStep(u, g, math.sqrt((g / diag).dot(g)))
    if counter is not None:
        counter.count += 1
    return step


def objective(problem: CompositeProblem, x, residual=None) -> float:
    """Extended-real objective ``f(x) = h(x) + psi(x)``.

    Returns +inf when ``x`` violates the constraint set, following the
    convention that the constrained problem is the unconstrained
    minimization of ``f + I_X``.  ``residual``, the value of
    ``A x - b`` under the smooth part, gives ``h(x)`` without a matvec.
    """
    x = _validate_point(problem, x, "x")
    if problem.constraint is not None and not problem.constraint.contains(x):
        return np.inf
    psi = problem.nonsmooth.value(x)
    smooth = problem.smooth
    h = smooth.value(x) if residual is None else smooth.value_at_residual(residual)
    return float(h) + float(psi)

