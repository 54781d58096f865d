"""Randomized weighted-Lasso problem families and their serialization.

The ``"lasso"`` family is ``min_x ||A x - b||_2^2 / (2 N) + ||W x||_1`` with
a sparse Gaussian ``A`` (each entry zero with a configured probability,
standard normal otherwise), standard normal ``b``, and diagonal weights
drawn uniformly from ``[0, alpha]``.  The ``"least-squares"`` family draws
``A`` and ``b`` the same way with ``N >= n`` and has no l1 term.  The
metric comes from Gershgorin row sums of ``H = A^T A / N``, which
dominates the curvature of the smooth part by the circle theorem, so the
descent inequality holds by construction.

Generation is a pure function of the spec: a seeded PCG64 generator is
split into one named stream per ingredient (sparsity pattern, matrix
values, right-hand side, weights), so problems are reproducible across
platforms and processes.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.io import mmread, mmwrite

from .model import CompositeProblem, LeastSquares, Metric, WeightedL1, Zero

__all__ = [
    "LassoSpec",
    "LassoProblem",
    "gershgorin_metric",
    "generate",
    "save_problem",
    "load_problem",
]

# Relative floor applied to Gershgorin row sums so that an all-zero column
# of A cannot produce a zero metric entry.
METRIC_FLOOR_REL = 1e-12

# Cap on the dense block of |A^T A| that gershgorin_metric sums at a time.
_GERSHGORIN_BLOCK_BYTES = 16 * 2**20

_FORMAT_NAME = "fistakit-lasso"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LassoSpec:
    """Parameters of one randomized instance family member.

    ``family`` is ``"lasso"``, with an underdetermined shape ``n > N >= 1``
    and weights ``W_ii ~ Uniform[0, alpha]``, or ``"least-squares"``, with
    ``N >= n >= 1`` and no l1 term.  A least-squares spec still records,
    checks and compares its ``alpha``, though no draw uses it, so two
    specs that differ only there are unequal.  ``sparsity`` is the
    probability that an entry of ``A`` is zero.
    """

    N: int
    n: int
    alpha: float
    sparsity: float = 0.9
    seed: int = 0
    family: str = "lasso"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if self.family == "lasso":
            if not (self.n > self.N >= 1):
                raise ValueError(f"need n > N >= 1, got N={self.N}, n={self.n}")
        elif self.family == "least-squares":
            if not (self.N >= self.n >= 1):
                raise ValueError("the least-squares family needs N >= n >= 1, "
                                 f"got N={self.N}, n={self.n}")
        else:
            raise ValueError("family must be 'lasso' or 'least-squares'")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must lie in [0, 1)")


@dataclass(frozen=True)
class LassoProblem:
    """A generated instance: its composite problem and the spec it was drawn from.

    ``A``, ``b``, ``weights`` and ``metric`` read through ``problem``, so
    each datum is held once, in the locked form the solver uses.
    """

    problem: CompositeProblem
    spec: LassoSpec | None = None

    @property
    def A(self) -> sparse.csc_array:
        return self.problem.smooth.A

    @property
    def b(self) -> np.ndarray:
        return self.problem.smooth.b

    @property
    def weights(self) -> np.ndarray | None:
        """The l1 weights, or None when there is no l1 term."""
        nonsmooth = self.problem.nonsmooth
        return nonsmooth.weights if isinstance(nonsmooth, WeightedL1) else None

    @property
    def metric(self) -> Metric:
        return self.problem.metric

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @classmethod
    def build(cls, A, b, weights=None, spec: LassoSpec | None = None) -> "LassoProblem":
        """Assemble the composite problem for given data, under the Gershgorin metric of ``A``.

        ``weights=None`` drops the l1 term entirely (plain least squares).
        """
        smooth = LeastSquares(A, b)
        problem = CompositeProblem(
            smooth=smooth,
            nonsmooth=Zero() if weights is None else WeightedL1(weights),
            metric=gershgorin_metric(smooth.A),
        )
        return cls(problem=problem, spec=spec)


def gershgorin_metric(A) -> Metric:
    """Diagonal metric with ``R_ii = sum_j |H_ij|`` for ``H = A^T A / N``, ``A`` being ``(N, n)``.

    ``H`` is symmetric, so the row sums equal the column sums.  They are
    taken over blocks of columns of ``A^T A``, each made dense and at most
    ``_GERSHGORIN_BLOCK_BYTES`` in size, so ``H`` is never held whole.
    Every term is ``>= 0`` and each column's terms are added in ascending
    row order, as a sparse sum adds its stored ones, so the dense zeros
    change no bit.  Entries are
    floored at ``METRIC_FLOOR_REL`` times the largest row sum so a fully zero
    column of ``A`` still yields a positive definite metric (an all-zero
    ``A`` falls back to the identity).
    """
    A = sparse.csc_array(A, dtype=np.float64)
    N, n = A.shape
    AT = A.T.tocsr()
    sums = np.zeros(n)
    block = max(1, _GERSHGORIN_BLOCK_BYTES // (8 * max(n, 1)))
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        cols = (AT @ A[:, j0:j1]).toarray()  # C order: axis-0 sums run down the rows
        sums[j0:j1] = np.abs(cols, out=cols).sum(axis=0)
    sums /= N
    top = sums.max() if n else 0.0
    if top <= 0.0:
        return Metric(np.ones(n))
    return Metric(np.maximum(sums, METRIC_FLOOR_REL * top))


def generate(spec: LassoSpec) -> LassoProblem:
    """Draw one instance of the family described by ``spec``.

    Deterministic given the seed: the pattern, values, right-hand side and
    weights each consume their own child stream, in that order.  The
    least-squares family draws no weights; its overdetermined Gaussian
    design is full rank with probability one, so it is strongly convex.
    """
    children = np.random.SeedSequence(spec.seed).spawn(4)
    rng_mask, rng_vals, rng_b, rng_w = (np.random.default_rng(s) for s in children)
    # One expression, so the dense draws are freed before the metric is built.
    A = sparse.csc_array(np.where(rng_mask.random((spec.N, spec.n)) >= spec.sparsity,
                                  rng_vals.standard_normal((spec.N, spec.n)), 0.0))
    b = rng_b.standard_normal(spec.N)
    w = rng_w.uniform(0.0, spec.alpha, spec.n) if spec.family == "lasso" else None
    return LassoProblem.build(A, b, weights=w, spec=spec)


def save_problem(lp: LassoProblem, path) -> None:
    """Write an instance as a one-line JSON header plus a Matrix Market body.

    The header carries the spec (when present), dimensions, and the dense
    arrays ``b`` and ``W``; the body stores ``A``.  All reals keep 17
    significant digits, enough for an exact float64 round trip.
    """
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "N": lp.N,
        "n": lp.n,
        "b": lp.b.tolist(),
        "weights": None if lp.weights is None else lp.weights.tolist(),
        "spec": None if lp.spec is None else asdict(lp.spec),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii"))
        fh.write(b"\n")
        mmwrite(fh, sparse.coo_array(lp.A), precision=17)


def load_problem(path) -> LassoProblem:
    """Read an instance written by :func:`save_problem`."""
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            header = json.loads(first.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: not a problem file (bad header): {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: not a problem file (header is not a JSON object)")
        if header.get("format") != _FORMAT_NAME:
            raise ValueError(f"{path}: unrecognized format {header.get('format')!r}")
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
        A = sparse.csc_array(mmread(io.BytesIO(fh.read())))
    missing = [key for key in ("N", "n", "b") if key not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    if A.shape != (header["N"], header["n"]):
        raise ValueError(f"{path}: matrix shape {A.shape} disagrees with header")
    spec_doc = header.get("spec")
    try:
        spec = None if spec_doc is None else LassoSpec(**spec_doc)
        return LassoProblem.build(A, header["b"], weights=header.get("weights"), spec=spec)
    except TypeError as exc:  # a field of the wrong JSON type, or an unknown spec key
        raise ValueError(f"{path}: bad header: {exc}") from exc
