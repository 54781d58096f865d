import numpy as np
import pytest

from fistakit import Box, CompositeProblem, Metric, SmoothPart, WeightedL1, Zero


def make_quadratic(Q, c, metric_diag=None, nonsmooth=None, constraint=None):
    """Problem with h(x) = 0.5 (x-c)' Q (x-c) for a symmetric PSD Q.

    Defaults the metric to Gershgorin row sums of |Q|, which dominates Q.
    """
    Q = np.asarray(Q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = c.size

    def value(x):
        d = x - c
        return 0.5 * float(d @ Q @ d)

    def grad(x):
        return Q @ (x - c)

    if metric_diag is None:
        metric_diag = np.abs(Q).sum(axis=1)
    return CompositeProblem(
        smooth=SmoothPart(value=value, grad=grad, dim=n),
        nonsmooth=Zero() if nonsmooth is None else nonsmooth,
        metric=Metric(metric_diag),
        constraint=constraint,
    )


def random_spd(rng, n, cond=10.0):
    """Random symmetric positive definite matrix with roughly the given conditioning."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = np.geomspace(1.0, cond, n)
    return (basis * evals) @ basis.T


class CountingMatrix:
    """Matrix wrapper that counts products with it and with its transpose."""

    def __init__(self, M, tally):
        self.M = M
        self.tally = tally

    @property
    def shape(self):
        return self.M.shape

    @property
    def T(self):
        return CountingMatrix(self.M.T, self.tally)

    def __matmul__(self, x):
        self.tally[0] += 1
        return self.M @ x


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
    box = problem.feasible_box
    return x if box is None else box.clip(x)


def problem_zoo(rng, n=6):
    """Representative problems covering the shipped nonsmooth/constraint family."""
    Q = random_spd(rng, n, cond=30.0)
    c = rng.standard_normal(n)
    w = rng.uniform(0.0, 0.5, n)
    box = Box(-0.5 * np.ones(n), 0.8 * np.ones(n))
    from fistakit import BoxIndicator

    return [
        make_quadratic(Q, c),
        make_quadratic(Q, c, nonsmooth=WeightedL1(w)),
        make_quadratic(Q, c, nonsmooth=BoxIndicator(box)),
        make_quadratic(Q, c, nonsmooth=WeightedL1(w), constraint=box),
    ]
