import dataclasses
import json
import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fistakit import (
    Box,
    BoxIndicator,
    CompositeProblem,
    LassoSpec,
    LeastSquares,
    Metric,
    ProxCounter,
    SmoothPart,
    WeightedL1,
    Zero,
    composite_gradient_map,
    fista,
    generate,
    model,
    objective,
)
from fistakit.cli import ExperimentConfig

from conftest import (check_descent_lemma, count_kernel_calls, make_quadratic, problem_zoo,
                      random_spd, sample_feasible, soft_threshold)


def one_dim_problem(curvature=1.0, center=0.0, metric=1.0, nonsmooth=None, constraint=None):
    return make_quadratic([[curvature]], [center], metric_diag=[metric], nonsmooth=nonsmooth,
                          constraint=constraint)


def zero_smooth(n):
    """The smooth part ``h = 0`` on ``n`` coordinates."""
    return SmoothPart.from_least_squares(np.zeros((1, n)), np.zeros(1))


def grid_prox_1d(psi, grad_val, y, metric, lo=-10.0, hi=10.0, step=1e-5):
    """Dense grid search for argmin psi(x) + grad*(x - y) + 0.5*metric*(x - y)^2."""
    xs = np.arange(lo, hi + step, step)
    vals = psi(xs) + grad_val * (xs - y) + 0.5 * metric * (xs - y) ** 2
    return xs[np.argmin(vals)]


class TestSoftThreshold:
    def test_basic(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_tie_maps_to_exact_zero(self):
        assert soft_threshold(1.0, 1.0) == 0.0
        assert soft_threshold(-2.5, 2.5) == 0.0

    def test_vectorized(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.0]), np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(out, [2.0, 0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(-1e6, 1e6),
        lam=st.floats(0.0, 1e6),
    )
    def test_shrinkage_properties(self, t, lam):
        out = float(soft_threshold(t, lam))
        # moves toward zero by at most lam (up to rounding at |t|), never
        # crosses it
        assert abs(out) <= abs(t)
        assert abs(t - out) <= lam + 4 * np.finfo(float).eps * abs(t)
        assert out * t >= 0.0


class TestMetric:
    def test_rejects_degenerate_entries(self):
        for bad in ([0.0], [-1.0], [np.inf], [np.nan], []):
            with pytest.raises(ValueError):
                Metric(bad)

    def test_identity_dual_norm(self):
        m = Metric([1.0, 1.0])
        assert m.dual_norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_scaled_dual_norm(self):
        assert Metric([4.0]).dual_norm([2.0]) == pytest.approx(1.0)

    def test_dual_norm_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Metric([1.0, 2.0]).dual_norm([1.0])

    def test_dual_of_scaled_vector_is_primal_norm(self, rng):
        # ||R x||_* == ||x||_R, an algebraic identity.
        for _ in range(20):
            diag = rng.uniform(0.1, 10.0, 8)
            m = Metric(diag)
            x = rng.standard_normal(8)
            assert m.dual_norm(diag * x) == pytest.approx(m.norm(x), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(0.01, 100.0),
                st.floats(-100.0, 100.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_norm_product_dominates_euclidean(self, data):
        diag = np.array([d for d, _ in data])
        x = np.array([v for _, v in data])
        m = Metric(diag)
        # Cauchy-Schwarz: ||x||_R * ||x||_* >= ||x||_2^2.  Float error is
        # relative in the normal range but absolute among subnormals, where
        # rounding d x^2 and x^2 / d loses up to about tiny (d + 1/d) / 2 per
        # entry; the absolute term is below 1e-320 and changes nothing for
        # normal-range inputs.
        lhs = m.norm(x) * m.dual_norm(x)
        rhs = float(x @ x)
        tiny = np.finfo(float).smallest_subnormal
        assert lhs >= rhs * (1 - 1e-9) - tiny * float(np.sum(diag + 1.0 / diag))

    def test_diag_is_readonly(self):
        m = Metric([1.0, 2.0])
        with pytest.raises(ValueError):
            m.diag[0] = 3.0


class TestBox:
    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_intersection_emptiness_is_construction_error(self):
        with pytest.raises(ValueError):
            CompositeProblem(
                smooth=zero_smooth(1),
                nonsmooth=BoxIndicator(Box([2.0], [3.0])),
                metric=Metric([1.0]),
                constraint=Box([0.0], [1.0]),
            )

    def test_infinite_bounds(self):
        b = Box([-np.inf], [0.0])
        assert b.contains([-100.0])
        assert not b.contains([0.1])


class TestCompositeGradientMap:
    def test_exact_curvature_lands_at_minimum(self):
        prob = one_dim_problem()
        step = composite_gradient_map(prob, np.array([5.0]))
        assert step.y_plus[0] == pytest.approx(0.0, abs=1e-15)
        assert step.g[0] == pytest.approx(5.0)
        assert step.g_dual_norm == pytest.approx(5.0)

    def test_zero_at_optimum(self, rng):
        # g vanishes exactly at a minimizer, for every shipped prox kind.
        prob = one_dim_problem(center=3.0, nonsmooth=WeightedL1([1.0]))
        step = composite_gradient_map(prob, np.array([2.0]))  # known minimizer
        assert step.g_dual_norm <= 1e-10

        Q = random_spd(rng, 5)
        c = rng.standard_normal(5)
        prob2 = make_quadratic(Q, c)
        step2 = composite_gradient_map(prob2, c)
        assert step2.g_dual_norm <= 1e-10

    def test_soft_threshold_case_against_grid(self):
        # h(x) = 0.5 (x-3)^2, psi = |x|, y = 0: closed form gives 2.
        prob = one_dim_problem(center=3.0, nonsmooth=WeightedL1([1.0]))
        step = composite_gradient_map(prob, np.array([0.0]))
        assert step.y_plus[0] == pytest.approx(2.0, abs=1e-12)
        assert step.g[0] == pytest.approx(-2.0, abs=1e-12)
        best = grid_prox_1d(np.abs, grad_val=-3.0, y=0.0, metric=1.0)
        assert step.y_plus[0] == pytest.approx(best, abs=1e-4)

    @pytest.mark.parametrize("kind", ["zero", "l1", "box"])
    def test_closed_forms_match_grid_search(self, kind, rng):
        for _ in range(10):
            curv = rng.uniform(0.2, 3.0)
            center = rng.uniform(-3.0, 3.0)
            metric = curv + rng.uniform(0.0, 2.0)
            y = rng.uniform(-4.0, 4.0)
            if kind == "zero":
                nonsmooth, psi = None, lambda x: np.zeros_like(x)
            elif kind == "l1":
                w = rng.uniform(0.0, 2.0)
                nonsmooth, psi = WeightedL1([w]), lambda x, w=w: w * np.abs(x)
            else:
                lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
                box = Box([lo], [hi])
                nonsmooth = BoxIndicator(box)
                psi = lambda x, lo=lo, hi=hi: np.where((x >= lo) & (x <= hi), 0.0, np.inf)
            prob = one_dim_problem(curvature=curv, center=center, metric=metric,
                                   nonsmooth=nonsmooth)
            grad_val = curv * (y - center)
            step = composite_gradient_map(prob, np.array([y]))
            best = grid_prox_1d(psi, grad_val, y, metric)
            assert step.y_plus[0] == pytest.approx(best, abs=1e-4)

    def test_g_reconstructible_and_feasible(self, rng):
        for prob in problem_zoo(rng):
            y = rng.standard_normal(prob.dim) * 3.0
            step = composite_gradient_map(prob, y)
            expected = prob.metric.diag * (y - step.y_plus)
            assert np.array_equal(step.g, expected)
            box = prob.feasible_box
            if box is not None:
                assert box.contains(step.y_plus)
            assert math.isfinite(objective(prob, step.y_plus))

    def test_dimension_mismatch_rejected(self):
        prob = one_dim_problem()
        with pytest.raises(ValueError):
            composite_gradient_map(prob, np.array([1.0, 2.0]))

    def test_non_finite_input_rejected(self):
        prob = one_dim_problem()
        with pytest.raises(ValueError):
            composite_gradient_map(prob, np.array([np.nan]))

    def test_non_finite_gradient_rejected(self):
        sm = dataclasses.replace(zero_smooth(1), grad=lambda x: np.array([np.inf]))
        prob = CompositeProblem(smooth=sm, nonsmooth=Zero(), metric=Metric([1.0]))
        with pytest.raises(ValueError):
            composite_gradient_map(prob, np.array([0.0]))

    def test_counter_increments(self):
        prob = one_dim_problem()
        counter = ProxCounter()
        composite_gradient_map(prob, np.array([1.0]), counter)
        composite_gradient_map(prob, np.array([2.0]), counter)
        assert counter.count == 2

    def test_overflowing_l1_threshold_maps_finite_points_to_zero(self):
        # w / R overflows to +inf, the exact limit of the threshold, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = CompositeProblem(smooth=zero_smooth(1), nonsmooth=WeightedL1([1e300]),
                                    metric=Metric([5e-324]))
            for y in (3.0, -1e308, 5e-324):
                step = composite_gradient_map(prob, np.array([y]))
                assert step.y_plus[0] == 0.0 and not np.signbit(step.y_plus[0])


class TestObjective:
    def test_zero_nonsmooth_at_origin(self):
        prob = one_dim_problem()
        assert objective(prob, np.array([0.0])) == 0.0

    def test_weighted_l1_sum(self):
        prob = CompositeProblem(smooth=zero_smooth(2), nonsmooth=WeightedL1([1.0, 2.0]),
                                metric=Metric([1.0, 1.0]))
        assert objective(prob, np.array([1.0, -1.0])) == pytest.approx(3.0)

    def test_indicator_outside_is_infinite(self):
        prob = one_dim_problem(nonsmooth=BoxIndicator(Box([0.0], [1.0])))
        assert objective(prob, np.array([2.0])) == np.inf
        assert objective(prob, np.array([0.5])) == pytest.approx(0.125)

    def test_constraint_violation_is_infinite(self):
        prob = one_dim_problem(constraint=Box([0.0], [1.0]))
        assert objective(prob, np.array([2.0])) == np.inf


def lsq_problem(nonsmooth, metric=(4.0, 2.0)):
    """Two-dimensional problem with a least-squares smooth part."""
    A = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    return CompositeProblem(smooth=SmoothPart.from_least_squares(A, np.ones(3)),
                            nonsmooth=nonsmooth, metric=Metric(metric))


EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
               1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)), max_size=50))
def test_all_finite_agrees_with_isfinite_all(values):
    v = np.array(values, dtype=np.float64)
    assert model._all_finite(v) == bool(np.isfinite(v).all())


THRESHOLDS = [0.0, 5e-324, 2.2e-308, 1.0, 1e308, np.finfo(np.float64).max]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)),
    st.one_of(st.sampled_from(THRESHOLDS), st.floats(0.0, allow_infinity=False)),
), min_size=1, max_size=50))
def test_soft_threshold_clip_form_equals_sign_form(pairs):
    # t - clip(t, -lam, lam) has the value of sign(t) * max(|t| - lam, 0) on every
    # entry, NaN for NaN, and raises no warning; inside [-lam, lam] it gives +0,
    # except that t = -0 may stay -0 at lam = 0.
    t, lam = (np.array(column, dtype=np.float64) for column in zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = soft_threshold(t, lam)
    sign_form = np.sign(t) * np.maximum(np.abs(t) - lam, 0.0)
    assert np.array_equal(out, sign_form, equal_nan=True)
    inside = (np.abs(t) <= lam) & ~(np.signbit(t) & (lam == 0.0))
    assert not np.signbit(out[inside]).any()


def prox_sign_form(problem, y, grad):
    """Reference composite gradient map: the sign-form shrink, then ``np.clip``."""
    diag = problem.metric.diag
    u = y - grad / diag
    if isinstance(problem.nonsmooth, WeightedL1):
        lam = problem.nonsmooth.weights / diag
        u = np.sign(u) * np.maximum(np.abs(u) - lam, 0.0)
    box = problem.feasible_box
    if box is not None:
        u = np.clip(u, box.lower, box.upper)
    g = diag * (y - u)
    return u, g, math.sqrt(np.dot(g / diag, g))


POINT_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                          st.floats(-1e6, 1e6))
BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, -np.inf, np.inf]), st.floats(-1e3, 1e3))


@st.composite
def prox_cases(draw, kind):
    """A problem of ``kind`` with a point ``y`` and a gradient at it, all drawn."""
    n = draw(st.integers(1, 8))
    y = np.array(draw(st.lists(POINT_ENTRIES, min_size=n, max_size=n)))
    grad = np.array(draw(st.lists(POINT_ENTRIES, min_size=n, max_size=n)))
    diag = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    nonsmooth, constraint = Zero(), None
    if kind in ("l1", "l1-box"):
        weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                                min_size=n, max_size=n))
        nonsmooth = WeightedL1(weights)
    if kind in ("box", "l1-box"):
        ends = [sorted(draw(st.lists(BOUNDS, min_size=2, max_size=2))) for _ in range(n)]
        box = Box([lo for lo, _ in ends], [hi for _, hi in ends])
        if kind == "box":
            nonsmooth = BoxIndicator(box)
        else:
            constraint = box
    problem = CompositeProblem(smooth=zero_smooth(n), nonsmooth=nonsmooth, metric=Metric(diag),
                               constraint=constraint)
    return problem, y, grad


@pytest.mark.parametrize("kind", ["l1", "zero", "box", "l1-box"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prox_equals_the_sign_form_prox(kind, data):
    problem, y, grad = data.draw(prox_cases(kind))
    step = composite_gradient_map(problem, y, grad=grad)
    y_plus, g, g_dual_norm = prox_sign_form(problem, y, grad)
    # Equal values; a zero entry may differ in sign, which no later value sees.
    assert np.array_equal(step.y_plus, y_plus)
    assert np.array_equal(step.g, g)
    assert step.g_dual_norm == g_dual_norm


class TestCheckedInput:
    """The prox and the objective reject bad input on every path the FISTA loop takes."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda p: composite_gradient_map(p, [np.nan, 0.0]),
                     "y contains non-finite", id="y-nan"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, -np.inf]),
                     "y contains non-finite", id="y-inf"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, np.nan]),
                     "y contains non-finite", id="y-nan-last"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, 0.0], grad=[np.nan, 0.0]),
                     "gradient is non-finite", id="grad-nan"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, 0.0], grad=[0.0, np.inf]),
                     "gradient is non-finite", id="grad-inf"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, 0.0], grad=[0.0, -np.inf]),
                     "gradient is non-finite", id="grad-minus-inf"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, 0.0], grad=[0.0, np.nan]),
                     "gradient is non-finite", id="grad-nan-last"),
        pytest.param(lambda p: composite_gradient_map(p, [0.0, 0.0], grad=[0.0, 0.0, 0.0]),
                     "gradient shape", id="grad-shape"),
        pytest.param(lambda p: objective(p, [0.0, np.nan]),
                     "x contains non-finite", id="x-nan"),
        pytest.param(lambda p: objective(p, [0.0, np.nan], residual=np.zeros(3)),
                     "x contains non-finite", id="x-nan-residual"),
    ])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(lsq_problem(WeightedL1([0.1, 0.2])))

    @pytest.mark.parametrize("nonsmooth", [
        lambda: WeightedL1([0.1, 0.2]),
        Zero,
        lambda: BoxIndicator(Box([-1e308, -1e308], [1e308, 1e308])),
    ], ids=["l1", "zero", "box"])
    def test_huge_finite_entries_accepted(self, nonsmooth):
        # Entries near the float64 limit are finite and pass both checks without a
        # warning (pytest turns warnings into errors); the large metric keeps the
        # step itself in range.
        prob = lsq_problem(nonsmooth(), metric=(1e300, 1e300))
        y = np.array([1e308, -1e308])
        step = composite_gradient_map(prob, y, grad=[1e308, -1e308])
        assert np.array_equal(step.y_plus, y)
        assert step.g_dual_norm == 0.0
        assert math.isfinite(objective(prob, y, residual=np.zeros(3)))

    @pytest.mark.parametrize("carried", [False, True])
    def test_objective_infinite_outside_indicator(self, carried):
        prob = lsq_problem(BoxIndicator(Box([-1.0, -1.0], [1.0, 1.0])))
        for x in ([2.0, 0.0], [0.0, -1.5]):
            x = np.array(x)
            residual = prob.smooth.least_squares.residual(x) if carried else None
            assert objective(prob, x, residual=residual) == math.inf
        inside = np.array([0.5, -0.5])
        assert math.isfinite(objective(prob, inside))

    @pytest.mark.parametrize("nonsmooth", [
        lambda: WeightedL1([0.1, 0.2]),
        Zero,
        lambda: BoxIndicator(Box([-1.0, -1.0], [1.0, 1.0])),
    ], ids=["l1", "zero", "box"])
    def test_replaced_metric_gives_the_fresh_prox(self, nonsmooth):
        # Derived data of a problem follows a metric swapped in by dataclasses.replace.
        other = (0.05, 9.0)
        replaced = dataclasses.replace(lsq_problem(nonsmooth()), metric=Metric(other))
        fresh = lsq_problem(nonsmooth(), metric=other)
        y = np.array([0.3, -0.8])
        got, want = composite_gradient_map(replaced, y), composite_gradient_map(fresh, y)
        assert np.array_equal(got.y_plus, want.y_plus)
        assert np.array_equal(got.g, want.g)
        assert got.g_dual_norm == want.g_dual_norm


def with_index_dtype(M, dtype):
    """``M`` with its index arrays cast to ``dtype`` (scipy picks int32 when they fit)."""
    M = M.copy()
    M.indices = M.indices.astype(dtype)
    M.indptr = M.indptr.astype(dtype)
    return M


def sparse_with_empty_lines(fmt):
    """A 7x5 matrix with an empty row and an empty column."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.6)
    dense[2, :] = 0.0
    dense[:, 3] = 0.0
    return sparse.csc_array(dense) if fmt == "csc" else sparse.csr_array(dense)


class TestLeastSquaresKernel:
    """``A x`` and ``A^T r`` run scipy's compiled kernels on the form's float64 CSC copy of ``A``."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("matrix", [
        pytest.param(lambda: sparse_with_empty_lines("csc"), id="csc-empty-lines"),
        pytest.param(lambda: sparse_with_empty_lines("csr"), id="csr-empty-lines"),
        pytest.param(lambda: sparse.csc_array(np.array([[-2.5]])), id="csc-1x1"),
        pytest.param(lambda: sparse.csr_array(np.array([[0.0]])), id="csr-1x1-empty"),
    ])
    def test_products_bit_identical_to_matmul(self, monkeypatch, matrix, index_dtype):
        A = with_index_dtype(matrix(), index_dtype)
        assert A.indices.dtype == index_dtype
        N, n = A.shape
        rng = np.random.default_rng(5)
        b, x, r = rng.standard_normal(N), rng.standard_normal(n), rng.standard_normal(N)
        tally = count_kernel_calls(monkeypatch)
        form = LeastSquares(A, b)
        assert np.array_equal(form.residual(x), A @ x - b)
        assert np.array_equal(form.grad_at_residual(r), (A.T @ r) / N)
        assert tally[0] == 2

    @pytest.mark.parametrize("fmt", ["csc", "csr"])
    @pytest.mark.parametrize("product", ["residual", "grad_at_residual"])
    def test_bad_vector_rejected_before_the_kernel(self, monkeypatch, fmt, product):
        A = sparse_with_empty_lines(fmt)
        size = A.shape[1] if product == "residual" else A.shape[0]

        def kernel_must_not_run(*args):
            raise AssertionError("kernel called")

        # The form takes its kernels when it is built.
        monkeypatch.setattr(model, "_sparsetools", types.SimpleNamespace(
            csr_matvec=kernel_must_not_run, csc_matvec=kernel_must_not_run))
        form = LeastSquares(A, np.ones(A.shape[0]))
        for bad in (np.ones(size - 1), np.ones(size + 1), np.ones((size, 1)),
                    np.ones((1, size)), [1.0] * (size + 1), [[1.0] * size]):
            with pytest.raises(ValueError, match="vector has shape"):
                getattr(form, product)(bad)

    def test_non_contiguous_vector_accepted(self):
        A = sparse_with_empty_lines("csc")
        form = LeastSquares(A, np.zeros(7))
        x = np.arange(10.0)[::2]
        r = np.arange(14.0)[::2]
        assert not x.flags.c_contiguous
        assert np.array_equal(form.residual(x), A @ x)
        assert np.array_equal(form.grad_at_residual(r), (A.T @ r) / 7)

    @pytest.mark.parametrize("matrix", [
        pytest.param(lambda A: A, id="csc"),
        pytest.param(lambda A: A.tocsr(), id="csr"),
        pytest.param(lambda A: A.tocoo(), id="coo"),
        pytest.param(lambda A: sparse.csr_matrix(A), id="csr-matrix"),
        pytest.param(lambda A: A.toarray(), id="dense"),
        pytest.param(lambda A: A.astype(np.float32), id="float32"),
        pytest.param(lambda A: A.toarray().astype(np.float32), id="float32-dense"),
    ])
    def test_products_are_those_of_the_csc_copy(self, monkeypatch, matrix):
        # The gate reads the copy: its support product is on exactly when
        # the copy stores at least _SUPPORT_MIN_NNZ entries (all finite here).
        A = matrix(sparse_with_empty_lines("csc"))
        want = sparse.csc_array(A, dtype=np.float64)
        x, r = np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 7)
        x[1] = 0.0
        for min_nnz in (0, want.nnz, want.nnz + 1):
            monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", min_nnz)
            form = LeastSquares(A, np.ones(7))
            assert (form._support is not None) == (want.nnz >= min_nnz)
            assert form.A.format == "csc" and form.A.dtype == np.float64
            assert same_bits(form.A.toarray(), want.toarray())
            for _ in range(3):  # the support product's miss, rebuild and hit
                assert same_bits(form.residual(x), want @ x - 1.0)
            assert same_bits(form.grad_at_residual(r), (want.T @ r) / 7)

    def test_non_matrix_rejected(self):
        class MatmulOnly:  # supports @ but is no array
            shape = (2, 2)

            def __matmul__(self, x):
                return x

        for A in (MatmulOnly(), np.ones(2), np.ones((2, 2, 1))):
            with pytest.raises(ValueError):
                LeastSquares(A, np.ones(2))

    def test_generated_instance_takes_the_kernel(self, monkeypatch):
        # Fails, rather than silently slowing down, if the private kernel goes.
        tally = count_kernel_calls(monkeypatch)
        lp = generate(LassoSpec(N=60, n=80, alpha=0.01, sparsity=0.9, seed=1000))
        res = fista(lp.problem, np.zeros(lp.n), budget=50)
        # A z, then per prox A^T r_y and A x for the point it returns.
        assert tally[0] == 2 * (res.n + 1) + 1


def support_path(form, x):
    """``form.residual(x)`` and the path its support product took: hit, miss or rebuild."""
    before = form._support._memo
    r = form.residual(x)
    after = form._support._memo
    path = "hit" if after is before else "miss" if after[0] is before[0] else "rebuild"
    return r, path


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Finite entries of A, stored zeros and extremes included.
MATRIX_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=64))
# Nonzero entries of x.
SUPPORT_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5]),
    st.floats(width=64).filter(lambda v: v != 0.0))


@st.composite
def csc_and_supports(draw):
    """A random finite CSC ``A`` and a list of supports, the first nonempty."""
    N, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    stored = draw(st.lists(st.booleans(), min_size=N * n, max_size=N * n))
    rows, cols = np.divmod(np.flatnonzero(stored), n)
    data = draw(st.lists(MATRIX_VALUES, min_size=rows.size, max_size=rows.size))
    A = sparse.csc_array((np.array(data, dtype=np.float64), (rows, cols)), shape=(N, n))
    supports = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                             min_size=1, max_size=4))
    supports[0][draw(st.integers(0, n - 1))] = True
    return A, supports


@st.composite
def point_on(draw, support):
    """A point whose nonzero entries are exactly ``support``; +0 or -0 elsewhere."""
    return np.array([draw(SUPPORT_VALUES) if on else draw(st.sampled_from([0.0, -0.0]))
                     for on in support])


class TestSupportProduct:
    """``A x`` of a large finite float64 CSC ``A`` over the cached support of ``x``."""

    @settings(max_examples=200, deadline=None)
    @given(case=csc_and_supports(), data=st.data())
    def test_every_path_has_the_bits_of_the_full_product(self, case, data):
        A, supports = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SUPPORT_MIN_NNZ", 0)
            form = LeastSquares(A, np.zeros(A.shape[0]))
        assert form._support is not None
        paths = set()
        # Three points per support: the first misses unless the support is
        # cached, the second (same support) rebuilds the cache, the third hits.
        for support in supports:
            for _ in range(3):
                x = data.draw(point_on(support))
                got, path = support_path(form, x)
                paths.add(path)
                assert same_bits(got, A @ x - form.b), (x, path)
        assert paths == {"hit", "miss", "rebuild"}

    def test_support_that_changes_every_step_costs_no_rebuild(self, monkeypatch):
        monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", 0)
        A = sparse.csc_array(np.arange(1.0, 13.0).reshape(3, 4))
        form = LeastSquares(A, np.zeros(3))
        points = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 1.0, 0],
                  [0, 0, 2.0, 0], [0, 0, -0.0, 0], [1.0, 0, 0, 0]]
        paths = [support_path(form, np.array(x))[1] for x in points]
        assert paths == ["miss", "miss", "miss", "rebuild", "hit", "hit", "miss"]

    @pytest.mark.parametrize("matrix", [
        pytest.param(lambda A: A, id="inf-in-data"),
        pytest.param(lambda A: A.astype(np.float32), id="float32"),
        pytest.param(lambda A: A.toarray(), id="dense"),
        pytest.param(lambda A: A.tocsr(), id="csr"),
    ])
    def test_gate_keeps_the_full_product(self, monkeypatch, matrix):
        monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", 0)
        base = sparse_with_empty_lines("csc")
        base.data[0] = np.inf
        A = matrix(base)
        form = LeastSquares(A, np.ones(7))
        assert form._support is None
        x = np.linspace(-1.0, 1.0, 5)
        x[0] = 0.0  # inf * 0 gives NaN in the rows of column 0's inf
        got = form.residual(x)
        assert np.isnan(got).any()
        assert same_bits(got, sparse.csc_array(A, dtype=np.float64) @ x - 1.0)

    def test_large_finite_csc_takes_the_support_product(self, monkeypatch):
        A = sparse_with_empty_lines("csc")
        monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", A.nnz + 1)
        assert LeastSquares(A, np.ones(7))._support is None
        monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", A.nnz)
        assert LeastSquares(A, np.ones(7))._support is not None

    def test_gate_splits_the_benchmark_workloads(self):
        # Desk and lsq-strict keep the full product, the paper-scale slice
        # takes the support product; see the workloads' "why" entries.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
        workloads = json.loads(path.read_text())["workloads"]
        for name in ("desk", "lsq-strict"):
            spec = workloads[name]
            for seed in (spec["default_seed"], spec["holdout_seed"]):
                config = ExperimentConfig(**spec["config"], seed=seed)
                for trial in range(config.trials):
                    form = config.instance(trial).problem.smooth.least_squares
                    assert form._support is None, (name, trial)
        paper = ExperimentConfig(**workloads["paper"]["config"])
        assert (paper.N, paper.n, paper.sparsity) == (600, 800, 0.9)
        assert paper.instance(0).problem.smooth.least_squares._support is not None


class TestCompositeGradientProperties:
    def test_three_forms_agree_and_bound_holds(self, rng):
        # f(y+) - f(x) <= <g, y+ - x> + 0.5||g||*^2, and the two rewritings
        # of that right-hand side are the same quantity.
        for prob in problem_zoo(rng):
            m = prob.metric
            for _ in range(25):
                y = 3.0 * rng.standard_normal(prob.dim)
                x = sample_feasible(rng, prob)
                step = composite_gradient_map(prob, y)
                g = step.g
                gsq = m.dual_norm(g) ** 2
                a = float(g @ (step.y_plus - x)) + 0.5 * gsq
                b = float(g @ (y - x)) - 0.5 * gsq
                c = 0.5 * m.norm(y - x) ** 2 - 0.5 * m.norm(step.y_plus - x) ** 2
                scale = max(1.0, abs(a), abs(b), abs(c))
                assert abs(a - b) <= 1e-9 * scale
                assert abs(a - c) <= 1e-9 * scale
                lhs = objective(prob, step.y_plus) - objective(prob, x)
                assert lhs <= a + 1e-9 * scale

    def test_feasible_point_decrease(self, rng):
        # 0.5 ||g(y)||*^2 <= f(y) - f(y+) for feasible y.
        for prob in problem_zoo(rng):
            for _ in range(25):
                y = sample_feasible(rng, prob)
                step = composite_gradient_map(prob, y)
                decrease = objective(prob, y) - objective(prob, step.y_plus)
                scale = max(1.0, abs(objective(prob, y)))
                assert 0.5 * step.g_dual_norm**2 <= decrease + 1e-9 * scale

    def test_small_gradient_implies_small_gap(self, rng):
        # Property-1 consequence: f(y+) - f* <= <g, y - x*> - 0.5||g||*^2
        #                                   <= ||g||_* ||y - x*||_R.
        Q = random_spd(rng, 6)
        c = rng.standard_normal(6)
        prob = make_quadratic(Q, c)
        f_star = objective(prob, c)
        for near in [c + 1e-7 * rng.standard_normal(6), c + 1e-5 * rng.standard_normal(6)]:
            step = composite_gradient_map(prob, near)
            gap = objective(prob, step.y_plus) - f_star
            bound = step.g_dual_norm * prob.metric.norm(near - c)
            assert gap <= bound + 1e-12


class TestDiagnostics:
    def test_descent_lemma_holds_for_dominating_metric(self, rng):
        Q = random_spd(rng, 5)
        prob = make_quadratic(Q, np.zeros(5))
        assert check_descent_lemma(prob, rng, samples=40) == 0.0

    def test_descent_lemma_flags_undersized_metric(self, rng):
        Q = random_spd(rng, 5, cond=50.0)
        prob = make_quadratic(Q, np.zeros(5), metric_diag=1e-3 * np.ones(5))
        assert check_descent_lemma(prob, rng, samples=40) > 0.0
