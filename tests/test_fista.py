import dataclasses
import importlib
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fistakit import (
    Box,
    CompositeProblem,
    LassoSpec,
    LeastSquares,
    Metric,
    ProxCounter,
    RestartRun,
    Scheme,
    WeightedL1,
    Zero,
    composite_gradient_map,
    fista,
    generate,
    gradient_norm_below,
    model,
    objective,
    oracle_fstar,
    run_scheme,
)
from fistakit.cli import ExperimentConfig
from fistakit.fista import TSequence

from conftest import (checked_fista, count_fista_module_calls, count_kernel_calls, make_quadratic,
                      problem_zoo)


def ill_conditioned_quadratic(cond=200.0):
    # Mismatched metric (identity) versus an anisotropic curvature makes
    # the momentum overshoot and the objective oscillate.
    Q = np.diag([1.0, 1.0 / cond])
    return make_quadratic(Q, np.array([0.0, 0.0]), metric_diag=np.ones(2))


class TestTSequence:
    def test_first_values(self):
        ts = TSequence.generate(3)
        assert ts[0] == 1.0
        assert ts[1] == pytest.approx((1 + math.sqrt(5)) / 2)
        assert ts[2] == pytest.approx(0.5 * (1 + math.sqrt(1 + 4 * ts[1] ** 2)))

    def test_identity_and_growth_small_range(self):
        ts = TSequence.generate(10_000)
        lhs = ts[:-1] ** 2
        rhs = ts[1:] ** 2 - ts[1:]
        assert np.max(np.abs(lhs - rhs) / lhs) <= 1e-12
        k = np.arange(ts.size)
        assert np.all(ts >= (k + 2) / 2)

    def test_stepping_matches_generate(self):
        ts = TSequence()
        expected = TSequence.generate(50)
        for k in range(1, 51):
            ts.step()
            assert ts.t_curr == expected[k]
            assert ts.t_prev == expected[k - 1]

    def test_momentum_is_zero_at_first_step(self):
        ts = TSequence()
        ts.step()
        assert ts.momentum == 0.0


class TestFistaBasics:
    def test_exact_curvature_converges_in_one_iteration(self):
        prob = make_quadratic(np.array([[1.0]]), np.array([0.0]), metric_diag=[1.0])
        res = fista(prob, np.array([7.0]), exit_condition=gradient_norm_below(1e-9), budget=10)
        assert abs(res.x[0]) <= 1e-9
        assert res.n == 1
        assert not res.aborted and not res.exhausted

    def test_prox_call_accounting(self):
        prob = ill_conditioned_quadratic()
        counter = ProxCounter()
        res = fista(prob, np.array([5.0, 5.0]), budget=37, counter=counter)
        assert res.exhausted
        assert res.n == 37
        assert counter.count == res.n + 1

    def test_f_history_shape(self):
        prob = ill_conditioned_quadratic()
        z = np.array([5.0, 5.0])
        res = fista(prob, z, budget=20)
        hist = res.f_history
        assert len(hist) == res.n + 1
        assert hist[0] == objective(prob, composite_gradient_map(prob, z).y_plus)

    def test_k_min_respected(self):
        prob = ill_conditioned_quadratic()
        always = lambda *step: True
        res = fista(prob, np.array([5.0, 5.0]), k_min=9, exit_condition=always, budget=50)
        assert res.n == 9

    def test_exit_condition_first_evaluated_at_k1(self):
        prob = ill_conditioned_quadratic()
        seen = []

        def spy(k, f_history, prox, x_prev, x_k, r_x):
            seen.append(k)
            return False

        fista(prob, np.array([5.0, 5.0]), exit_condition=spy, budget=5)
        assert seen == [1, 2, 3, 4, 5]

    def test_exit_state_matches_the_step_it_follows(self):
        # The loop calls the test only from k = k_min on.
        problem = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000)).problem
        z = np.zeros(problem.dim)
        k_min, n_calls = 7, 12
        calls = []

        def record(k, f_history, prox, x_prev, x_k, r_x):
            calls.append((k, x_prev, x_k, prox, f_history[k], objective(problem, x_k),
                          f_history))
            return len(calls) == n_calls

        res = fista(problem, z, k_min=k_min, exit_condition=record, budget=100)
        assert [call[0] for call in calls] == list(range(k_min, k_min + n_calls))
        assert res.n == calls[-1][0] and res.x is calls[-1][2]
        for _, _, x_k, prox, f_k, f_fresh, f_history in calls:
            assert x_k is prox.y_plus
            assert f_k == f_fresh
            assert f_history is res.f_history
        for before, after in zip(calls, calls[1:]):
            assert after[1] is before[2]
        # The first test sees x_{k_min - 1}: the end point of a call whose budget stops there.
        assert np.array_equal(calls[0][1], fista(problem, z, budget=k_min - 1).x)

    def test_momentum_update_reconstructible(self):
        # x_k is the prox step at y_{k-1} = x_{k-1} + ((t_{k-2} - 1)/t_{k-1})
        # (x_{k-1} - x_{k-2}), rebuilt from the values passed to exit conditions.
        prob = ill_conditioned_quadratic()
        ts = TSequence.generate(30)
        iterates = []

        def check(k, f_history, prox, x_prev, x_k, r_x):
            if k >= 2:
                x1, x2 = iterates[-1], x_prev
                coeff = (ts[k - 2] - 1.0) / ts[k - 1]
                y = x2 + coeff * (x2 - x1)
                step = composite_gradient_map(prob, y)
                assert np.allclose(step.y_plus, x_k, rtol=0, atol=1e-14)
            iterates.append(x_prev.copy())
            return False

        res = fista(prob, np.array([5.0, 5.0]), exit_condition=check, budget=30)
        assert len(iterates) == res.n == 30

    def test_abort_at_initialization(self):
        prob = make_quadratic(np.array([[1.0]]), np.array([2.0]), metric_diag=[1.0])
        counter = ProxCounter()
        res = fista(prob, np.array([2.0]), abort_tol=1e-9, counter=counter, budget=10)
        assert res.aborted
        assert res.n == 0
        assert counter.count == 1
        assert res.init_g_dual_norm <= 1e-9
        assert res.x[0] == pytest.approx(2.0)

    def test_abort_mid_run_records_qualifying_norm(self):
        prob = ill_conditioned_quadratic(cond=5.0)
        res = fista(prob, np.array([4.0, 4.0]), abort_tol=1e-6, budget=10_000)
        assert res.aborted
        assert res.last_g_dual_norm <= 1e-6
        assert res.g_norms[-1] == res.last_g_dual_norm

    def test_budget_zero_returns_start(self):
        prob = ill_conditioned_quadratic()
        res = fista(prob, np.array([5.0, 5.0]), budget=0)
        assert res.exhausted and res.n == 0

    def test_invalid_arguments(self):
        prob = ill_conditioned_quadratic()
        with pytest.raises(ValueError):
            fista(prob, np.array([1.0, 1.0]), k_min=-1)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            fista(prob, np.array([1.0, 1.0]), budget=-1)
        with pytest.raises(ValueError):
            fista(prob, np.array([np.inf, 1.0]))
        for abort_tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="abort_tol must be >= 0"):
                fista(prob, np.array([1.0, 1.0]), abort_tol=abort_tol, budget=10)
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="eps must be > 0"):
                gradient_norm_below(eps)


@pytest.fixture(scope="module")
def traced_instances():
    # A few random underdetermined instances with their reference optima;
    # the acceptance suite runs the full 50-instance family.
    out = []
    for seed in range(3):
        lp = generate(LassoSpec(N=20, n=30, alpha=0.01, sparsity=0.5, seed=40 + seed))
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        res = fista(lp.problem, np.zeros(30), budget=400)
        out.append((lp, f_star, x_star, res))
    return out


class TestFistaConvergence:
    def test_objective_rate_bound(self, traced_instances):
        # f(x_k) - f* <= 2 ||x_0 - xbar_0||_R^2 / (k+1)^2 for k >= 1.
        for lp, f_star, x_star, res in traced_instances:
            x0 = composite_gradient_map(lp.problem, np.zeros(30)).y_plus
            dist = lp.metric.norm(x0 - x_star)
            for i, f_val in enumerate(res.f_history[1:]):
                k = i + 1
                bound = 2.0 * dist * dist / (k + 1) ** 2
                assert f_val - f_star <= bound * (1 + 1e-8) + 1e-12

    def test_gradient_rate_bound(self, traced_instances):
        # ||g(y_k)||_* <= 4 ||x_0 - xbar_0||_R / (k+2) for k >= 0.
        for lp, f_star, x_star, res in traced_instances:
            x0 = composite_gradient_map(lp.problem, np.zeros(30)).y_plus
            dist = lp.metric.norm(x0 - x_star)
            for i, g_val in enumerate(res.g_norms):
                # g_norms[i] was evaluated at y_i (iteration i + 1).
                bound = 4.0 * dist / (i + 2)
                assert g_val <= bound * (1 + 1e-8) + 1e-12

    def test_running_minimum_nonincreasing(self, traced_instances):
        for _, f_star, _, res in traced_instances:
            best = np.minimum.accumulate(res.f_history[1:])
            assert np.all(np.diff(best) <= 0.0)
            assert best[-1] >= f_star - 1e-12

    def test_no_exit_until_budget(self, traced_instances):
        for _, _, _, res in traced_instances:
            assert res.exhausted
            assert res.n == 400


def declared_instances():
    """A desk lasso, a box-constrained lasso, least squares and an l1-plus-box quadratic."""
    desk = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000))
    boxed = dataclasses.replace(desk.problem,
                                constraint=Box(-0.05 * np.ones(80), 0.05 * np.ones(80)))
    lsq = generate(LassoSpec(N=40, n=25, alpha=0.0, sparsity=0.5, seed=3, family="least-squares"))
    zoo = problem_zoo(np.random.default_rng(7))[3]
    return {"desk": desk.problem, "box": boxed, "least-squares": lsq.problem, "zoo": zoo}


def support_instance():
    """A lasso above the support product's gate, so ``A x`` takes the cached columns."""
    problem = generate(LassoSpec(N=100, n=200, alpha=0.01, sparsity=0.0, seed=7)).problem
    assert isinstance(problem.smooth._Ax, model._SupportProduct)
    return problem


def declared_problem(name):
    """``declared_instances()[name]``, or :func:`support_instance` for ``"support"``."""
    return support_instance() if name == "support" else declared_instances()[name]


def run_with(monkeypatch, solver, problem, run):
    """``run_scheme(problem, run)`` with ``solver`` in place of ``fistakit.restart.fista``."""
    with monkeypatch.context() as mp:
        mp.setattr(importlib.import_module("fistakit.restart"), "fista", solver)
        return run_scheme(problem, run)


class TestDeclaredLeastSquares:
    @pytest.mark.parametrize("name", ["desk", "box", "least-squares"])
    def test_both_forms_reach_eps_with_exact_prox_accounting(self, monkeypatch, name):
        # The fused loop and its checked reference, conftest.checked_fista.
        declared = declared_instances()[name]
        eps = 1e-9
        tight = RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(declared.dim),
                           budget=20_000)
        x_star = run_scheme(declared, tight).r_star
        for solver in (fista, checked_fista):
            for scheme in Scheme:
                for early in (True, False):
                    run = RestartRun(
                        scheme=scheme, epsilon=eps, r0=np.zeros(declared.dim),
                        early_exit=early,
                        x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None,
                        budget=20_000,
                    )
                    trace = run_with(monkeypatch, solver, declared, run).trace
                    label = f"{solver.__name__} {scheme.value} early_exit={early}"
                    assert not trace.exhausted, label
                    assert trace.final_g_norm <= eps, label
                    assert trace.total_prox_calls == (
                        trace.total_iterations + trace.calls + trace.outer_checks
                    ), label

    @pytest.mark.parametrize("name", ["desk", "box", "least-squares", "support"])
    def test_two_matvecs_per_prox(self, monkeypatch, name):
        # Built after the kernels are wrapped: a form binds them when it is built.
        tally = count_kernel_calls(monkeypatch)
        problem = declared_problem(name)
        res = fista(problem, np.zeros(problem.dim), budget=50)
        # A^T inside each prox (n + 1 per call), A x for the point it returns, plus A z.
        assert tally[0] == 2 * (res.n + 1) + 1
        tally[0] = 0
        carried = fista(problem, res.x, budget=50, residual=res.residual)
        assert tally[0] == 2 * (carried.n + 1)
        again = fista(problem, res.x, budget=50)
        assert again.f_history[1:] == carried.f_history[1:]

    @pytest.mark.parametrize("name", ["desk", "box", "least-squares", "support"])
    def test_restarts_carry_the_residual(self, monkeypatch, name):
        # Built after the kernels are wrapped: a form binds them when it is built.
        tally = count_kernel_calls(monkeypatch)
        problem = declared_problem(name)
        for scheme in (Scheme.FUNCTION, Scheme.LCR):
            for early in (True, False):
                tally[0] = 0
                run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(problem.dim),
                                 early_exit=early, budget=20_000)
                trace = run_scheme(problem, run).trace
                assert trace.calls > 2
                # f(r_0) at the start of the run and the first call's A r_0 come on top
                # of two per prox; an outer check needs only A^T.
                inner = trace.total_iterations + trace.calls
                assert tally[0] == 2 * inner + trace.outer_checks + 2


@pytest.mark.parametrize("name", ["desk", "box", "least-squares", "support"])
class TestStepBuffers:
    """Each step writes x_k and r_x into one new vector; nothing a call hands out changes."""

    def test_handed_out_vectors_keep_their_bits(self, name):
        # The exit test's x_prev, x_k and prox, and the returned x and residual,
        # across the rest of the call and a later call started from them.
        problem = declared_problem(name)
        seen = []

        def remember(k, f_history, prox, x_prev, x_k, r_x):
            seen.extend((v, v.copy()) for v in (x_prev, x_k, prox.y_plus, prox.g))
            return False

        res = fista(problem, np.zeros(problem.dim), exit_condition=remember, budget=30)
        seen.extend((v, v.copy()) for v in (res.x, res.residual))
        later = fista(problem, res.x, residual=res.residual, budget=30)
        run_scheme(problem, RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=res.x, budget=200))
        assert later.n == 30
        for v, copy in seen:
            assert v.tobytes() == copy.tobytes()
        form = problem.smooth
        assert res.residual.tobytes() == form.residual(res.x).tobytes()
        assert later.residual.tobytes() == form.residual(later.x).tobytes()

    @pytest.mark.parametrize("budget", [0, 1, 30])
    def test_x_and_residual_do_not_overlap(self, name, budget):
        problem = declared_problem(name)
        res = fista(problem, np.zeros(problem.dim), budget=budget)
        assert res.n == budget
        assert res.x.shape == (problem.dim,)
        assert res.residual.shape == problem.smooth.b.shape
        assert not np.shares_memory(res.x, res.residual)


class TestResidualArgument:
    def test_start_point_still_validated(self):
        problem = declared_instances()["least-squares"]
        with pytest.raises(ValueError, match="shape"):
            fista(problem, np.zeros(problem.dim + 1))
        bad = np.zeros(problem.dim)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fista(problem, bad)

    def test_bad_residual_rejected_before_the_kernel(self, monkeypatch):
        # The loop calls the kernels, which check no length, on the residuals it
        # carries; the caller's residual must be checked before any of them.
        def kernel_must_not_run(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(model, "_sparsetools", types.SimpleNamespace(
            csr_matvec=kernel_must_not_run, csc_matvec=kernel_must_not_run))
        problem = declared_instances()["least-squares"]
        N = problem.smooth.A.shape[0]
        for bad in (np.zeros(N - 1), np.zeros(N + 1), np.zeros((N, 1)), np.zeros((1, N))):
            with pytest.raises(ValueError, match="vector has shape"):
                fista(problem, np.zeros(problem.dim), residual=bad)

    def test_declared_width_must_match_dim(self):
        # The dimension is the form's width: a smooth part takes no other, and a
        # problem takes no smooth part that is not a least-squares form.
        smooth = LeastSquares(np.eye(3)[:, :2], np.zeros(3))
        assert smooth.dim == 2
        with pytest.raises(TypeError):
            LeastSquares(np.eye(3)[:, :2], np.zeros(3), dim=4)
        for other in (None, types.SimpleNamespace(value=smooth.value, grad=smooth.grad, dim=2)):
            with pytest.raises(TypeError, match="smooth part must be a LeastSquares"):
                CompositeProblem(smooth=other, nonsmooth=Zero(), metric=Metric(np.ones(2)))


# Entries of the data: signed zeros and subnormals beside ordinary values, and
# in about half the problems +-1e300, which mostly overflow at the first step.
ORDINARY_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(-10.0, 10.0)
EXTREME_VALUES = ORDINARY_VALUES | st.sampled_from([1e300, -1e300])


def vector(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64))


@st.composite
def declared_problems(draw):
    """A small declared least-squares problem of every nonsmooth and box kind, both ``A x`` routes."""
    data_values = draw(st.sampled_from([ORDINARY_VALUES, EXTREME_VALUES]))
    N, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = draw(vector(N * n, data_values)).reshape(N, n)
    stored = np.array(draw(st.lists(st.booleans(), min_size=N * n, max_size=N * n))).reshape(N, n)
    rows, cols = np.nonzero(stored)
    coo = (values[rows, cols], (rows, cols))
    A = sparse.csc_array(coo, shape=(N, n))
    support = draw(st.booleans())
    with pytest.MonkeyPatch.context() as mp:
        if support:
            mp.setattr(model, "_SUPPORT_MIN_NNZ", 0)
        smooth = LeastSquares(A, draw(vector(N, data_values)))
    assert isinstance(smooth._Ax, model._SupportProduct) == support

    def box():
        ends = [sorted(draw(vector(2, data_values | st.sampled_from([-np.inf, np.inf]))))
                for _ in range(n)]
        return Box([lo for lo, _ in ends], [hi for _, hi in ends])

    nonsmooth = Zero()
    if draw(st.booleans()):
        nonsmooth = WeightedL1(np.abs(draw(vector(n, data_values))))
    metric = Metric(draw(vector(n, st.sampled_from([5e-324, 1e300]) | st.floats(1e-3, 1e3))))
    constraint = box() if draw(st.booleans()) else None
    problem = CompositeProblem(smooth=smooth, nonsmooth=nonsmooth, metric=metric,
                               constraint=constraint)
    return problem, draw(vector(n, data_values))


def solve_bits(solve, problem, z, **kwargs):
    """The outcome of ``solve``: every number of its result as bits, or a ValueError."""
    counter = ProxCounter()
    try:
        # The extreme values overflow; numpy's warnings would turn into errors.
        with np.errstate(all="ignore"):
            res = solve(problem, z, counter=counter, **kwargs)
    except ValueError:
        return ValueError

    def bits(v):
        return np.asarray(v, dtype=np.float64).view(np.uint64).tolist()

    return (res.n, res.aborted, res.exhausted, counter.count, bits(res.init_g_dual_norm),
            bits(res.f_history), bits(res.g_norms), bits(res.x), bits(res.residual))


@settings(max_examples=300, deadline=None)
@given(case=declared_problems(), budget=st.integers(0, 12),
       abort_tol=st.none() | st.sampled_from([1e-9, 1e-3, 1.0]))
def test_fused_steps_equal_the_checked_prox_and_objective(case, budget, abort_tol):
    # The fused loop against the same loop through the checked
    # composite_gradient_map and objective: equal bits, or both raise.
    problem, z = case
    kwargs = dict(budget=budget, abort_tol=abort_tol)
    assert solve_bits(fista, problem, z, **kwargs) == solve_bits(checked_fista, problem, z, **kwargs)


@pytest.mark.parametrize("name", ["desk", "box", "least-squares", "zoo"])
def test_fused_loop_changes_no_scheme(monkeypatch, name):
    """Every scheme in both exit modes, with the fused loop and with the checked reference."""
    problem = declared_instances()[name]
    tight = RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(problem.dim), budget=20_000)
    x_star = run_scheme(problem, tight).r_star
    for early in (True, False):
        for scheme in Scheme:
            run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(problem.dim),
                             early_exit=early, budget=20_000,
                             x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None)
            got = run_scheme(problem, run)
            want = run_with(monkeypatch, checked_fista, problem, run)
            assert not got.trace.exhausted and got.trace.calls > 0
            assert repr(got.trace) == repr(want.trace), (early, scheme)
            assert np.array_equal(got.r_star.view(np.uint64), want.r_star.view(np.uint64))


@pytest.mark.parametrize("matrix", [np.asarray, sparse.csc_array, sparse.csr_array],
                         ids=["dense", "csc", "csr"])
@pytest.mark.parametrize("nonsmooth, constraint", [
    (Zero(), None),
    (WeightedL1([1.0]), None),
    (Zero(), Box([-1e-8], [1e-8])),
    (WeightedL1([1.0]), Box([-1e-8], [1e-8])),
], ids=["zero", "l1", "box", "l1-constraint"])
def test_overflowing_gradient_raises(matrix, nonsmooth, constraint):
    # h(x) = (1e160 x)^2 / 2 with a metric far below its curvature: the start
    # prox is finite, and the first step's gradient A^T r / N overflows while
    # f stays finite.  Unclipped, the infinite step reaches f; a box would
    # clip it to a finite x, so a boxed problem keeps the gradient check.
    A = matrix(np.array([[1e160], [1e160]]))
    problem = CompositeProblem(smooth=LeastSquares(A, np.zeros(2)),
                               nonsmooth=nonsmooth, metric=Metric([1e308]),
                               constraint=constraint)
    with pytest.raises(ValueError, match="objective at iteration 1|gradient is non-finite"):
        fista(problem, np.array([1e-20]), budget=5)


def test_benchmark_instances_take_the_fused_loop(monkeypatch):
    # No instance the benchmark solves has a box constraint, so its steps take
    # the unchecked prox and only each call's f(x_0) goes through the
    # objective name of fistakit.fista.
    tally = count_fista_module_calls(monkeypatch)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    workloads = json.loads(path.read_text())["workloads"]
    for name in ("desk", "paper", "lsq-strict"):
        spec = workloads[name]
        for seed in (spec["default_seed"], spec["holdout_seed"]):
            config = ExperimentConfig(**spec["config"], seed=seed)
            for trial in range(config.trials):
                problem = config.instance(trial).problem
                tally.update(prox=0, unchecked=0, objective=0)
                res = fista(problem, np.zeros(problem.dim), budget=3)
                assert res.n == 3, (name, seed, trial)
                assert tally == {"prox": 4, "unchecked": 3, "objective": 1}, (name, seed, trial)
