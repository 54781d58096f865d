import dataclasses
import math

import numpy as np
import pytest

from fistakit import (
    Box,
    LassoSpec,
    ProxCounter,
    RestartRun,
    Scheme,
    SmoothPart,
    composite_gradient_map,
    fista,
    generate,
    generate_least_squares,
    gradient_norm_below,
    objective,
    oracle_fstar,
    run_scheme,
)
from fistakit.fista import TSequence

from conftest import CountingMatrix, make_quadratic


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
            assert ts.k == k
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
        hist = res.trace.f_history
        assert len(hist) == res.n + 1
        assert hist[0] == objective(prob, composite_gradient_map(prob, z).y_plus)

    def test_k_min_respected(self):
        prob = ill_conditioned_quadratic()
        always = lambda state: True
        res = fista(prob, np.array([5.0, 5.0]), k_min=9, exit_condition=always, budget=50)
        assert res.n == 9

    def test_exit_condition_first_evaluated_at_k1(self):
        prob = ill_conditioned_quadratic()
        seen = []

        def spy(state):
            seen.append(state.k)
            return False

        fista(prob, np.array([5.0, 5.0]), exit_condition=spy, budget=5)
        assert seen == [1, 2, 3, 4, 5]

    def test_exit_state_matches_the_step_it_follows(self):
        # The loop fills the state only for a test that runs (k >= k_min).
        problem = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000)).problem
        z = np.zeros(problem.dim)
        k_min, n_calls = 7, 12
        calls = []

        def record(state):
            calls.append((state.k, state.x_prev, state.x_curr, state.last_prox,
                          state.f_history[state.k], objective(problem, state.x_curr)))
            return len(calls) == n_calls

        res = fista(problem, z, k_min=k_min, exit_condition=record, budget=100)
        assert [call[0] for call in calls] == list(range(k_min, k_min + n_calls))
        assert res.n == calls[-1][0] and res.x is calls[-1][2]
        for _, _, x_curr, prox, f_k, f_fresh in calls:
            assert x_curr is prox.y_plus
            assert f_k == f_fresh
        for before, after in zip(calls, calls[1:]):
            assert after[1] is before[2]
        # The first test sees x_{k_min - 1}: the end point of a call whose budget stops there.
        assert np.array_equal(calls[0][1], fista(problem, z, budget=k_min - 1).x)

    def test_momentum_update_reconstructible(self):
        # x_k is the prox step at y_{k-1} = x_{k-1} + ((t_{k-2} - 1)/t_{k-1})
        # (x_{k-1} - x_{k-2}), rebuilt from the states exposed to exit conditions.
        prob = ill_conditioned_quadratic()
        ts = TSequence.generate(30)
        iterates = []

        def check(state):
            k = state.k
            if k >= 2:
                x1, x2 = iterates[-1], state.x_prev
                coeff = (ts[k - 2] - 1.0) / ts[k - 1]
                y = x2 + coeff * (x2 - x1)
                step = composite_gradient_map(prob, y)
                assert np.allclose(step.y_plus, state.x_curr, rtol=0, atol=1e-14)
            iterates.append(state.x_prev.copy())
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
        assert res.trace.g_norms[-1] == res.last_g_dual_norm

    def test_budget_zero_returns_start(self):
        prob = ill_conditioned_quadratic()
        res = fista(prob, np.array([5.0, 5.0]), budget=0)
        assert res.exhausted and res.n == 0

    def test_invalid_arguments(self):
        prob = ill_conditioned_quadratic()
        with pytest.raises(ValueError):
            fista(prob, np.array([1.0, 1.0]), k_min=-1)
        with pytest.raises(ValueError):
            fista(prob, np.array([np.inf, 1.0]))


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
            for i, f_val in enumerate(res.trace.f_vals):
                k = i + 1
                bound = 2.0 * dist * dist / (k + 1) ** 2
                assert f_val - f_star <= bound * (1 + 1e-8) + 1e-12

    def test_gradient_rate_bound(self, traced_instances):
        # ||g(y_k)||_* <= 4 ||x_0 - xbar_0||_R / (k+2) for k >= 0.
        for lp, f_star, x_star, res in traced_instances:
            x0 = composite_gradient_map(lp.problem, np.zeros(30)).y_plus
            dist = lp.metric.norm(x0 - x_star)
            for i, g_val in enumerate(res.trace.g_norms):
                # g_norms[i] was evaluated at y_i (iteration i + 1).
                bound = 4.0 * dist / (i + 2)
                assert g_val <= bound * (1 + 1e-8) + 1e-12

    def test_running_minimum_nonincreasing(self, traced_instances):
        for _, f_star, _, res in traced_instances:
            best = np.minimum.accumulate(res.trace.f_vals)
            assert np.all(np.diff(best) <= 0.0)
            assert best[-1] >= f_star - 1e-12

    def test_no_exit_until_budget(self, traced_instances):
        for _, _, _, res in traced_instances:
            assert res.exhausted
            assert res.n == 400


def declared_instances():
    """A desk lasso, a box-constrained lasso and a least-squares instance."""
    desk = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000))
    boxed = dataclasses.replace(desk.problem,
                                constraint=Box(-0.05 * np.ones(80), 0.05 * np.ones(80)))
    lsq = generate_least_squares(40, 25, seed=3, sparsity=0.5)
    return {"desk": desk.problem, "box": boxed, "least-squares": lsq.problem}


def with_plain_callables(problem):
    """The same problem with the least-squares form left undeclared."""
    form = problem.smooth.least_squares
    smooth = SmoothPart(value=form.value, grad=form.grad, dim=problem.dim)
    return dataclasses.replace(problem, smooth=smooth)


def counting_problem(problem):
    tally = [0]
    form = problem.smooth.least_squares
    smooth = SmoothPart.from_least_squares(CountingMatrix(form.A, tally), form.b)
    return dataclasses.replace(problem, smooth=smooth), tally


@pytest.mark.parametrize("name", ["desk", "box", "least-squares"])
class TestDeclaredLeastSquares:
    def test_objective_matches_plain_callables(self, name):
        declared = declared_instances()[name]
        plain = with_plain_callables(declared)
        assert plain.smooth.least_squares is None
        z = np.zeros(declared.dim)
        a = fista(declared, z, budget=200)
        b = fista(plain, z, budget=200)
        assert a.n == b.n == 200
        assert a.residual is not None and b.residual is None
        f_a = np.array(a.trace.f_history)
        f_b = np.array(b.trace.f_history)
        assert np.max(np.abs(f_a - f_b) / np.abs(f_b)) <= 1e-12

    def test_both_forms_reach_eps_with_exact_prox_accounting(self, name):
        declared = declared_instances()[name]
        eps = 1e-9
        tight = RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(declared.dim),
                           budget=20_000)
        f_star = objective(declared, run_scheme(declared, tight).r_star)
        for problem in (declared, with_plain_callables(declared)):
            for scheme in Scheme:
                for early in (True, False):
                    run = RestartRun(
                        scheme=scheme, epsilon=eps, r0=np.zeros(problem.dim),
                        early_exit=early,
                        f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None,
                        budget=20_000,
                    )
                    trace = run_scheme(problem, run).trace
                    label = f"{scheme.value} early_exit={early}"
                    assert not trace.exhausted, label
                    assert trace.final_g_norm <= eps, label
                    assert trace.total_prox_calls == (
                        trace.total_iterations + trace.calls + trace.outer_checks
                    ), label

    def test_two_matvecs_per_prox(self, name):
        problem, tally = counting_problem(declared_instances()[name])
        res = fista(problem, np.zeros(problem.dim), budget=50)
        # A^T inside each prox (n + 1 per call), A x for the point it returns, plus A z.
        assert tally[0] == 2 * (res.n + 1) + 1
        tally[0] = 0
        carried = fista(problem, res.x, budget=50, residual=res.residual)
        assert tally[0] == 2 * (carried.n + 1)
        again = fista(problem, res.x, budget=50)
        assert again.trace.f_vals == carried.trace.f_vals

    def test_restarts_carry_the_residual(self, name):
        problem, tally = counting_problem(declared_instances()[name])
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


class TestResidualArgument:
    def test_rejected_without_declared_form(self):
        prob = ill_conditioned_quadratic()
        with pytest.raises(ValueError):
            fista(prob, np.array([1.0, 1.0]), residual=np.zeros(2))
        with pytest.raises(ValueError):
            objective(prob, np.array([1.0, 1.0]), residual=np.zeros(2))

    def test_start_point_still_validated(self):
        problem = declared_instances()["least-squares"]
        with pytest.raises(ValueError, match="shape"):
            fista(problem, np.zeros(problem.dim + 1))
        bad = np.zeros(problem.dim)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fista(problem, bad)

    def test_declared_width_must_match_dim(self):
        form = SmoothPart.from_least_squares(np.eye(3), np.zeros(3)).least_squares
        with pytest.raises(ValueError):
            SmoothPart(value=form.value, grad=form.grad, dim=4, least_squares=form)
