import math

import numpy as np
import pytest

from fistakit import (
    LassoSpec,
    RestartRun,
    Scheme,
    WeightedL1,
    exit_function_scheme,
    exit_gradient_scheme,
    exit_lcr,
    exit_optimal_value_scheme,
    fista,
    generate,
    lcr_fista,
    no_restart_fista,
    oracle_fstar,
    restart_fista,
    run_scheme,
)
from fistakit.fista import IterationState

from conftest import make_quadratic


def state_with(f_history, k=None, x_prev=None, x_curr=None, g=None):
    k = len(f_history) - 1 if k is None else k
    prox = type("P", (), {})()
    prox.g = None if g is None else np.asarray(g, dtype=float)
    prox.g_dual_norm = 0.0 if g is None else float(np.linalg.norm(g))
    return IterationState(
        k=k,
        x_prev=np.asarray(x_prev if x_prev is not None else [0.0]),
        x_curr=np.asarray(x_curr if x_curr is not None else [0.0]),
        y_curr=np.zeros(1),
        f_history=list(f_history),
        last_prox=prox,
    )


def ill_conditioned_quadratic(cond=200.0):
    Q = np.diag([1.0, 1.0 / cond])
    return make_quadratic(Q, np.array([0.0, 0.0]), metric_diag=np.ones(2))


class TestExitConditions:
    def test_function_scheme_includes_equality(self):
        assert exit_function_scheme(state_with([5.0, 2.0, 2.0]))
        assert not exit_function_scheme(state_with([5.0, 2.0, 1.9]))
        assert not exit_function_scheme(state_with([3.0, 2.0]))
        assert exit_function_scheme(state_with([2.0, 2.5]))

    def test_gradient_scheme_sign(self):
        st = state_with([1.0, 0.5], g=[1.0, 0.0], x_prev=[0.0, 0.0], x_curr=[1.0, 0.0])
        assert exit_gradient_scheme(st)  # inner product -1 <= 0
        st = state_with([1.0, 0.5], g=[1.0, 0.0], x_prev=[1.0, 0.0], x_curr=[0.0, 0.0])
        assert not exit_gradient_scheme(st)  # inner product +1

    def test_optimal_value_boundary(self):
        e2 = math.e ** 2
        assert exit_optimal_value_scheme(state_with([e2, 1.0]), f_star=0.0)
        assert not exit_optimal_value_scheme(state_with([e2, 1.01]), f_star=0.0)

    def test_lcr_examples(self):
        assert exit_lcr(state_with([10.0, 6.0, 5.0, 4.9, 4.85]))
        assert not exit_lcr(state_with([10.0, 9.0, 8.0, 5.0, 1.0]))
        # k = 1 degenerate pivot m = k: fires after any single decrease.
        assert exit_lcr(state_with([10.0, 9.0]))
        assert not exit_lcr(state_with([10.0, 11.0]))

    def test_function_scheme_fires_at_first_nondecrease(self):
        prob = ill_conditioned_quadratic()
        z = np.array([4.0, 4.0])
        free = fista(prob, z, budget=300)
        hist = free.trace.f_history
        first_up = next(k for k in range(1, len(hist)) if hist[k] >= hist[k - 1])
        gated = fista(prob, z, exit_condition=exit_function_scheme, budget=300)
        assert gated.n == first_up

    def test_gradient_scheme_fires_near_momentum_reversal(self):
        prob = ill_conditioned_quadratic()
        z = np.array([4.0, 4.0])
        iterates = []

        def spy(state):
            iterates.append((state.x_prev.copy(), state.x_curr.copy()))
            return False

        fista(prob, z, exit_condition=spy, budget=300)
        reversal = None
        for k in range(1, len(iterates)):
            prev_step = iterates[k - 1][1] - iterates[k - 1][0]
            step = iterates[k][1] - iterates[k][0]
            if float(step @ prev_step) < 0.0:
                reversal = k + 1  # iterations are 1-based
                break
        assert reversal is not None
        gated = fista(prob, z, exit_condition=exit_gradient_scheme, budget=300)
        assert gated.n <= reversal + 1


class TestRestartRunValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            RestartRun(scheme=Scheme.LCR, epsilon=0.0, r0=np.zeros(2))

    def test_opt_requires_f_star(self):
        with pytest.raises(ValueError):
            RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(2))

    def test_scheme_names(self):
        assert Scheme.from_name("lcr") is Scheme.LCR
        with pytest.raises(ValueError):
            Scheme.from_name("bogus")


@pytest.fixture(scope="module")
def desk_lasso():
    return generate(LassoSpec(N=30, n=40, alpha=0.01, sparsity=0.6, seed=11))


class TestRestartFista:
    def test_already_optimal_start(self):
        prob = make_quadratic(np.array([[1.0]]), np.array([3.0]), metric_diag=[1.0])
        for early in (True, False):
            run = RestartRun(scheme=Scheme.FUNCTION, epsilon=1e-9,
                             r0=np.array([3.0]), early_exit=early)
            out = restart_fista(prob, run)
            assert out.trace.total_iterations <= 1
            assert out.trace.final_g_norm <= 1e-9
            assert abs(out.r_star[0] - 3.0) <= 1e-9

    def test_function_scheme_beats_no_restart(self, desk_lasso):
        eps = 1e-9
        base = RestartRun(scheme=Scheme.NO_RESTART, epsilon=eps, r0=np.zeros(40))
        func = RestartRun(scheme=Scheme.FUNCTION, epsilon=eps, r0=np.zeros(40))
        n_none = no_restart_fista(desk_lasso.problem, base).trace.total_iterations
        n_func = restart_fista(desk_lasso.problem, func).trace.total_iterations
        assert n_func < n_none

    def test_both_heuristics_reach_tolerance(self, desk_lasso):
        eps = 1e-9
        for scheme in (Scheme.FUNCTION, Scheme.GRADIENT):
            run = RestartRun(scheme=scheme, epsilon=eps, r0=np.zeros(40))
            out = restart_fista(desk_lasso.problem, run)
            assert not out.exhausted
            assert out.trace.final_g_norm <= eps

    def test_strict_mode_counts_outer_checks(self, desk_lasso):
        eps = 1e-7
        run = RestartRun(scheme=Scheme.GRADIENT, epsilon=eps, r0=np.zeros(40),
                         early_exit=False)
        out = restart_fista(desk_lasso.problem, run)
        trace = out.trace
        assert trace.final_g_norm <= eps
        assert trace.outer_checks == trace.calls
        assert trace.total_prox_calls == (
            trace.total_iterations + trace.calls + trace.outer_checks
        )

    def test_early_exit_accounting(self, desk_lasso):
        run = RestartRun(scheme=Scheme.GRADIENT, epsilon=1e-7, r0=np.zeros(40))
        out = restart_fista(desk_lasso.problem, run)
        trace = out.trace
        assert trace.outer_checks == 0
        assert trace.total_prox_calls == trace.total_iterations + trace.calls

    def test_budget_exhaustion_flagged(self, desk_lasso):
        run = RestartRun(scheme=Scheme.FUNCTION, epsilon=1e-13, r0=np.zeros(40),
                         budget=50)
        out = restart_fista(desk_lasso.problem, run)
        assert out.exhausted
        assert out.trace.total_prox_calls <= 50

    def test_dispatcher_matches_drivers(self, desk_lasso):
        run = RestartRun(scheme=Scheme.FUNCTION, epsilon=1e-8, r0=np.zeros(40))
        a = restart_fista(desk_lasso.problem, run)
        b = run_scheme(desk_lasso.problem, run)
        assert a.trace.total_iterations == b.trace.total_iterations
        assert np.array_equal(a.r_star, b.r_star)

    def test_wrong_scheme_rejected(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-8, r0=np.zeros(40))
        with pytest.raises(ValueError):
            restart_fista(desk_lasso.problem, run)

    def test_optimal_value_interval_within_rate_window(self):
        # On a growth instance, the e^2-contraction exit must fire within
        # the optimal restart window 2e/sqrt(mu) prescribed by the rate
        # bound.  (Measured intervals sit well inside it, around 0.4x,
        # because the bound is conservative.)
        from fistakit import generate_least_squares, oracle_fstar, oracle_mu

        for seed in (7000, 7001, 7002):
            lp = generate_least_squares(40, 20, seed=seed)
            mu = oracle_mu(lp)
            f_star, _ = oracle_fstar(lp, tight_eps=1e-12)
            window = math.ceil(2.0 * math.e / math.sqrt(mu))
            run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9,
                             r0=np.zeros(20), f_star=f_star)
            out = restart_fista(lp.problem, run)
            assert not out.exhausted
            for rec in out.trace.records:
                assert rec.n_obs <= window, f"seed={seed} j={rec.j}"


class TestLcrFista:
    def test_matched_curvature_single_call(self):
        prob = make_quadratic(np.array([[2.0]]), np.array([1.0]), metric_diag=[2.0])
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.array([5.0]))
        out = lcr_fista(prob, run)
        # One productive call (plus at most an aborted zero-iteration one);
        # the doubling step never fires.
        productive = [r for r in out.trace.records if r.j >= 1 and r.n_obs > 0]
        assert len(productive) == 1
        assert all(r.n_eff == r.n_obs for r in out.trace.records)
        assert abs(out.r_star[0] - 1.0) <= 1e-9

    def test_monotone_decrease_and_restart_inequality(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(40))
        out = lcr_fista(desk_lasso.problem, run)
        recs = out.trace.records
        assert not out.exhausted
        noise = 64 * np.finfo(float).eps
        for prev, curr in zip(recs, recs[1:]):
            scale = max(1.0, abs(prev.f_r), abs(curr.f_r))
            # Eq-style monotonicity; the final truncated call may sit at
            # float resolution of the previous value.
            assert curr.f_r <= prev.f_r + noise * scale
            if not math.isnan(prev.g_dual_norm):
                lhs = 0.5 * prev.g_dual_norm**2
                assert lhs <= (prev.f_r - curr.f_r) + noise * scale

    def test_doubling_semantics(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-11, r0=np.zeros(40))
        out = lcr_fista(desk_lasso.problem, run)
        recs = [r for r in out.trace.records if r.j >= 1]
        doubled = 0
        for prev, curr in zip(recs, recs[1:]):
            if curr.n_eff != curr.n_obs:
                assert curr.n_eff == 2 * prev.n_eff
                doubled += 1
            if curr is not recs[-1]:
                # completed calls honor the carried minimum
                assert curr.n_obs >= prev.n_eff
        assert doubled >= 1  # this family does trigger the rule

    def test_observed_counts_nondecreasing_until_final(self, desk_lasso):
        # The final truncated call is allowed to be shorter; every earlier
        # pair must be nondecreasing on this family.
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(40))
        out = lcr_fista(desk_lasso.problem, run)
        ns = [r.n_obs for r in out.trace.records if r.j >= 1]
        body = ns[:-1]
        assert all(a <= b for a, b in zip(body, body[1:]))

    def test_strict_mode_reaches_tolerance(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-8, r0=np.zeros(40),
                         early_exit=False)
        out = lcr_fista(desk_lasso.problem, run)
        trace = out.trace
        assert trace.final_g_norm <= 1e-8
        # Outer checks start at the second call in strict mode.
        assert trace.outer_checks == max(trace.calls - 1, 0)
        assert trace.total_prox_calls == (
            trace.total_iterations + trace.calls + trace.outer_checks
        )

    def test_budget_exhaustion_flagged(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-13, r0=np.zeros(40), budget=30)
        out = lcr_fista(desk_lasso.problem, run)
        assert out.exhausted
        assert out.trace.total_prox_calls <= 30


class TestConstrainedSolves:
    def test_box_constrained_quadratic(self):
        # Diagonal curvature with the optimum outside the box: the
        # constrained minimizer is the clipped center.
        from fistakit import Box

        q = np.array([2.0, 0.5, 1.0])
        c = np.array([3.0, -4.0, 0.2])
        box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        prob = make_quadratic(np.diag(q), c, metric_diag=q * 1.5, constraint=box)
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(3))
        out = lcr_fista(prob, run)
        expected = np.clip(c, box.lower, box.upper)
        assert np.allclose(out.r_star, expected, atol=1e-8)
        assert out.trace.final_g_norm <= 1e-10

    def test_l1_plus_box(self):
        # Separable closed form: shrink toward the center, then clip.
        from fistakit import Box

        q = np.array([1.0, 2.0])
        c = np.array([3.0, -0.4])
        w = np.array([0.5, 1.0])
        box = Box([-1.5, -1.5], [1.5, 1.5])
        prob = make_quadratic(
            np.diag(q), c, metric_diag=q * 2.0,
            nonsmooth=WeightedL1(w), constraint=box,
        )
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(2))
        out = lcr_fista(prob, run)
        unconstrained = np.sign(c) * np.maximum(np.abs(c) - w / q, 0.0)
        expected = np.clip(unconstrained, box.lower, box.upper)
        assert np.allclose(out.r_star, expected, atol=1e-8)

    def test_shared_problem_across_threads(self, desk_lasso):
        # Problems are immutable; concurrent runs must agree with the
        # sequential ones bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        def solve(eps):
            run = RestartRun(scheme=Scheme.LCR, epsilon=eps, r0=np.zeros(40))
            return lcr_fista(desk_lasso.problem, run)

        epss = [1e-7, 1e-8, 1e-9, 1e-10]
        sequential = [solve(e) for e in epss]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, epss))
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a.r_star, b.r_star)
            assert a.trace.total_iterations == b.trace.total_iterations


class TestNoRestart:
    def test_reaches_tolerance_both_modes(self, desk_lasso):
        for early in (True, False):
            run = RestartRun(scheme=Scheme.NO_RESTART, epsilon=1e-8,
                             r0=np.zeros(40), early_exit=early)
            out = no_restart_fista(desk_lasso.problem, run)
            assert out.trace.final_g_norm <= 1e-8
            assert out.trace.calls == 1

    def test_lasso_with_l1_region_reaches_sparse_solution(self):
        # Strong l1 weights drive coordinates exactly to zero.
        lp = generate(LassoSpec(N=15, n=25, alpha=0.5, sparsity=0.3, seed=2))
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(25))
        out = lcr_fista(lp.problem, run)
        assert isinstance(lp.problem.nonsmooth, WeightedL1)
        assert np.sum(out.r_star == 0.0) > 0


def test_pinned_iteration_counts():
    """Iteration counts of every scheme on one fixed desk instance.

    These are the paper's quantity.  A change that moves one must say why;
    the restart tests compare objective values, so arithmetic that differs
    at rounding level can move the restarting schemes by a few iterations.
    """
    lp = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000))
    f_star, _ = oracle_fstar(lp, tight_eps=1e-12)
    counts = {}
    for scheme in Scheme:
        run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(lp.n),
                         f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None)
        counts[scheme.value] = run_scheme(lp.problem, run).trace.total_iterations
    assert counts == {"none": 1270, "func": 235, "grad": 231, "opt": 416, "lcr": 271}
