import dataclasses
import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fistakit import (
    Box,
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
    gradient_norm_below,
    model,
    objective,
    oracle_fstar,
    restart,
    run_scheme,
)
from conftest import count_fista_module_calls, count_kernel_calls, make_quadratic, problem_zoo


def step_with(f_history, k=None, x_prev=None, x_k=None, g=None, r_x=None):
    """Arguments ``(k, f_history, prox, x_prev, x_k, r_x)`` of an exit test."""
    k = len(f_history) - 1 if k is None else k
    prox = type("P", (), {})()
    prox.g = None if g is None else np.asarray(g, dtype=float)
    prox.g_dual_norm = 0.0 if g is None else float(np.linalg.norm(g))
    return (k, list(f_history), prox,
            np.asarray(x_prev if x_prev is not None else [0.0]),
            np.asarray(x_k if x_k is not None else [0.0]),
            np.asarray(r_x if r_x is not None else [0.0]))


def ill_conditioned_quadratic(cond=200.0):
    Q = np.diag([1.0, 1.0 / cond])
    return make_quadratic(Q, np.array([0.0, 0.0]), metric_diag=np.ones(2))


class TestExitConditions:
    def test_function_scheme_includes_equality(self):
        assert exit_function_scheme(*step_with([5.0, 2.0, 2.0]))
        assert not exit_function_scheme(*step_with([5.0, 2.0, 1.9]))
        assert not exit_function_scheme(*step_with([3.0, 2.0]))
        assert exit_function_scheme(*step_with([2.0, 2.5]))

    def test_gradient_scheme_sign(self):
        step = step_with([1.0, 0.5], g=[1.0, 0.0], x_prev=[0.0, 0.0], x_k=[1.0, 0.0])
        assert exit_gradient_scheme(*step)  # inner product -1 <= 0
        step = step_with([1.0, 0.5], g=[1.0, 0.0], x_prev=[1.0, 0.0], x_k=[0.0, 0.0])
        assert not exit_gradient_scheme(*step)  # inner product +1

    def test_optimal_value_boundary(self):
        # h(x) = x^2 / 2 with x* = 0, so gap(x, r) = r^2 / 2: a call from
        # x_0 = e sqrt(2), whose gap is e^2, exits once the gap is at most 1.
        prob = make_quadratic(np.array([[1.0]]), np.array([0.0]), metric_diag=[1.0])
        form = prob.smooth

        def decide(x_k, g):
            x0, xk = np.array([math.e * math.sqrt(2.0)]), np.array([x_k])
            step = step_with([objective(prob, x0), objective(prob, xk)], x_prev=x0, x_k=xk,
                             g=g, r_x=form.residual(xk))
            return exit_optimal_value_scheme(*step, gap=restart._OptimalGap(prob, np.zeros(1)))

        assert decide(1.41, g=[1.0])  # gap 0.994
        assert not decide(1.42, g=[1.0])  # gap 1.008
        # g = 0 exactly: x_k is a fixed point, even above the target.
        assert decide(1.42, g=[0.0])

    def test_lcr_examples(self):
        g = [1.0]
        assert exit_lcr(*step_with([10.0, 6.0, 5.0, 4.9, 4.85], g=g))
        assert not exit_lcr(*step_with([10.0, 9.0, 8.0, 5.0, 1.0], g=g))
        # k = 1 degenerate pivot m = k: fires after any single decrease.
        assert exit_lcr(*step_with([10.0, 9.0], g=g))
        assert not exit_lcr(*step_with([10.0, 11.0], g=g))
        # g = 0 exactly: x_k is a fixed point, whatever the f history says.
        assert exit_lcr(*step_with([10.0, 11.0], g=[0.0]))

    def test_function_scheme_fires_at_first_nondecrease(self):
        prob = ill_conditioned_quadratic()
        z = np.array([4.0, 4.0])
        free = fista(prob, z, budget=300)
        hist = free.f_history
        first_up = next(k for k in range(1, len(hist)) if hist[k] >= hist[k - 1])
        gated = fista(prob, z, exit_condition=exit_function_scheme, budget=300)
        assert gated.n == first_up

    def test_gradient_scheme_fires_near_momentum_reversal(self):
        prob = ill_conditioned_quadratic()
        z = np.array([4.0, 4.0])
        iterates = []

        def spy(k, f_history, prox, x_prev, x_k, r_x):
            iterates.append((x_prev.copy(), x_k.copy()))
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

    def test_r0_must_be_a_vector(self):
        with pytest.raises(ValueError, match="r0 must be a 1-D vector"):
            RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros((2, 2)))

    @pytest.mark.parametrize("x_star, match", [
        (None, "requires a minimizer x_star"),
        (np.zeros((2, 1)), "x_star must be a 1-D vector"),
        (np.array([0.0, math.nan]), "x_star must be finite"),
        (np.array([math.inf, 0.0]), "x_star must be finite"),
    ], ids=["missing", "2-D", "nan", "inf"])
    def test_opt_requires_a_finite_x_star(self, x_star, match):
        with pytest.raises(ValueError, match=match):
            RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(2), x_star=x_star)

    def test_x_star_is_a_locked_copy_of_the_problem_length(self, desk_lasso):
        x_star = np.zeros(40)
        run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(40),
                         x_star=x_star, budget=50)
        x_star[0] = 1.0
        assert not run.x_star.flags.writeable and run.x_star[0] == 0.0
        short = dataclasses.replace(run, x_star=np.zeros(39))
        with pytest.raises(ValueError, match="expected"):
            run_scheme(desk_lasso.problem, short)

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
                             r0=np.array([3.0]), early_exit=early, budget=20)
            out = run_scheme(prob, run)
            assert out.trace.total_iterations <= 1
            assert out.trace.final_g_norm <= 1e-9
            assert abs(out.r_star[0] - 3.0) <= 1e-9

    def test_function_scheme_beats_no_restart(self, desk_lasso):
        eps = 1e-9
        base = RestartRun(scheme=Scheme.NO_RESTART, epsilon=eps, r0=np.zeros(40), budget=20_000)
        func = RestartRun(scheme=Scheme.FUNCTION, epsilon=eps, r0=np.zeros(40), budget=2_000)
        n_none = run_scheme(desk_lasso.problem, base).trace.total_iterations
        n_func = run_scheme(desk_lasso.problem, func).trace.total_iterations
        assert n_func < n_none

    def test_both_heuristics_reach_tolerance(self, desk_lasso):
        eps = 1e-9
        for scheme in (Scheme.FUNCTION, Scheme.GRADIENT):
            run = RestartRun(scheme=scheme, epsilon=eps, r0=np.zeros(40), budget=2_000)
            out = run_scheme(desk_lasso.problem, run)
            assert not out.trace.exhausted
            assert out.trace.final_g_norm <= eps

    def test_strict_mode_counts_outer_checks(self, desk_lasso):
        eps = 1e-7
        run = RestartRun(scheme=Scheme.GRADIENT, epsilon=eps, r0=np.zeros(40),
                         early_exit=False, budget=2_000)
        out = run_scheme(desk_lasso.problem, run)
        trace = out.trace
        assert trace.final_g_norm <= eps
        assert trace.outer_checks == trace.calls
        assert trace.total_prox_calls == (
            trace.total_iterations + trace.calls + trace.outer_checks
        )

    def test_early_exit_accounting(self, desk_lasso):
        run = RestartRun(scheme=Scheme.GRADIENT, epsilon=1e-7, r0=np.zeros(40), budget=2_000)
        out = run_scheme(desk_lasso.problem, run)
        trace = out.trace
        assert trace.outer_checks == 0
        assert trace.total_prox_calls == trace.total_iterations + trace.calls

    def test_budget_exhaustion_flagged(self, desk_lasso):
        # One init prox per call is reserved inside the budget, in both modes.
        for early in (True, False):
            for budget in (1, 2, 50):
                run = RestartRun(scheme=Scheme.FUNCTION, epsilon=1e-13, r0=np.zeros(40),
                                 early_exit=early, budget=budget)
                out = run_scheme(desk_lasso.problem, run)
                assert out.trace.exhausted
                assert out.trace.total_prox_calls <= budget

    def test_strict_budget_running_out_before_an_outer_check(self, desk_lasso):
        # A budget that the first call's init prox and iterations use up
        # exactly: the call ends on its exit test, and the run stops where
        # its outer check would need one more prox.
        run = RestartRun(scheme=Scheme.FUNCTION, epsilon=1e-13, r0=np.zeros(40),
                         early_exit=False, budget=2_000)
        first = run_scheme(desk_lasso.problem, run).trace.records[1]
        budget = first.n_obs + 1
        trace = run_scheme(desk_lasso.problem, dataclasses.replace(run, budget=budget)).trace
        assert trace.exhausted
        last = trace.records[-1]
        assert (last.j, last.n_obs, last.f_r) == (1, first.n_obs, first.f_r)
        assert math.isnan(last.g_dual_norm)  # no prox was left to check r_1
        assert trace.calls == 1 and trace.outer_checks == 0
        assert trace.total_prox_calls == budget == (
            trace.total_iterations + trace.calls + trace.outer_checks
        )

    def test_optimal_value_interval_within_rate_window(self):
        # On a growth instance, the e^2-contraction exit must fire within
        # the optimal restart window 2e/sqrt(mu) prescribed by the rate
        # bound.  (Measured intervals sit well inside it, around 0.4x,
        # because the bound is conservative.)
        from fistakit import oracle_fstar, oracle_mu

        for seed in (7000, 7001, 7002):
            lp = generate(LassoSpec(
                N=40, n=20, alpha=0.0, sparsity=0.0, seed=seed, family="least-squares"))
            mu = oracle_mu(lp)
            _, x_star = oracle_fstar(lp, tight_eps=1e-12)
            window = math.ceil(2.0 * math.e / math.sqrt(mu))
            run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9,
                             r0=np.zeros(20), x_star=x_star, budget=1_000)
            out = run_scheme(lp.problem, run)
            assert not out.trace.exhausted
            for rec in out.trace.records:
                assert rec.n_obs <= window, f"seed={seed} j={rec.j}"


class TestLcrFista:
    def test_matched_curvature_single_call(self):
        prob = make_quadratic(np.array([[2.0]]), np.array([1.0]), metric_diag=[2.0])
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.array([5.0]), budget=20)
        out = run_scheme(prob, run)
        # One productive call (plus at most an aborted zero-iteration one);
        # the doubling step never fires.
        productive = [r for r in out.trace.records if r.j >= 1 and r.n_obs > 0]
        assert len(productive) == 1
        assert all(r.n_eff == r.n_obs for r in out.trace.records)
        assert abs(out.r_star[0] - 1.0) <= 1e-9

    def test_monotone_decrease_and_restart_inequality(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(40), budget=3_000)
        out = run_scheme(desk_lasso.problem, run)
        recs = out.trace.records
        assert not out.trace.exhausted
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
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-11, r0=np.zeros(40), budget=3_000)
        out = run_scheme(desk_lasso.problem, run)
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
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(40), budget=3_000)
        out = run_scheme(desk_lasso.problem, run)
        ns = [r.n_obs for r in out.trace.records if r.j >= 1]
        body = ns[:-1]
        assert all(a <= b for a, b in zip(body, body[1:]))

    def test_strict_mode_reaches_tolerance(self, desk_lasso):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-8, r0=np.zeros(40),
                         early_exit=False, budget=3_000)
        out = run_scheme(desk_lasso.problem, run)
        trace = out.trace
        assert trace.final_g_norm <= 1e-8
        # Outer checks start at the second call in strict mode.
        assert trace.outer_checks == max(trace.calls - 1, 0)
        assert trace.total_prox_calls == (
            trace.total_iterations + trace.calls + trace.outer_checks
        )

    def test_budget_exhaustion_flagged(self, desk_lasso):
        for early in (True, False):
            for budget in (1, 2, 30):
                run = RestartRun(scheme=Scheme.LCR, epsilon=1e-13, r0=np.zeros(40),
                                 early_exit=early, budget=budget)
                out = run_scheme(desk_lasso.problem, run)
                assert out.trace.exhausted
                assert out.trace.total_prox_calls <= budget


class TestConstrainedSolves:
    def test_box_constrained_quadratic(self):
        # Diagonal curvature with the optimum outside the box: the
        # constrained minimizer is the clipped center.
        from fistakit import Box

        q = np.array([2.0, 0.5, 1.0])
        c = np.array([3.0, -4.0, 0.2])
        box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        prob = make_quadratic(np.diag(q), c, metric_diag=q * 1.5, constraint=box)
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(3), budget=200)
        out = run_scheme(prob, run)
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
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(2), budget=50)
        out = run_scheme(prob, run)
        unconstrained = np.sign(c) * np.maximum(np.abs(c) - w / q, 0.0)
        expected = np.clip(unconstrained, box.lower, box.upper)
        assert np.allclose(out.r_star, expected, atol=1e-8)

    def test_shared_problem_across_threads(self, desk_lasso):
        # Problems are immutable; concurrent runs must agree with the
        # sequential ones bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        def solve(eps):
            run = RestartRun(scheme=Scheme.LCR, epsilon=eps, r0=np.zeros(40), budget=3_000)
            return run_scheme(desk_lasso.problem, run)

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
                             r0=np.zeros(40), early_exit=early, budget=10_000)
            out = run_scheme(desk_lasso.problem, run)
            assert out.trace.final_g_norm <= 1e-8
            assert out.trace.calls == 1 and out.trace.outer_checks == 0

    @pytest.mark.parametrize("case", ["converges", "truncated", "good-start"])
    def test_early_exit_trace_equals_a_run_with_the_per_step_test(self, monkeypatch,
                                                                   desk_lasso, case):
        # Early-exit "none" runs without an exit test: the abort on epsilon tests
        # the same ||g||_* first.  Putting gradient_norm_below back changes nothing.
        r0 = np.zeros(40)
        if case == "good-start":
            tight = RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=r0, budget=3_000)
            r0 = run_scheme(desk_lasso.problem, tight).r_star
        run = RestartRun(scheme=Scheme.NO_RESTART, epsilon=1e-9, r0=r0,
                         budget=100 if case == "truncated" else 20_000)
        lean = run_scheme(desk_lasso.problem, run)
        tested = []

        def per_step_test(problem, run):
            below = gradient_norm_below(run.epsilon)

            def test(k, *step):
                tested.append(k)
                return below(k, *step)
            return test

        monkeypatch.setattr(importlib.import_module("fistakit.restart"), "_exit_test",
                            per_step_test)
        kept = run_scheme(desk_lasso.problem, run)
        assert repr(lean.trace.records) == repr(kept.trace.records)
        same_trace = repr(lean.trace) == repr(kept.trace)  # every f and ||g||_*, bit for bit
        assert same_trace
        assert lean.r_star.tobytes() == kept.r_star.tobytes()
        n = lean.trace.total_iterations
        assert lean.trace.exhausted == (case == "truncated")
        # The test ran after every step but an aborting one.
        assert tested == list(range(1, n if case == "converges" else n + 1))
        assert (n == 0) == (case == "good-start")

    def test_lasso_with_l1_region_reaches_sparse_solution(self):
        # Strong l1 weights drive coordinates exactly to zero.
        lp = generate(LassoSpec(N=15, n=25, alpha=0.5, sparsity=0.3, seed=2))
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-10, r0=np.zeros(25), budget=1_000)
        out = run_scheme(lp.problem, run)
        assert isinstance(lp.problem.nonsmooth, WeightedL1)
        assert np.sum(out.r_star == 0.0) > 0


class TestSchemeDifferences:
    """What sets the schemes apart inside the one driver."""

    def test_no_restart_strict_runs_one_iteration_at_an_optimal_start(self):
        prob = make_quadratic(np.array([[1.0]]), np.array([3.0]), metric_diag=[1.0])
        for early, iterations in ((True, 0), (False, 1)):
            run = RestartRun(scheme=Scheme.NO_RESTART, epsilon=1e-9,
                             r0=np.array([3.0]), early_exit=early, budget=20)
            trace = run_scheme(prob, run).trace
            assert trace.total_iterations == iterations
            assert trace.calls == 1 and trace.outer_checks == 0
            assert trace.final_g_norm <= 1e-9

    def test_truncated_final_lcr_call_takes_no_doubling_decision(self, desk_lasso):
        full = run_scheme(desk_lasso.problem,
                          RestartRun(scheme=Scheme.LCR, epsilon=1e-11, r0=np.zeros(40),
                                     budget=3_000))
        doubled = [r for r in full.trace.records if r.n_eff != r.n_obs]
        assert doubled
        # Cut the run inside the call after the first doubling.
        cut = doubled[0].j + 1
        used = sum(r.n_obs + 1 for r in full.trace.records if 1 <= r.j < cut)
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-11, r0=np.zeros(40), budget=used + 2)
        last = run_scheme(desk_lasso.problem, run).trace.records[-1]
        assert last.j == cut and last.n_obs == 1
        assert last.n_eff == last.n_obs


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([1e-6, 1e-7]))
def test_zoo_reaches_eps_in_every_scheme(seed, eps):
    """The driver on the quadratic zoo: plain, l1, box, and l1 plus box problems.

    The tolerances keep ``0.5 eps^2``, the decrease a restart guarantees,
    far above the rounding of ``f`` (about 1e-15 here); below that,
    strict mode can stall, see the next test.
    """
    for prob in problem_zoo(np.random.default_rng(seed)):
        ref = run_scheme(prob, RestartRun(scheme=Scheme.LCR, epsilon=1e-12,
                                          r0=np.zeros(prob.dim), budget=5_000))
        for scheme in Scheme:
            for early in (True, False):
                run = RestartRun(scheme=scheme, epsilon=eps, r0=np.zeros(prob.dim),
                                 early_exit=early,
                                 x_star=ref.r_star if scheme is Scheme.OPTIMAL_VALUE else None,
                                 budget=5_000)
                trace = run_scheme(prob, run).trace
                label = f"{scheme.value} early_exit={early}"
                assert not trace.exhausted, label
                assert trace.final_g_norm <= eps, label
                assert trace.total_prox_calls == (
                    trace.total_iterations + trace.calls + trace.outer_checks
                ), label
                if scheme is not Scheme.LCR:
                    continue
                for prev, curr in zip(trace.records, trace.records[1:]):
                    if math.isnan(prev.g_dual_norm):
                        continue
                    noise = 64 * np.finfo(float).eps * max(1.0, abs(prev.f_r), abs(curr.f_r))
                    assert 0.5 * prev.g_dual_norm**2 <= prev.f_r - curr.f_r + noise, label


def _box_path_digest(prob):
    """sha256 over each run of every scheme, early and strict.

    A run adds the ``repr`` of its records, the float64 bytes of its
    ``f_vals`` and ``g_norms``, the ``repr`` of its counters and the bytes
    of ``r_star``: data that does not depend on how a trace is laid out.
    """
    ref = run_scheme(prob, RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(prob.dim),
                                      budget=5_000))
    digest = hashlib.sha256()
    for scheme in Scheme:
        for early in (True, False):
            run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(prob.dim),
                             early_exit=early,
                             x_star=ref.r_star if scheme is Scheme.OPTIMAL_VALUE else None,
                             budget=5_000)
            result = run_scheme(prob, run)
            t = result.trace
            digest.update(repr(t.records).encode())
            digest.update(np.array(t.f_vals, dtype=np.float64).tobytes())
            digest.update(np.array(t.g_norms, dtype=np.float64).tobytes())
            digest.update(repr((t.calls, t.total_prox_calls, t.outer_checks, t.final_g_norm,
                                t.exhausted)).encode())
            digest.update(result.r_star.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, box_only, l1_and_box", [
    (0, "fe84943a571ea31768a03765412814751391a1b262c67e16d7560551b4797611",
        "cc8f17b304fed46dbdf490405f3f59308deeecf062d15e8cf1deb4b73c1f8eb2"),
    (1, "b07ea921b87d447ded1210fac4ee965b488ffccccdfb0cda1406acd8e1a8bc88",
        "f9e671d2865aea14ac8f4ef71d01813f949140780790627957de09da2c70444d"),
    (2, "4ccdf6335957f067373d35034c0f88c8dd43e52ee97588710f25a917c2be3539",
        "eecdc73aa2971041862e5d81d9f0b98b4a6aa72e8b623d6ccbe024e770692174"),
])
def test_box_path_bits_are_pinned(seed, box_only, l1_and_box):
    # The zoo's box problems (a box alone, and l1 plus a box) through every
    # scheme in both exit modes: the traces and final iterates must keep
    # their bits across refactors of how a box is stated and applied.
    zoo = problem_zoo(np.random.default_rng(seed))
    assert (_box_path_digest(zoo[2]), _box_path_digest(zoo[3])) == (box_only, l1_and_box)


def test_strict_lcr_ends_when_f_cycles_at_rounding_level():
    # On this box-constrained draw the last lcr call reaches g = 0 exactly
    # at a fixed point whose f sits 4 rounding steps above f(x_0), so
    # f(x_k) <= f(x_0) never holds; without the g = 0 test in exit_lcr
    # only the budget stops the call.
    prob = problem_zoo(np.random.default_rng(2679913539))[2]
    run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(prob.dim),
                     early_exit=False, budget=20_000)
    trace = run_scheme(prob, run).trace
    assert not trace.exhausted
    assert trace.final_g_norm <= 1e-9


def test_strict_opt_ends_at_rounding_level_above_f_star(monkeypatch):
    # On this l1-plus-box draw the last strict opt calls start and stop at
    # points whose f sits 1 or 2 rounding steps above f(x*), where a test on
    # f - f* could never see the gap contract and only a g = 0 fixed point
    # or the budget ends a call.  The gap from x* and the loop's residual
    # reads 0 there, so the gap test, not the g = 0 clause, ends every call.
    prob = problem_zoo(np.random.default_rng(904249022))[3]
    ref = run_scheme(prob, RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(prob.dim),
                                      budget=500))
    exits = []

    def spy(k, f_history, prox, x_prev, x_k, r_x, gap):
        decision = exit_optimal_value_scheme(k, f_history, prox, x_prev, x_k, r_x, gap=gap)
        if decision:
            f_drop = (f_history[0] - gap.f_star) / math.e ** 2
            exits.append((prox.g_dual_norm, f_history[k] - gap.f_star > f_drop))
        return decision

    monkeypatch.setattr(restart, "exit_optimal_value_scheme", spy)
    run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(prob.dim),
                     early_exit=False, x_star=ref.r_star, budget=20_000)
    trace = run_scheme(prob, run).trace
    assert not trace.exhausted
    assert trace.final_g_norm <= 1e-9
    assert len(exits) == trace.calls and all(g > 0.0 for g, _ in exits)
    assert sum(f_above for _, f_above in exits) >= 3


@pytest.mark.parametrize("early", [True, False], ids=["early", "strict"])
def test_fista_module_names_see_every_prox_and_fused_starts(monkeypatch, early):
    # The benchmark wraps these two names of fistakit.fista: its host-speed
    # reading inside solves needs every prox of the inner calls through the
    # first, and its detailed trace times what passes through them.  Each
    # step's prox goes unchecked, except on a problem with a box constraint,
    # and only each call's f(x_0) goes through objective.  The outer checks
    # and the run's start objective live in restart.
    tally = count_fista_module_calls(monkeypatch)
    lp = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000))
    boxed = dataclasses.replace(lp.problem, constraint=Box(-0.05 * np.ones(lp.n),
                                                           0.05 * np.ones(lp.n)))
    run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(lp.n), early_exit=early,
                     budget=2_000)
    trace = run_scheme(lp.problem, run).trace
    assert trace.calls > 1 and (early or trace.outer_checks > 0)
    assert tally == {"prox": trace.total_prox_calls - trace.outer_checks,
                     "unchecked": trace.total_iterations, "objective": trace.calls}
    tally.update(prox=0, unchecked=0, objective=0)
    trace = run_scheme(boxed, run).trace
    assert trace.calls > 1 and (early or trace.outer_checks > 0)
    assert tally == {"prox": trace.total_prox_calls - trace.outer_checks,
                     "unchecked": 0, "objective": trace.calls}


def test_pinned_iteration_counts():
    """Iteration and prox-call counts of every scheme on one fixed desk instance.

    These are the paper's quantity, pinned in both exit modes.  A change
    that moves one must say why; the restart tests compare objective
    values, so arithmetic that differs at rounding level can move the
    restarting schemes by a few iterations.
    """
    # About 8 times the largest pinned count (the oracle takes 412 prox
    # calls), so that a broken exit test fails in seconds.
    budget = 10_000
    lp = generate(LassoSpec(N=60, n=80, alpha=0.01, seed=1000))
    _, x_star = oracle_fstar(lp, tight_eps=1e-12, budget=budget)
    counts = {}
    for early in (True, False):
        for scheme in Scheme:
            run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(lp.n), early_exit=early,
                             x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None,
                             budget=budget)
            trace = run_scheme(lp.problem, run).trace
            mode = "early" if early else "strict"
            counts[mode, scheme.value] = (trace.total_iterations, trace.total_prox_calls)
    assert counts == {
        ("early", "none"): (1270, 1271),
        ("early", "func"): (235, 241),
        ("early", "grad"): (231, 237),
        ("early", "opt"): (416, 433),
        ("early", "lcr"): (271, 283),
        ("strict", "none"): (1270, 1271),
        ("strict", "func"): (235, 247),
        ("strict", "grad"): (241, 253),
        ("strict", "opt"): (421, 455),
        ("strict", "lcr"): (327, 352),
    }


def test_support_product_changes_no_scheme(monkeypatch):
    """Every scheme in both exit modes, with the support product of ``A x`` on and off.

    The instance stores 20,000 entries, above the gate; the golden digests
    and pinned counts use instances below it.
    """
    spec = LassoSpec(N=100, n=200, alpha=0.01, sparsity=0.0, seed=7)
    # Built after the kernels are wrapped: a form binds them when it is built.
    tally = count_kernel_calls(monkeypatch, n=spec.n)
    on = generate(spec)
    assert isinstance(on.problem.smooth._Ax, model._SupportProduct)
    monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", math.inf)
    off = generate(spec)
    assert not isinstance(off.problem.smooth._Ax, model._SupportProduct)
    budget = 20_000
    _, x_star = oracle_fstar(off, tight_eps=1e-12, budget=budget)
    for early in (True, False):
        for scheme in Scheme:
            run = RestartRun(scheme=scheme, epsilon=1e-6, r0=np.zeros(spec.n), early_exit=early,
                             x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None,
                             budget=budget)
            tally[1] = 0
            got = run_scheme(on.problem, run)
            assert tally[1] > got.trace.total_iterations // 2, (early, scheme)
            want = run_scheme(off.problem, run)
            assert not got.trace.exhausted
            assert repr(got.trace) == repr(want.trace), (early, scheme)
            assert np.array_equal(got.r_star.view(np.uint64), want.r_star.view(np.uint64))


def test_optimal_gap_matches_the_objective_difference():
    # Where f(x_k) - f(x*) is far above the rounding of f, the gap from x*
    # and the loop's residual is that difference; at no step does the gap
    # fall below -1e-15 f(x*).
    lp = generate(LassoSpec(N=60, n=80, alpha=0.01, sparsity=0.9, seed=1000))
    zoo = problem_zoo(np.random.default_rng(3))[3]
    zoo_star = run_scheme(zoo, RestartRun(scheme=Scheme.LCR, epsilon=1e-12,
                                          r0=np.zeros(zoo.dim), budget=5_000)).r_star
    for problem, x_star in ((lp.problem, oracle_fstar(lp, tight_eps=1e-12)[1]),
                            (zoo, zoo_star)):
        gap = restart._OptimalGap(problem, x_star)
        f_star = objective(problem, x_star)
        assert gap.f_star == f_star
        steps = []

        def record(k, f_history, prox, x_prev, x_k, r_x):
            steps.append((f_history[k] - f_star, gap(x_k, r_x)))
            return False

        fista(problem, np.zeros(problem.dim), exit_condition=record, budget=1_500)
        far = [(df, g) for df, g in steps if df >= 1e-5 * f_star]
        assert 5 <= len(far) < len(steps)
        for df, g in far:
            assert g == pytest.approx(df, rel=1e-8)
        assert min(g for _, g in steps) >= -1e-15 * f_star


def _opt_instance(name):
    """``(problem, x*)`` of desk trial 0, an l1-plus-box zoo problem or least squares."""
    if name == "zoo":
        zoo = problem_zoo(np.random.default_rng(904249022))[3]
        return zoo, run_scheme(zoo, RestartRun(scheme=Scheme.LCR, epsilon=1e-12,
                                               r0=np.zeros(zoo.dim), budget=5_000)).r_star
    lp = (generate(LassoSpec(N=60, n=80, alpha=0.01, sparsity=0.9, seed=1000)) if name == "desk"
          else generate(LassoSpec(
              N=120, n=80, alpha=0.0, sparsity=0.9, seed=1000, family="least-squares")))
    return lp.problem, oracle_fstar(lp, tight_eps=1e-12)[1]


@pytest.mark.parametrize("name", ["desk", "zoo", "least-squares"])
def test_opt_early_return_takes_the_gap_tests_decision(monkeypatch, name):
    # The test returns False early when f(x_k) - f* exceeds the target by
    # more than the rounding of f could; at every step of opt runs in both
    # exit modes that is the decision of the gap test alone.
    problem, x_star = _opt_instance(name)
    seen = []

    def both(k, f_history, prox, x_prev, x_k, r_x, gap):
        decision = exit_optimal_value_scheme(k, f_history, prox, x_prev, x_k, r_x, gap=gap)
        bare = prox.g_dual_norm == 0.0 or gap(x_k, r_x) <= gap.target
        f_k = f_history[k]
        early = f_k - gap.f_star > gap.target + gap.slack * (f_k + gap.f_star)
        seen.append((decision, bare, early))
        return decision

    monkeypatch.setattr(restart, "exit_optimal_value_scheme", both)
    for early_exit in (True, False):
        run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(problem.dim),
                         early_exit=early_exit, x_star=x_star, budget=20_000)
        assert not run_scheme(problem, run).trace.exhausted
    assert all(decision == bare for decision, bare, _ in seen)
    rejected = sum(early for _, _, early in seen)
    assert 0 < rejected < len(seen)


def test_opt_counts_do_not_depend_on_the_last_digits_of_x_star():
    # Paper scale, trial 0 of seed 0: the f - f* test moved this count by
    # tens of percent with f* one rounding step away.
    lp = generate(LassoSpec(N=600, n=800, alpha=0.01, sparsity=0.9, seed=0))
    _, x_star = oracle_fstar(lp, tight_eps=1e-12)
    counts = set()
    for scale in (1.0, 1.0 - 1e-15, 1.0 + 1e-15):
        run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-11, r0=np.zeros(lp.n),
                         x_star=x_star * scale)
        trace = run_scheme(lp.problem, run).trace
        counts.add((trace.total_iterations, trace.total_prox_calls))
    assert len(counts) == 1
