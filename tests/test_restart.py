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
    run_scheme,
)
from conftest import count_fista_module_calls, make_quadratic, problem_zoo


def step_with(f_history, k=None, x_prev=None, x_k=None, g=None):
    """Arguments ``(k, f_history, prox, x_prev, x_k)`` of an exit test."""
    k = len(f_history) - 1 if k is None else k
    prox = type("P", (), {})()
    prox.g = None if g is None else np.asarray(g, dtype=float)
    prox.g_dual_norm = 0.0 if g is None else float(np.linalg.norm(g))
    return (k, list(f_history), prox,
            np.asarray(x_prev if x_prev is not None else [0.0]),
            np.asarray(x_k if x_k is not None else [0.0]))


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
        e2 = math.e ** 2
        g = [1.0]
        assert exit_optimal_value_scheme(*step_with([e2, 1.0], g=g), f_star=0.0)
        assert not exit_optimal_value_scheme(*step_with([e2, 1.01], g=g), f_star=0.0)
        # g = 0 exactly: x_k is a fixed point, even above the given f_star.
        assert exit_optimal_value_scheme(*step_with([e2, 1.01], g=[0.0]), f_star=0.0)

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
        hist = free.trace.f_history
        first_up = next(k for k in range(1, len(hist)) if hist[k] >= hist[k - 1])
        gated = fista(prob, z, exit_condition=exit_function_scheme, budget=300)
        assert gated.n == first_up

    def test_gradient_scheme_fires_near_momentum_reversal(self):
        prob = ill_conditioned_quadratic()
        z = np.array([4.0, 4.0])
        iterates = []

        def spy(k, f_history, prox, x_prev, x_k):
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
                             r0=np.zeros(20), f_star=f_star, budget=1_000)
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

        def per_step_test(run):
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
        f_star = objective(prob, ref.r_star)
        for scheme in Scheme:
            for early in (True, False):
                run = RestartRun(scheme=scheme, epsilon=eps, r0=np.zeros(prob.dim),
                                 early_exit=early,
                                 f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None,
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
    """sha256 over ``repr(trace)`` and the ``r_star`` bytes of every scheme, early and strict."""
    ref = run_scheme(prob, RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(prob.dim),
                                      budget=5_000))
    f_star = objective(prob, ref.r_star)
    digest = hashlib.sha256()
    for scheme in Scheme:
        for early in (True, False):
            run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(prob.dim),
                             early_exit=early,
                             f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None,
                             budget=5_000)
            result = run_scheme(prob, run)
            digest.update(repr(result.trace).encode())
            digest.update(result.r_star.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, box_only, l1_and_box", [
    (0, "0ff4f20165b661d0d639af12ef344f5ef8413cdc6217d097c089c7f6ac76394c",
        "d17787fe990863a7c85487b0d70c9f1f5117e5b042077e614aa60ace8199d855"),
    (1, "e14fd7e2233b9f401e9a2afb95ef3dbdbfd5a977b22babacf8e226052424ed4d",
        "4b6e86d60d2cdfe82c6741d2ec5ed5d5c578eff4fa1079950e9f9a9b871297f9"),
    (2, "541218a0d5cfac878468eb8e78262dbf8b4a77719c8c0238055047049b0ebe05",
        "c5dd7bcee5349cf513a960f55bd4b091628872cc806e3130bce44220be2af43b"),
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


def test_strict_opt_ends_at_a_fixed_point_above_f_star():
    # On this l1-plus-box draw the last opt call starts at f(x_0) a rounding
    # step above the reference f_star and reaches g = 0 exactly at points
    # whose f sits 1 to 3 steps above f_star, so the gap test, whose right
    # side is then 1/e^2 of a step, never fires; without the g = 0 test in
    # exit_optimal_value_scheme only the budget stops the call.
    prob = problem_zoo(np.random.default_rng(904249022))[3]
    ref = run_scheme(prob, RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(prob.dim),
                                      budget=500))
    run = RestartRun(scheme=Scheme.OPTIMAL_VALUE, epsilon=1e-9, r0=np.zeros(prob.dim),
                     early_exit=False, f_star=objective(prob, ref.r_star), budget=20_000)
    trace = run_scheme(prob, run).trace
    assert not trace.exhausted
    assert trace.final_g_norm <= 1e-9


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
    f_star, _ = oracle_fstar(lp, tight_eps=1e-12, budget=budget)
    counts = {}
    for early in (True, False):
        for scheme in Scheme:
            run = RestartRun(scheme=scheme, epsilon=1e-9, r0=np.zeros(lp.n), early_exit=early,
                             f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None,
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
        ("strict", "opt"): (420, 454),
        ("strict", "lcr"): (327, 352),
    }


def test_support_product_changes_no_scheme(monkeypatch):
    """Every scheme in both exit modes, with the support product of ``A x`` on and off.

    The instance stores 20,000 entries, above the gate; the golden digests
    and pinned counts use instances below it.
    """
    spec = LassoSpec(N=100, n=200, alpha=0.01, sparsity=0.0, seed=7)
    on = generate(spec)
    assert on.problem.smooth.least_squares._support is not None
    monkeypatch.setattr(model, "_SUPPORT_MIN_NNZ", math.inf)
    off = generate(spec)
    assert off.problem.smooth.least_squares._support is None
    restricted = [0]
    kernel = model._sparse_matvec

    def counting(M, v):
        restricted[0] += M[0] is model._sparsetools.csc_matvec and M[2] < spec.n
        return kernel(M, v)

    monkeypatch.setattr(model, "_sparse_matvec", counting)
    budget = 20_000
    f_star, _ = oracle_fstar(off, tight_eps=1e-12, budget=budget)
    for early in (True, False):
        for scheme in Scheme:
            run = RestartRun(scheme=scheme, epsilon=1e-6, r0=np.zeros(spec.n), early_exit=early,
                             f_star=f_star if scheme is Scheme.OPTIMAL_VALUE else None,
                             budget=budget)
            restricted[0] = 0
            got = run_scheme(on.problem, run)
            assert restricted[0] > got.trace.total_iterations // 2, (early, scheme)
            want = run_scheme(off.problem, run)
            assert not got.trace.exhausted
            assert repr(got.trace) == repr(want.trace), (early, scheme)
            assert np.array_equal(got.r_star.view(np.uint64), want.r_star.view(np.uint64))
