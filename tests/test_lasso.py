import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import sparse

import fistakit.oracles as oracles
from fistakit import (
    Box,
    LassoProblem,
    LassoSpec,
    LeastSquares,
    Metric,
    OracleError,
    RestartRun,
    Scheme,
    composite_gradient_map,
    generate,
    gershgorin_metric,
    kkt_residual,
    load_problem,
    objective,
    oracle_fstar,
    oracle_mu,
    run_scheme,
    save_problem,
)

from conftest import check_descent_lemma


def with_metric(lp, diag):
    """``lp`` with its metric replaced by ``Metric(diag)``."""
    return dataclasses.replace(lp, problem=dataclasses.replace(lp.problem, metric=Metric(diag)))


class TestSpecValidation:
    def test_shape_constraint(self):
        with pytest.raises(ValueError):
            LassoSpec(N=10, n=10, alpha=0.1)
        with pytest.raises(ValueError):
            LassoSpec(N=0, n=5, alpha=0.1)

    def test_sparsity_range(self):
        with pytest.raises(ValueError):
            LassoSpec(N=2, n=3, alpha=0.1, sparsity=1.0)
        with pytest.raises(ValueError):
            LassoSpec(N=2, n=3, alpha=0.1, sparsity=-0.1)

    def test_alpha_nonnegative(self):
        with pytest.raises(ValueError):
            LassoSpec(N=2, n=3, alpha=-1.0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            LassoSpec(N=2, n=3, alpha=0.1, seed=-1)

    @pytest.mark.parametrize("spec, message", [
        (dict(N=2, n=3, alpha=-1.0, seed=-1), "seed must be >= 0"),
        (dict(N=3, n=3, alpha=math.nan), "alpha must be finite"),
        (dict(N=3, n=3, alpha=0.1, sparsity=1.0), "need n > N >= 1"),
        (dict(N=2, n=3, alpha=0.1, sparsity=1.0, family="ridge"),
         "family must be 'lasso' or 'least-squares'"),
        (dict(N=2, n=3, alpha=0.1, sparsity=1.0), "sparsity must lie in"),
    ])
    def test_rules_apply_in_order(self, spec, message):
        # seed, alpha, the family's shape (or an unknown family), sparsity.
        with pytest.raises(ValueError, match=message):
            LassoSpec(**spec)


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = LassoSpec(N=12, n=20, alpha=0.05, sparsity=0.7, seed=99)
        a = generate(spec)
        b = generate(spec)
        assert (a.A != b.A).nnz == 0
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.metric.diag, b.metric.diag)

    def test_different_seeds_differ(self):
        a = generate(LassoSpec(N=12, n=20, alpha=0.05, seed=1))
        b = generate(LassoSpec(N=12, n=20, alpha=0.05, seed=2))
        assert (a.A != b.A).nnz > 0

    def test_zero_fraction_near_sparsity(self):
        lp = generate(LassoSpec(N=600, n=800, alpha=0.01, sparsity=0.9, seed=0))
        frac = 1.0 - lp.A.nnz / (600 * 800)
        assert 0.88 <= frac <= 0.92

    def test_nonzero_values_standard_normal(self):
        lp = generate(LassoSpec(N=600, n=800, alpha=0.01, sparsity=0.9, seed=0))
        vals = lp.A.data
        assert abs(float(np.mean(vals))) <= 0.02
        assert abs(float(np.var(vals)) - 1.0) <= 0.05
        assert abs(float(np.mean(lp.b))) <= 0.1
        assert abs(float(np.var(lp.b)) - 1.0) <= 0.2

    def test_weights_within_range(self):
        lp = generate(LassoSpec(N=12, n=20, alpha=0.05, seed=4))
        assert np.all(lp.weights >= 0.0)
        assert np.all(lp.weights <= 0.05)

    def test_zero_alpha_reduces_to_least_squares(self):
        spec = LassoSpec(N=2, n=3, alpha=0.0, sparsity=0.0, seed=8)
        lp = generate(spec)
        assert np.all(lp.weights == 0.0)
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-12, r0=np.zeros(3), budget=500)
        out = run_scheme(lp.problem, run)
        A = lp.A.toarray()
        x_pinv = np.linalg.pinv(A) @ lp.b
        f_pinv = 0.5 * np.sum((A @ x_pinv - lp.b) ** 2) / lp.N
        assert objective(lp.problem, out.r_star) == pytest.approx(f_pinv, abs=1e-8)

    def test_descent_lemma_spot_check(self):
        rng = np.random.default_rng(0)
        for seed in (0, 1, 2):
            lp = generate(LassoSpec(N=25, n=40, alpha=0.02, sparsity=0.8, seed=seed))
            assert check_descent_lemma(lp.problem, rng, samples=40) == 0.0

    def test_objective_matches_direct_formula(self):
        lp = generate(LassoSpec(N=10, n=15, alpha=0.3, sparsity=0.4, seed=3))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(15)
        direct = 0.5 * np.sum((lp.A @ x - lp.b) ** 2) / lp.N + np.sum(
            lp.weights * np.abs(x)
        )
        assert objective(lp.problem, x) == pytest.approx(direct, rel=1e-14)


class TestGershgorinMetric:
    def test_identity_matrix(self):
        m = gershgorin_metric(sparse.csc_array(np.eye(2)))
        assert np.allclose(m.diag, [0.5, 0.5])

    def test_single_row(self):
        m = gershgorin_metric(sparse.csc_array(np.array([[1.0, 1.0]])))
        assert np.allclose(m.diag, [2.0, 2.0])

    def test_metric_dominates_curvature(self):
        # R - H is positive semidefinite: random Rayleigh quotients >= 0.
        lp = generate(LassoSpec(N=40, n=60, alpha=0.01, sparsity=0.85, seed=21))
        H = (lp.A.T @ lp.A).toarray() / lp.N
        R = np.diag(lp.metric.diag)
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(60)
            assert v @ (R - H) @ v >= -1e-10

    def test_zero_column_is_floored(self):
        A = sparse.csc_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
        m = gershgorin_metric(A)
        assert m.diag[0] == pytest.approx(0.5)
        assert m.diag[1] == pytest.approx(0.5e-12)

    def test_all_zero_matrix_falls_back_to_identity(self):
        A = sparse.csc_array(np.zeros((3, 4)))
        m = gershgorin_metric(A)
        assert np.all(m.diag == 1.0)


class TestProblemView:
    @pytest.mark.parametrize("make", [
        lambda: generate(LassoSpec(N=15, n=25, alpha=0.07, sparsity=0.6, seed=13)),
        lambda: generate(LassoSpec(
            N=10, n=6, alpha=0.0, sparsity=0.0, seed=2, family="least-squares")),
    ], ids=["lasso", "least-squares"])
    def test_data_are_the_problems_own_locked_arrays(self, make):
        lp = make()
        form = lp.problem.smooth
        assert lp.A is form.A
        assert lp.b is form.b
        assert lp.metric is lp.problem.metric
        if lp.weights is not None:
            assert lp.weights is lp.problem.nonsmooth.weights
        for arr in (lp.b, lp.metric.diag, lp.A.data, lp.A.indices, lp.A.indptr,
                    *([] if lp.weights is None else [lp.weights])):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


    @pytest.mark.parametrize("via", ["build-csc", "form-csr", "form-dense"])
    def test_callers_later_edits_reach_neither_matrix_nor_products(self, via):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.5)
        if via == "build-csc":
            A = sparse.csc_array(dense)
            form = LassoProblem.build(A, np.ones(6), weights=np.full(9, 0.1)).problem.smooth
        else:
            A = sparse.csr_array(dense) if via == "form-csr" else dense.copy()
            form = LeastSquares(A, np.ones(6))
        x, r = np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 6)
        before = form.residual(x), form.grad_at_residual(r)
        if via == "form-dense":
            A[:, 0] = 100.0
        else:
            assert not np.shares_memory(form.A.data, A.data)
            A.data[0] = 100.0
            A.indices[0] = A.indices[1]
        assert np.array_equal(form.residual(x), before[0])
        assert np.array_equal(form.grad_at_residual(r), before[1])
        assert np.array_equal(form.A.toarray(), dense)

class TestLeastSquaresFamily:
    def test_requires_overdetermined(self):
        with pytest.raises(ValueError, match="the least-squares family needs N >= n >= 1, "
                                             "got N=5, n=10"):
            LassoSpec(N=5, n=10, alpha=0.0, family="least-squares")
        assert LassoSpec(N=6, n=6, alpha=0.0, family="least-squares").N == 6

    def test_no_l1_term(self):
        lp = generate(LassoSpec(
            N=12, n=6, alpha=0.0, sparsity=0.0, seed=0, family="least-squares"))
        assert lp.weights is None
        assert objective(lp.problem, np.zeros(6)) == pytest.approx(
            0.5 * float(lp.b @ lp.b) / 12
        )


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        lp = generate(LassoSpec(N=15, n=25, alpha=0.07, sparsity=0.6, seed=13))
        path = tmp_path / "inst.lasso"
        save_problem(lp, path)
        back = load_problem(path)
        assert (back.A != lp.A).nnz == 0
        assert np.array_equal(back.b, lp.b)
        assert np.array_equal(back.weights, lp.weights)
        assert back.spec == lp.spec

    def test_round_trip_without_weights(self, tmp_path):
        lp = generate(LassoSpec(
            N=10, n=6, alpha=0.0, sparsity=0.0, seed=2, family="least-squares"))
        path = tmp_path / "ls.lasso"
        save_problem(lp, path)
        back = load_problem(path)
        assert back.weights is None
        assert (back.A != lp.A).nnz == 0
        assert back.spec == lp.spec

    @pytest.mark.parametrize("spec_doc, want", [
        ({"N": 15, "n": 25, "alpha": 0.07, "sparsity": 0.6, "seed": 13},
         LassoSpec(N=15, n=25, alpha=0.07, sparsity=0.6, seed=13, family="lasso")),
        (None, None),
    ], ids=["spec-without-family", "null-spec"])
    def test_older_headers_still_load(self, tmp_path, spec_doc, want):
        # Files written before the spec carried its family: a spec without
        # one is a lasso spec, and a least-squares file had a null spec.
        path = tmp_path / "old.lasso"
        save_problem(generate(LassoSpec(N=15, n=25, alpha=0.07, sparsity=0.6, seed=13)), path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["spec"] = spec_doc
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)
        assert load_problem(path).spec == want

    def test_saves_the_data_the_problem_solves(self, tmp_path):
        # The instance holds locked copies of the caller's vectors, and
        # save_problem writes those, not the caller's arrays edited later.
        A = sparse.csc_array(np.array([[1.0, 0.5], [0.0, 2.0], [1.5, 0.0]]))
        b, w = np.array([1.0, -2.0, 0.5]), np.array([0.1, 0.2])
        lp = LassoProblem.build(A, b, weights=w)
        b[0], w[0] = 7.0, 9.0
        path = tmp_path / "inst.lasso"
        save_problem(lp, path)
        back = load_problem(path)
        assert np.array_equal(back.b, [1.0, -2.0, 0.5])
        assert np.array_equal(back.weights, [0.1, 0.2])

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "nonsense.txt"
        path.write_text("this is not a problem file\n")
        with pytest.raises(ValueError):
            load_problem(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.lasso"
        path.write_bytes(b'{"format": "fistakit-lasso", "version": 99}\n')
        with pytest.raises(ValueError):
            load_problem(path)


class TestOracleFstar:
    def test_scalar_shrinkage_closed_form(self):
        # h(x) = 0.5 (x-3)^2 as a 1x1 design, w = 1, metric 1:
        # minimizer 2, value 0.5 + 2 = 2.5.
        lp = with_metric(LassoProblem.build(
            A=sparse.csc_array(np.array([[1.0]])),
            b=np.array([3.0]),
            weights=np.array([1.0]),
        ), [1.0])
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        assert x_star[0] == pytest.approx(2.0, abs=1e-8)
        assert f_star == pytest.approx(2.5, abs=1e-8)

    def test_matches_pseudoinverse_on_dense_unweighted(self):
        lp = generate(LassoSpec(N=4, n=6, alpha=0.0, sparsity=0.0, seed=17))
        f_star, _ = oracle_fstar(lp, tight_eps=1e-12)
        A = lp.A.toarray()
        x_pinv = np.linalg.pinv(A) @ lp.b
        f_pinv = 0.5 * np.sum((A @ x_pinv - lp.b) ** 2) / lp.N
        assert f_star == pytest.approx(f_pinv, abs=1e-8)

    def test_kkt_postcondition(self, small_lasso):
        f_star, x_star = oracle_fstar(small_lasso, tight_eps=1e-12)
        assert kkt_residual(small_lasso, x_star) <= 1e-6

    def test_idempotent(self, small_lasso):
        a, _ = oracle_fstar(small_lasso, tight_eps=1e-12)
        b, _ = oracle_fstar(small_lasso, tight_eps=1e-12)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_budget_exhaustion_raises(self, small_lasso):
        with pytest.raises(OracleError):
            oracle_fstar(small_lasso, tight_eps=1e-12, budget=10)

    @pytest.mark.parametrize("tight_eps", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("family", ["lasso", "least-squares"])
    def test_tight_eps_must_be_finite_and_positive(self, small_lasso, family, tight_eps):
        # Checked on both paths: the direct least-squares solve would accept
        # any solution at inf and report a bogus tolerance at nan, 0 or -1.
        lp = small_lasso if family == "lasso" else generate(LassoSpec(
            N=30, n=12, alpha=0.0, sparsity=0.0, seed=9, family="least-squares"))
        with pytest.raises(ValueError, match="tight_eps must be finite and > 0"):
            oracle_fstar(lp, tight_eps=tight_eps)

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("family", ["lasso", "least-squares"])
    def test_budget_must_be_at_least_one(self, small_lasso, family, budget):
        # Checked on both paths, though only the lcr solve spends it.
        lp = small_lasso if family == "lasso" else generate(LassoSpec(
            N=30, n=12, alpha=0.0, sparsity=0.0, seed=9, family="least-squares"))
        with pytest.raises(ValueError, match="budget must be >= 1"):
            oracle_fstar(lp, budget=budget)

    def test_solution_failing_the_optimality_check_raises(self, monkeypatch):
        # A metric far above the curvature makes ||g||_* tiny at any point, so
        # a support solve that lands at 2.5 instead of the minimizer 2 passes
        # the ||g||_* check and only the first-order conditions catch it.
        lp = with_metric(LassoProblem.build(
            A=sparse.csc_array(np.array([[1.0]])),
            b=np.array([3.0]),
            weights=np.array([1.0]),
        ), [1e30])
        solve = oracles._support_solve
        monkeypatch.setattr(oracles, "_support_solve",
                            lambda *args: 1.25 * solve(*args))
        with pytest.raises(OracleError, match="fails the optimality check"):
            oracle_fstar(lp, tight_eps=1e-12)

    def test_boxed_instance_takes_an_lcr_run_to_tight_eps(self, small_lasso):
        n = small_lasso.n
        boxed = dataclasses.replace(small_lasso, problem=dataclasses.replace(
            small_lasso.problem, constraint=Box(-0.05 * np.ones(n), 0.05 * np.ones(n))))
        f_star, x_star = oracle_fstar(boxed, tight_eps=1e-10)
        f_lcr, x_lcr = lcr_star(boxed, epsilon=1e-10)
        assert np.array_equal(x_star, x_lcr)
        assert f_star == f_lcr

    def test_kkt_residual_rejects_a_box(self, small_lasso):
        n = small_lasso.n
        boxed = dataclasses.replace(small_lasso, problem=dataclasses.replace(
            small_lasso.problem, constraint=Box(-np.ones(n), np.ones(n))))
        with pytest.raises(ValueError, match="only defined for unconstrained problems"):
            kkt_residual(boxed, np.zeros(n))


def perturbed_support(x_star) -> np.ndarray:
    """``x_star`` with one true coordinate dropped, one spurious one added and one sign flipped."""
    on, off = np.flatnonzero(x_star), np.flatnonzero(x_star == 0.0)
    x0 = x_star.copy()
    x0[on[0]] = 0.0
    x0[off[0]] = 1e-3
    x0[on[1]] = -x0[on[1]]
    return x0


@pytest.fixture
def solve_sizes(monkeypatch):
    """The support size of every support solve the oracle makes from here on."""
    sizes = []
    solve = oracles._support_solve

    def recording(A_S, rhs, x0):
        sizes.append(A_S.shape[1])
        return solve(A_S, rhs, x0)

    monkeypatch.setattr(oracles, "_support_solve", recording)
    return sizes


class TestActiveSetPolish:
    """The correction rounds of a lasso reference, which clean instances never take."""

    @pytest.fixture(scope="class")
    def desk(self):
        lp = generate(LassoSpec(N=60, n=80, alpha=0.01, sparsity=0.9, seed=1000))
        return lp, oracle_fstar(lp, tight_eps=1e-12)[1]

    def test_clean_proposal_needs_no_correction(self, desk, solve_sizes):
        lp, x_star = desk
        _, x = oracle_fstar(lp, tight_eps=1e-12)
        assert solve_sizes == [np.count_nonzero(x_star)]
        assert np.array_equal(x, x_star)

    def test_corrections_reach_the_clean_minimizer(self, desk, solve_sizes):
        lp, x_star = desk
        x = oracles._polish(lp, perturbed_support(x_star))
        assert len(solve_sizes) > 1
        assert np.array_equal(x != 0.0, x_star != 0.0)
        assert np.abs(x - x_star).max() <= 1e-14

    def test_weights_above_the_correlations_give_zero(self, desk, solve_sizes):
        lp, _ = desk
        w = 1.01 * np.abs(lp.A.T @ lp.b) / lp.N
        f_star, x_star = oracle_fstar(LassoProblem.build(lp.A, lp.b, weights=w))
        assert solve_sizes == [0]
        assert not x_star.any()
        assert f_star == 0.5 * float(lp.b @ lp.b) / lp.N

    def test_unsettled_polish_raises(self, desk, monkeypatch):
        lp, x_star = desk
        monkeypatch.setattr(oracles, "POLISH_ROUNDS", 3)
        with pytest.raises(OracleError, match="did not settle in 3 rounds"):
            oracles._polish(lp, perturbed_support(x_star))

    @pytest.mark.parametrize("weight_scale", [1.0, 1.5])
    def test_duplicated_support_column_is_checked_or_refused(self, desk, weight_scale):
        # With equal weights the two copies share the mass, and A_S^T A_S is
        # singular; with a heavier copy the minimizer leaves it at zero.
        # Either way the optimal value is the clean one.
        lp, x_star = desk
        j = np.flatnonzero(x_star)[0]
        A = lp.A.toarray()
        dup = LassoProblem.build(sparse.csc_array(np.column_stack([A, A[:, j]])), lp.b,
                                 weights=np.append(lp.weights, weight_scale * lp.weights[j]))
        try:
            f_star, x = oracle_fstar(dup, tight_eps=1e-12)
        except OracleError:
            return
        assert composite_gradient_map(dup.problem, x).g_dual_norm <= 1e-12
        assert kkt_residual(dup, x) <= oracles.KKT_TOL
        assert f_star == pytest.approx(objective(lp.problem, x_star), rel=1e-14)

    def test_unmet_tolerance_raises_without_a_fallback(self, desk, monkeypatch):
        lp, _ = desk
        runs = []
        run_scheme = oracles.run_scheme
        monkeypatch.setattr(oracles, "run_scheme",
                            lambda problem, run: runs.append(run) or run_scheme(problem, run))
        with pytest.raises(OracleError, match="active-set solution has"):
            oracle_fstar(lp, tight_eps=1e-300)
        assert [run.epsilon for run in runs] == [oracles.PROPOSAL_EPS]

    @pytest.mark.parametrize("N, n, seed", [(60, 80, 1000), (600, 800, 0)],
                             ids=["desk", "paper"])
    def test_agrees_with_an_lcr_run(self, N, n, seed):
        lp = generate(LassoSpec(N=N, n=n, alpha=0.01, sparsity=0.9, seed=seed))
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        f_lcr, x_lcr = lcr_star(lp)
        assert abs(f_star - f_lcr) <= 4 * math.ulp(f_star)
        assert np.abs(x_star - x_lcr).max() <= 1e-8
        assert kkt_residual(lp, x_star) <= 1e-15



def lcr_star(lp, epsilon=1e-12) -> tuple[float, np.ndarray]:
    """The value and point an lcr run from zero to ``epsilon`` reaches."""
    run = RestartRun(scheme=Scheme.LCR, epsilon=epsilon, r0=np.zeros(lp.n), budget=200_000)
    out = run_scheme(lp.problem, run)
    assert not out.trace.exhausted
    return objective(lp.problem, out.r_star), out.r_star


def without_lcr(monkeypatch):
    """Make any lcr solve inside the oracle fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct path ran the lcr scheme")

    monkeypatch.setattr(oracles, "run_scheme", forbidden)


def duplicated_column(lp) -> LassoProblem:
    """``lp`` with its first column repeated: same range, so the same f*, but rank deficient."""
    A = lp.A.toarray()
    return LassoProblem.build(sparse.csc_array(np.column_stack([A, A[:, 0]])), lp.b)


class TestDirectLeastSquaresOracle:
    """Without a box or a nonzero l1 weight, f* is one least-squares solve.

    An lcr run to 1e-12 is the cross-check.
    """

    @pytest.mark.parametrize("N, n, seed, sparsity", [
        (120, 80, 1000, 0.9), (120, 80, 5000, 0.9), (40, 20, 7000, 0.0),
        (30, 12, 9, 0.0), (10, 10, 23, 0.0), (60, 40, 3, 0.5),
    ])
    def test_agrees_with_an_lcr_run(self, monkeypatch, N, n, seed, sparsity):
        lp = generate(LassoSpec(
            N=N, n=n, alpha=0.0, sparsity=sparsity, seed=seed, family="least-squares"))
        want = lcr_star(lp)[0]
        without_lcr(monkeypatch)
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        assert f_star == pytest.approx(want, rel=1e-12)
        assert f_star == objective(lp.problem, x_star)
        assert kkt_residual(lp, x_star) <= 1e-12

    def test_rank_deficient_design_keeps_the_exact_value(self, monkeypatch):
        full = generate(LassoSpec(
            N=40, n=20, alpha=0.0, sparsity=0.0, seed=7001, family="least-squares"))
        lp = duplicated_column(full)
        with pytest.raises(OracleError, match="rank deficient"):
            oracle_mu(lp)
        want = lcr_star(full)[0]
        assert lcr_star(lp)[0] == pytest.approx(want, rel=1e-12)
        without_lcr(monkeypatch)
        f_star, _ = oracle_fstar(lp, tight_eps=1e-12)
        assert f_star == pytest.approx(want, rel=1e-12)

    def test_all_zero_weights_take_the_direct_path(self, monkeypatch):
        plain = generate(LassoSpec(
            N=40, n=20, alpha=0.0, sparsity=0.0, seed=7002, family="least-squares"))
        lp = LassoProblem.build(plain.A, plain.b, weights=np.zeros(20))
        assert lp.weights is not None
        want = lcr_star(lp)[0]
        without_lcr(monkeypatch)
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        assert f_star == pytest.approx(want, rel=1e-12)
        assert np.array_equal(x_star, oracle_fstar(plain, tight_eps=1e-12)[1])

    def test_unmet_tolerance_raises_without_a_fallback(self, monkeypatch):
        lp = generate(LassoSpec(
            N=120, n=80, alpha=0.0, sparsity=0.9, seed=1000, family="least-squares"))
        without_lcr(monkeypatch)
        with pytest.raises(OracleError, match="direct least-squares solution"):
            oracle_fstar(lp, tight_eps=1e-300)


class TestOracleMu:
    def test_matched_curvature_gives_one(self):
        A = sparse.csc_array(np.eye(3))
        lp = with_metric(LassoProblem.build(A, np.zeros(3)), [1.0 / 3] * 3)
        assert oracle_mu(lp) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_case(self):
        # H = A'A/N = diag(1, 4) against metric diag(4, 4): smallest ratio 1/4.
        A = sparse.csc_array(np.diag([math.sqrt(2.0), math.sqrt(8.0)]))
        lp = with_metric(LassoProblem.build(A, np.zeros(2)), [4.0, 4.0])
        assert oracle_mu(lp) == pytest.approx(0.25, rel=1e-12)

    def test_agrees_with_inverse_power_iteration(self):
        lp = generate(LassoSpec(
            N=10, n=10, alpha=0.0, sparsity=0.0, seed=23, family="least-squares"))
        mu = oracle_mu(lp)
        H = (lp.A.T @ lp.A).toarray() / lp.N
        inv_sqrt = 1.0 / np.sqrt(lp.metric.diag)
        M = H * np.outer(inv_sqrt, inv_sqrt)
        # Independent method: inverse power iteration on M.
        v = np.ones(10) / math.sqrt(10)
        for _ in range(2000):
            v = np.linalg.solve(M, v)
            v /= np.linalg.norm(v)
        lam = float(v @ M @ v)
        assert mu == pytest.approx(lam, rel=1e-8)

    def test_rejects_weighted_instances(self, small_lasso):
        with pytest.raises(OracleError):
            oracle_mu(small_lasso)

    def test_rejects_underdetermined(self):
        lp = generate(LassoSpec(N=4, n=8, alpha=0.0, sparsity=0.0, seed=1))
        with pytest.raises(OracleError):
            oracle_mu(lp)

    def test_growth_inequality_holds(self):
        # f(x) - f* >= (mu/2) ||x - x*||_R^2 on sampled points.
        lp = generate(LassoSpec(
            N=30, n=12, alpha=0.0, sparsity=0.0, seed=9, family="least-squares"))
        mu = oracle_mu(lp)
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = x_star + rng.standard_normal(12) * rng.uniform(0.01, 5.0)
            gap = objective(lp.problem, x) - f_star
            quad = 0.5 * mu * lp.metric.norm(x - x_star) ** 2
            assert gap >= quad * (1 - 1e-9) - 1e-12
