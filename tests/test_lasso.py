import math

import numpy as np
import pytest
from scipy import sparse

from fistakit import (
    LassoProblem,
    LassoSpec,
    Metric,
    OracleError,
    RestartRun,
    Scheme,
    generate,
    generate_least_squares,
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
        m = gershgorin_metric(sparse.csc_array(np.eye(2)), N=2)
        assert np.allclose(m.diag, [0.5, 0.5])

    def test_single_row(self):
        m = gershgorin_metric(sparse.csc_array(np.array([[1.0, 1.0]])), N=1)
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
        m = gershgorin_metric(A, N=2)
        assert m.diag[0] == pytest.approx(0.5)
        assert m.diag[1] == pytest.approx(0.5e-12)

    def test_all_zero_matrix_falls_back_to_identity(self):
        A = sparse.csc_array(np.zeros((3, 4)))
        m = gershgorin_metric(A, N=3)
        assert np.all(m.diag == 1.0)


class TestLeastSquaresFamily:
    def test_requires_overdetermined(self):
        with pytest.raises(ValueError):
            generate_least_squares(5, 10, seed=0)

    def test_no_l1_term(self):
        lp = generate_least_squares(12, 6, seed=0)
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
        lp = generate_least_squares(10, 6, seed=2)
        path = tmp_path / "ls.lasso"
        save_problem(lp, path)
        back = load_problem(path)
        assert back.weights is None
        assert (back.A != lp.A).nnz == 0

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
        lp = LassoProblem.build(
            A=sparse.csc_array(np.array([[1.0]])),
            b=np.array([3.0]),
            weights=np.array([1.0]),
            metric=Metric([1.0]),
        )
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


class TestOracleMu:
    def test_matched_curvature_gives_one(self):
        A = sparse.csc_array(np.eye(3))
        lp = LassoProblem.build(A, np.zeros(3), metric=Metric([1.0 / 3] * 3))
        assert oracle_mu(lp) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_case(self):
        # H = A'A/N = diag(1, 4) against metric diag(4, 4): smallest ratio 1/4.
        A = sparse.csc_array(np.diag([math.sqrt(2.0), math.sqrt(8.0)]))
        lp = LassoProblem.build(A, np.zeros(2), metric=Metric([4.0, 4.0]))
        assert oracle_mu(lp) == pytest.approx(0.25, rel=1e-12)

    def test_agrees_with_inverse_power_iteration(self):
        lp = generate_least_squares(10, 10, seed=23)
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
        lp = generate_least_squares(30, 12, seed=9)
        mu = oracle_mu(lp)
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = x_star + rng.standard_normal(12) * rng.uniform(0.01, 5.0)
            gap = objective(lp.problem, x) - f_star
            quad = 0.5 * mu * lp.metric.norm(x - x_star) ** 2
            assert gap >= quad * (1 - 1e-9) - 1e-12
