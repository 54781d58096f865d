"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
as they complete).  The heavyweight instance families are built once per
module and shared.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from fistakit import (
    Box,
    LassoSpec,
    RestartRun,
    Scheme,
    WeightedL1,
    Zero,
    composite_gradient_map,
    fista,
    generate,
    oracle_fstar,
    oracle_mu,
    run_scheme,
)
from fistakit.cli import ExperimentConfig, run_experiment
from fistakit.fista import TSequence

from conftest import make_quadratic


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


# Float-evaluation allowance for inequalities between objective values read
# off as doubles; a few ulps of the magnitudes involved.
def f_noise(*values):
    return 64.0 * np.finfo(float).eps * max([1.0, *map(abs, values)])


# ----------------------------------------------------------------------
# shared families


@pytest.fixture(scope="module")
def lasso_family():
    """50 seeded instances (N=60, n=80, alpha=0.01) with reference optima."""
    family = []
    for i in range(50):
        lp = generate(LassoSpec(N=60, n=80, alpha=0.01, sparsity=0.9, seed=3000 + i))
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        family.append((lp, f_star, x_star))
    return family


@pytest.fixture(scope="module")
def free_runs(lasso_family):
    """Budget-limited runs of the plain accelerated loop, exit disabled."""
    return [
        (lp, f_star, x_star, fista(lp.problem, np.zeros(80), budget=500))
        for lp, f_star, x_star in lasso_family
    ]


@pytest.fixture(scope="module")
def quad_family():
    """10 seeded strongly convex instances (N=40, n=20) with growth data."""
    family = []
    for i in range(10):
        lp = generate(LassoSpec(
            N=40, n=20, alpha=0.0, sparsity=0.0, seed=7000 + i, family="least-squares"))
        mu = oracle_mu(lp)
        f_star, x_star = oracle_fstar(lp, tight_eps=1e-12)
        family.append((lp, mu, f_star, x_star))
    return family


@pytest.fixture(scope="module")
def ranking_run(tmp_path_factory):
    """Criterion-9 experiment: 20 trials at desk scale, eps = 1e-9."""
    out = tmp_path_factory.mktemp("ranking")
    cfg = ExperimentConfig(
        N=60, n=80, alpha=0.01, sparsity=0.9, trials=20,
        epsilon=1e-9, oracle_epsilon=1e-12, seed=1000, out=out, jobs=1,
    )
    t0 = time.perf_counter()
    stats, code = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, stats, code, elapsed


# ----------------------------------------------------------------------
# criteria


def test_criterion_1_t_sequence():
    with criterion(1, "t-sequence identity and growth for k <= 1e6 in < 1 s"):
        t0 = time.perf_counter()
        ts = TSequence.generate(10**6)
        lhs = ts[:-1] ** 2
        rhs = ts[1:] ** 2 - ts[1:]
        rel = np.max(np.abs(lhs - rhs) / lhs)
        k = np.arange(ts.size)
        grows = bool(np.all(ts >= (k + 2) / 2))
        elapsed = time.perf_counter() - t0
        assert rel <= 1e-12
        assert grows
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_prox_grid_equivalence():
    with criterion(2, "closed-form prox matches grid search on 100 scalars per kind"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(12345)
        # The minimizer lies within |grad|/metric <= |y - center| < 5.5 of y
        # (metric dominates curvature; shrinkage and clipping only pull it
        # further toward [-3, 3]), so a shifted window suffices.
        offsets = np.arange(-5.5, 5.5 + 1e-5, 1e-5)
        quad_base = 0.5 * offsets**2
        for kind in ("zero", "l1", "box"):
            for _ in range(100):
                curv = rng.uniform(0.2, 2.0)
                center = rng.uniform(-2.0, 2.0)
                metric = curv + rng.uniform(0.0, 2.0)
                y = rng.uniform(-3.0, 3.0)
                xs = y + offsets
                nonsmooth, constraint = Zero(), None
                if kind == "zero":
                    psi = 0.0
                elif kind == "l1":
                    w = rng.uniform(0.0, 2.0)
                    nonsmooth = WeightedL1([w])
                    psi = w * np.abs(xs)
                else:
                    lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
                    constraint = Box([lo], [hi])
                    psi = np.where((xs >= lo) & (xs <= hi), 0.0, np.inf)
                prob = make_quadratic([[curv]], [center], metric_diag=[metric],
                                      nonsmooth=nonsmooth, constraint=constraint)
                grad_val = curv * (y - center)
                model = psi + grad_val * offsets + metric * quad_base
                best = xs[np.argmin(model)]
                step = composite_gradient_map(prob, np.array([y]))
                assert abs(step.y_plus[0] - best) <= 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_objective_rate(free_runs):
    with criterion(3, "objective gap <= 2 d^2/(k+1)^2 at every k on 50 instances"):
        for lp, f_star, x_star, res in free_runs:
            x0 = composite_gradient_map(lp.problem, np.zeros(80)).y_plus
            dist = lp.metric.norm(x0 - x_star)
            for i, f_val in enumerate(res.f_history[1:]):
                k = i + 1
                bound = 2.0 * dist * dist / (k + 1) ** 2
                assert f_val - f_star <= bound * (1 + 1e-8) + 1e-12, (
                    f"seed={lp.spec.seed} k={k}"
                )


def test_criterion_4_gradient_rate(free_runs):
    with criterion(4, "gradient dual norm <= 4 d/(k+2) at every k on 50 instances"):
        for lp, f_star, x_star, res in free_runs:
            x0 = composite_gradient_map(lp.problem, np.zeros(80)).y_plus
            dist = lp.metric.norm(x0 - x_star)
            for i, g_val in enumerate(res.g_history[1:]):
                bound = 4.0 * dist / (i + 2)  # g evaluated at y_i
                assert g_val <= bound * (1 + 1e-8) + 1e-12, (
                    f"seed={lp.spec.seed} k={i + 1}"
                )


def test_criterion_5_restart_decrease(lasso_family):
    with criterion(5, "half g(r_{j-1})^2 <= f(r_{j-1}) - f(r_j) for all lcr pairs"):
        for lp, f_star, x_star in lasso_family:
            run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(80), budget=4_000)
            out = run_scheme(lp.problem, run)
            assert not out.trace.exhausted
            recs = out.trace.records
            for prev, curr in zip(recs, recs[1:]):
                if math.isnan(prev.g_dual_norm):
                    continue
                lhs = 0.5 * prev.g_dual_norm**2
                rhs = prev.f_r - curr.f_r
                assert lhs <= rhs + f_noise(prev.f_r, curr.f_r), (
                    f"seed={lp.spec.seed} j={curr.j}"
                )


def test_criterion_6_inner_iteration_bound(quad_family):
    with criterion(6, "observed n_j <= ceil(4 sqrt(e+1)/sqrt(mu)) on growth family"):
        for lp, mu, f_star, x_star in quad_family:
            bound = math.ceil(4.0 * math.sqrt(math.e + 1.0) / math.sqrt(mu))
            run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(20), budget=1_000)
            out = run_scheme(lp.problem, run)
            assert not out.trace.exhausted
            for rec in out.trace.records:
                assert rec.n_obs <= bound, f"mu={mu:.4f} j={rec.j} n={rec.n_obs}"


def test_criterion_7_total_iteration_bound(quad_family):
    with criterion(7, "total prox steps within (16/sqrt(mu)) ceil(ln(1+2 gap/eps^2))"):
        eps = 1e-9
        for lp, mu, f_star, x_star in quad_family:
            r0 = np.zeros(20)
            run = RestartRun(scheme=Scheme.LCR, epsilon=eps, r0=r0, budget=1_000)
            out = run_scheme(lp.problem, run)
            assert not out.trace.exhausted
            gap0 = lp.problem.smooth.value(r0) - f_star
            bound = (16.0 / math.sqrt(mu)) * math.ceil(
                math.log1p(2.0 * gap0 / (eps * eps))
            )
            assert out.trace.total_prox_calls <= bound, (
                f"mu={mu:.4f} total={out.trace.total_prox_calls} bound={bound:.1f}"
            )


def test_criterion_8_single_call_growth_claims(quad_family):
    with criterion(8, "single calls decrease after 2/sqrt(mu) and contract by e after"
                      " 2 sqrt(e+1)/sqrt(mu)"):
        for lp, mu, f_star, x_star in quad_family:
            res = fista(lp.problem, np.zeros(20), budget=300)
            hist = res.f_history
            k_mono = math.floor(2.0 / math.sqrt(mu))
            k_contr = math.floor(2.0 * math.sqrt(math.e + 1.0) / math.sqrt(mu))
            assert k_contr < len(hist), "run too short to exercise the claims"
            f0 = hist[0]
            for k in range(k_mono, len(hist)):
                assert hist[k] <= f0, f"mu={mu:.4f} k={k}"
            for k in range(k_contr, len(hist)):
                assert hist[k] - f_star <= (f0 - hist[k]) / math.e, (
                    f"mu={mu:.4f} k={k}"
                )


def test_criterion_9_scheme_ranking(ranking_run):
    with criterion(9, "lcr average at most half of no-restart; all schemes reach eps"):
        cfg, stats, code, elapsed = ranking_run
        assert code == 0
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        by_name = {st.scheme.value: st for st in stats}
        assert by_name["lcr"].average <= 0.5 * by_name["none"].average
        rows = (cfg.out / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg.trials * len(cfg.schemes)
        for row in rows:
            fields = row.split(",")
            assert fields[-1] == "ok", row
            assert float(fields[4]) <= cfg.epsilon, row


def test_criterion_9_emitted_traces_verify(ranking_run):
    with criterion(9, "emitted desk-scale traces pass every applicable bound check"):
        from fistakit.cli import verify_bounds

        cfg = ranking_run[0]
        checks, failures = verify_bounds(cfg.out)
        assert failures == 0
        names = {c.name for c in checks if c.status == "PASS"}
        assert {"nr-objective-rate", "nr-gradient-rate", "lcr-restart-decrease"} <= names


def test_criterion_10_determinism(ranking_run, tmp_path):
    with criterion(10, "identical config reproduces byte-identical CSV outputs"):
        cfg = ranking_run[0]
        rerun_out = tmp_path / "rerun"
        rerun_cfg = ExperimentConfig(
            N=cfg.N, n=cfg.n, alpha=cfg.alpha, sparsity=cfg.sparsity,
            trials=cfg.trials, epsilon=cfg.epsilon,
            oracle_epsilon=cfg.oracle_epsilon, seed=cfg.seed,
            out=rerun_out, jobs=2,
        )
        run_experiment(rerun_cfg)
        names = ["trials.csv", "oracles.csv", "stats.csv"]
        names += [
            f"traces/trial_{t:04d}{suffix}"
            for t in range(cfg.trials)
            for suffix in (".csv", "_restarts.csv")
        ]
        for name in names:
            a = (cfg.out / name).read_bytes()
            b = (rerun_out / name).read_bytes()
            assert a == b, f"{name} differs between reruns"


def test_criterion_11_prox_accounting(lasso_family):
    with criterion(11, "prox counter equals iterations + restarts + outer checks"):
        lp, _, x_star = lasso_family[0]
        for scheme in Scheme:
            for early in (True, False):
                run = RestartRun(
                    scheme=scheme, epsilon=1e-8, r0=np.zeros(80),
                    early_exit=early,
                    x_star=x_star if scheme is Scheme.OPTIMAL_VALUE else None,
                    budget=10_000,
                )
                trace = run_scheme(lp.problem, run).trace
                assert trace.total_prox_calls == (
                    trace.total_iterations + trace.calls + trace.outer_checks
                ), f"{scheme.value} early_exit={early}"
                if early:
                    assert trace.outer_checks == 0
