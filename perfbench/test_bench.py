"""Checks of the benchmark itself, at a configuration small enough for a test.

Run from the checkout root::

    python3 -m pytest perfbench/test_bench.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
from hostspeed import REFERENCE_S, HostSpeed
from fistakit import LassoSpec, RestartRun, Scheme, generate, run_scheme

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "lasso": {"family": "lasso", "N": 8, "n": 12, "alpha": 0.05, "sparsity": 0.5, "trials": 2,
              "epsilon": 1e-8, "oracle_epsilon": 1e-12, "strict_exit": False},
    "least-squares": {"family": "least-squares", "N": 12, "n": 8, "sparsity": 0.5, "trials": 2,
                      "epsilon": 1e-8, "oracle_epsilon": 1e-12, "strict_exit": True},
}


def tiny(tmp_path, family, **changes):
    return bench.workload_config({"config": {**TINY[family], **changes}}, 3, tmp_path / "tiny")


@pytest.mark.parametrize("family", sorted(TINY))
def test_tracing_changes_no_result(tmp_path, family):
    config = tiny(tmp_path, family)
    untraced = bench.run_repeat(config, traced=False)
    traced = bench.run_repeat(config, traced=True)
    assert not untraced.failures and not traced.failures
    assert traced.iters == untraced.iters
    assert traced.digest == untraced.digest


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(tmp_path, trace):
    result, details = bench.measure(tiny(tmp_path, "lasso"), seconds=0, trace=trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] and details["deterministic"]
    assert result["failed"] == 0 and result["attempted"] == 2 * 2 * 5
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


def test_gate_fails_an_eps_the_budget_cannot_reach(tmp_path):
    config = tiny(tmp_path, "lasso", budget=30)
    result, details = bench.measure(config, seconds=0, trace=False)
    assert not result["correct"]
    assert result["attempted"] == 2 * 2 * 5
    assert result["failed"] == result["attempted"]
    assert details["failures"]


def test_gate_reasons():
    lp = generate(LassoSpec(N=8, n=12, alpha=0.05, sparsity=0.5, seed=3))
    run = RestartRun(scheme=Scheme.LCR, epsilon=1e-8, r0=np.zeros(lp.n), budget=5)
    short = run_scheme(lp.problem, run)
    assert bench._gate(short, 1e-8, False) == "budget exhausted"
    done = run_scheme(lp.problem, RestartRun(scheme=Scheme.LCR, epsilon=1e-8, r0=np.zeros(lp.n)))
    assert bench._gate(done, 1e-8, False) == ""
    assert bench._gate(done, 1e-8, True) == "verify_bounds FAIL"
    assert bench._gate(done, done.trace.final_g_norm / 2, False).startswith("final")
    done.trace.total_prox_calls += 1
    assert bench._gate(done, 1e-8, False) == "prox identity broken"
    assert bench._gate(None, 1e-8, False) == "not run"


def test_scaled_time_weights_by_probe_speed_and_skips_probes():
    speed = HostSpeed(12, 8, 0.5)
    ref = REFERENCE_S
    # Readings at [0, 1] and [3, 4]: the probe took ref, then 2 * ref.
    speed.start.extend([0.0, 3.0])
    speed.end.extend([1.0, 4.0])
    speed.seconds.extend([ref, 2 * ref])
    rate = (1.0 + 0.5) / 2
    assert speed.scaled(0.2, 0.8) == 0.0
    assert speed.scaled(1.0, 3.0) == pytest.approx(2.0 * rate)
    assert speed.scaled(0.5, 3.5) == pytest.approx(2.0 * rate)
    assert speed.scaled(-1.0, 0.0) == pytest.approx(1.0)
    assert speed.scaled(4.0, 6.0) == pytest.approx(1.0)
    both = speed.scaled(np.array([-1.0, 1.0]), np.array([0.0, 2.0]))
    assert both == pytest.approx([1.0, rate])


def test_scaled_repeat_leaves_out_the_probes(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "PROBE_EVERY_S", 1e9)
    speed = HostSpeed(12, 8, 0.5)
    rep = bench.run_repeat(tiny(tmp_path, "lasso"), traced=False, speed=speed)
    assert not rep.failures
    # one reading before the run, per instance, per solve, after the run and per verify
    assert len(speed.seconds) == 1 + 2 * (1 + 5) + 1 + bench.VERIFY_REPEATS
    assert rep.experiment_s > 0 and len(rep.verify_s) == bench.VERIFY_REPEATS
    assert sum(rep.solve.values()) < rep.experiment_s


def test_long_solves_get_readings_inside(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "PROBE_EVERY_S", 0.0)
    speed = HostSpeed(12, 8, 0.5)
    paced = bench.run_repeat(tiny(tmp_path, "lasso"), traced=False, speed=speed)
    assert not paced.failures
    # with no pause between readings, every FISTA step takes one
    assert len(speed.seconds) > 1 + 2 * (1 + 5) + 1 + bench.VERIFY_REPEATS + sum(paced.iters.values())
    assert paced.digest == bench.run_repeat(tiny(tmp_path, "lasso"), traced=False).digest
