import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import fistakit
from fistakit import RestartRun, Scheme, oracle_fstar, run_scheme
from fistakit.cli import ExperimentConfig, run_experiment

# The package and every module in it, found on disk so that a new module is covered too.
MODULES = ["fistakit", *(f"fistakit.{m.name}" for m in pkgutil.iter_modules(fistakit.__path__))]


def test_every_module_is_found():
    assert {"fistakit.model", "fistakit.fista", "fistakit.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is gone breaks `import *`.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# The package's names: the union of its modules' lists, each name once.
PACKAGE_NAMES = [
    "Box", "CompositeProblem", "DEFAULT_ITERATION_BUDGET", "ExitCondition",
    "FistaResult", "LassoProblem", "LassoSpec", "LeastSquares", "Metric",
    "OracleError", "ProxCounter", "ProxStep", "RestartRecord", "RestartResult", "RestartRun",
    "RestartTrace", "Scheme", "TSequence", "WeightedL1", "Zero",
    "check_least_squares_args", "composite_gradient_map", "exit_function_scheme",
    "exit_gradient_scheme", "exit_lcr", "exit_optimal_value_scheme", "fista", "generate",
    "generate_least_squares", "gershgorin_metric", "gradient_norm_below", "kkt_residual",
    "load_problem", "objective", "oracle_fstar", "oracle_mu", "run_scheme", "save_problem",
]


def test_package_exports_each_module_name_once():
    assert sorted(fistakit.__all__) == PACKAGE_NAMES
    namespace = {}
    exec("from fistakit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES
    # The package's fista is the solver, which shadows its submodule.
    assert fistakit.fista is importlib.import_module("fistakit.fista").fista


# The benchmark's tracer (perfbench/tracer.py) replaces these names at run time
# and counts what passes through them, so each must exist and be called
# through its module.
TRACED_NAMES = {
    "fistakit.fista": ["composite_gradient_map", "objective"],
    "fistakit.restart": ["fista", "composite_gradient_map", "objective", "exit_function_scheme",
                         "exit_gradient_scheme", "exit_optimal_value_scheme", "exit_lcr"],
    "fistakit.cli": ["run_scheme", "oracle_fstar", "oracle_mu", "kkt_residual"],
}
TINY = dict(N=15, n=22, alpha=0.01, sparsity=0.5, trials=1, epsilon=1e-7, oracle_epsilon=1e-9,
            seed=42)


def test_names_the_benchmark_tracer_swaps_see_an_experiment(monkeypatch, tmp_path):
    calls = dict.fromkeys([f"{m}.{n}" for m, names in TRACED_NAMES.items() for n in names]
                          + ["ExperimentConfig.instance"], 0)

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    for module_name, names in TRACED_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            monkeypatch.setattr(module, name, counting(f"{module_name}.{name}",
                                                       getattr(module, name)))
    config_cls = ExperimentConfig
    monkeypatch.setattr(config_cls, "instance",
                        counting("ExperimentConfig.instance", config_cls.instance))
    # Strict exit, so that the outer checks go through restart's prox name.
    _, code = run_experiment(ExperimentConfig(out=tmp_path, strict_exit=True, **TINY))
    assert code == 0
    assert [key for key, count in calls.items() if count == 0] == []


def test_smooth_part_with_replaced_callables_solves_the_same():
    # The tracer's detailed mode wraps value and grad through dataclasses.replace.
    lp = ExperimentConfig(**TINY).instance(0)
    smooth = lp.problem.smooth
    calls = [0]

    def counted(func):
        def wrapper(x):
            calls[0] += 1
            return func(x)
        return wrapper

    wrapped = dataclasses.replace(smooth, value=counted(smooth.value), grad=counted(smooth.grad))
    traced = dataclasses.replace(lp, problem=dataclasses.replace(lp.problem, smooth=wrapped))
    (f_got, x_got), (f_want, x_want) = (oracle_fstar(p, tight_eps=1e-9) for p in (traced, lp))
    assert f_got == f_want and np.array_equal(x_got, x_want)
    for early in (True, False):
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-7, r0=np.zeros(lp.n), early_exit=early,
                         budget=10_000)
        got, want = run_scheme(traced.problem, run), run_scheme(lp.problem, run)
        assert repr(got.trace) == repr(want.trace)
        assert np.array_equal(got.r_star, want.r_star)
    assert calls[0] > 0
