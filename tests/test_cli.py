import hashlib
import json
import math
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.io import mmwrite

from fistakit import (LassoProblem, RestartRun, Scheme, load_problem, run_scheme,
                      save_problem)
import fistakit.cli as cli
from fistakit.cli import (
    ExperimentConfig,
    build_config,
    export_trace,
    fmt,
    main,
    parse_config_file,
    run_experiment,
    verify_bounds,
)
from fistakit.restart import RestartTrace

from conftest import reference_none_checks, reference_none_rows


TINY = dict(N=15, n=22, alpha=0.01, sparsity=0.5, trials=3,
            epsilon=1e-7, oracle_epsilon=1e-9, seed=42)
TINY_LSQ = dict(family="least-squares", N=30, n=12, sparsity=0.0, trials=1,
                epsilon=1e-8, oracle_epsilon=1e-10, seed=5)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = ExperimentConfig(out=out, **TINY)
    stats, code = run_experiment(cfg)
    return out, cfg, stats, code


@pytest.fixture(scope="module")
def tiny_lsq_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_lsq_run")
    stats, code = run_experiment(ExperimentConfig(out=out, **TINY_LSQ))
    assert code == 0
    return out


class TestConfigHandling:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "N = 60\n"
            "n = 80   # inline comment\n"
            "alpha = 0.01\n"
            "trials = 5\n"
            "schemes = lcr,none\n"
            "eps = 1e-9\n"
            "oracle_eps = 1e-12\n"
            "strict_exit = false\n"
        )
        cfg = build_config(parse_config_file(path))
        assert cfg.N == 60 and cfg.n == 80 and cfg.trials == 5
        assert cfg.schemes == (Scheme.LCR, Scheme.NO_RESTART)
        assert cfg.epsilon == 1e-9
        assert not cfg.strict_exit

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trials = 5\nseed = 1\neps = 1e-9\noracle_eps = 1e-12\n")
        # The CLI merges the text of the flags it was given over the file's.
        cfg = build_config(parse_config_file(path) | {"trials": "9"})
        assert cfg.trials == 9
        assert cfg.seed == 1

    @pytest.mark.parametrize("text, message", [
        ("trials 1\n", "expected 'key = value'"),
        ("strict_exit = maybe\n", "not a boolean: 'maybe'"),
    ], ids=["no-equals", "not-a-boolean"])
    def test_bad_config_line_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            build_config(parse_config_file(path))

    def test_invariants(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon=1e-12, oracle_epsilon=1e-11)
        with pytest.raises(ValueError):
            ExperimentConfig(family="exotic")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(family="least-squares", N=30, n=12, seed=-1)
        for family in ("lasso", "least-squares"):
            for alpha in (math.nan, math.inf, -0.5):
                with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                    ExperimentConfig(family=family, N=30, n=12, alpha=alpha)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("trials = 0\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_gen_into_missing_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.lasso"
        assert main(["gen", "--N", "12", "--n", "18", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("flags", [
        ["run", "--N", "90", "--n", "80"],
        ["run", "--sparsity", "1.5"],
        ["run", "--eps", "-1", "--oracle-eps", "-2"],
        ["run", "--eps", "1e-9", "--oracle-eps", "-1"],
        ["run", "--alpha", "nan"],
        ["run", "--budget", "0"],
        ["run", "--family", "least-squares", "--N", "20", "--n", "30"],
        ["run", "--family", "foo"],
        ["run", "--schemes", "none,bogus"],
        ["gen", "--family", "foo"],
        ["gen", "--N", "abc"],
        ["solve", "--scheme", "lcr", "--eps", "-1"],
        ["solve", "--scheme", "lcr", "--eps", "nan"],
        ["solve", "--scheme", "lcr", "--budget", "0"],
        ["solve", "--scheme", "opt", "--budget", "0"],
        ["solve", "--scheme", "opt", "--eps", "-1"],
        ["solve", "--scheme", "opt", "--oracle-eps", "-1"],
        ["run", "--family", "least-squares"],
        ["gen", "--family", "least-squares"],
        ["run", "--seed", "-1"],
        ["gen", "--seed", "-1"],
        ["run", "--eps", "inf"],
        ["solve", "--scheme", "lcr", "--eps", "inf"],
        ["solve", "--scheme", "opt", "--eps", "inf"],
        ["solve", "--scheme", "opt", "--oracle-eps", "inf"],
        ["run", "--schemes", "none,none"],
        ["run", "--schemes", "lcr,none,lcr"],
        ["run", "--family", "least-squares", "--N", "12", "--n", "8", "--alpha", "nan"],
        ["gen", "--family", "least-squares", "--N", "12", "--n", "8", "--alpha", "-1"],
        ["run", "--jobs", "0"],
        ["run", "--schemes", ","],
    ])
    def test_bad_run_input_rejected_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                       flags):
        # run, gen and solve: exit 2 with a config error, before the oracle
        # runs and before anything is written.
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "oracle_fstar", no_oracle)
        problem = tmp_path / "inst.lasso"
        save_problem(LassoProblem.build(sparse.csc_array(np.eye(3)), np.ones(3)), problem)
        command, *rest = flags
        lead = {"run": ["--trials", "1"], "gen": [], "solve": [str(problem)]}[command]
        out = tmp_path / "out"
        assert main([command, *lead, "--out", str(out), *rest]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        if "--alpha" in rest:
            assert "alpha must be finite and >= 0" in err
        elif "least-squares" in rest:
            # Its shape must be set, since the default 600 x 800 has N < n.
            assert "the least-squares family needs N >= n >= 1, got N=" in err
        assert not out.exists()

    @pytest.mark.parametrize("where, command", [
        *((where, command) for where in ("file", "below-file")
          for command in ("run-flag", "run-config", "solve-lcr", "solve-opt")),
        ("traces-file", "run-flag"), ("traces-file", "run-config"),
        ("trace.csv", "solve-lcr"), ("restarts.csv", "solve-opt"),
        *((name, "run-flag") for name in ("run_meta.json", "trials.csv", "oracles.csv",
                                          "invalid.csv", "stats.csv", "stats.txt")),
        ("stats.csv", "run-config"),
        # A stale trace entry that is a directory, whether or not this run writes its name.
        ("traces/trial_0000.csv", "run-flag"), ("traces/trial_0007_restarts.csv", "run-config"),
        ("bound_report.txt", "verify"),
    ])
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                  command, where):
        # An --out that is, or lies below, an existing file, a run's --out
        # whose traces entry is a file, or an --out where a file the command
        # writes is a directory: exit 2 with a config error before any oracle
        # or solve runs, the entry in the way untouched.
        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        for name in ("oracle_fstar", "run_scheme", "run_experiment", "verify_bounds"):
            monkeypatch.setattr(cli, name, must_not_run)
        problem = tmp_path / "inst.lasso"
        save_problem(LassoProblem.build(sparse.csc_array(np.eye(3)), np.ones(3)), problem)
        taken = tmp_path / "taken"
        if where not in ("file", "below-file"):
            taken.mkdir()
            taken = taken / ("traces" if where == "traces-file" else where)
        if where.endswith((".csv", ".json", ".txt")):
            taken.mkdir(parents=True)
            (taken / "kept").write_bytes(b"not a directory\n")
            taken = taken / "kept"
        else:
            taken.write_bytes(b"not a directory\n")
        out = {"file": taken, "below-file": taken / "sub"}.get(where, tmp_path / "taken")
        if command == "run-flag":
            argv = ["run", "--trials", "1", "--out", str(out)]
        elif command == "run-config":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"trials = 1\nout = {out}\n")
            argv = ["run", "--config", str(cfg)]
        elif command == "verify":
            argv = ["verify", "--out", str(out)]
        else:
            argv = ["solve", str(problem), "--scheme", command[len("solve-"):],
                    "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        if command == "verify":  # a bad output file, not a failed read of the run
            assert f"config error: output file {taken.parent} exists and is not a file" in err
        assert taken.read_bytes() == b"not a directory\n"
        if where not in ("file", "below-file"):  # nothing written beside the entry
            assert [p.name for p in out.iterdir()] == [taken.relative_to(out).parts[0]]

    @pytest.mark.parametrize("edit", [
        lambda header: {key: value for key, value in header.items() if key != "N"},
        lambda header: header | {"spec": dict(N=3, n=3, alpha=0.0, bogus=1)},
        lambda header: [1, 2],
        lambda header: header | {"b": [math.nan, 1.0, 1.0]},
        lambda header: header | {"b": {}},
        lambda header: header | {"format": "other"},
        lambda header: header | {"N": 4},
    ], ids=["no-N", "spec-key", "not-an-object", "nan-in-b", "b-not-a-list", "format",
            "shape"])
    def test_malformed_problem_file_is_a_config_error(self, tmp_path, capsys, edit):
        # solve exits 2 with a config error, not a traceback, before it writes anything.
        problem = tmp_path / "inst.lasso"
        save_problem(LassoProblem.build(sparse.csc_array(np.eye(3)), np.ones(3)), problem)
        first, body = problem.read_text().split("\n", 1)
        problem.write_text(json.dumps(edit(json.loads(first))) + "\n" + body)
        out = tmp_path / "out"
        assert main(["solve", str(problem), "--scheme", "lcr", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_complex_matrix_body_is_a_config_error(self, tmp_path, capsys):
        # Not solved as its real part: exit 2 before anything is written.
        problem = tmp_path / "inst.lasso"
        save_problem(LassoProblem.build(sparse.csc_array(np.eye(3)), np.ones(3)), problem)
        first, _ = problem.read_text().split("\n", 1)
        with problem.open("ab") as fh:
            fh.truncate(len(first) + 1)
            mmwrite(fh, sparse.coo_array(np.eye(3) * (1 + 1j)))
        out = tmp_path / "out"
        assert main(["solve", str(problem), "--scheme", "lcr", "--out", str(out)]) == 2
        assert "config error: A must have a real dtype" in capsys.readouterr().err
        assert not out.exists()

    def test_run_from_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            "N = 15\n"
            "n = 22\n"
            "alpha = 0.01\n"
            "sparsity = 0.5\n"
            "trials = 2\n"
            "schemes = lcr,none\n"
            "eps = 1e-7\n"
            "oracle_eps = 1e-9\n"
            "seed = 42\n"
            f"out = {out}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out / "stats.csv").exists()
        lines = (out / "stats.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two schemes


class TestRunOutputs:
    def test_exit_code_and_files(self, tiny_run):
        out, cfg, stats, code = tiny_run
        assert code == 0
        for name in ("run_meta.json", "trials.csv", "oracles.csv", "stats.csv", "stats.txt"):
            assert (out / name).exists()
        for trial in range(cfg.trials):
            assert (out / "traces" / f"trial_{trial:04d}.csv").exists()
            assert (out / "traces" / f"trial_{trial:04d}_restarts.csv").exists()

    def test_stats_invariants(self, tiny_run):
        _, _, stats, _ = tiny_run
        assert len(stats) == 5
        for st in stats:
            assert st.minimum <= st.median <= st.maximum
            assert st.minimum <= st.average <= st.maximum

    def test_every_scheme_reaches_tolerance(self, tiny_run):
        out, cfg, _, _ = tiny_run
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg.trials * len(cfg.schemes)
        for row in rows:
            fields = row.split(",")
            assert fields[-1] == "ok"
            assert float(fields[4]) <= cfg.epsilon

    def test_no_restart_trace_length_matches_stats(self, tiny_run):
        out, cfg, _, _ = tiny_run
        for trial in range(cfg.trials):
            rows = (out / "traces" / f"trial_{trial:04d}.csv").read_text().splitlines()[1:]
            nr_rows = [r for r in rows if r.startswith("none,")]
            trial_rows = (out / "trials.csv").read_text().splitlines()[1:]
            reported = next(
                int(r.split(",")[2])
                for r in trial_rows
                if r.startswith(f"{trial},none,")
            )
            assert len(nr_rows) == reported

    def test_lcr_nj_totals_match(self, tiny_run):
        out, cfg, _, _ = tiny_run
        for trial in range(cfg.trials):
            path = out / "traces" / f"trial_{trial:04d}_restarts.csv"
            rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
            total = sum(int(r[2]) for r in rows if r[0] == "lcr" and int(r[1]) >= 1)
            trial_rows = (out / "trials.csv").read_text().splitlines()[1:]
            reported = next(
                int(r.split(",")[2])
                for r in trial_rows
                if r.startswith(f"{trial},lcr,")
            )
            assert total == reported

    def test_floats_round_trip_17g(self, tiny_run):
        out, _, _, _ = tiny_run
        row = (out / "oracles.csv").read_text().splitlines()[1]
        f_star = float(row.split(",")[1])
        assert fmt(f_star) == row.split(",")[1]

    def test_meta_excludes_parallelism(self, tiny_run):
        out, _, _, _ = tiny_run
        meta = json.loads((out / "run_meta.json").read_text())
        assert "jobs" not in meta

    def test_stats_text_prints_every_median_digit(self):
        # A median is an integer or a half; six significant digits would
        # drop the half of 123456.5 and write 1234567 as 1.23457e+06.
        medians = (489.0, 489.5, 123456.5, 1234567.0)
        stats = [cli.SchemeStats(scheme=scheme, average=m, median=m, maximum=int(m) + 1,
                                 minimum=int(m), average_prox_calls=m, trials=2)
                 for scheme, m in zip(Scheme, medians)]
        row = next(line for line in cli._stats_text(stats).splitlines()
                   if line.startswith("Median Iter."))
        assert row.split()[2:] == ["489", "489.5", "123456.5", "1234567"]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = ExperimentConfig(out=tmp_path / "a", **TINY)
        cfg_b = ExperimentConfig(out=tmp_path / "b", **TINY)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        names = ["run_meta.json", "trials.csv", "oracles.csv", "stats.csv", "stats.txt"]
        names += [f"traces/trial_{t:04d}{suffix}"
                  for t in range(TINY["trials"])
                  for suffix in (".csv", "_restarts.csv")]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_outputs_match_golden_digests(self, tiny_run):
        # SHA-256 of every deterministic file of the tiny run.  A refactor
        # must keep them; a change that moves arithmetic on purpose re-pins
        # them and says why.
        out, _, _, _ = tiny_run
        golden = {
            "run_meta.json": "42c7251507613b41c2a9994297da720d519443ad9ba20c21a897bbd5489fd33b",
            "stats.csv": "e25e8d79ec27b460dcd2bd691bfde3e16ed869f45a9445a8c95be970e7325494",
            "trials.csv": "f1b2f2ec97a88ff875b856b5041b2f4cf058484d71aba7ec3fc25c031986a12c",
            "oracles.csv": "6dbf5a6ce9e17dd2d9613cede59ab92505f87edffe59a08ba678874da2a6d039",
            "traces/trial_0000.csv":
                "03503924ea8b24573c6fdf2e9b8341a765520e8aa5eeaff59e72644bc2191454",
            "traces/trial_0000_restarts.csv":
                "495f1f39bf5982de5b4c733ba23eb997b24ac6e11efe75168ee46083aa825f37",
            "traces/trial_0001.csv":
                "bb68e62927596fc3f687e3fb5e1cfab195009dd01950fe22ea9d81c87d86814b",
            "traces/trial_0001_restarts.csv":
                "4997b8ef190bd17b92ffea8377cd65d9727aeafc6cd51be87307ba5fa7b84f87",
            "traces/trial_0002.csv":
                "d3516906f7c90fe9b1edc67ad459373a9585ecd6de1e281f7feb573f8573005d",
            "traces/trial_0002_restarts.csv":
                "85825cfe741634d2ae558791c79023857a77c60b5b2e37c667726e787f04ca12",
        }
        written = {f"traces/{p.name}" for p in (out / "traces").iterdir()}
        assert written == {name for name in golden if name.startswith("traces/")}
        differ = [name for name, digest in golden.items()
                  if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]
        assert differ == []

    def test_gen_and_solve_match_golden_digests(self, tmp_path):
        # SHA-256 of the files `gen` (both families, and every default) and
        # `solve --out` (lcr and opt, both exit modes) write, in the style of
        # the run digests above.
        lasso, lsq, default = (tmp_path / name for name in ("l.lasso", "ls.lasso", "d.lasso"))
        assert main(["gen", "--N", "15", "--n", "22", "--sparsity", "0.5", "--seed", "7",
                     "--out", str(lasso)]) == 0
        assert main(["gen", "--family", "least-squares", "--N", "30", "--n", "12",
                     "--seed", "5", "--out", str(lsq)]) == 0
        assert main(["gen", "--out", str(default)]) == 0
        for scheme in ("lcr", "opt"):
            for mode in ("early", "strict"):
                flags = ["--strict-exit"] if mode == "strict" else []
                assert main(["solve", str(lasso), "--scheme", scheme, "--eps", "1e-8",
                             "--oracle-eps", "1e-10", "--out", str(tmp_path / f"{scheme}_{mode}"),
                             *flags]) == 0
        golden = {
            "l.lasso": "678978c85357af664b88f58b359b0675f6e8b6fcefce6aafb1c88fb71c0ce0f8",
            "ls.lasso": "18ec596e24f1b86df2c2e75264983a294aad3b59de030cf4e381971649e67c83",
            "d.lasso": "739d8cd9516b8cec3a14c534a35236813e5dd5ac957a906f2e7921c9f58e69b7",
            "lcr_early/trace.csv":
                "d6729b5bc0da1676548194a64ef202ca82814fe35d58e01ad408bd156fe25bae",
            "lcr_early/restarts.csv":
                "f6f55bb6a7c5c63ddb3aa921b38ff1b4c97bdfc1210032d05f56cdf1c31d8db0",
            "lcr_strict/trace.csv":
                "24bb3dc0c5f64f869587d9207f865fd02e2443488d8bfae88d10113533e4705b",
            "lcr_strict/restarts.csv":
                "f717287ffee3b3c44c74f42b2b6788d144dfdb8b239b6c7b4fd2523c44d1bf17",
            "opt_early/trace.csv":
                "731d0d4a7ddba64b7301a27cbeafe433ffb8a6f4e5270079ba99bd1afbb738b3",
            "opt_early/restarts.csv":
                "d795671db413554f272955e0aa19edd54a703e1768e1157ae19d94443a1b27f7",
            "opt_strict/trace.csv":
                "00f2e9d8e44af083f5d8393b403623fa7b50df96e1889c49ac0038c527ab8949",
            "opt_strict/restarts.csv":
                "235266b89c85919989bd21719d428e394de1b3a44d16acdd91c58925284951ad",
        }
        differ = [name for name, digest in golden.items()
                  if _sha256(tmp_path / name) != digest]
        assert differ == []

    def test_jobs_do_not_change_outputs(self, tmp_path):
        cfg_a = ExperimentConfig(out=tmp_path / "a", jobs=1, **TINY)
        cfg_b = ExperimentConfig(out=tmp_path / "b", jobs=3, **TINY)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("run_meta.json", "trials.csv", "oracles.csv", "stats.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestInvalidTrials:
    def test_budget_failure_marks_trial_invalid(self, tmp_path):
        cfg = ExperimentConfig(N=15, n=22, alpha=0.01, sparsity=0.5, trials=2,
                               epsilon=1e-7, oracle_epsilon=1e-9, seed=42,
                               out=tmp_path, budget=25)
        stats, code = run_experiment(cfg)
        assert code == 1
        assert (tmp_path / "invalid.csv").exists()
        assert stats == []  # nothing valid to aggregate

    def test_every_exhausted_scheme_is_named_in_run_order(self, tmp_path, capsys):
        # The least-squares oracle is one direct solve, which takes no prox
        # budget, so the oracle succeeds and every scheme runs out.
        out = tmp_path / "out"
        assert main(["run", "--family", "least-squares", "--N", "12", "--n", "8",
                     "--trials", "2", "--budget", "5", "--schemes", "lcr,none,grad",
                     "--out", str(out)]) == 1
        reason = "budget exhausted: lcr none grad"
        assert (out / "invalid.csv").read_text() == f"trial,reason\n0,{reason}\n1,{reason}\n"
        assert len((out / "oracles.csv").read_text().splitlines()) == 3
        assert f"invalid trial 1: {reason}\n" in capsys.readouterr().err

    def test_clean_rerun_removes_the_stale_invalid_list(self, tmp_path):
        out = tmp_path / "out"
        flags = ["run", "--N", "15", "--n", "22", "--alpha", "0.01", "--sparsity", "0.5",
                 "--trials", "2", "--eps", "1e-7", "--oracle-eps", "1e-9", "--seed", "42",
                 "--out", str(out)]
        assert main(flags + ["--budget", "20"]) == 1
        assert len((out / "invalid.csv").read_text().splitlines()) == 3
        assert main(flags) == 0
        assert "(valid trials: 2)" in (out / "stats.txt").read_text()
        assert not (out / "invalid.csv").exists()
        assert main(["verify", "--out", str(out)]) == 0

    def test_rerun_with_fewer_trials_keeps_only_its_traces(self, tmp_path):
        out = tmp_path / "out"
        flags = ["run", "--N", "15", "--n", "22", "--alpha", "0.01", "--sparsity", "0.5",
                 "--eps", "1e-7", "--oracle-eps", "1e-9", "--seed", "42", "--out", str(out)]
        assert main(flags + ["--trials", "4"]) == 0
        assert len(list((out / "traces").iterdir())) == 8
        assert main(flags + ["--trials", "2"]) == 0
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            "trial_0000.csv", "trial_0000_restarts.csv",
            "trial_0001.csv", "trial_0001_restarts.csv",
        ]

    def test_rerun_drops_the_traces_of_a_trial_now_invalid(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(out=tmp_path, **TINY)
        assert run_experiment(cfg)[1] == 0
        real = cli.oracle_fstar

        def failing_on_trial_1(lp, **kwargs):
            if lp.spec.seed == TINY["seed"] + 1:
                raise cli.OracleError("no reference")
            return real(lp, **kwargs)

        monkeypatch.setattr(cli, "oracle_fstar", failing_on_trial_1)
        assert run_experiment(cfg)[1] == 1
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == [
            "trial_0000.csv", "trial_0000_restarts.csv",
            "trial_0002.csv", "trial_0002_restarts.csv",
        ]

    def test_exception_in_one_trial_marks_it_invalid(self, tmp_path, monkeypatch, capsys):
        real = cli.run_scheme
        gradient_runs = []

        def flaky(problem, run):
            # Trials run in order at jobs=1: the second gradient run is trial 1's.
            if run.scheme is Scheme.GRADIENT:
                gradient_runs.append(run)
                if len(gradient_runs) == 2:
                    raise ValueError("non-finite objective at iteration 7")
            return real(problem, run)

        monkeypatch.setattr(cli, "run_scheme", flaky)
        cfg = ExperimentConfig(out=tmp_path, **TINY)
        stats, code = run_experiment(cfg)
        assert code == 1
        rows = (tmp_path / "invalid.csv").read_text().splitlines()
        assert rows == ["trial,reason", "1,ValueError: non-finite objective at iteration 7"]
        assert "Traceback" in capsys.readouterr().err
        assert all(st.trials == TINY["trials"] - 1 for st in stats)
        trial_ids = {row.split(",")[0] for row in
                     (tmp_path / "trials.csv").read_text().splitlines()[1:]}
        assert trial_ids == {"0", "2"}
        checks, failures = verify_bounds(tmp_path)
        assert failures == 0
        assert any(c.trial == 1 and c.status == "SKIP" for c in checks)


class TestStrictExit:
    def test_strict_mode_experiment(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, strict_exit=True, budget=10_000, **TINY)
        stats, code = run_experiment(cfg)
        assert code == 0
        rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[-1] == "ok"
            assert float(fields[4]) <= cfg.epsilon
            # strict mode pays extra proxes for the between-restart checks
            assert int(fields[3]) > int(fields[2])
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["strict_exit"] is True

    def test_solve_strict_flag(self, tmp_path):
        problem_file = tmp_path / "inst.lasso"
        main(["gen", "--N", "12", "--n", "18", "--alpha", "0.01",
              "--sparsity", "0.5", "--seed", "3", "--out", str(problem_file)])
        assert main(["solve", str(problem_file), "--scheme", "func",
                     "--eps", "1e-7", "--strict-exit"]) == 0


class TestExportTrace:
    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_trace(RestartTrace(), path, "none")
        assert path.read_text() == "scheme,k,f,g_dual_norm\n"


class TestCommands:
    @pytest.mark.parametrize("flags", [
        dict(N=15, n=22, alpha=0.03, sparsity=0.5, seed=7),
        dict(family="least-squares", N=30, n=12, sparsity=0.0, seed=5),
    ], ids=["lasso", "least-squares"])
    def test_gen_writes_the_first_trials_instance(self, tmp_path, flags):
        path = tmp_path / "inst.lasso"
        argv = [part for key, value in flags.items() for part in (f"--{key}", str(value))]
        assert main(["gen", *argv, "--out", str(path)]) == 0
        back, want = load_problem(path), ExperimentConfig(**flags).instance(0)
        assert (back.A != want.A).nnz == 0
        assert np.array_equal(back.b, want.b)
        assert (back.weights is None) == (want.weights is None)
        assert want.weights is None or np.array_equal(back.weights, want.weights)
        assert back.spec == want.spec

    def test_gen_solve_round_trip(self, tmp_path):
        problem_file = tmp_path / "inst.lasso"
        assert main(["gen", "--N", "15", "--n", "22", "--alpha", "0.01",
                     "--sparsity", "0.5", "--seed", "7", "--out", str(problem_file)]) == 0
        out_dir = tmp_path / "solved"
        assert main(["solve", str(problem_file), "--scheme", "lcr",
                     "--eps", "1e-8", "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "restarts.csv").exists()
        # run's rule oracle_eps < eps does not apply to solve.
        assert main(["solve", str(problem_file), "--scheme", "lcr", "--eps", "1e-12"]) == 0

    def test_solve_opt_computes_oracle(self, tmp_path):
        problem_file = tmp_path / "inst.lasso"
        main(["gen", "--N", "12", "--n", "18", "--alpha", "0.01",
              "--sparsity", "0.5", "--seed", "3", "--out", str(problem_file)])
        assert main(["solve", str(problem_file), "--scheme", "opt",
                     "--eps", "1e-7", "--oracle-eps", "1e-9"]) == 0

    def test_solve_opt_oracle_out_of_budget_is_an_oracle_failure(self, tmp_path, capsys):
        problem_file = tmp_path / "inst.lasso"
        main(["gen", "--N", "12", "--n", "18", "--alpha", "0.01",
              "--sparsity", "0.5", "--seed", "3", "--out", str(problem_file)])
        out = tmp_path / "solved"
        assert main(["solve", str(problem_file), "--scheme", "opt", "--budget", "5",
                     "--out", str(out)]) == 1
        assert ("oracle failure: optimal-value oracle exhausted its budget of 5 prox calls"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solve_single_restart_lcr_nj_file(self, tmp_path):
        # An instance whose start point is already optimal produces exactly
        # one restart row.
        A = sparse.csc_array(np.eye(3))
        lp = LassoProblem.build(A, np.zeros(3))
        problem_file = tmp_path / "zero.lasso"
        save_problem(lp, problem_file)
        run = RestartRun(scheme=Scheme.LCR, epsilon=1e-9, r0=np.zeros(3), budget=10)
        out = run_scheme(lp.problem, run)
        rows = [r for r in out.trace.records if r.j >= 1]
        assert len(rows) == 1
        assert rows[0].n_obs == 0

    def test_verify_passes_on_tiny_run(self, tiny_run):
        out, _, _, _ = tiny_run
        checks, failures = verify_bounds(out)
        assert failures == 0
        assert any(c.name == "nr-objective-rate" and c.status == "PASS" for c in checks)
        assert any(c.name == "lcr-restart-decrease" and c.status == "PASS" for c in checks)

    def test_verify_command_writes_report(self, tiny_run):
        out, _, _, _ = tiny_run
        assert main(["verify", "--out", str(out)]) == 0
        assert _sha256(out / "bound_report.txt") == (
            "f4d641d4176808ba7f334c2dde08d502c8e59a0369aa7f82035748cfade38b42")

    def test_verify_on_missing_dir(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "nope")]) == 2

    def test_growth_family_bounds_via_cli(self, tmp_path):
        out = tmp_path / "growth"
        code = main([
            "run", "--family", "least-squares", "--N", "30", "--n", "12",
            "--sparsity", "0", "--trials", "2", "--eps", "1e-8",
            "--oracle-eps", "1e-10", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        checks, failures = verify_bounds(out)
        assert failures == 0
        names = {c.name for c in checks}
        assert {"lcr-iteration-bound", "lcr-total-bound",
                "nr-monotone-after", "nr-contraction-after"} <= names


def _edit_csv(path, key: dict[str, str], column: str, value: str) -> None:
    """Set ``column`` to ``value`` in the one row of ``path`` that matches ``key``."""
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    rows = [line.split(",") for line in lines]
    hits = [row for row in rows if all(row[names.index(k)] == v for k, v in key.items())]
    assert len(hits) == 1
    hits[0][names.index(column)] = value
    path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")


class TestVerifyFailures:
    # One edited value per case breaks one check of trial 0.  On an exact
    # least-squares instance the growth parameter makes any f_k that breaks
    # the monotone or contraction bound also break the O(1/k^2) bound at the
    # same k.  So the monotone case edits f_x0 in oracles.csv instead, and the
    # contraction case accepts the rate failure: on this run, an f_x0 low
    # enough to break contraction also breaks monotonicity.
    @pytest.mark.parametrize("run, name, key, column, value, failing, line", [
        ("lasso", "traces/trial_0000.csv", {"scheme": "none", "k": "100"}, "f", "1",
         {"nr-objective-rate"},
         "trial=0000 check=nr-objective-rate status=FAIL bound=1.079226e-02 observed=9.536305e-01 "
         "worst_k=100"),
        ("lasso", "traces/trial_0000.csv", {"scheme": "none", "k": "100"}, "g_dual_norm", "1",
         {"nr-gradient-rate"},
         "trial=0000 check=nr-gradient-rate status=FAIL bound=2.938335e-01 observed=1.000000e+00 "
         "worst_k=100"),
        ("lasso", "traces/trial_0000_restarts.csv", {"scheme": "lcr", "j": "1"}, "f_r", "1",
         {"lcr-restart-decrease"},
         "trial=0000 check=lcr-restart-decrease status=FAIL observed=5.231405e-01 pairs=9"),
        ("lsq", "oracles.csv", {"trial": "0"}, "f_x0", "0.185",
         {"nr-monotone-after"},
         "trial=0000 check=nr-monotone-after status=FAIL bound=1.850000e-01 observed=1.872919e-01 "
         "k_min=7"),
        ("lsq", "traces/trial_0000.csv", {"scheme": "none", "k": "20"}, "f", "0.2",
         {"nr-contraction-after", "nr-objective-rate"},
         "trial=0000 check=nr-contraction-after status=FAIL observed=5.367057e-03 k_min=15"),
        ("lsq", "traces/trial_0000_restarts.csv", {"scheme": "lcr", "j": "7"}, "n_obs", "40",
         {"lcr-iteration-bound"},
         "trial=0000 check=lcr-iteration-bound status=FAIL bound=3.100000e+01 "
         "observed=4.000000e+01"),
        ("lsq", "trials.csv", {"trial": "0", "scheme": "lcr"}, "prox_calls", "5000",
         {"lcr-total-bound"},
         "trial=0000 check=lcr-total-bound status=FAIL bound=2.247629e+03 observed=5.000000e+03"),
        # A NaN in a row past the first fails the rate check, reported at that row.
        ("lsq", "traces/trial_0000.csv", {"scheme": "none", "k": "50"}, "f", "nan",
         {"nr-objective-rate"},
         "trial=0000 check=nr-objective-rate status=FAIL bound=6.169982e-04 worst_k=50"),
        ("lsq", "traces/trial_0000.csv", {"scheme": "none", "k": "50"}, "g_dual_norm", "nan",
         {"nr-gradient-rate"},
         "trial=0000 check=nr-gradient-rate status=FAIL bound=7.025657e-02 worst_k=50"),
    ], ids=["objective-rate", "gradient-rate", "restart-decrease", "monotone", "contraction",
            "iteration-bound", "total-bound", "nan-f", "nan-gradient"])
    def test_edited_value_fails_its_check(self, tiny_run, tiny_lsq_run, tmp_path,
                                          run, name, key, column, value, failing, line):
        out = tmp_path / "run"
        shutil.copytree(tiny_run[0] if run == "lasso" else tiny_lsq_run, out)
        _edit_csv(out / name, key, column, value)
        assert main(["verify", "--out", str(out)]) == 1
        report = (out / "bound_report.txt").read_text().splitlines()
        assert {r.split()[1].removeprefix("check=") for r in report
                if "status=FAIL" in r} == failing
        assert all(r.startswith("trial=0000") for r in report if "status=FAIL" in r)
        assert line in report

    @pytest.mark.parametrize("mu", ["0", "-0", "-0.25", "-inf"])
    def test_nonpositive_mu_is_a_config_error(self, tiny_lsq_run, tmp_path, capsys, mu):
        out = tmp_path / "run"
        shutil.copytree(tiny_lsq_run, out)
        (out / "bound_report.txt").unlink(missing_ok=True)
        _edit_csv(out / "oracles.csv", {"trial": "0"}, "mu", mu)
        assert main(["verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: cannot read run output: "
                       f"trial 0: growth parameter mu must be > 0, got {mu}\n")
        assert not (out / "bound_report.txt").exists()


def _edit_trace_row(path, scheme: str, k: str, edit) -> None:
    """Replace the fields of the one row of ``scheme`` at ``k`` in a trace CSV by ``edit(fields)``."""
    header, *lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if line.split(",")[:2] == [scheme, k]]
    assert len(hits) == 1
    lines[hits[0]] = ",".join(edit(lines[hits[0]].split(",")))
    path.write_text("\n".join([header, *lines]) + "\n")


class TestVerifyTraceRows:
    @pytest.mark.parametrize("edit", [
        lambda fields: fields[:3],
        lambda fields: [*fields[:2], "abc", fields[3]],
        lambda fields: [fields[0], "1.5", *fields[2:]],
    ], ids=["missing-field", "non-numeric-f", "non-integer-k"])
    @pytest.mark.parametrize("scheme, code", [("none", 2), ("lcr", 0)])
    def test_unreadable_none_row_is_a_config_error(self, tiny_run, tmp_path, capsys,
                                                   edit, scheme, code):
        # Only rows of scheme none are parsed; an edited row of another
        # scheme leaves the report as it was.
        out = tmp_path / "run"
        shutil.copytree(tiny_run[0], out)
        (out / "bound_report.txt").unlink(missing_ok=True)
        _edit_trace_row(out / "traces" / "trial_0001.csv", scheme, "5", edit)
        assert main(["verify", "--out", str(out)]) == code
        if code == 2:
            assert "config error: cannot read run output" in capsys.readouterr().err
            assert not (out / "bound_report.txt").exists()
        else:
            assert _sha256(out / "bound_report.txt") == (
                "f4d641d4176808ba7f334c2dde08d502c8e59a0369aa7f82035748cfade38b42")

    def test_foreign_trace_header_is_a_config_error(self, tiny_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(tiny_run[0], out)
        trace = out / "traces" / "trial_0002.csv"
        header, rest = trace.read_text().split("\n", 1)
        trace.write_text("scheme,k,g_dual_norm,f\n" + rest)
        assert main(["verify", "--out", str(out)]) == 2
        assert "config error: cannot read run output" in capsys.readouterr().err

    def test_none_checks_do_not_depend_on_scheme_order(self, tiny_run, tmp_path):
        def nr_lines(out):
            return [c.line() for c in verify_bounds(out)[0] if c.name.startswith("nr-")]

        out = tmp_path / "lcr_none"
        # TINY's settings, with lcr's rows written before none's.
        assert main(["run", "--schemes", "lcr,none", "--out", str(out), "--N", "15", "--n", "22",
                     "--alpha", "0.01", "--sparsity", "0.5", "--trials", "3", "--eps", "1e-7",
                     "--oracle-eps", "1e-9", "--seed", "42"]) == 0
        assert (out / "traces" / "trial_0000.csv").read_text().splitlines()[1].startswith("lcr,")
        assert nr_lines(out) == nr_lines(tiny_run[0])
        assert len(nr_lines(out)) == 3 * 3

        lcr_only = tmp_path / "lcr"
        run_experiment(ExperimentConfig(out=lcr_only, **(TINY | {"schemes": (Scheme.LCR,)})))
        checks, failures = verify_bounds(lcr_only)
        assert failures == 0
        assert not [c for c in checks if c.name.startswith("nr-")]
        assert any(c.name == "lcr-restart-decrease" for c in checks)


# Values at the edges of the checks: signed zeros, 1 and its successor (within
# the noise allowance of 1), the allowance at scale 1 (2**-46), the largest
# floats, infinities and NaN.
EDGE_VALUES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 2.0 ** -46, 1e308, -1e308,
               sys.float_info.max, math.inf, -math.inf, math.nan]
edge_floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
none_rows = st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6)),
                      edge_floats, edge_floats)
# Rows of other schemes, which the parse must pass over unread.
OTHER_ROWS = ["lcr,1,0.5,0.25", "func,1.5,abc", "opt", "", "nonesuch,1,2,3"]


@settings(max_examples=400, deadline=None)
@given(
    lines=st.lists(st.one_of(none_rows, st.sampled_from(OTHER_ROWS)), max_size=12),
    f_star=edge_floats, dist=edge_floats, f_x0=edge_floats,
    mu=st.one_of(st.sampled_from([math.nan, math.inf, 1.0, 0.01]),
                 st.floats(min_value=0.0, exclude_min=True)),
)
def test_none_checks_match_the_scalar_reference(tmp_path_factory, lines, f_star, dist, f_x0,
                                                mu):
    # The array checks of verify_bounds give the records of the row by row
    # checks they replace, bit for bit, on a trace written as run writes it.
    path = tmp_path_factory.getbasetemp() / "none_rows_trial.csv"
    path.write_text("\n".join(["scheme,k,f,g_dual_norm",
                               *(line if isinstance(line, str) else "none,%d,%.17g,%.17g" % line
                                 for line in lines)]) + "\n")
    nr = cli._none_rows(path)
    expected_rows = reference_none_rows(path)
    assert repr(nr.tolist()) == repr(expected_rows)
    checks = cli._none_checks(7, nr, f_star, dist, f_x0, mu)
    expected = reference_none_checks(7, expected_rows, f_star, dist, f_x0, mu)
    assert [c.line() for c in checks] == [c.line() for c in expected]
    assert [c.status for c in checks] == [c.status for c in expected]
    assert repr(checks) == repr(expected)


def test_solve_has_no_f_star_flag(tmp_path):
    # solve --scheme opt always takes x* from the oracle.
    problem = tmp_path / "inst.lasso"
    save_problem(LassoProblem.build(sparse.csc_array(np.eye(3)), np.ones(3)), problem)
    with pytest.raises(SystemExit) as stop:
        main(["solve", str(problem), "--scheme", "opt", "--f-star", "0.5"])
    assert stop.value.code == 2
