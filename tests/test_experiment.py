import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fdmkit.experiment as expmod
from fdmkit import fixtures
from fdmkit.cli import main as cli_main
from fdmkit.experiment import (ConfigError, ExperimentConfig, build_problem,
                               load_config, mean_gap_experiment,
                               reference_solve, run_experiment,
                               validate_pipeline, validate_report,
                               write_trace_csv)
from fdmkit.solvers import SolverConfig, run_scdm
from fdmkit.verify import Certificate


def svm_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "svm-dual", "lam": 0.1},
        "dataset": {"source": "synthetic", "generator": "gaussian-margin",
                    "n": 4, "d": 4, "seed": 7},
        "solver": {"kind": "scdm", "option": "I", "max_iters": 50},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
        "workers": 1,
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(svm_config(tmp_path, bogus=1))

    def test_unknown_nested_key_rejected(self, tmp_path):
        raw = svm_config(tmp_path)
        raw["solver"]["stepsize"] = 0.1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"solver": {}})

    def test_bad_seeds_rejected(self, tmp_path):
        for seeds in ([], [0, 0], ["a"], 3):
            raw = svm_config(tmp_path, seeds=seeds)
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        (None, "epsilon", 0.0), (None, "epsilon", -1e-3),
        (None, "epsilon", float("nan")),
        ("solver", "omega", -1.0), ("solver", "omega", 0),
        (None, "workers", 0), (None, "workers", 1.5),
        ("solver", "record_every", 0), ("solver", "record_every", -2),
        ("gap", "n_seeds", 0), ("gap", "n_seeds", None),
        ("gap", "epsilons", []), ("gap", "epsilons", [0.1, -0.1]),
        ("gap", "epsilons", [0.0]),
        ("verify", "check_every", 0), ("verify", "check_every", -3),
        ("rates", "reference_iters", 0), ("rates", "reference_iters", 1.5),
        ("rates", "reference_iters", -4),
    ])
    def test_nonpositive_values_rejected(self, tmp_path, section, key, value):
        raw = svm_config(tmp_path)
        if key == "omega":
            raw["solver"]["option"] = "II"  # the solver that takes a step size
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)

    def test_bad_solver_kind_rejected(self, tmp_path):
        raw = svm_config(tmp_path)
        raw["solver"]["kind"] = "sgd"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_hash_ignores_output_dir_and_workers(self, tmp_path):
        a = ExperimentConfig.from_dict(svm_config(tmp_path))
        b = ExperimentConfig.from_dict(
            svm_config(tmp_path, output_dir="elsewhere", workers=4))
        assert a.config_hash() == b.config_hash()

    def test_hash_covers_semantics(self, tmp_path):
        a = ExperimentConfig.from_dict(svm_config(tmp_path))
        raw = svm_config(tmp_path)
        raw["solver"]["max_iters"] = 51
        b = ExperimentConfig.from_dict(raw)
        assert a.config_hash() != b.config_hash()

    def test_rfdm_on_box_constrained_rejected_before_run(self, tmp_path):
        raw = svm_config(tmp_path, verify={"rfdm": True})
        cfg = ExperimentConfig.from_dict(raw)
        problem = build_problem(cfg, expmod.build_dataset(cfg))
        with pytest.raises(ConfigError):
            validate_pipeline(cfg, problem)

    def test_gap_requires_svm(self, tmp_path):
        raw = {
            "problem": {"kind": "quadratic", "diag": [1.0, 2.0]},
            "solver": {"kind": "scdm", "max_iters": 10},
            "gap": {"enabled": True},
            "output_dir": str(tmp_path),
        }
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            validate_pipeline(cfg, build_problem(cfg, None))


class TestBuildProblem:
    def test_quadratic_inline_diag_with_cube(self):
        cfg = ExperimentConfig.from_dict({
            "problem": {"kind": "quadratic", "diag": [1.0, 2.0],
                        "box": [-1.0, 1.0]},
        })
        p = build_problem(cfg, None)
        assert p.n == 2 and not p.box.is_free()

    def test_svm_normalization_warning_when_disabled(self, tmp_path):
        raw = svm_config(tmp_path)
        raw["problem"]["normalize"] = False
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.warns(UserWarning):
            build_problem(cfg, expmod.build_dataset(cfg))

    def test_lasso_from_regression_dataset(self, tmp_path):
        raw = {
            "problem": {"kind": "lasso", "l1": 0.2},
            "dataset": {"source": "synthetic", "generator": "gaussian-margin",
                        "n": 6, "d": 3, "seed": 1},
            "output_dir": str(tmp_path),
        }
        cfg = ExperimentConfig.from_dict(raw)
        p = build_problem(cfg, expmod.build_dataset(cfg))
        assert p.n == 6  # doubled


class TestRunExperiment:
    def test_outputs_and_exit_code(self, tmp_path):
        cfg = ExperimentConfig.from_dict(svm_config(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "trace_seed0.csv").exists()
        assert (out / "trace_seed1.csv").exists()
        validate_report(result.report)

    def test_report_deterministic_modulo_timing(self, tmp_path):
        r1 = run_experiment(ExperimentConfig.from_dict(
            svm_config(tmp_path, output_dir=str(tmp_path / "a"))))
        r2 = run_experiment(ExperimentConfig.from_dict(
            svm_config(tmp_path, output_dir=str(tmp_path / "b"))))
        b1, b2 = r1.report.copy(), r2.report.copy()
        b1.pop("timing"), b2.pop("timing")
        assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)
        csv1 = (tmp_path / "a" / "trace_seed0.csv").read_bytes()
        csv2 = (tmp_path / "b" / "trace_seed0.csv").read_bytes()
        assert csv1 == csv2

    def test_seeds_run_in_calling_process(self, tmp_path, monkeypatch):
        real = expmod.run_single
        pids = {}

        def recording(problem, cfg, seed):
            pids[seed] = os.getpid()
            return real(problem, cfg, seed)

        monkeypatch.setattr(expmod, "run_single", recording)
        serial = run_experiment(ExperimentConfig.from_dict(
            svm_config(tmp_path, output_dir=str(tmp_path / "s"), workers=1)))
        assert pids == {0: os.getpid(), 1: os.getpid()}
        pids.clear()
        pooled = run_experiment(ExperimentConfig.from_dict(
            svm_config(tmp_path, output_dir=str(tmp_path / "p"), workers=2)))
        # a worker pool would record the workers' pids, or none at all
        assert pids == {0: os.getpid(), 1: os.getpid()}
        b1, b2 = serial.report.copy(), pooled.report.copy()
        b1.pop("timing"), b2.pop("timing")
        assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)

    def test_per_seed_failure_isolated(self, tmp_path, monkeypatch):
        real = expmod.run_single

        def flaky(problem, cfg, seed):
            if seed == 1:
                raise RuntimeError("injected")
            return real(problem, cfg, seed)

        monkeypatch.setattr(expmod, "run_single", flaky)
        result = run_experiment(ExperimentConfig.from_dict(svm_config(tmp_path)))
        assert result.exit_code == 2
        assert result.report["failed_seeds"] == [1]
        statuses = {e["seed"]: e["status"] for e in result.report["seeds"]}
        assert statuses == {0: "ok", 1: "failed"}

    def test_certification_failure_exit_code(self, tmp_path, monkeypatch):
        bad = Certificate(framework="rcfdm", option="I", beta_hat_sq=1e9,
                          zeta_hat=0.0, beta_sq_theory=1.0, zeta_theory=1.0,
                          n_checked=1, worst_beta_k=0, worst_zeta_k=0,
                          passed=False)
        monkeypatch.setattr(expmod, "check_rcfdm",
                            lambda *a, **k: bad)
        cfg = ExperimentConfig.from_dict(
            svm_config(tmp_path, verify={"rcfdm": True}))
        result = run_experiment(cfg)
        assert result.exit_code == 3
        assert not result.report["aggregate"]["certificates_all_passed"]

    def test_verify_and_rates_sections(self, tmp_path):
        raw = svm_config(tmp_path, verify={"rcfdm": True},
                         rates={"enabled": True, "measured": True})
        raw["solver"]["max_iters"] = 400
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result.exit_code == 0
        entry = result.report["seeds"][0]
        assert entry["certificates"][0]["passed"]
        assert result.report["aggregate"]["rate_constants"] is not None
        assert result.report["aggregate"]["kappa_hat"] > 0

    @pytest.mark.parametrize("solver, framework, beta, omega_bar", [
        ({"kind": "scdm", "option": "I"}, "rcfdm-general",
         np.sqrt(2.0 * (4.0**2 + 1.0)), 1.0),
        ({"kind": "scdm", "option": "II", "omega": 0.5}, "rcfdm-zero", None, 0.5),
        ({"kind": "cyclic"}, "rfdm", 1.0 + np.sqrt(4.0) * 4.0, 1.0),
        ({"kind": "pgd"}, "rfdm", 0.0, 0.25),
        ({"kind": "pgd", "omega": 0.125}, "rfdm", 0.0, 0.125),
    ], ids=["scdm-I", "scdm-II-omega", "cyclic", "pgd", "pgd-omega"])
    def test_rate_constants_follow_the_run(self, solver, framework, beta,
                                           omega_bar, tmp_path):
        # w = L on four coordinates gives L_f^W = 4: the cyclic beta is
        # 1 + sqrt(4) * 4 = 9, and pgd's default step is 1 / 4
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3, 4],
                           "linear": [1, -1, 1, -1]},
               "solver": {**solver, "max_iters": 40}, "seeds": [0],
               "rates": {"enabled": True, "reference_iters": 400},
               "output_dir": str(tmp_path / "out")}
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result.exit_code == 0
        rc = result.report["aggregate"]["rate_constants"]
        assert rc["framework"] == framework
        assert rc["inputs"]["omega_bar"] == omega_bar
        if beta is not None:
            assert rc["inputs"]["beta"] == pytest.approx(beta, rel=1e-15)

    def test_rate_constants_with_small_lipschitz_bound(self, tmp_path):
        # weights of 20 give L_f^W = 0.5, below cyclic_constants' range
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3, 4],
                           "linear": [1, -1, 1, -1]},
               "solver": {"kind": "cyclic", "w": [20.0] * 4, "max_iters": 10},
               "seeds": [0], "rates": {"enabled": True, "reference_iters": 400},
               "output_dir": str(tmp_path / "out")}
        result = run_experiment(ExperimentConfig.from_dict(raw))
        inputs = result.report["aggregate"]["rate_constants"]["inputs"]
        assert inputs["l_f_w"] == 0.5
        assert inputs["beta"] == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-15)

    def test_gap_experiment_section(self, tmp_path):
        raw = svm_config(tmp_path, gap={"enabled": True, "epsilons": [0.5],
                                        "n_seeds": 4})
        result = run_experiment(ExperimentConfig.from_dict(raw))
        reports = result.report["aggregate"]["gap_reports"]
        assert len(reports) == 1
        assert reports[0]["mean_gap_at_bound"] <= 0.5

    @pytest.mark.parametrize("draw_elems", [None, 1])
    def test_mean_gap_equals_one_run_per_seed_bitwise(self, draw_elems,
                                                      monkeypatch):
        # draw_elems=1 runs every seed in a batch of its own
        if draw_elems is not None:
            monkeypatch.setattr(expmod, "_GAP_DRAW_ELEMS", draw_elems)
        p = fixtures.svm_dual_toy(n=8, d=10, lam=0.1)
        reference = reference_solve(p)
        n_seeds, seed_base = 5, 3
        reports = mean_gap_experiment(p, [0.1, 0.01], n_seeds=n_seeds,
                                      seed_base=seed_base, reference=reference)
        # the serial form: one run_scdm per seed, one gap call per iterate
        k_max = max(r.iteration_bound for r in reports)
        ks = np.arange(0, k_max + 1, p.n)
        gap_sum = np.zeros(len(ks))
        final = {r.iteration_bound: 0.0 for r in reports}
        for s in range(seed_base, seed_base + n_seeds):
            tr = run_scdm(p, SolverConfig(max_iters=k_max, seed=s), option="I")
            for j, k in enumerate(ks):
                gap_sum[j] += p.duality_gap(tr.iterate(int(k)))
            for kb in final:
                final[kb] += p.duality_gap(tr.iterate(kb))
        means = gap_sum / n_seeds
        for r in reports:
            assert r.n_seeds == n_seeds
            assert r.mean_gap_at_bound == final[r.iteration_bound] / n_seeds
            hit = np.nonzero(means <= r.epsilon)[0]
            assert r.observed_iteration == int(ks[hit[0]])


class TestTraceCsv:
    def test_schema_and_round_trip_precision(self, tmp_path):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=20, seed=0), option="I")
        path = tmp_path / "t.csv"
        write_trace_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,i,f,disp_w_sq,gap"
        assert len(lines) == 22  # header + K+1 iterate rows
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == k
            assert float(fields[2]) == tr.f[k]  # 17 digits round-trip exactly
            if k < 20:
                assert int(fields[1]) == tr.coords[k]
                assert float(fields[3]) == tr.disp_w_sq[k]
            else:
                assert fields[1] == "" and fields[3] == ""


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "fdmkit", *args],
                              capture_output=True, text=True)

    def test_gen_and_solve_round_trip(self, tmp_path):
        data = tmp_path / "toy.libsvm"
        res = self.run_cli("gen", "--generator", "gaussian-margin",
                           "--n", "6", "--d", "3", "--seed", "5",
                           "--out", str(data))
        assert res.returncode == 0, res.stderr
        cfg = {
            "problem": {"kind": "svm-dual", "lam": 0.1},
            "dataset": {"source": "file", "path": str(data)},
            "solver": {"kind": "scdm", "option": "II", "max_iters": 30},
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "workers": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli("solve", "--config", str(cfg_path))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "report.json").exists()

    def test_verify_subcommand(self, tmp_path):
        cfg = svm_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli("verify", "--config", str(cfg_path))
        assert res.returncode == 0, res.stderr
        assert "certification passed" in res.stdout

    def test_invalid_config_exit_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"kind": "mystery"}}))
        res = self.run_cli("solve", "--config", str(cfg_path))
        assert res.returncode == 1
        assert "validation error" in res.stderr

    def test_missing_config_file_exit_1(self, tmp_path):
        res = self.run_cli("solve", "--config", str(tmp_path / "nope.json"))
        assert res.returncode in (1, 2)

    def test_divergent_seed_fails_with_strict_json_report(self, tmp_path):
        cfg = {
            "problem": {"kind": "quadratic", "diag": [1, 2, 3, 4, 5],
                        "linear": [1, -1, 1, -1, 1]},
            "solver": {"kind": "scdm", "option": "II", "omega": 50,
                       "max_iters": 2000},
            "seeds": [0], "workers": 1, "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli("solve", "--config", str(cfg_path))
        assert res.returncode == 2, res.stderr

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        (entry,) = report["seeds"]
        assert entry["status"] == "failed"
        assert entry["error"].startswith("DivergenceError: ")
        assert report["failed_seeds"] == [0]

    @pytest.mark.parametrize("package", ["scipy", "concurrent",
                                         "multiprocessing"])
    def test_import_loads_no_scipy(self, package):
        # nor a process pool: every seed runs in the calling process
        code = ("import sys, fdmkit, fdmkit.cli; print(sorted(m for m in "
                f"sys.modules if m.split('.')[0] == {package!r}))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert res.stdout.strip() == "[]"

    def test_bad_flag_exit_1(self):
        res = self.run_cli("solve", "--bogus")
        assert res.returncode == 1

    def test_gen_diagonal_quadratic_json(self, tmp_path):
        out = tmp_path / "quad.json"
        res = self.run_cli("gen", "--generator", "diagonal-quadratic",
                           "--n", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["diag"] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_cli_overrides(self, tmp_path):
        cfg = svm_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli("solve", "--config", str(cfg_path),
                           "--seed", "9", "--max-iters", "12",
                           "--out", str(tmp_path / "o2"))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "o2" / "report.json").read_text())
        assert [e["seed"] for e in report["seeds"]] == [9]
        assert report["seeds"][0]["iterations"] == 12

    @pytest.mark.parametrize("flag, value", [("--epsilon", "-1"),
                                             ("--max-iters", "-5")])
    def test_invalid_override_exit_1(self, flag, value, tmp_path, capsys):
        # overrides pass the config checks, so a bad one fails before any seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(svm_config(tmp_path)))
        assert cli_main(["solve", "--config", str(cfg_path), flag, value]) == 1
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_flag_unrecognized(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(svm_config(tmp_path)))
        assert cli_main(["solve", "--config", str(cfg_path),
                         "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("solve", "solver", "x0", [0.0, 0.0]),
        ("solve", "solver", "x0", [0.0, "a", 0.0]),
        ("solve", "solver", "x0", [0.0, float("inf"), 0.0]),
        ("solve", "solver", "x0", {"a": 1}),
        ("solve", "solver", "w", [1.0, -1.0, 1.0]),
        ("rates", "solver", "w", [1.0, 1.0]),
        ("rates", "rates", "reference_iters", 1.5),
        ("rates", "rates", "reference_iters", 0),
    ], ids=["x0-short", "x0-string", "x0-inf", "x0-object", "w-negative",
            "w-short", "reference_iters-fraction", "reference_iters-zero"])
    def test_bad_start_weights_or_reference_fail_before_seeds(
            self, command, section, key, value, tmp_path, capsys):
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3],
                           "linear": [1, -1, 1]},
               "seeds": [0, 1], "output_dir": str(tmp_path / "out")}
        raw.setdefault(section, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        # 1e400 is how a config file spells an infinite entry
        cfg_path.write_text(json.dumps(raw).replace("Infinity", "1e400"))
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("stall_tol", "x"), ("stall_tol", -1), ("stall_tol", float("inf")),
        ("stall_tol", True), ("max_iters", True), ("max_iters", 2.5),
    ], ids=["stall_tol-string", "stall_tol-negative", "stall_tol-inf",
            "stall_tol-bool", "max_iters-bool", "max_iters-fraction"])
    def test_bad_solver_numbers_fail_before_seeds(self, key, value, tmp_path,
                                                  capsys):
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3]},
               "solver": {key: value}, "seeds": [0, 1],
               "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw).replace("Infinity", "1e400"))
        assert cli_main(["solve", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and f"solver.{key}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, solver", [
        ("verify", {"kind": "scdm", "option": "I"}),
        ("solve", {"kind": "cyclic"}),
        ("solve", {"kind": "cyclic", "option": "II"}),
    ], ids=["scdm-I", "cyclic", "cyclic-option-II"])
    def test_step_size_on_exact_minimization_fails_before_seeds(
            self, command, solver, tmp_path, capsys):
        # exact minimization takes no step, so its replay would not match
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3, 4],
                           "linear": [1, -1, 1, -1]},
               "solver": {**solver, "omega": 0.5}, "seeds": [0],
               "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "solver.omega" in err
        assert not (tmp_path / "out").exists()

    def test_zero_stall_tol_and_budget_accepted(self, tmp_path):
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3]},
               "solver": {"stall_tol": 0, "max_iters": 0}, "seeds": [0],
               "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["solve", "--config", str(cfg_path)]) == 0
