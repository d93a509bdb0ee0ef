import contextlib
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import weakref
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdmkit.experiment as expmod
import fdmkit.solvers as solvers
from fdmkit import fixtures
from fdmkit.datasets import gaussian_margin
from fdmkit.cli import main as cli_main
from fdmkit.experiment import (ConfigError, ExperimentConfig, build_problem,
                               load_config, mean_gap_experiment,
                               reference_solve, run_experiment,
                               write_trace_csv)
from fdmkit.problems import _LOSSES, ErmProblem, f_noise
from fdmkit.rates import estimate_kappa_f
from fdmkit.solvers import (EXACT_METHODS, SolverConfig, run_cyclic_cd,
                            run_projected_gradient, run_scdm)
from fdmkit.verify import Certificate, ReplayError
from oracles import transient_bytes, write_trace_csv_by_row


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
        for seeds in ([], [0, 0], ["a"], 3, [-1, 0], [2**128], [True, 2]):
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
        # each used to run, or to fail after the config loaded
        ("problem", "lam", "0.1"), ("problem", "lam", True),
        ("problem", "lam", float("nan")), ("problem", "normalize", "no"),
        ("verify", "rcfdm", "yes"), ("gap", "enabled", "yes"),
        (None, "output_dir", 5),
        pytest.param("problem", "box", {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                     id="problem-box-lo-hi"),
        pytest.param("solver", "max_iters", 10**400, id="solver-max_iters-10**400"),
        ("dataset", "n", 0),
        ("rates", "measured", True),
        # no config builds a correlated-rows dataset
        ("dataset", "generator", "correlated-rows"), ("dataset", "delta", 0.01),
    ])
    def test_nonpositive_values_rejected(self, tmp_path, section, key, value):
        raw = svm_config(tmp_path)
        if key == "omega":
            raw["solver"]["option"] = "II"  # the solver that takes a step size
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        name = key if section is None else f"{section}.{key}"
        if key in ("measured", "delta"):  # keys the table no longer holds
            name = rf"unknown keys in {section}: \['{key}'\]"
        with pytest.raises(ConfigError, match=name):
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
        with pytest.raises(ConfigError, match="verify.rfdm"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["generator", "n", "d"])
    def test_synthetic_dataset_requires_its_keys(self, tmp_path, key):
        # each used to fail when the dataset was built, after the config loaded
        raw = svm_config(tmp_path)
        del raw["dataset"][key]
        with pytest.raises(ConfigError, match=f"config requires dataset.{key}$"):
            ExperimentConfig.from_dict(raw)

    def test_synthetic_dataset_is_gaussian_margin(self, tmp_path):
        raw = svm_config(tmp_path)
        raw["dataset"]["margin"] = 0.3
        ds = expmod.build_dataset(ExperimentConfig.from_dict(raw))
        ref = gaussian_margin(4, 4, seed=7, margin=0.3)
        assert ds.features.tobytes() == ref.features.tobytes()
        assert ds.labels.tobytes() == ref.labels.tobytes()

    def test_gap_requires_svm(self, tmp_path):
        raw = {
            "problem": {"kind": "quadratic", "diag": [1.0, 2.0]},
            "solver": {"kind": "scdm", "max_iters": 10},
            "gap": {"enabled": True},
            "output_dir": str(tmp_path),
        }
        with pytest.raises(ConfigError, match="gap.enabled"):
            ExperimentConfig.from_dict(raw)


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

    def test_report_json_cannot_hold_fails_and_leaves_no_file(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(expmod, "measured_rate", lambda f, f_star: float("nan"))
        cfg = ExperimentConfig.from_dict(svm_config(
            tmp_path, rates={"enabled": True, "reference_iters": 200}))
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "trace_seed0.csv").exists()
        assert not (out / "report.json").exists()

    def test_tests_check_each_report_against_the_schema(self, tmp_path,
                                                        monkeypatch):
        # the run checks only that its report is JSON; the test session's
        # hook checks the schema, whose schema_version is the constant 1
        monkeypatch.setattr(expmod, "SCHEMA_VERSION", 2)
        with pytest.raises(jsonschema.ValidationError):
            run_experiment(ExperimentConfig.from_dict(svm_config(tmp_path)))
        assert not (tmp_path / "out" / "report.json").exists()

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

    def test_raw_dataset_released_before_the_seeds_run(self, tmp_path,
                                                       monkeypatch):
        raw = {**svm_config(tmp_path), "dataset": {
            "source": "synthetic", "generator": "gaussian-margin",
            "n": 40, "d": 5, "seed": 7}}
        built, alive = [], []
        real_build, real_run = expmod.build_dataset, expmod.run_single

        def build(cfg):
            dataset = real_build(cfg)
            built.append(weakref.ref(dataset))
            return dataset

        def run(problem, cfg, seed):
            alive.append(built[0]() is not None)
            return real_run(problem, cfg, seed)

        monkeypatch.setattr(expmod, "build_dataset", build)
        monkeypatch.setattr(expmod, "run_single", run)
        run_experiment(ExperimentConfig.from_dict(raw))
        assert alive == [False, False]

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
                         rates={"enabled": True})
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
        # weights of 20 give L_f^W = 0.5, below the L_f^W >= 1 of w = L
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

    def test_gap_bound_ignores_the_rates_geometry(self, tmp_path):
        # the gap bound is stated for w = L; with solver.w = "ones" the rates
        # block's kappa_hat is measured in another geometry (0.0167 against
        # 0.2143 here) and must not reach the gap reports
        gap_reports = []
        for rates in (False, True):
            raw = svm_config(
                tmp_path, problem={"kind": "svm-dual", "lam": 0.05},
                dataset={"source": "synthetic", "generator": "gaussian-margin",
                         "n": 16, "d": 24, "seed": 2},
                solver={"kind": "scdm", "option": "I", "w": "ones"},
                seeds=[0], rates={"enabled": rates},
                gap={"enabled": True, "epsilons": [0.01], "n_seeds": 4})
            result = run_experiment(ExperimentConfig.from_dict(raw))
            gap_reports.append(result.report["aggregate"]["gap_reports"])
        assert gap_reports[1] == gap_reports[0]

    @pytest.mark.parametrize("draw_block", [None, 1])
    def test_mean_gap_equals_one_run_per_seed_bitwise(self, draw_block):
        # draw_block=1 makes the batched seeds draw one coordinate at a time;
        # the serial runs below draw in blocks of the default size
        p = fixtures.svm_dual_toy(n=8, d=10, lam=0.1)
        reference = reference_solve(p)
        n_seeds = 5
        block = solvers._DRAW_BLOCK if draw_block is None else draw_block
        gap_calls = []
        real_gap = p.duality_gap

        def counting_gap(X):
            gap_calls.append(np.shape(X))
            return real_gap(X)

        with mock.patch.object(solvers, "_DRAW_BLOCK", block), \
                mock.patch.object(p, "duality_gap", counting_gap):
            reports = mean_gap_experiment(p, [0.1, 0.01], n_seeds=n_seeds,
                                          reference=reference)
        # the serial form: one run_scdm per seed, one gap call per iterate
        k_max = max(r.iteration_bound for r in reports)
        ks = np.arange(0, k_max + 1, p.n)
        gap_sum = np.zeros(len(ks))
        final = {r.iteration_bound: 0.0 for r in reports}
        for s in range(n_seeds):
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
        # one call per stack of iterates: every multiple of n up to the last
        # observed iteration, and each bound; none at the multiples between
        last = max(r.observed_iteration for r in reports)
        evaluated = {int(k) for k in ks if k <= last} | set(final)
        assert last < ks[-1] and len(evaluated) < len(ks)
        assert gap_calls == [(n_seeds, p.n)] * len(evaluated)

    def test_mean_gap_with_zero_iteration_bounds(self):
        # every epsilon gives K = 0: the seeds' only iterate is the start
        p = fixtures.svm_dual_toy()
        reports = mean_gap_experiment(p, [10.0, 20.0], n_seeds=3)
        gap0 = p.duality_gap(p.box.clip(np.zeros(p.n)))
        assert gap0 <= 10.0
        for r in reports:
            assert (r.iteration_bound, r.observed_iteration, r.n_seeds) == (0, 0, 3)
            # a sum of three equal gaps over 3 may differ from one in an ulp
            assert r.mean_gap_at_bound == pytest.approx(gap0, rel=1e-15, abs=0)


def _erm_instance(name):
    """``fixtures.erm_logistic()``, or ``'<loss>-<data seed>'``: that loss on
    200 x 20 gaussian-margin data with lam 0.01, as the benchmark's ERM
    run builds it."""
    if name == "fixture":
        return fixtures.erm_logistic()
    loss, seed = name.rsplit("-", 1)
    ds = gaussian_margin(200, 20, seed=int(seed))
    return ErmProblem(ds.features, ds.labels, lam=0.01, loss=loss)


ERM_REFERENCE_CASES = ["fixture"] + [
    f"{loss}-{seed}" for seed in (0, 1, 2)
    for loss in ("logistic", "squared_hinge", "squared")]


class TestReferenceSolve:
    @pytest.mark.parametrize("name", ["fixture", "logistic-1",
                                      "squared_hinge-0", "squared_hinge-2",
                                      "squared-1"])
    def test_newton_gradient_at_rounding_level(self, name):
        p = _erm_instance(name)
        x_star, f_star = p.newton_minimizer()
        g0 = np.max(np.abs(p.gradient(np.zeros(p.n))))
        assert np.max(np.abs(p.gradient(x_star))) <= 1e-15 * max(1.0, g0)
        assert f_star == p.value(x_star)

    @pytest.mark.parametrize("name", ERM_REFERENCE_CASES)
    def test_erm_trajectory_stops_on_stall_with_equal_kappa(self, name):
        # the full-budget trajectory of the reference run before it stopped
        p = _erm_instance(name)
        iters = max(400 * p.n, 20_000)
        full = run_scdm(p, SolverConfig(max_iters=iters, seed=10_000), "I")
        x_star, f_star, short = reference_solve(p)
        assert short.stop_reason == "stall" and len(short) < iters
        # the snapshots are a prefix of the full run's, plus the stop point
        kept = len(short.snap_ks) - 1
        assert short.snap_ks[:kept].tolist() == full.snap_ks[:kept].tolist()
        assert short.snap_x[:kept].tobytes() == full.snap_x[:kept].tobytes()
        assert short.f.tobytes() == full.f[:len(short) + 1].tobytes()
        assert f_star <= full.f[-1] + f_noise(f_star)
        w = p.lipschitz
        assert (estimate_kappa_f(p, short, x_star, f_star, w)
                == estimate_kappa_f(p, full, x_star, f_star, w))

    def test_reference_iters_caps_the_erm_trajectory(self, tmp_path,
                                                     monkeypatch):
        p = _erm_instance("fixture")
        x_star, _, tr = reference_solve(p, iters=50)
        assert len(tr) == 50 and tr.stop_reason == "budget"
        assert x_star.tobytes() == p.newton_minimizer()[0].tobytes()
        lengths = []

        def spy(problem, iters=None):
            out = reference_solve(problem, iters)
            lengths.append(len(out[2]))
            return out

        monkeypatch.setattr(expmod, "reference_solve", spy)
        ds = gaussian_margin(30, 5, seed=0)
        result = run_experiment(ExperimentConfig.from_dict({
            "problem": {"kind": "erm", "lam": 0.01},
            "dataset": {"source": "synthetic", "generator": "gaussian-margin",
                        "n": 30, "d": 5, "seed": 0},
            "solver": {"kind": "scdm", "option": "I", "max_iters": 40},
            "rates": {"enabled": True, "reference_iters": 12},
            "seeds": [0], "output_dir": str(tmp_path / "out")}))
        assert result.exit_code == 0 and lengths == [12]
        _, f_star = ErmProblem(ds.features, ds.labels,
                               lam=0.01).newton_minimizer()
        assert result.report["aggregate"]["f_star_reference"] == f_star

    def test_svm_dual_keeps_the_gap_stopped_run(self):
        p = fixtures.svm_dual_toy()
        x_star, f_star, tr = reference_solve(p)
        want = run_scdm(p, SolverConfig(max_iters=max(400 * p.n, 20_000),
                                        seed=10_000, gap_tol=1e-12), "I")
        assert tr.stop_reason == want.stop_reason == "gap"
        assert x_star.tobytes() == want.final_x.tobytes()
        assert f_star == float(want.f[-1])
        for field in ("f", "coords", "new_values", "snap_ks", "snap_x"):
            assert getattr(tr, field).tobytes() == getattr(want, field).tobytes()
        assert tr.gaps == want.gaps


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


    @pytest.mark.parametrize("chunk", [3, 1 << 14])
    @pytest.mark.parametrize("kind", ["scdm", "cyclic", "pgd", "gaps", "no steps"])
    def test_bytes_equal_row_by_row_oracle(self, tmp_path, kind, chunk):
        p = fixtures.svm_dual_toy(n=4, d=4)
        cfg = SolverConfig(max_iters=0 if kind == "no steps" else 40, seed=3,
                           gap_tol=1e-9 if kind == "gaps" else None)
        tr = (run_cyclic_cd(p, cfg) if kind == "cyclic"
              else run_projected_gradient(p, cfg) if kind == "pgd"
              else run_scdm(p, cfg, option="I"))
        assert bool(tr.gaps) == (kind == "gaps")
        with mock.patch.object(expmod, "_CSV_CHUNK", chunk):
            write_trace_csv(tr, tmp_path / "fast.csv")
        write_trace_csv_by_row(tr, tmp_path / "slow.csv")
        fast, slow = (tmp_path / name for name in ("fast.csv", "slow.csv"))
        assert fast.read_bytes() == slow.read_bytes()

    def test_transient_memory_is_bounded(self, svm_verify_inputs, tmp_path):
        # 16384-row chunks held 3.0 MB for this 12000-step trace
        trace = svm_verify_inputs[2]
        assert len(trace) == 12000
        _, peak = transient_bytes(write_trace_csv, trace, tmp_path / "t.csv")
        assert peak <= 1 << 20


@pytest.fixture(scope="module")
def report_shapes(tmp_path_factory):
    """One report of each shape run_experiment writes, by name."""
    tmp = tmp_path_factory.mktemp("shapes")

    def run(name, raw, **patches):
        raw["output_dir"] = str(tmp / name)
        with (mock.patch.multiple(expmod, **patches) if patches
              else contextlib.nullcontext()):
            return run_experiment(ExperimentConfig.from_dict(raw)).report

    real = expmod.run_single

    def fail_seed_1(problem, cfg, seed):
        if seed == 1:
            raise RuntimeError("injected")
        return real(problem, cfg, seed)

    def replay_error(*args, **kwargs):
        raise ReplayError(3, 1.0)

    def always_fail(problem, cfg, seed):
        raise RuntimeError("injected")

    erm = {"problem": {"kind": "erm", "lam": 0.1},
           "dataset": {"source": "synthetic", "generator": "gaussian-margin",
                       "n": 12, "d": 3, "seed": 2},
           "solver": {"kind": "scdm", "option": "I", "max_iters": 60},
           "verify": {"rfdm": True}}
    return {
        "ok": run("ok", svm_config(tmp)),
        "failed seed": run("failed", svm_config(tmp), run_single=fail_seed_1),
        "replay error": run("replay", svm_config(tmp, verify={"rcfdm": True}),
                            check_rcfdm=replay_error),
        "rfdm certificate": run("rfdm", erm),
        "rates block": run("rates", svm_config(
            tmp, verify={"rcfdm": True},
            rates={"enabled": True})),
        "gap block": run("gap", svm_config(
            tmp, gap={"enabled": True, "epsilons": [0.1], "n_seeds": 2})),
        "null blocks": run("null", svm_config(tmp), run_single=always_fail),
    }


_DELETE = object()

# (path, value, whether the schema accepts the result) corruptions of a
# report; _DELETE removes the entry
_REPORT_CORRUPTIONS = [
    (("problem", "n"), "5", False),
    # draft 2020-12: a float with an integer value is an integer
    (("problem", "n"), 5.0, True),
    (("problem", "n"), True, False), (("problem", "n"), 0, False),
    (("problem", "n"), None, False), (("seeds",), {}, False),
    (("seeds", 0, "iterations"), 1.5, False),
    (("seeds", 0, "iterations"), -1, False),
    (("seeds", 0, "iterations"), 3.0, True),
    (("seeds", 0, "final_f"), True, False),
    (("seeds", 0, "final_f"), "0.5", False),
    (("schema_version",), True, False), (("schema_version",), 1.0, True),
    (("schema_version",), 2, False),
    (("aggregate", "mean_final_f"), False, False),
    (("aggregate", "kappa_hat"), [1.0], False),
    (("timing",), _DELETE, False), (("seeds", 0, "status"), _DELETE, False),
    (("problem", "kind"), _DELETE, False),
    (("seeds", 0, "certificates", 0, "passed"), _DELETE, False),
    (("aggregate", "gap_reports", 0, "s"), _DELETE, False),
    (("extra",), 1, False),
    # problem takes keys beyond its own
    (("problem", "extra"), 1, True),
    (("problem", "kind"), "svm", False),
    (("seeds", 0, "stop_reason"), "done", False),
    (("seeds", 0, "status"), "OK", False),
    (("seeds", 0, "certificates", 0, "framework"), "fdm", False),
    (("seeds", 0, "certificates", 0, "n_checked"), True, False),
    (("seeds", 0, "certificates", 0, "worst_beta_k"), 0.5, False),
    (("config_hash",), "abc", False), (("config_hash",), "A" * 64, False),
    # a pattern matches as re.search does, and "$" before a final newline
    (("config_hash",), "a" * 64 + "\n", True),
    (("config_hash",), 7, False),
    (("failed_seeds",), ["0"], False), (("failed_seeds", 0), True, False),
    (("aggregate", "rate_constants", "c"), "x", False),
    (("aggregate", "rate_constants"), [], False),
    (("aggregate", "gap_reports", 0, "iteration_bound"), 2.5, False),
    # no epsilon reached: the field is nullable
    (("aggregate", "gap_reports", 0, "observed_iteration"), None, True),
    (("aggregate", "gap_reports"), {}, False),
]


def _corrupted(report, path, value):
    """A copy of ``report`` with ``value`` at ``path``, or None when the
    report has no entry above ``path``."""
    out = copy.deepcopy(report)
    node = out
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None
    if not isinstance(node, (dict, list)) or (
            isinstance(node, list) and path[-1] >= len(node)):
        return None
    if value is _DELETE:
        if path[-1] not in node:
            return None
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


class TestReportSchema:
    """The shipped report schema, by jsonschema, on each report shape."""

    @pytest.mark.parametrize("shape", ["ok", "failed seed", "replay error",
                                       "rfdm certificate", "rates block",
                                       "gap block", "null blocks"])
    def test_corruptions_get_their_verdict(self, report_shapes, shape,
                                           report_schema_validator):
        validator = report_schema_validator
        report = report_shapes[shape]
        assert validator.is_valid(report)
        applied = 0
        for path, value, accepted in _REPORT_CORRUPTIONS:
            bad = _corrupted(report, path, value)
            if bad is not None:
                applied += 1
                assert validator.is_valid(bad) == accepted, path
        assert applied >= 20

    def test_shapes_have_their_blocks(self, report_shapes):
        agg = {name: r["aggregate"] for name, r in report_shapes.items()}
        cert = {name: r["seeds"][0]["certificates"][0]
                for name, r in report_shapes.items()
                if r["seeds"][0].get("certificates")}
        assert report_shapes["failed seed"]["failed_seeds"] == [1]
        assert "replay_error" in cert["replay error"]
        assert cert["rfdm certificate"]["framework"] == "rfdm"
        assert agg["rates block"]["rate_constants"] is not None
        assert agg["gap block"]["gap_reports"] is not None
        assert agg["null blocks"]["mean_final_f"] is None
        assert agg["null blocks"]["rate_constants"] is None


@st.composite
def _small_configs(draw):
    """Small configs that ``from_dict`` accepts, of every problem family,
    with the sections its conflicts allow: rfdm only for Option I on erm or
    a free quadratic, rcfdm only for scdm, the gap and its tolerance only for
    svm-dual, omega only on inexact methods and record_every only on scdm."""
    kind = draw(st.sampled_from(["svm-dual", "erm", "lasso", "quadratic"]))
    n = draw(st.integers(2, 8))
    problem, dataset = {"kind": kind}, None
    if kind == "quadratic":
        problem["diag"] = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
        problem["linear"] = draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                          max_size=n))
        if draw(st.booleans()):
            problem["box"] = [-1.0, 1.0]
    else:
        dataset = {"source": "synthetic", "generator": "gaussian-margin",
                   "n": n, "d": draw(st.integers(2, 4)),
                   "seed": draw(st.integers(0, 99))}
    if kind in ("svm-dual", "erm"):
        problem["lam"] = draw(st.floats(0.1, 1.0))
    if kind == "erm":
        problem["loss"] = draw(st.sampled_from(sorted(_LOSSES)))
    solver = {"kind": draw(st.sampled_from(["scdm", "cyclic", "pgd"])),
              "w": draw(st.sampled_from(["L", "ones"])),
              "max_iters": draw(st.integers(0, 60))}
    if solver["kind"] == "scdm":
        solver["option"] = draw(st.sampled_from(["I", "II"]))
        if draw(st.booleans()):
            solver["record_every"] = draw(st.integers(1, 10))
    method = expmod._method(solver)
    if method not in EXACT_METHODS and draw(st.booleans()):
        solver["omega"] = draw(st.floats(0.1, 1.0))
    free = kind == "erm" or kind == "quadratic" and "box" not in problem
    raw = {"problem": problem, "dataset": dataset, "solver": solver,
           "seeds": draw(st.lists(st.integers(0, 2**20), min_size=1,
                                  max_size=2, unique=True)),
           "verify": {"rcfdm": solver["kind"] == "scdm" and draw(st.booleans()),
                      "rfdm": method == "scdm-I" and free and draw(st.booleans())}}
    if draw(st.booleans()):
        raw["rates"] = {"enabled": True,
                        "reference_iters": draw(st.integers(1, 300))}
    if kind == "svm-dual" and draw(st.booleans()):
        raw["epsilon"] = draw(st.sampled_from([1e-2, 1e-6]))
    if kind == "svm-dual" and draw(st.booleans()):
        raw["gap"] = {"enabled": True,
                      "epsilons": [draw(st.sampled_from([0.5, 0.1]))],
                      "n_seeds": draw(st.integers(1, 2))}
    return raw


@settings(max_examples=25, deadline=None)
@given(raw=_small_configs())
def test_each_valid_config_writes_its_report(raw):
    # the session's hook checks each report against the schema
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig.from_dict({**raw, "output_dir": tmp})
        result = run_experiment(cfg)
        with open(result.report_path, encoding="utf-8") as fh:
            assert json.load(fh) == result.report


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "fdmkit", *args],
                              capture_output=True, text=True)

    @pytest.mark.parametrize("command, overrides, key", [
        ("solve", {"problem": {"kind": "svm-dual", "lam": "0.1"}}, "problem.lam"),
        # conflicts between keys
        ("solve", {"problem": {"kind": "erm", "lam": 0.1},
                   "solver": {"kind": "cyclic"}, "verify": {"rfdm": True}},
         "verify.rfdm"),
        ("solve", {"verify": {"rfdm": True}}, "verify.rfdm"),
        ("solve", {"solver": {"kind": "pgd"}, "verify": {"rcfdm": True}},
         "verify.rcfdm"),
        ("verify", {"solver": {"kind": "pgd"}}, "verify.rcfdm"),
        ("solve", {"problem": {"kind": "lasso"}, "gap": {"enabled": True}},
         "gap.enabled"),
        ("solve", {"problem": {"kind": "erm", "lam": 0.1}, "epsilon": 1e-6},
         "epsilon"),
        ("solve", {"solver": {"kind": "cyclic", "omega": 0.5}}, "solver.omega"),
        ("solve", {"problem": {"kind": "quadratic", "diag": [1, 2]},
                   "dataset": None, "solver": {"kind": "cyclic", "record_every": 5,
                                               "max_iters": 20}},
         "solver.record_every"),
    ], ids=["lam-string", "rfdm-cyclic", "rfdm-boxed", "rcfdm-pgd",
            "verify-command-pgd", "gap-lasso", "epsilon-erm", "omega-cyclic",
            "record_every-cyclic"])
    def test_malformed_key_exits_1_before_the_dataset_is_read(
            self, command, overrides, key, tmp_path):
        # the dataset path does not exist: the key is rejected at load
        cfg = {"problem": {"kind": "svm-dual", "lam": 0.1},
               "dataset": {"source": "file", "path": str(tmp_path / "absent")},
               "seeds": [0], "output_dir": str(tmp_path / "out"), **overrides}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = self.run_cli(command, "--config", str(cfg_path))
        assert res.returncode == 1
        assert res.stderr.startswith(f"validation error: {key}")
        assert not (tmp_path / "out").exists()

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
                                         "multiprocessing", "jsonschema"])
    def test_import_loads_no_scipy(self, package):
        # nor a process pool: every seed runs in the calling process
        code = ("import sys, fdmkit, fdmkit.cli; print(sorted(m for m in "
                f"sys.modules if m.split('.')[0] == {package!r}))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert res.stdout.strip() == "[]"

    def test_verify_run_imports_no_jsonschema(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(svm_config(tmp_path)))
        code = ("import sys; from fdmkit.cli import main; "
                "rc = main(['verify', '--config', sys.argv[1]]); print(rc, sorted("
                "m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
        res = subprocess.run([sys.executable, "-c", code, str(cfg_path)],
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_command_runs_on_one_blas_thread_unless_set(self, preset, expected,
                                                        tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, sys; from fdmkit.__main__ import main; rc = main(); "
                "tasks = '/proc/self/task'; print(rc, os.environ["
                "'OPENBLAS_NUM_THREADS'], len(os.listdir(tasks)) "
                "if os.path.isdir(tasks) else 1)")
        res = subprocess.run([sys.executable, "-c", code, "gen", "--generator",
                              "gaussian-margin", "--n", "2", "--d", "2", "--out",
                              str(tmp_path / "g.libsvm")],
                             env=env, capture_output=True, text=True, check=True)
        rc, value, threads = res.stdout.split()[-3:]
        assert (rc, value) == ("0", expected)
        if preset is None:  # OpenBLAS started no worker thread
            assert threads == "1"

    @pytest.mark.parametrize("command", ["gap", "verify"])
    def test_outputs_equal_on_one_and_two_blas_threads(self, command, tmp_path):
        # 64 x 160 is large enough that the exact SVD of the gap bound runs
        # a threaded LAPACK path on two threads
        cfg = svm_config(
            tmp_path, problem={"kind": "svm-dual", "lam": 0.005},
            dataset={"source": "synthetic", "generator": "gaussian-margin",
                     "n": 64, "d": 160, "seed": 2})
        if command == "gap":
            cfg.update(seeds=[1], gap={"epsilons": [0.1, 0.01], "n_seeds": 2})
            del cfg["solver"]["max_iters"]
        else:
            cfg["solver"]["max_iters"] = 500
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            res = subprocess.run(
                [sys.executable, "-m", "fdmkit", command, "--config",
                 str(cfg_path), "--out", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            report = json.loads((out / "report.json").read_text())
            del report["timing"]
            outputs.append((report, {path.name: path.read_bytes()
                                     for path in out.glob("*.csv")}))
        assert len(outputs[0][1]) == len(cfg["seeds"])
        assert outputs[0] == outputs[1]

    def test_bad_flag_exit_1(self):
        res = self.run_cli("solve", "--bogus")
        assert res.returncode == 1

    @pytest.mark.parametrize("args, flag", [
        (["--generator", "gaussian-margin", "--n", "0", "--d", "3"], "--n"),
        (["--generator", "gaussian-margin", "--n", "3", "--d", "0"], "--d"),
        (["--generator", "gaussian-margin", "--n", "3"], "--d"),
        (["--generator", "gaussian-margin", "--d", "3"], "--n"),
        (["--generator", "gaussian-margin", "--n", "3", "--d", "-2"], "--d"),
        (["--generator", "gaussian-margin", "--n", "2.5", "--d", "3"],
         "argument --n"),
        (["--generator", "gaussian-margin", "--n", "3", "--d", "2", "--seed", "-1"],
         "--seed"),
        (["--generator", "gaussian-margin", "--n", "3", "--d", "2", "--seed",
          str(2**128)], "--seed"),
        # gen writes only gaussian-margin data: the generators no config
        # loads, and their --delta, are gone
        (["--generator", "diagonal-quadratic", "--n", "3"], "argument --generator"),
        (["--generator", "correlated-rows", "--delta", "0.1", "--d", "2"],
         "argument --generator"),
        (["--generator", "gaussian-margin", "--n", "3", "--d", "2",
          "--delta", "0.1"], "unrecognized arguments: --delta"),
        (["--generator", "mystery"], "argument --generator"),
        (["--n", "3"], "the following arguments are required: --generator"),
        (["--generator", "gaussian-margin", "--bogus", "1"],
         "unrecognized arguments: --bogus"),
    ])
    def test_gen_rejects_a_flag_its_generator_cannot_take(self, args, flag,
                                                          tmp_path, capsys):
        out = tmp_path / "data"
        assert cli_main(["gen", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.split(": ", 1)[1].startswith(flag)
        assert not out.exists()

    # the libsvm files the benchmark's erm-rfdm (200 x 20) and svm-verify
    # (2000 x 50) workloads parse, as gen writes them
    @pytest.mark.parametrize("n, d, seed, sha256", [
        (200, 20, 1, "d6725758198ed8552b494e61d61bf1995898208c9551a1bd739fa88c4a2eb7d2"),
        (200, 20, 2, "22ff0487e73997400b94dfd7041063447530db5e23bef0c9dbac21795af34080"),
        (200, 20, 3, "8166e1f73d48ea86b52b105572f469522b844234e2ae9c62bcf8710c93069be6"),
        (2000, 50, 1, "1c6eb6566e192c4858155c5d610c3b5eacf35404627c21524eafcb3f06d1188d"),
    ])
    def test_gen_writes_the_benchmark_inputs_byte_for_byte(self, n, d, seed,
                                                           sha256, tmp_path):
        out = tmp_path / "data.libsvm"
        assert cli_main(["gen", "--generator", "gaussian-margin", "--n", str(n),
                         "--d", str(d), "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

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

    @pytest.mark.parametrize("problem", [
        {"kind": "quadratic", "diag": [1, 2, 3]},
        {"kind": "erm", "lam": 0.01},
        {"kind": "lasso", "l1": 0.2},
    ])
    def test_epsilon_without_duality_gap_exit_1(self, problem, tmp_path,
                                                capsys):
        # epsilon is a duality-gap tolerance: a problem without a gap fails
        # before any seed runs instead of running out its budget
        cfg = {"problem": problem, "solver": {"kind": "scdm", "max_iters": 300},
               "epsilon": 1e-6, "output_dir": str(tmp_path / "out")}
        if problem["kind"] != "quadratic":
            cfg["dataset"] = {"source": "synthetic", "n": 6, "d": 3, "seed": 1,
                              "generator": "gaussian-margin"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["solve", "--config", str(cfg_path)]) == 1
        assert "epsilon" in capsys.readouterr().err
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

    @pytest.mark.parametrize("seeds, flags", [
        ([True, 2], []), ([0], ["--seed", "-1"]),
        ([0], ["--seed", str(2**128)]),
    ], ids=["bool", "negative-flag", "too-large-flag"])
    def test_bad_seeds_fail_before_seeds(self, seeds, flags, tmp_path, capsys):
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3]},
               "seeds": seeds, "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["solve", "--config", str(cfg_path), *flags]) == 1
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rates_from_the_optimum_report_no_constants(self, tmp_path):
        # the origin minimizes this quadratic, so no reference snapshot
        # measures the growth modulus
        raw = {"problem": {"kind": "quadratic", "diag": [1, 2, 3]},
               "solver": {"kind": "scdm", "option": "I", "max_iters": 50},
               "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["rates", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        agg = report["aggregate"]
        assert agg["kappa_hat"] is None and agg["rate_constants"] is None
        assert agg["f_star_reference"] == 0.0

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
