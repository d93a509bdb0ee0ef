"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Budgeted criteria also assert their wall-clock limits.
"""

import time

import numpy as np
import pytest

from fdmkit import fixtures
from fdmkit.experiment import mean_gap_experiment, reference_solve
from fdmkit.problems import QuadraticProblem, global_lipschitz_bound
from fdmkit.rates import (estimate_kappa_f, hoffman_theta_bruteforce,
                          rate_rcfdm_zero_z, svm_sigma_sq)
from fdmkit.fixtures import correlated_rows
from fdmkit.solvers import (SolverConfig, run_cyclic_cd,
                            run_projected_gradient, run_scdm, run_scdm_seeds)
from fdmkit.verify import (check_rcfdm, check_rfdm, check_trace_invariants,
                           fdm_constants)
from oracles import box_qp_oracle, grid_min_2d, svm_dual_batch

Z99 = 2.3263478740408408  # one-sided 99% normal quantile


def _report(num, name, passed, detail=""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] acceptance {num:02d} "
          f"({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def invariant_suite():
    """10^4-step traces of every solver on every shipped fixture."""
    problems = fixtures.standard_fixtures()
    t0 = time.perf_counter()
    traces = {}
    reports = {}
    for name, p in problems.items():
        per = {
            "I": run_scdm(p, SolverConfig(max_iters=10_000, seed=0), "I"),
            "II": run_scdm(p, SolverConfig(max_iters=10_000, seed=0), "II"),
            "cyclic": run_cyclic_cd(p, SolverConfig(max_iters=10_000, seed=0)),
            "pgd": run_projected_gradient(p, SolverConfig(max_iters=10_000,
                                                          seed=0)),
        }
        traces[name] = per
        reports[name] = {m: check_trace_invariants(tr, p)
                         for m, tr in per.items()}
    elapsed = time.perf_counter() - t0
    return problems, traces, reports, elapsed


def test_criterion_01_descent_and_feasibility(invariant_suite):
    problems, traces, reports, elapsed = invariant_suite
    worst_descent = 0.0
    worst_feas = 0.0
    worst_drift = 0.0
    ok = True
    for name in problems:
        for method, rep in reports[name].items():
            ok = ok and rep.all_ok
            worst_descent = max(worst_descent, rep.worst_descent_violation)
            worst_feas = max(worst_feas, rep.worst_feasibility_violation)
            worst_drift = max(worst_drift, rep.worst_objective_drift)
    ok = ok and elapsed < 10.0
    _report(1, "descent + feasibility", ok,
            f"{len(problems)} fixtures x 4 solvers x 10^4 steps; worst descent "
            f"slack {worst_descent:.2e}, worst feasibility {worst_feas:.2e}, "
            f"worst objective drift {worst_drift:.2e}, "
            f"runtime {elapsed:.1f}s < 10s")


def test_criterion_02_replay_exactness(invariant_suite):
    problems, traces, _, _ = invariant_suite
    t0 = time.perf_counter()
    ok = True
    detail = []
    for name, p in problems.items():
        cert1 = check_rcfdm(traces[name]["I"], p)  # replays every iteration
        cert2 = check_rcfdm(traces[name]["II"], p)
        ok = ok and cert2.beta_hat_sq == 0.0 and cert2.passed
        detail.append(f"{name}: I replayed ({cert1.n_checked} steps), "
                      f"II beta_hat={cert2.beta_hat_sq}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "update replay exactness", ok,
            f"all Option I steps reproduced to 1e-9; Option II corrections "
            f"identically zero; runtime {elapsed:.1f}s < 30s")


def test_criterion_03_coordinate_framework_constants_svm():
    ok = True
    worst = []
    for name, p in [("n2", fixtures.svm_dual_toy(n=2, d=3, seed=13)),
                    ("n4", fixtures.svm_dual_toy(n=4, d=4, seed=17)),
                    ("n8", fixtures.svm_dual_toy(n=8, d=10, seed=7))]:
        w = p.lipschitz
        bound = 2.0 * (global_lipschitz_bound(p.lipschitz, w) ** 2 + 1.0)
        for seed in range(8):
            tr = run_scdm(p, SolverConfig(max_iters=10_000, seed=seed), "I")
            cert = check_rcfdm(tr, p)
            ok = (ok and cert.beta_hat_sq <= bound
                  and cert.zeta_hat >= 0.5 * (1 - 1e-9))
        worst.append(f"{name}: beta_hat^2={cert.beta_hat_sq:.3g}<={bound:.3g}, "
                     f"zeta_hat={cert.zeta_hat:.6f}>=0.5")
    _report(3, "exact-minimization constants on the SVM dual", ok,
            "; ".join(worst) + " (8 seeds x 10^4 iterations each, zero violations)")


def test_criterion_04_expectation_framework_constants_erm():
    p = fixtures.erm_logistic()
    w = p.lipschitz
    t0 = time.perf_counter()
    tr = run_scdm(p, SolverConfig(max_iters=2000, seed=0), "I")
    cert = check_rfdm(tr, p, check_every=1)
    elapsed = time.perf_counter() - t0
    lfw = global_lipschitz_bound(p.lipschitz, w)
    r_sq = float(np.max((p.lipschitz / w) ** 2))
    bound = 2.0 * (lfw**2 + 1.0) + (p.n - 1) * r_sq
    gamma = p.gamma(w)
    ok = (cert.n_checked == len(tr) and cert.beta_hat_sq <= bound
          and cert.zeta_hat >= gamma * (1 - 1e-9))
    _report(4, "expectation-mode constants on logistic ERM", ok,
            f"n=20, every iteration enumerated: beta_hat^2="
            f"{cert.beta_hat_sq:.4g} <= {bound:.4g}, zeta_hat="
            f"{cert.zeta_hat:.4g} >= gamma={gamma:.4g}; runtime {elapsed:.1f}s")


def _domination_check(p, n_seeds=64):
    w = p.lipschitz
    x_star, f_star, ref = reference_solve(p)
    kappa = estimate_kappa_f(p, ref, x_star, f_star, w)
    c = rate_rcfdm_zero_z(kappa, 1.0, p.n).c
    x0 = p.box.clip(np.zeros(p.n))
    init = p.value(x0) - f_star + 0.5 * float(w @ (x0 - x_star) ** 2)
    # keep the bound's right side above the float cancellation floor
    k_max = min(2000, int(np.log(1e-9 / init) / np.log(1.0 - c)))
    # f_k of every seed at every k, one row per seed
    runs = run_scdm_seeds(p, SolverConfig(max_iters=k_max), range(n_seeds), "II")
    excess = np.stack([f.copy() for _, _, f in runs], axis=1) - f_star
    mean = excess.mean(axis=0)
    se = excess.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    rhs = (1.0 - c) ** np.arange(k_max + 1) * init
    margin = rhs + Z99 * se - mean
    return kappa, c, k_max, float(margin.min())


def test_criterion_05_zero_correction_rate_domination():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, p in [("box-quadratic", fixtures.quadratic_box()),
                    ("svm-dual", fixtures.svm_dual_toy(n=8, d=10, lam=0.1))]:
        kappa, c, k_max, worst = _domination_check(p)
        ok = ok and worst >= 0.0
        details.append(f"{name}: kappa_hat={kappa:.4f}, c={c:.5f}, "
                       f"k<={k_max}, worst margin {worst:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(5, "zero-correction rate dominates 64-seed mean", ok,
            "; ".join(details) + f"; runtime {elapsed:.1f}s < 120s")


def test_criterion_06_duality_gap_iteration_bound():
    t0 = time.perf_counter()
    p = fixtures.svm_dual_toy(n=8, d=10, lam=0.1)
    reference = reference_solve(p)
    reports = mean_gap_experiment(p, [0.1, 0.01], n_seeds=64,
                                  reference=reference)
    ok = all(rep.mean_gap_at_bound <= rep.epsilon for rep in reports)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    detail = "; ".join(
        f"eps={rep.epsilon:g}: K={rep.iteration_bound}, mean gap "
        f"{rep.mean_gap_at_bound:.2e} <= {rep.epsilon:g}" for rep in reports)
    _report(6, "duality-gap iteration bound (64 seeds)", ok,
            detail + f"; runtime {elapsed:.1f}s < 120s")


def test_criterion_07_hoffman_theta_lower_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    for delta in (0.1, 0.01):
        ds = correlated_rows(delta, d=3, n=4, seed=0)
        theta = hoffman_theta_bruteforce(ds.features.T)
        target = np.sqrt(2.0) / delta
        ok = ok and theta >= target
        details.append(f"delta={delta}: theta={theta:.2f} >= {target:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(7, "correlated-rows conditioning lower bound", ok,
            "; ".join(details) + f"; runtime {elapsed:.2f}s < 10s")


def test_criterion_08_cyclic_versus_randomized_growth():
    ratios = []
    for n in (4, 8, 16, 32):
        # w = 1 on an identity Hessian gives L_f^W = n
        cyc = fdm_constants(QuadraticProblem(np.eye(n), np.zeros(n)),
                            np.ones(n), "cyclic")[0]
        rand = 2.0 * (float(n) ** 2 + 1.0) + (n - 1) * 1.0
        ratios.append(cyc / rand)
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = monotone and ratios[-1] >= 4.0 * ratios[0]
    _report(8, "cyclic-to-randomized constant ratio grows with n", ok,
            "ratios " + ", ".join(f"n={n}: {r:.2f}" for n, r in
                                  zip((4, 8, 16, 32), ratios))
            + f"; ratio(32)/ratio(4) = {ratios[-1] / ratios[0]:.2f} >= 4")


def test_criterion_09_option_equivalence_on_quadratics():
    rng = np.random.Generator(np.random.Philox(key=99))
    quadratics = {
        "quadratic_diag_n5": fixtures.standard_fixtures()["quadratic_diag_n5"],
        "quadratic_box_n8": fixtures.standard_fixtures()["quadratic_box_n8"],
        "quadratic_box_2d": fixtures.quadratic_box_2d(),
        "quadratic_diag_3d": fixtures.quadratic_diag_3d(),
    }
    ok = True
    worst = 0.0
    for name, p in quadratics.items():
        w = np.diag(p.hessian)
        for _ in range(1000):
            lo = np.where(np.isinf(p.box.lower), -3.0, p.box.lower)
            hi = np.where(np.isinf(p.box.upper), 3.0, p.box.upper)
            x = rng.uniform(lo, hi)
            i = int(rng.integers(p.n))
            # both steps on the run state that run_scdm steps through
            st = p.start_state(x)
            g = st.coord_grad(i)
            d = abs(st.exact_coord_min(i)
                    - p.box.clip_coord(x[i] - g / w[i], i))
            worst = max(worst, float(d))
            ok = ok and d <= 1e-12
    _report(9, "exact-minimization equals unit-step coordinate gradient", ok,
            f"4 quadratic fixtures x 10^3 random (x, i): worst deviation "
            f"{worst:.2e} <= 1e-12")


def test_criterion_10_oracle_equivalence_small_fixtures():
    budget = 100_000
    details = []
    ok = True
    for name, p in fixtures.small_fixtures().items():
        if name == "svm_dual_tiny":
            _, f_star = grid_min_2d(svm_dual_batch(p), 0.0, 1.0,
                                    resolution=1e-3)
        elif name == "lasso_tiny":
            x_star = fixtures.lasso_tiny_solution(p)
            f_star = p.inner_value(x_star)
        else:
            _, f_star = box_qp_oracle(p.hessian, p.linear,
                                      p.box.lower, p.box.upper)
        finals = {}
        base = dict(seed=0, stall_tol=0.0)
        finals["I"] = run_scdm(p, SolverConfig(max_iters=budget,
                                               stall_window=4 * p.n, **base), "I")
        finals["II"] = run_scdm(p, SolverConfig(max_iters=budget,
                                                stall_window=4 * p.n, **base), "II")
        finals["cyclic"] = run_cyclic_cd(
            p, SolverConfig(max_iters=budget // p.n, stall_window=2, **base))
        finals["pgd"] = run_projected_gradient(
            p, SolverConfig(max_iters=budget // p.n, stall_window=2, **base))
        gaps = {m: tr.f[-1] - f_star for m, tr in finals.items()}
        fixture_ok = all(g <= 1e-6 for g in gaps.values())
        ok = ok and fixture_ok
        details.append(f"{name}: worst excess {max(gaps.values()):.1e}")
    _report(10, "all solvers reach the brute-force optimum", ok,
            "; ".join(details) + " (tolerance 1e-6, <= 10^5 coordinate updates)")
