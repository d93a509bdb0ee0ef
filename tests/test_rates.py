import numpy as np
import pytest

from fdmkit import fixtures
from fdmkit.fixtures import correlated_rows
from fdmkit.geometry import Box
from fdmkit.problems import QuadraticProblem
from fdmkit.rates import (estimate_kappa_f, hoffman_theta_bruteforce,
                          kappa_from_theta, measured_rate, rate_rcfdm_general,
                          rate_rcfdm_zero_z, rate_rfdm, sdca_iteration_bound,
                          svm_sigma_sq)
from fdmkit.solvers import SolverConfig, run_scdm
from oracles import quadratic_lipschitz_w, sphere_max_ratio


# ---------------------------------------------------------------------------
# rate constant calculators


class TestRateRfdm:
    def test_substitution_example(self):
        rc = rate_rfdm(1.0, 1.0, 0.0, 1.0, 1.0)
        assert rc.c == pytest.approx(8.0)
        assert rc.factor == pytest.approx(8.0 / 9.0)

    def test_factor_increases_with_beta(self):
        factors = [rate_rfdm(1.0, 1.0, b, 1.0, 1.0).factor
                   for b in (0.0, 1.0, 10.0, 100.0, 1e6)]
        assert all(b > a for a, b in zip(factors, factors[1:]))
        assert factors[-1] < 1.0

    def test_doubling_kappa_halves_c(self):
        c1 = rate_rfdm(1.0, 2.0, 3.0, 0.5, 4.0).c
        c2 = rate_rfdm(2.0, 2.0, 3.0, 0.5, 4.0).c
        assert c2 == pytest.approx(c1 / 2)

    def test_scaling_identity_random_tuples(self, rng):
        # c(t kappa, zeta) = c(kappa, zeta) / t, exact algebraic identity
        for _ in range(20):
            kappa, zeta, beta, om, lfw = rng.uniform(0.1, 5.0, 5)
            t = float(rng.uniform(0.5, 4.0))
            c1 = rate_rfdm(kappa, zeta, beta, om, lfw).c
            c2 = rate_rfdm(t * kappa, zeta, beta, om, lfw).c
            assert c2 == pytest.approx(c1 / t, rel=1e-12)

    def test_matches_direct_recomputation(self, rng):
        for _ in range(20):
            kappa, zeta, beta, om, lfw = rng.uniform(0.1, 5.0, 5)
            rc = rate_rfdm(kappa, zeta, beta, om, lfw)
            expected = (2.0 / (kappa * zeta)) * ((lfw + 1.0 / om) ** 2 + beta**2)
            assert rc.c == pytest.approx(expected, rel=1e-14)
            assert 0 < rc.factor < 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rate_rfdm(0.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_rfdm(1.0, -1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_rfdm(1.0, 1.0, -0.1, 1.0, 1.0)


class TestRateRcfdmZero:
    def test_substitution_example(self):
        rc = rate_rcfdm_zero_z(0.5, 1.0, 1)
        assert rc.c == pytest.approx(0.5)
        assert rc.factor == pytest.approx(0.5)
        assert rc.inputs["initial_penalty_coeff"] == pytest.approx(0.5)

    def test_c_scales_as_one_over_n(self):
        cs = [rate_rcfdm_zero_z(1.0, 1.0, n).c for n in (10, 100, 1000)]
        assert cs[0] / cs[1] == pytest.approx(10.0)
        assert cs[1] / cs[2] == pytest.approx(10.0)

    def test_matches_quoted_comparison_rate(self, rng):
        # with unit Lipschitz constants and weights: 1 - kappa/(n (kappa+1/2))
        for _ in range(20):
            kappa = float(rng.uniform(0.05, 3.0))
            n = int(rng.integers(1, 40))
            rc = rate_rcfdm_zero_z(kappa, 1.0, n)
            assert rc.factor == pytest.approx(
                1 - kappa / (n * (kappa + 0.5)), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rate_rcfdm_zero_z(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            rate_rcfdm_zero_z(1.0, 1.0, 0)


class TestRateRcfdmGeneral:
    def test_beta_zero_reduction(self):
        rc = rate_rcfdm_general(1.0, 1.0, 0.0, 1.0, 4)
        # clip-inactive branch with the zeta ratio collapsing to 1
        assert rc.factor == pytest.approx(1 - (1 / 8) * 0.5)
        assert rc.inputs["branch"] == "clip-inactive"

    def test_large_kappa_triggers_clipped_branch(self):
        rc = rate_rcfdm_general(5.0, 1.0, 1.0, 1.0, 4)
        assert rc.inputs["branch"] == "clip-active"
        assert rc.c == pytest.approx(1.0 / (4 * (2 + 2 + 1)))

    def test_continuity_at_branch_boundary(self):
        # omega kappa / (omega + 1) = 1 at kappa = 2, omega = 1
        below = rate_rcfdm_general(2.0 - 1e-12, 1.3, 0.7, 1.0, 6)
        at = rate_rcfdm_general(2.0, 1.3, 0.7, 1.0, 6)
        assert below.factor == pytest.approx(at.factor, abs=1e-9)

    def test_factor_in_unit_interval(self, rng):
        for _ in range(50):
            kappa, zeta, beta, om = rng.uniform(0.05, 10.0, 4)
            n = int(rng.integers(1, 60))
            rc = rate_rcfdm_general(kappa, zeta, beta, om, n)
            assert 0 < rc.factor < 1


class TestSdcaIterationBound:
    def test_substitution_example(self):
        rep = sdca_iteration_bound(0.2, 1.0, 0.1, 10, 1.0, 1.0)
        assert rep.s == 1.0
        assert rep.iteration_bound == 35

    def test_large_epsilon_gives_zero(self):
        rep = sdca_iteration_bound(4.0, 1.0, 1.0, 10, 1.0, 1.0)
        assert rep.s == 1.0
        assert rep.iteration_bound == 0

    def test_s_saturates_with_small_epsilon(self):
        rep = sdca_iteration_bound(1e-3, 0.1, 0.5, 8, 0.5, 2.0)
        assert rep.s == pytest.approx(1e-3 * 0.1 / 0.5)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            sdca_iteration_bound(0.0, 1.0, 1.0, 10, 1.0, 1.0)


# ---------------------------------------------------------------------------
# kappa estimation


class TestEstimateKappa:
    def test_scalar_quadratic_exact_half(self):
        p = QuadraticProblem(np.array([[1.0]]), np.zeros(1))
        tr = run_scdm(p, SolverConfig(max_iters=3, seed=0,
                                      x0=np.array([2.0]), record_every=1),
                      option="II", )
        kap = estimate_kappa_f(p, tr, np.zeros(1), 0.0, np.ones(1))
        assert kap == pytest.approx(0.5, rel=1e-9)

    def test_quadratic_dominates_half_min_eigenvalue(self, rng):
        G = rng.standard_normal((5, 5))
        H = G @ G.T + np.eye(5)
        p = QuadraticProblem(H, rng.standard_normal(5))
        x_star = np.linalg.solve(H, -p.linear)
        f_star = p.value(x_star)
        tr = run_scdm(p, SolverConfig(max_iters=300, seed=1, record_every=10),
                      option="I")
        kap = estimate_kappa_f(p, tr, x_star, f_star, np.ones(5))
        lam_min = np.linalg.eigvalsh(H)[0]  # eigenvalue oracle
        assert kap >= lam_min / 2 - 1e-9

    def test_trace_at_optimum_is_undefined(self):
        p = QuadraticProblem(np.array([[1.0]]), np.zeros(1))
        tr = run_scdm(p, SolverConfig(max_iters=5, seed=0, x0=np.zeros(1)))
        with pytest.raises(ValueError):
            estimate_kappa_f(p, tr, np.zeros(1), 0.0, np.ones(1))

    def test_singular_quadratic_uses_solution_set_projection(self):
        # f = 0.5 (x1 + x2)^2 - (x1 + x2): optima on the line x1 + x2 = 1;
        # relative to the nearest solution the growth ratio is exactly 1
        H = np.array([[1.0, 1.0], [1.0, 1.0]])
        p = QuadraticProblem(H, np.array([-1.0, -1.0]))
        x_star = np.array([0.5, 0.5])
        tr = run_scdm(p, SolverConfig(max_iters=40, seed=2, record_every=5,
                                      x0=np.array([3.0, -1.0])), option="I")
        kap = estimate_kappa_f(p, tr, x_star, p.value(x_star), np.ones(2))
        assert kap == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# measured rate


class TestMeasuredRate:
    def test_exact_geometric_sequence(self):
        ks = np.arange(200)
        # excess above f* = 0 is exact
        assert measured_rate(0.9**ks, 0.0) == pytest.approx(0.9, abs=1e-12)
        assert measured_rate(1.0 + 0.9**ks, 1.0) == pytest.approx(0.9, abs=1e-8)

    def test_constant_trace_errors(self):
        with pytest.raises(ValueError):
            measured_rate(np.ones(50), 1.0)

    def test_too_few_points_errors(self):
        with pytest.raises(ValueError):
            measured_rate([2.0, 1.5, 1.2], 1.0)

    def test_option2_svm_beats_theory(self):
        # the measured factor must not exceed the guaranteed expectation
        # factor; compare the multi-seed mean curve, never one trajectory
        p = fixtures.svm_dual_toy(n=4, d=4)
        w = p.lipschitz
        from fdmkit.experiment import reference_solve
        x_star, f_star, ref = reference_solve(p)
        kap = estimate_kappa_f(p, ref, x_star, f_star, w)
        theory = rate_rcfdm_zero_z(kap, 1.0, p.n).factor
        fs = np.mean([run_scdm(p, SolverConfig(max_iters=400, seed=s),
                               option="II").f for s in range(32)], axis=0)
        assert measured_rate(fs, f_star) <= theory + 1e-6


# ---------------------------------------------------------------------------
# Hoffman constant


class TestHoffman:
    def test_unit_instance(self):
        assert hoffman_theta_bruteforce(np.array([[1.0]])) == pytest.approx(1.0)

    def test_correlated_rows_lower_bound(self):
        for delta in (0.1, 0.01):
            ds = correlated_rows(delta, d=3, n=4, seed=0)
            rows = ds.features.T  # feature-space rows carry the near-duplicates
            theta = hoffman_theta_bruteforce(rows)
            assert theta >= np.sqrt(2.0) / delta

    def test_matches_sphere_sampling_oracle(self, rng):
        rows = rng.standard_normal((3, 4))
        rows += 0.5 * np.sign(rows)  # keep it well-conditioned
        theta = hoffman_theta_bruteforce(rows)
        oracle = sphere_max_ratio(rows, n_samples=400_000, seed=3)
        assert theta >= oracle * (1 - 1e-9)
        assert abs(theta - oracle) <= 2e-2 * theta

    def test_monotone_under_near_dependent_row(self, rng):
        rows = rng.standard_normal((3, 5))
        theta_before = hoffman_theta_bruteforce(rows)
        dup = rows[0].copy()
        dup[0] += 0.01
        theta_after = hoffman_theta_bruteforce(np.vstack([rows, dup]))
        assert theta_after >= theta_before - 1e-12

    def test_sign_constraint_filters_b_rows(self):
        # two opposed B rows: u >= 0 rules the mixed-sign support out, so the
        # one-row supports decide the value
        b_rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        a_rows = np.array([[0.0, 1.0]])
        theta = hoffman_theta_bruteforce(a_rows, b_rows)
        assert theta == pytest.approx(1.0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hoffman_theta_bruteforce(np.ones((13, 2)))


class TestKappaFormulas:
    def test_from_theta(self):
        assert kappa_from_theta(1.0, 1.0) == pytest.approx(0.5)
        assert kappa_from_theta(1.0, 2.0) == pytest.approx(0.125)

    def test_theta_doubling_quarters_kappa(self):
        assert kappa_from_theta(3.0, 2.0) == pytest.approx(
            kappa_from_theta(3.0, 1.0) / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa_from_theta(0.0, 1.0)


# ---------------------------------------------------------------------------
# spectral helpers


class TestSpectral:
    def test_sigma_sq_is_the_largest_singular_value(self, rng):
        # exact, so no direction's Rayleigh quotient exceeds it: an estimate
        # from below would make the iteration bound optimistic
        p = fixtures.svm_dual_toy(n=8, d=10)
        gram = p.ya @ p.ya.T
        sig = svm_sigma_sq(p)
        assert sig == pytest.approx(
            np.sqrt(np.linalg.eigvalsh(gram)[-1]) / p.n, rel=1e-12)
        for _ in range(50):
            v = rng.standard_normal(gram.shape[0])
            assert np.sqrt(v @ gram @ v / (v @ v)) / p.n <= sig * (1 + 1e-12)

    def test_sigma_sq_within_stated_range(self):
        p = fixtures.svm_dual_toy(n=8, d=10)
        sig = svm_sigma_sq(p)
        assert 1.0 / p.n <= sig <= 1.0

    def test_quadratic_lipschitz_diag(self):
        L = np.array([1.0, 4.0, 9.0])
        p = QuadraticProblem(np.diag(L), np.zeros(3))
        assert quadratic_lipschitz_w(p, L) == pytest.approx(1.0, rel=1e-7)
        assert quadratic_lipschitz_w(p, np.ones(3)) == pytest.approx(9.0,
                                                                     rel=1e-6)
