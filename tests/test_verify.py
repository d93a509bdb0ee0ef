import dataclasses

import numpy as np
import pytest

from fdmkit import fixtures, verify
from fdmkit.datasets import gaussian_margin
from fdmkit.geometry import Box
from fdmkit.problems import (ErmProblem, Problem, QuadraticProblem, f_noise,
                             global_lipschitz_bound)
from fdmkit.solvers import (OPTION_I, SolverConfig, run_cyclic_cd,
                            run_projected_gradient, run_scdm)
from fdmkit.verify import (ReplayError, check_rcfdm, check_rfdm,
                           check_trace_invariants, default_rfdm_check_every)
from oracles import (checked_rows_by_row, check_rcfdm_scalar, check_rfdm_scalar,
                     transient_bytes)


def with_new_value(tr, k, value):
    """A copy of ``tr`` whose step ``k`` records ``value`` (fault injection)."""
    new_values = tr.new_values.copy()
    new_values[k] = value
    return dataclasses.replace(tr, new_values=new_values)


def separable_quadratic(L):
    L = np.asarray(L, float)
    return QuadraticProblem(np.diag(L), np.zeros(len(L)))


# ---------------------------------------------------------------------------
# z reconstruction


def kernel_step(p, x, i, w):
    """``(tilde, z, err)`` of the exact-minimization step on coordinate ``i``
    at ``x``: the minimizer of the run state that ``run_scdm`` steps
    through, and ``_z_kernel``'s correction and replay error for it."""
    tilde = p.start_state(x).exact_coord_min(i)
    x_t = x.copy()
    x_t[i] = tilde
    z, _, err = verify._z_kernel(OPTION_I, p.coord_gradient(x, i),
                                 p.coord_gradient(x_t, i), w[i], x[i], tilde,
                                 0.0, lower=p.box.lower[i],
                                 upper=p.box.upper[i])
    return tilde, z, err


class TestReconstructZ:
    def test_separable_quadratic_exact_cancellation(self, rng):
        # with w = L the gradient change -L d cancels the +w d term exactly
        p = separable_quadratic([1.0, 2.0, 3.0])
        w = p.lipschitz
        for _ in range(20):
            x = rng.standard_normal(3)
            i = int(rng.integers(3))
            _, z, _ = kernel_step(p, x, i, w)
            assert abs(z) <= 1e-14
            assert z * z / w[i] <= 1e-28

    def test_coordinate_optimal_point_gives_zero(self):
        p = separable_quadratic([2.0, 5.0])
        tilde, z, _ = kernel_step(p, np.array([0.0, 1.0]), 0, p.lipschitz)
        assert tilde == 0.0
        assert z == 0.0

    def test_replay_reproduces_next_iterate(self, rng):
        # substituting the reconstruction into the projected update recovers
        # the post-step point exactly
        p = fixtures.svm_dual_toy(n=4, d=4)
        w = p.lipschitz
        for _ in range(50):
            x = rng.uniform(0, 1, 4)
            i = int(rng.integers(4))
            tilde, z, err = kernel_step(p, x, i, w)
            step = np.zeros(4)
            step[i] = p.gradient(x)[i] - z
            replayed = p.box.clip(x - step / w)
            x_next = x.copy()
            x_next[i] = tilde
            np.testing.assert_allclose(replayed, x_next, atol=1e-12)
            assert err <= 1e-12


# ---------------------------------------------------------------------------
# coordinate-mode certification


class TestCheckRcfdm:
    def test_option2_zero_correction_and_pass(self, standard_problems):
        p = standard_problems["svm_dual_n4"]
        tr = run_scdm(p, SolverConfig(max_iters=2000, seed=1), option="II")
        cert = check_rcfdm(tr, p)
        assert cert.passed
        assert cert.beta_hat_sq == 0.0
        assert cert.zeta_hat >= 0.5 * (1 - 1e-9)

    def test_option1_svm_within_theory(self, standard_problems):
        p = standard_problems["svm_dual_n4"]
        tr = run_scdm(p, SolverConfig(max_iters=2000, seed=2), option="I")
        cert = check_rcfdm(tr, p)
        lfw = global_lipschitz_bound(p.lipschitz, p.lipschitz)
        assert cert.beta_sq_theory == pytest.approx(2 * (lfw**2 + 1))
        assert cert.passed
        assert cert.beta_hat_sq <= cert.beta_sq_theory

    def test_corrupted_trace_fails_with_iteration_index(self):
        # fault injection: one recorded value escapes the box (projection
        # skipped), so the replay cannot reproduce it
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=100, seed=3), option="I")
        tr = with_new_value(tr, 57, 1.7)
        with pytest.raises(ReplayError) as err:
            check_rcfdm(tr, p)
        assert err.value.k == 57

    def test_non_coordinate_trace_rejected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_cyclic_cd(p, SolverConfig(max_iters=5))
        with pytest.raises(ValueError):
            check_rcfdm(tr, p)

    def test_nonpositive_check_every_rejected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=5))
        with pytest.raises(ValueError, match="check_every"):
            check_rcfdm(tr, p, check_every=0)

    def test_certificate_monotone_in_prefix(self):
        p = fixtures.lasso_small()
        certs = []
        for iters in (100, 400, 1600):
            tr = run_scdm(p, SolverConfig(max_iters=iters, seed=7), option="I")
            certs.append(check_rcfdm(tr, p))
        assert certs[0].beta_hat_sq <= certs[1].beta_hat_sq <= certs[2].beta_hat_sq
        assert certs[0].zeta_hat >= certs[1].zeta_hat >= certs[2].zeta_hat

    def test_erm_option1_passes(self, standard_problems):
        p = standard_problems["erm_logistic_n20"]
        tr = run_scdm(p, SolverConfig(max_iters=1500, seed=4), option="I")
        cert = check_rcfdm(tr, p)
        assert cert.passed
        assert cert.zeta_hat >= p.gamma(p.lipschitz) * (1 - 1e-9)

    def test_transient_memory_is_bounded(self, svm_verify_inputs):
        # 1 MiB temporaries held 2.4 MB on this 2000 x 50 dual's trace
        _, p, trace = svm_verify_inputs
        cert, peak = transient_bytes(check_rcfdm, trace, p)
        assert cert.n_checked == len(trace) == 12000
        assert peak <= 1 << 20


def _replay_chunk(monkeypatch, p, steps):
    """Make check_rcfdm walk ``p``'s traces in chunks of ``steps`` steps."""
    monkeypatch.setattr(verify, "_REPLAY_CHUNK_BYTES", 8 * p.image_dim * steps)


_FIXTURES = ["svm_dual_n2", "svm_dual_n4", "svm_dual_n8", "lasso_d5",
             "erm_logistic_n20", "quadratic_diag_n5", "quadratic_box_n8"]


class TestRcfdmMatchesScalarReplay:
    """The chunked replay against the step-by-step reference in oracles."""

    @pytest.mark.parametrize("chunk", [None, 97])
    @pytest.mark.parametrize("option", ["I", "II"])
    @pytest.mark.parametrize("name", _FIXTURES)
    def test_certificate_matches(self, name, option, chunk, standard_problems,
                                 monkeypatch):
        p = standard_problems[name]
        if chunk is not None:
            _replay_chunk(monkeypatch, p, chunk)
        tr = run_scdm(p, SolverConfig(max_iters=2000, seed=0), option)
        got = check_rcfdm(tr, p)
        want = check_rcfdm_scalar(tr, p)
        assert got.zeta_hat == want.zeta_hat
        assert got.worst_zeta_k == want.worst_zeta_k
        assert got.n_checked == want.n_checked == len(tr)
        assert got.passed == want.passed
        # only the reordered gradient sums move beta_hat, at its rounding floor
        assert abs(got.beta_hat_sq - want.beta_hat_sq) <= 1e-12 * got.beta_sq_theory

    @pytest.mark.parametrize("name, seed", [
        ("svm_dual_n4", 2), ("svm_dual_n4", 8), ("svm_dual_n4", 24),
        ("lasso_d5", 2), ("lasso_d5", 7), ("lasso_d5", 22)])
    def test_converged_steps_match_across_seeds(self, name, seed,
                                                standard_problems):
        # steps at the gradient's rounding floor, where the two evaluation
        # orders disagreed while the correction noise ignored g's offset
        p = standard_problems[name]
        tr = run_scdm(p, SolverConfig(max_iters=1000, seed=seed), "I")
        got = check_rcfdm(tr, p)
        want = check_rcfdm_scalar(tr, p)
        assert (got.zeta_hat, got.worst_zeta_k) == (want.zeta_hat, want.worst_zeta_k)
        assert abs(got.beta_hat_sq - want.beta_hat_sq) <= 1e-12 * got.beta_sq_theory

    def test_step_whose_square_underflows_gives_no_ratio(self):
        # x* = (0, 0, -1e-200): the step onto the last coordinate moves by
        # 1e-200, whose square is 0 in floating point
        p = QuadraticProblem(np.eye(3), np.array([0.0, 0.0, 1e-200]),
                             Box.cube(3, -1.0, 1.0))
        tr = run_scdm(p, SolverConfig(max_iters=30, seed=0), "I")
        assert -1e-200 in tr.new_values
        got = check_rcfdm(tr, p)
        want = check_rcfdm_scalar(tr, p)
        assert got.passed and want.passed
        assert (got.beta_hat_sq, got.zeta_hat) == (want.beta_hat_sq, want.zeta_hat)

    @pytest.mark.parametrize("name", ["svm_dual_n8", "lasso_d5", "erm_logistic_n20"])
    def test_check_every_matches(self, name, standard_problems, monkeypatch):
        p = standard_problems[name]
        _replay_chunk(monkeypatch, p, 50)
        tr = run_scdm(p, SolverConfig(max_iters=500, seed=1), "I")
        got = check_rcfdm(tr, p, check_every=7)
        want = check_rcfdm_scalar(tr, p, check_every=7)
        assert got.n_checked == want.n_checked == len(range(0, 500, 7))
        assert (got.zeta_hat, got.worst_zeta_k) == (want.zeta_hat, want.worst_zeta_k)


class TestRcfdmReplayErrors:
    """Corrupted recorded values on traces walked in chunks of 50 steps."""

    STEPS = 300
    CHUNK = 50

    @pytest.fixture(params=["svm_dual_n8", "lasso_d5", "erm_logistic_n20"])
    def case(self, request, standard_problems, monkeypatch):
        p = standard_problems[request.param]
        _replay_chunk(monkeypatch, p, self.CHUNK)
        tr = run_scdm(p, SolverConfig(max_iters=self.STEPS, seed=3), "I")
        return p, tr

    @staticmethod
    def corrupt(tr, k):
        return with_new_value(tr, k, tr.new_values[k] + 1.7)

    @pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, 2 * CHUNK, STEPS - 1])
    def test_reported_at_corrupted_step(self, case, k):
        p, tr = case
        tr = self.corrupt(tr, k)
        with pytest.raises(ReplayError) as err:
            check_rcfdm(tr, p)
        assert err.value.k == k

    def test_first_of_two_corruptions_reported(self, case):
        p, tr = case
        tr = self.corrupt(self.corrupt(tr, 2 * self.CHUNK + 7), 17)
        with pytest.raises(ReplayError) as err:
            check_rcfdm(tr, p)
        assert err.value.k == 17

    def test_unchecked_corruption_as_reference(self, case):
        # with check_every=3 the corrupted step 50 is walked, not replayed;
        # the iterate it moved breaks the replay of the next checked step
        p, tr = case
        tr = self.corrupt(tr, self.CHUNK)
        outcomes = []
        for check in (check_rcfdm, check_rcfdm_scalar):
            with pytest.raises(ReplayError) as err:
                check(tr, p, check_every=3)
            outcomes.append(err.value.k)
        assert outcomes == [self.CHUNK + 1] * 2

    def test_non_finite_value_raises_value_error(self, case):
        p, tr = case
        tr = with_new_value(tr, self.CHUNK + 3, np.nan)
        with pytest.raises(ValueError, match="not finite"):
            check_rcfdm(tr, p)
        # an earlier replay failure is still reported first
        tr = self.corrupt(tr, 5)
        with pytest.raises(ReplayError) as err:
            check_rcfdm(tr, p)
        assert err.value.k == 5


# ---------------------------------------------------------------------------
# expectation-mode certification


class TestCheckRfdm:
    def test_requires_unconstrained(self, standard_problems):
        p = standard_problems["svm_dual_n4"]
        tr = run_scdm(p, SolverConfig(max_iters=10, seed=0), option="I")
        with pytest.raises(ValueError):
            check_rfdm(tr, p)

    def test_requires_exact_minimization_trace(self):
        p = separable_quadratic([1.0, 2.0])
        tr = run_scdm(p, SolverConfig(max_iters=10, seed=0), option="II")
        with pytest.raises(ValueError):
            check_rfdm(tr, p)

    def test_separable_quadratic_beta_is_n_minus_1(self):
        # the chosen-coordinate entry cancels; the off-coordinate gradient
        # entries contribute exactly (n-1) times the expected displacement
        p = separable_quadratic([1.0, 2.0, 3.0, 4.0, 5.0])
        x0 = np.array([1.0, -0.5, 2.0, 0.7, -1.2])
        tr = run_scdm(p, SolverConfig(max_iters=60, seed=5, x0=x0), option="I")
        cert = check_rfdm(tr, p)
        assert cert.beta_hat_sq == pytest.approx(p.n - 1, rel=1e-9)
        assert cert.passed

    def test_scalar_problem_drops_r_term(self):
        p = separable_quadratic([2.0])
        tr = run_scdm(p, SolverConfig(max_iters=5, seed=0,
                                      x0=np.array([3.0])), option="I")
        cert = check_rfdm(tr, p)
        lfw = global_lipschitz_bound(p.lipschitz, p.lipschitz)
        assert cert.beta_sq_theory == pytest.approx(2 * (lfw**2 + 1))

    def test_erm_within_theorem_constants(self, standard_problems):
        p = standard_problems["erm_logistic_n20"]
        w = p.lipschitz
        tr = run_scdm(p, SolverConfig(max_iters=600, seed=6), option="I")
        cert = check_rfdm(tr, p, check_every=1)
        lfw = global_lipschitz_bound(p.lipschitz, w)
        r_sq = float(np.max((p.lipschitz / w) ** 2))
        assert cert.beta_sq_theory == pytest.approx(
            2 * (lfw**2 + 1) + (p.n - 1) * r_sq)
        assert cert.passed

    @pytest.mark.parametrize("seed", [10, 22])
    def test_far_squared_hinge_traces_certify(self, far_squared_hinge, seed):
        p, x0 = far_squared_hinge[seed]
        tr = run_scdm(p, SolverConfig(max_iters=200, seed=seed, x0=x0))
        cert = check_rfdm(tr, p, check_every=1)
        assert cert.n_checked == 200 and cert.passed

    def test_evaluates_no_path_gradients(self, standard_problems, monkeypatch):
        # unchecked steps are only assigned, and each checked step replays
        # from the gradients at its own iterate
        p = standard_problems["erm_logistic_n20"]
        tr = run_scdm(p, SolverConfig(max_iters=200, seed=6), option="I")
        bad = with_new_value(tr, 13, tr.new_values[13] + 1.7)
        want = [check_rfdm(tr, p, check_every=e).as_dict() for e in (1, 3)]

        def no_path(*args, **kwargs):
            raise AssertionError("check_rfdm evaluated path gradients")

        monkeypatch.setattr(Problem, "coord_grads_along", no_path)
        assert [check_rfdm(tr, p, check_every=e).as_dict()
                for e in (1, 3)] == want
        with pytest.raises(ReplayError) as err:
            check_rfdm(bad, p, check_every=3)
        assert err.value.k == 15

    def test_check_every_default_budget(self):
        assert default_rfdm_check_every(10, 1000) == 1
        assert default_rfdm_check_every(20, 10_000) == 2

    @pytest.mark.parametrize("check_every", [0, -2])
    def test_nonpositive_check_every_rejected(self, check_every):
        p = separable_quadratic([1.0, 2.0])
        tr = run_scdm(p, SolverConfig(max_iters=5, seed=0,
                                      x0=np.array([1.0, 1.0])), option="I")
        with pytest.raises(ValueError, match="check_every"):
            check_rfdm(tr, p, check_every=check_every)


def _rfdm_chunk(monkeypatch, p, steps):
    """Make check_rfdm enumerate ``p``'s traces in chunks of ``steps``
    checked steps."""
    monkeypatch.setattr(verify, "_RFDM_CHUNK_BYTES",
                        8 * p.n * p.image_dim * steps)


def _rfdm_problem(name):
    if name == "separable_quadratic":
        return separable_quadratic([1.0, 2.0, 3.0, 4.0, 5.0])
    rng = np.random.Generator(np.random.Philox(key=21))
    A = rng.standard_normal((30, 6))
    y = np.where(rng.standard_normal(30) > 0.0, 1.0, -1.0)
    return ErmProblem(A, y, lam=0.05, loss=name)


def _zeta_tolerance(tr, p, k):
    """``2 * f_noise(f_k) / e_disp`` at step k: the rounding of the
    objective difference that zeta divides, at its worst step."""
    x = tr.iterate(k)
    st = p.start_state(x)
    e_disp = np.mean([tr.w[j] * (st.exact_coord_min(j) - x[j]) ** 2
                      for j in range(p.n)])
    return 2.0 * f_noise(p.value(x)) / e_disp


class TestRfdmMatchesScalarEnumeration:
    """The chunked enumeration against the step-by-step reference in oracles.

    The traces stop while the gradient is well above its rounding (max |g|
    is 2e-6 at the end of the logistic trace).  Near the optimum beta is a
    ratio of rounding-level quantities: on the same trace run to 200 steps
    the worst beta step has max |g| = 8e-9, and there the two enumerations
    differ by 2.4e-10 times beta_sq_theory.
    """

    STEPS = 120

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("check_every", [1, 3])
    @pytest.mark.parametrize("name", ["logistic", "squared", "squared_hinge",
                                      "separable_quadratic"])
    def test_certificate_matches(self, name, check_every, chunk, monkeypatch):
        p = _rfdm_problem(name)
        if chunk is not None:
            _rfdm_chunk(monkeypatch, p, chunk)
        x0 = np.linspace(-1.5, 2.0, p.n)
        tr = run_scdm(p, SolverConfig(max_iters=self.STEPS, seed=2, x0=x0), "I")
        got = check_rfdm(tr, p, check_every=check_every)
        ratios = {}
        want = check_rfdm_scalar(tr, p, check_every=check_every, ratios=ratios)
        assert got.n_checked == want.n_checked == len(range(0, self.STEPS,
                                                            check_every))
        assert got.passed == want.passed
        # the reordered sums move beta_hat at its rounding floor, and zeta_hat
        # by the rounding of the objective decrease it divides
        beta_tol = 1e-12 * got.beta_sq_theory
        zeta_tol = _zeta_tolerance(tr, p, want.worst_zeta_k)
        assert abs(got.beta_hat_sq - want.beta_hat_sq) <= beta_tol
        assert abs(got.zeta_hat - want.zeta_hat) <= zeta_tol
        # The worst steps are equal unless the reference's own ratios tie
        # within those bounds: with w = L every step of a quadratic (and of
        # squared-loss ERM) has zeta = 1/2 in exact arithmetic.
        assert (got.worst_beta_k == want.worst_beta_k
                or abs(ratios[got.worst_beta_k][0] - want.beta_hat_sq) <= beta_tol)
        assert (got.worst_zeta_k == want.worst_zeta_k
                or abs(ratios[got.worst_zeta_k][1] - want.zeta_hat) <= zeta_tol)


class TestCheckedRows:
    """check_rfdm builds each chunk's checked iterates in one pass; the
    row-by-row loop in oracles is the reference, and assignments are exact,
    so rows and certificates must be byte-identical."""

    @staticmethod
    def assert_rows_match(tr, check_every, rows_per_chunk):
        for _, x, c, new, ks in verify._walk(tr, check_every,
                                             rows_per_chunk * check_every):
            got = verify._checked_rows(x, c, new, ks)
            assert got.tobytes() == checked_rows_by_row(
                x, c, new, ks, check_every).tobytes()

    @pytest.mark.parametrize("check_every", [1, 3, 4])
    @pytest.mark.parametrize("name", ["logistic", "squared_hinge",
                                      "separable_quadratic"])
    def test_certificate_equals_row_by_row(self, name, check_every,
                                           monkeypatch):
        p = _rfdm_problem(name)
        _rfdm_chunk(monkeypatch, p, 5)
        tr = run_scdm(p, SolverConfig(max_iters=97, seed=4,
                                      x0=np.linspace(-1.5, 2.0, p.n)), "I")
        self.assert_rows_match(tr, check_every, 5)
        got = check_rfdm(tr, p, check_every=check_every).as_dict()
        monkeypatch.setattr(verify, "_checked_rows",
                            lambda x, c, new, ks: checked_rows_by_row(
                                x, c, new, ks, check_every))
        assert got == check_rfdm(tr, p, check_every=check_every).as_dict()

    def test_long_logistic_trace(self):
        # 20000 steps on 200 x 20 logistic ERM; check_rfdm takes four
        # checked rows per chunk there
        ds = gaussian_margin(200, 20, seed=1)
        p = ErmProblem(ds.features, ds.labels, lam=0.01)
        tr = run_scdm(p, SolverConfig(max_iters=20_000, seed=3), "I")
        for check_every in (1, 3, 4):
            self.assert_rows_match(tr, check_every, 4)

    def test_rows_past_assignments_and_empty_chunk(self):
        x = np.array([1.0, -0.0, 3.0])
        c = np.array([2, 0, 2, 1, 2])
        new = np.array([5.0, 6.0, 7.0, 0.0, 9.0])
        ks = np.array([0, 1, 3, 4])
        want = np.array([[1.0, -0.0, 3.0], [1.0, -0.0, 5.0],
                         [6.0, -0.0, 7.0], [6.0, 0.0, 7.0]])
        assert verify._checked_rows(x, c, new, ks).tobytes() == want.tobytes()
        empty = verify._checked_rows(x, c[:0], new[:0], ks[:0])
        assert empty.shape == (0, 3)


class TestRfdmReplayErrors:
    """Corrupted recorded values on a logistic trace enumerated in chunks of
    four checked steps."""

    STEPS = 41
    CHUNK = 4

    @pytest.fixture
    def case(self, standard_problems, monkeypatch):
        p = standard_problems["erm_logistic_n20"]
        _rfdm_chunk(monkeypatch, p, self.CHUNK)
        tr = run_scdm(p, SolverConfig(max_iters=self.STEPS, seed=3), "I")
        return p, tr

    @staticmethod
    def corrupt(tr, k, delta=1.7):
        return with_new_value(tr, k, tr.new_values[k] + delta)

    @pytest.mark.parametrize("delta", [1.7, 1e-6])
    @pytest.mark.parametrize("k", [2 * CHUNK, 3 * CHUNK - 1, STEPS - 1])
    def test_reported_at_corrupted_step(self, case, k, delta):
        p, tr = case
        tr = self.corrupt(tr, k, delta)
        with pytest.raises(ReplayError) as err:
            check_rfdm(tr, p, check_every=1)
        assert err.value.k == k

    def test_unchecked_corruption(self, case):
        # with check_every=3 the last step, 40, is walked but never replayed
        p, tr = case
        tr = self.corrupt(tr, self.STEPS - 1)
        cert = check_rfdm(tr, p, check_every=3)
        assert cert.n_checked == len(range(0, self.STEPS, 3))
        # an unchecked step earlier on moves the iterate of the next checked one
        tr = self.corrupt(tr, 13)
        outcomes = []
        for check in (check_rfdm, check_rfdm_scalar):
            with pytest.raises(ReplayError) as err:
                check(tr, p, check_every=3)
            outcomes.append(err.value.k)
        assert outcomes == [15, 15]

    def test_non_finite_value_raises_value_error(self, case):
        p, tr = case
        tr = with_new_value(tr, 10, np.nan)
        with pytest.raises(ValueError, match="iteration 10 is not finite"):
            check_rfdm(tr, p, check_every=1)
        # an earlier replay failure is still reported first
        tr = self.corrupt(tr, 5)
        with pytest.raises(ReplayError) as err:
            check_rfdm(tr, p, check_every=1)
        assert err.value.k == 5


# ---------------------------------------------------------------------------
# the shared fold of per-step ratios


class TestFold:
    NAN = float("nan")

    def fold(self, beta, zeta, ks, worst=verify._NO_RATIOS):
        return verify._fold(worst, np.asarray(beta, float),
                            np.asarray(zeta, float), np.asarray(ks))

    def test_nan_never_wins(self):
        assert self.fold([self.NAN, 2.0, self.NAN], [self.NAN, 0.5, self.NAN],
                         [10, 11, 12]) == (2.0, 0.5, 11, 11)
        all_nan = [self.NAN] * 3
        assert self.fold(all_nan, all_nan, [0, 1, 2]) == verify._NO_RATIOS

    def test_first_index_wins_a_tie(self):
        assert self.fold([1.0, 3.0, 3.0], [2.0, 0.5, 0.5],
                         [4, 5, 6]) == (3.0, 0.5, 5, 5)
        # a later chunk that only ties the running extremes does not win
        assert self.fold([3.0], [0.5], [9], worst=(3.0, 0.5, 5, 5)) == (
            3.0, 0.5, 5, 5)

    def test_folding_in_parts_equals_folding_whole(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 40))
            # few distinct values, so ties are common, and some NaNs
            beta = rng.integers(0, 4, m).astype(float)
            zeta = rng.integers(0, 4, m).astype(float)
            beta[rng.random(m) < 0.2] = self.NAN
            zeta[rng.random(m) < 0.2] = self.NAN
            ks = np.arange(m) * 3
            whole = self.fold(beta, zeta, ks)
            cuts = np.sort(rng.integers(0, m + 1, int(rng.integers(0, 4))))
            worst = verify._NO_RATIOS
            for part in np.split(np.arange(m), cuts):
                worst = self.fold(beta[part], zeta[part], ks[part], worst)
            assert worst == whole


# ---------------------------------------------------------------------------
# framework constants


class TestFdmConstants:
    def test_formulas(self, standard_problems):
        p = standard_problems["erm_logistic_n20"]
        w = 2.0 * p.lipschitz
        lfw = global_lipschitz_bound(p.lipschitz, w)
        r_sq = float(np.max((p.lipschitz / w) ** 2))
        rcfdm = 2 * (lfw**2 + 1)
        expected = {"rcfdm-I": rcfdm, "rcfdm-II": 0.0, "pgd": 0.0,
                    "rfdm": rcfdm + (p.n - 1) * r_sq,
                    "cyclic": (1 + np.sqrt(p.n) * lfw) ** 2}
        for framework, beta_sq in expected.items():
            got, zeta, inputs = verify.fdm_constants(p, w, framework)
            assert got == pytest.approx(beta_sq, rel=1e-14)
            assert zeta == inputs["gamma"] == p.gamma(w)
            assert inputs["l_f_w"] == lfw
            assert ("r_sq" in inputs) == (framework == "rfdm")
        with pytest.raises(ValueError, match="unknown framework"):
            verify.fdm_constants(p, w, "rcfdm")

    def test_cyclic_constants_agree(self):
        # criterion 08 takes the cyclic beta^2 at L_f^W = n from an identity
        # Hessian with unit weights: there it is the closed form bit for bit
        for n in (1, 4, 8, 16, 32):
            p = QuadraticProblem(np.eye(n), np.zeros(n))
            beta_sq, zeta, inputs = verify.fdm_constants(p, np.ones(n),
                                                         "cyclic")
            assert inputs["l_f_w"] == float(n)
            assert beta_sq == (1.0 + np.sqrt(n) * n) ** 2
            assert zeta == 0.5


# ---------------------------------------------------------------------------
# cyclic constants


def cyclic_beta_sq(n, l_f_w):
    """``fdm_constants``' cyclic beta^2 at ``L_f^W = l_f_w``: an identity
    Hessian on n coordinates with the weights ``n / l_f_w``."""
    p = QuadraticProblem(np.eye(n), np.zeros(n))
    return verify.fdm_constants(p, np.full(n, n / l_f_w), "cyclic")[0]


class TestCyclicConstants:
    def test_substitution_example(self):
        assert cyclic_beta_sq(4, 2.0) == pytest.approx(25.0)
        p = QuadraticProblem(np.eye(4), np.zeros(4))
        assert SolverConfig().step_size(p, "cyclic") == 1.0

    def test_scalar_case(self):
        assert cyclic_beta_sq(1, 1.0) == pytest.approx(4.0)

    def test_expansion_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 50))
            lfw = float(rng.uniform(1.0, 20.0))
            assert cyclic_beta_sq(n, lfw) == pytest.approx(
                1 + 2 * np.sqrt(n) * lfw + n * lfw**2, rel=1e-12)

    def test_worst_case_growth_vs_randomized(self):
        # with w = L and the Lipschitz bound at its n extreme, the cyclic
        # constant outgrows the randomized one by a factor of order n
        ratios = []
        for n in (4, 8, 16, 32):
            beta_cyc = cyclic_beta_sq(n, float(n))
            beta_rand = 2 * (n**2 + 1) + (n - 1) * 1.0
            ratios.append(beta_cyc / beta_rand)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 4 * ratios[0]


# ---------------------------------------------------------------------------
# invariant audit


class TestTraceInvariants:
    def test_descent_violation_detected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=50, seed=0), option="I")
        f = tr.f.copy()
        f[20] = f[19] - 1.0  # force an objective increase at step 20
        tr = dataclasses.replace(tr, f=f)
        rep = check_trace_invariants(tr, p)
        assert not rep.descent_ok

    def test_feasibility_violation_detected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=50, seed=0), option="I")
        tr = with_new_value(tr, 30, 1.5)
        rep = check_trace_invariants(tr, p)
        assert not rep.feasible_ok
        assert rep.worst_feasibility_violation == pytest.approx(0.5)

    def test_infeasible_full_step_snapshot_reported(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_projected_gradient(p, SolverConfig(max_iters=50))
        X = tr.snap_x.copy()
        X[30, 2] = 1.5  # outside [0, 1]^n, where value() raises
        rep = check_trace_invariants(dataclasses.replace(tr, snap_x=X), p)
        assert not rep.feasible_ok
        assert rep.worst_feasibility_violation == pytest.approx(0.5)
        assert rep.descent_ok and rep.disp_nonnegative
        X[40, 1] = np.nan
        rep = check_trace_invariants(dataclasses.replace(tr, snap_x=X), p)
        assert not rep.feasible_ok and not rep.objective_consistent

    @pytest.mark.parametrize("method", ["cyclic", "scdm"])
    def test_objective_drift_detected(self, method, standard_problems):
        p = standard_problems["lasso_d5"]
        cfg = SolverConfig(max_iters=200, seed=3)
        tr = run_cyclic_cd(p, cfg) if method == "cyclic" else run_scdm(p, cfg)
        clean = check_trace_invariants(tr, p)
        assert clean.objective_consistent
        ks, X = tr.snap_ks, tr.snap_x
        X = X.copy()
        X[len(ks) // 2] += 0.25  # still feasible: every entry grows
        rep = check_trace_invariants(dataclasses.replace(tr, snap_x=X), p)
        assert not rep.objective_consistent
        assert rep.worst_objective_drift > 1e-6
        assert rep.feasible_ok and rep.descent_ok

    def test_clean_traces_pass(self, standard_problems):
        p = standard_problems["quadratic_box_n8"]
        tr = run_scdm(p, SolverConfig(max_iters=500, seed=1), option="II")
        rep = check_trace_invariants(tr, p)
        assert rep.all_ok
        assert rep.worst_descent_violation <= 1e-12
