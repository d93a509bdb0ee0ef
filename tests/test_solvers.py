import dataclasses
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdmkit import fixtures, solvers
from fdmkit.geometry import Box
from fdmkit.problems import ErmProblem, ProblemState, QuadraticProblem
from fdmkit.problems import global_lipschitz_bound
from fdmkit.solvers import (DivergenceError, SolverConfig, Trace, run_cyclic_cd, run_projected_gradient,
                            run_scdm, run_scdm_seeds)
from oracles import box_qp_oracle, fixed_point_rule, iter_steps, run_stepping

# numpy warns when a run that diverges on purpose overflows
_NUMPY_OVERFLOW = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


def separable_quadratic(L, box=None):
    L = np.asarray(L, float)
    return QuadraticProblem(np.diag(L), np.zeros(len(L)), box)


# ---------------------------------------------------------------------------
# single steps, taken on the run state that run_scdm steps through


def step_option1(p, x, i):
    st = p.start_state(x)
    st.set_coord(i, st.exact_coord_min(i))
    return st.x


def step_option2(p, x, i, w):
    st = p.start_state(x)
    st.set_coord(i, p.box.clip_coord(x[i] - st.coord_grad(i) / w[i], i))
    return st.x


class TestStepOption1:
    def test_separable_quadratic_zeroes_coordinate(self, rng):
        p = separable_quadratic([1.0, 2.0, 3.0])
        for _ in range(20):
            x = rng.standard_normal(3)
            i = int(rng.integers(3))
            out = step_option1(p, x, i)
            # x - (L x)/L leaves at most an ulp of residue
            assert abs(out[i]) <= 4 * np.finfo(float).eps * abs(x[i])
            mask = np.arange(3) != i
            np.testing.assert_array_equal(out[mask], x[mask])

    def test_svm_toy_from_origin_hand_value(self):
        p = fixtures.svm_dual_tiny()
        out = step_option1(p, np.zeros(2), 0)
        # slice from 0: derivative -1/n, curvature L_0; clip to [0, 1]
        expected = min(1.0, (1.0 / p.n) / p.lipschitz[0])
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert out[1] == 0.0

    def test_already_optimal_coordinate_fixed_point(self):
        p = separable_quadratic([2.0, 5.0])
        x = np.array([0.0, 1.3])
        out = step_option1(p, x, 0)
        np.testing.assert_array_equal(out, x)


class TestStepOption2:
    def test_zero_gradient_unchanged(self):
        p = separable_quadratic([1.0, 4.0])
        x = np.array([0.0, 0.0])
        out = step_option2(p, x, 1, p.lipschitz)
        np.testing.assert_array_equal(out, x)

    def test_interior_step_is_scaled_gradient(self):
        p = separable_quadratic([2.0, 3.0])
        x = np.array([1.0, -1.0])
        out = step_option2(p, x, 0, p.lipschitz)
        g = p.coord_gradient(x, 0)
        assert out[0] == pytest.approx(x[0] - g / p.lipschitz[0])

    def test_matches_option1_on_quadratics(self, rng):
        p = fixtures.quadratic_box(n=6, seed=9)
        for _ in range(100):
            x = p.box.clip(rng.standard_normal(6))
            i = int(rng.integers(6))
            o1 = step_option1(p, x, i)
            o2 = step_option2(p, x, i, p.lipschitz)
            np.testing.assert_allclose(o1, o2, atol=1e-12, rtol=0)

    def test_rejects_nonpositive_omega(self):
        p = separable_quadratic([1.0])
        with pytest.raises(ValueError):
            SolverConfig(omega=0.0).step_size(p, "scdm-II")


# ---------------------------------------------------------------------------
# full runs


class TestRunScdm:
    def test_zero_budget_trace_has_only_start(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=0, seed=0))
        assert len(tr) == 0
        assert tr.f.shape == (1,)
        np.testing.assert_array_equal(tr.iterate(0), np.zeros(4))

    def test_same_seed_bitwise_identical(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        cfg = SolverConfig(max_iters=500, seed=42)
        t1 = run_scdm(p, cfg, option="I")
        t2 = run_scdm(p, SolverConfig(max_iters=500, seed=42), option="I")
        np.testing.assert_array_equal(t1.coords, t2.coords)
        np.testing.assert_array_equal(t1.new_values, t2.new_values)
        np.testing.assert_array_equal(t1.f, t2.f)
        np.testing.assert_array_equal(t1.disp_w_sq, t2.disp_w_sq)
        ks1, X1 = t1.snap_ks, t1.snap_x
        ks2, X2 = t2.snap_ks, t2.snap_x
        np.testing.assert_array_equal(ks1, ks2)
        np.testing.assert_array_equal(X1, X2)
        for k in ks1:
            np.testing.assert_array_equal(t1.iterate(int(k)), t2.iterate(int(k)))

    def test_different_seed_differs(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        t1 = run_scdm(p, SolverConfig(max_iters=200, seed=0))
        t2 = run_scdm(p, SolverConfig(max_iters=200, seed=1))
        assert not np.array_equal(t1.coords, t2.coords)

    def test_svm_toy_reaches_bruteforce_optimum(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        H = p.ya @ p.ya.T / (p.lam * p.n**2)
        _, f_star = box_qp_oracle(H, -np.ones(4) / 4, p.box.lower, p.box.upper)
        tr = run_scdm(p, SolverConfig(max_iters=200 * 4, seed=3), option="I")
        assert tr.f[-1] - f_star < 1e-6

    def test_infeasible_start_rejected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.raises(ValueError):
            run_scdm(p, SolverConfig(max_iters=10, x0=np.full(4, 2.0)))

    def test_unknown_option_rejected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.raises(ValueError):
            run_scdm(p, SolverConfig(max_iters=10), option="III")

    def test_option2_unsafe_step_warns(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.warns(UserWarning):
            run_scdm(p, SolverConfig(max_iters=5, omega=10.0), option="II")

    def test_gap_stopping(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=100_000, gap_tol=1e-6), "I")
        assert tr.stop_reason == "gap"
        assert p.duality_gap(tr.final_x) <= 1e-6

    @pytest.mark.parametrize("run", [run_scdm, run_cyclic_cd,
                                     run_projected_gradient])
    def test_gap_tol_without_duality_gap_rejected(self, run):
        p = separable_quadratic([1.0, 2.0])
        with pytest.raises(ValueError, match="gap_tol"):
            run(p, SolverConfig(max_iters=10, gap_tol=1e-6))

    def test_stall_stopping(self):
        p = separable_quadratic([1.0, 2.0])
        tr = run_scdm(p, SolverConfig(max_iters=10_000, stall_tol=1e-15), "I")
        assert tr.stop_reason == "stall"
        assert len(tr) < 10_000

    @pytest.mark.parametrize("stall_tol", [-1.0, float("nan"), float("inf"),
                                           "x", True])
    def test_bad_stall_tol_rejected(self, stall_tol):
        p = separable_quadratic([1.0, 2.0])
        with pytest.raises(ValueError, match="stall_tol"):
            run_scdm(p, SolverConfig(max_iters=10, stall_tol=stall_tol))

    @pytest.mark.parametrize("run", [run_scdm, run_cyclic_cd])
    @pytest.mark.parametrize("name, value, rule", [
        *[(name, value, "positive integer")
          for name in ("stall_window", "record_every")
          for value in (-1, 0, 2.5, True)],
        # max_iters 2.5 and "5" used to fail mid-run, True to run one step
        # and 10**400 to overflow; the gap_tols and seeds used to run or to
        # fail at the first comparison or draw
        *[("max_iters", value, "nonnegative integer below 2**63")
          for value in (2.5, True, "5", 10**400)],
        *[("gap_tol", value, "finite positive number")
          for value in ("x", float("nan"), 0)],
        *[("seed", value, "nonnegative integer below 2**128")
          for value in (-1, True, 2.5)],
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_window_and_record_every_must_be_positive_ints(self, run, name,
                                                           value, rule):
        # -1 and 2.5 used to fail mid-run, 0 to select the default window
        # and True to count as 1; no run may start
        p = fixtures.standard_fixtures()["quadratic_diag_n5"]
        cfg = SolverConfig(**{"max_iters": 50, "stall_tol": 0.0, name: value})
        message = re.escape(f"{name} must be a {rule}")
        with mock.patch.object(solvers, "_drive", side_effect=AssertionError):
            with pytest.raises(ValueError, match=message):
                run(p, cfg)

    @pytest.mark.parametrize("run", [run_cyclic_cd, run_projected_gradient])
    def test_full_step_runs_take_no_record_every(self, run):
        # a full-step run snapshots every step; it used to ignore the value
        p = separable_quadratic([1.0, 2.0])
        with mock.patch.object(solvers, "_drive", side_effect=AssertionError):
            with pytest.raises(ValueError, match="record_every: .* records every step"):
                run(p, SolverConfig(max_iters=20, record_every=5))

    @pytest.mark.parametrize("seed", [-1, 2**128, True, 2.5])
    def test_batched_seeds_checked_before_the_first_draw(self, seed):
        # Philox used to reject a bad key only at the first draw
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            run_scdm_seeds(p, SolverConfig(max_iters=5), [0, seed])

    def test_budget_stop_reason_flagged(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=7))
        assert tr.stop_reason == "budget"
        assert len(tr) == 7

    @pytest.mark.parametrize("step", [{"omega": 0.5}])
    def test_exact_minimization_rejects_step_size(self, step):
        # the trace would record a step the replay then applies
        p = fixtures.svm_dual_toy(n=4, d=4)
        cfg = SolverConfig(max_iters=5, **step)
        for run in (lambda: run_scdm(p, cfg, option="I"),
                    lambda: list(run_scdm_seeds(p, cfg, [0, 1], "I")),
                    lambda: run_cyclic_cd(p, cfg)):
            with pytest.raises(ValueError, match="no step size"):
                run()

    def test_option1_converges_from_far_logistic_starts(self):
        # far starts whose slice solves oscillated between the two sides of
        # the minimizer when any Newton step inside the bracket was taken
        gen = np.random.default_rng(2)
        for seed in range(30):
            A = gen.standard_normal((18, 4)) * gen.uniform(0.5, 2)
            y = np.sign(gen.standard_normal(18))
            x0 = gen.choice([-1, 1], 4) * 10 ** gen.uniform(2, 4, 4)
            p = ErmProblem(A, y, lam=0.07)
            tr = run_scdm(p, SolverConfig(max_iters=20, seed=seed, x0=x0))
            assert len(tr) == 20 and np.isfinite(tr.f[-1])

    def test_option1_converges_from_far_squared_hinge_starts(
            self, far_squared_hinge):
        for seed, (p, x0) in enumerate(far_squared_hinge):
            tr = run_scdm(p, SolverConfig(max_iters=200, seed=seed, x0=x0))
            assert len(tr) == 200 and np.isfinite(tr.f[-1])


# the standard and small fixtures whose slices are exact quadratics
_CLOSED_FORM = ("svm_dual_n2", "svm_dual_n4", "svm_dual_n8", "quadratic_diag_n5",
                "quadratic_box_n8", "lasso_d5", "svm_dual_tiny",
                "quadratic_box_2d", "quadratic_diag_3d")


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 5, 8, 20, 128, 2000, 2**31 + 5]),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
       block=st.sampled_from([1, 7, 64, 4096, 65537]),
       budget=st.integers(0, 20_000))
def test_block_draws_equal_one_whole_draw(n, seeds, block, budget):
    blocks = solvers._draw_blocks(n, seeds, block)
    drawn = np.concatenate([np.empty((0, len(seeds)), np.int64)]
                           + [next(blocks) for _ in range(-(-budget // block))])
    for r, seed in enumerate(seeds):
        whole = np.random.Generator(np.random.Philox(key=seed)).integers(
            n, size=budget)
        np.testing.assert_array_equal(drawn[:budget, r], whole)


def _fixture(name):
    return {**fixtures.standard_fixtures(), **fixtures.small_fixtures()}[name]


class TestRunScdmSeeds:
    """The seed-batched runner against one run_scdm per seed, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(_CLOSED_FORM), option=st.sampled_from(["I", "II"]),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5,
                          unique=True),
           max_iters=st.integers(0, 150), data_seed=st.integers(0, 2**32 - 1),
           start=st.booleans(), weights=st.booleans(),
           omega=st.floats(0.05, 1.0), at_all=st.booleans(),
           chunk=st.sampled_from([1, 7, 512]), block=st.sampled_from([1, 7, 4096]))
    def test_rows_equal_serial_runs_bitwise(self, name, option, seeds, max_iters,
                                            data_seed, start, weights, omega,
                                            at_all, chunk, block):
        p = _fixture(name)
        rng = np.random.Generator(np.random.Philox(key=data_seed))
        lo = np.where(np.isinf(p.box.lower), -3.0, p.box.lower)
        hi = np.where(np.isinf(p.box.upper), 3.0, p.box.upper)
        x0 = rng.uniform(lo, hi) if start else None
        if x0 is not None:
            x0[rng.uniform(size=p.n) < 0.3] = lo[0]  # start some rows on a bound
        # w >= L keeps omega <= 1 a safe Option II step
        w = p.lipschitz * rng.uniform(1.0, 3.0, p.n) if weights else None
        at = (None if at_all else
              sorted(set(rng.integers(0, max_iters + 1, size=5).tolist())))
        kw = dict(max_iters=max_iters, x0=x0, w=w,
                  omega=omega if option == "II" else None)
        # the serial runs below draw in blocks of the default size
        with mock.patch.object(solvers, "_LOCKSTEP_CHUNK", chunk), \
                mock.patch.object(solvers, "_DRAW_BLOCK", block):
            got = [(k, X.copy(), f.copy()) for k, X, f in
                   run_scdm_seeds(p, SolverConfig(**kw), seeds, option, at=at)]
        assert [k for k, _, _ in got] == (list(range(max_iters + 1))
                                          if at is None else at)
        for r, seed in enumerate(seeds):
            tr = run_scdm(p, SolverConfig(seed=seed, **kw), option)
            for k, X, f in got:
                assert X[r].tobytes() == tr.iterate(k).tobytes()
                assert f[r:r + 1].tobytes() == tr.f[k:k + 1].tobytes()

    @pytest.mark.parametrize("name", ["erm_logistic_n20"])
    def test_newton_slice_families_rejected(self, name, standard_problems):
        with pytest.raises(ValueError, match="run_scdm"):
            run_scdm_seeds(standard_problems[name], SolverConfig(max_iters=5),
                           [0, 1])

    @pytest.mark.parametrize("stop", [{"gap_tol": 1e-6}, {"stall_tol": 0.0}])
    def test_stopping_rules_rejected(self, stop):
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.raises(ValueError, match="budget"):
            run_scdm_seeds(p, SolverConfig(max_iters=5, **stop), [0, 1])

    def test_bad_requests_rejected_before_iterating(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        for seeds, at, option in (([], None, "I"), ([0], [6], "I"),
                                  ([0], [-1], "I"), ([0], None, "III")):
            with pytest.raises(ValueError):
                run_scdm_seeds(p, SolverConfig(max_iters=5), seeds, option, at=at)
        with pytest.raises(ValueError):
            run_scdm_seeds(p, SolverConfig(max_iters=5, x0=np.full(4, 2.0)), [0])
        with pytest.warns(UserWarning):
            run_scdm_seeds(p, SolverConfig(max_iters=5, omega=10.0), [0], "II")

    @_NUMPY_OVERFLOW
    def test_non_finite_objective_raises_divergence(self):
        # run_scdm's diverging Option II run, batched with a second seed
        p = fixtures.standard_fixtures()["quadratic_diag_n5"]
        cfg = SolverConfig(max_iters=5000, omega=50.0)
        first = []
        for seed in (0, 1):
            with pytest.warns(UserWarning), pytest.raises(DivergenceError) as err:
                run_scdm(p, SolverConfig(max_iters=5000, omega=50.0, seed=seed), "II")
            first.append(err.value.k)
        with pytest.warns(UserWarning):
            steps = run_scdm_seeds(p, cfg, [0, 1], "II", at=[5000])
        with pytest.raises(DivergenceError, match="not finite") as batched:
            list(steps)
        assert batched.value.k == min(first)


class TestTraceReconstruction:
    def test_iterate_matches_forward_replay(self):
        p = fixtures.lasso_small()
        tr = run_scdm(p, SolverConfig(max_iters=300, seed=5, record_every=64))
        x = tr.x0.copy()
        for k in range(len(tr) + 1):
            np.testing.assert_array_equal(tr.iterate(k), x)
            if k < len(tr):
                x[tr.coords[k]] = tr.new_values[k]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), record_every=st.integers(1, 70),
           option=st.sampled_from(["I", "II"]))
    def test_iterate_matches_step_walk(self, seed, record_every, option):
        p = fixtures.svm_dual_toy(n=8, d=10)
        tr = run_scdm(p, SolverConfig(max_iters=60, seed=seed,
                                      record_every=record_every), option)
        x_walk = tr.x0
        for k, x, i, old, new in iter_steps(tr):
            np.testing.assert_array_equal(tr.iterate(k), x)
            x_walk = x.copy()
            x_walk[i] = new
        np.testing.assert_array_equal(tr.iterate(len(tr)), x_walk)
        # the last snapshot is the solver's own final iterate
        np.testing.assert_array_equal(tr.final_x, tr.snap_x[-1])

    def test_snapshots_stack_record_points_and_final(self):
        p = fixtures.lasso_small()
        tr = run_scdm(p, SolverConfig(max_iters=300, seed=5, record_every=64))
        ks, X = tr.snap_ks, tr.snap_x
        np.testing.assert_array_equal(ks, [0, 64, 128, 192, 256, 300])
        assert X.shape == (6, p.n)
        for k, x in zip(ks, X):
            np.testing.assert_array_equal(x, tr.iterate(int(k)))
        with pytest.raises(ValueError):
            X[0, 0] = 1.0

    def test_snapshot_storage_growth_keeps_every_iterate(self):
        p = fixtures.quadratic_box()
        tr = run_projected_gradient(p, SolverConfig(max_iters=50))
        # the 51 snapshot rows are appended one by one to a growing buffer
        ks, X = tr.snap_ks, tr.snap_x
        np.testing.assert_array_equal(ks, np.arange(51))
        assert X.shape == (51, p.n)
        np.testing.assert_array_equal(X[0], tr.x0)
        np.testing.assert_array_equal(X[-1], tr.final_x)
        for k in range(50):
            x_next = np.clip(X[k] - tr.omega * (p.gradient(X[k]) / tr.w),
                             p.box.lower, p.box.upper)
            np.testing.assert_allclose(X[k + 1], x_next, rtol=1e-12, atol=1e-12)
        rerun = run_projected_gradient(p, SolverConfig(max_iters=50))
        np.testing.assert_array_equal(rerun.snap_x, X)
        np.testing.assert_array_equal(rerun.f, tr.f)

    def test_early_stop_keeps_only_used_snapshot_rows(self):
        p = fixtures.quadratic_box()
        tr = run_projected_gradient(p, SolverConfig(max_iters=100_000,
                                                    stall_tol=1e-12, stall_window=5))
        assert tr.stop_reason == "stall" and len(tr) < 1000
        ks, X = tr.snap_ks, tr.snap_x
        # a full-step run snapshots every iterate, and only those it ran
        np.testing.assert_array_equal(ks, np.arange(len(tr) + 1))
        assert X.shape == (len(tr) + 1, p.n)
        for k, x in zip(ks, X):
            np.testing.assert_array_equal(x, tr.iterate(int(k)))
        clone = pickle.loads(pickle.dumps(tr))
        np.testing.assert_array_equal(clone.snap_x, X)
        assert len(pickle.dumps(tr)) < 10 * X.nbytes

    def test_arrays_are_read_only(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=30, seed=1, record_every=7))
        for name in ("x0", "w", "f", "disp_w_sq", "coords", "new_values",
                     "snap_ks", "snap_x"):
            with pytest.raises(ValueError):
                getattr(tr, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.stop_reason = "gap"

    def test_replace_returns_independent_trace(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        tr = run_scdm(p, SolverConfig(max_iters=30, seed=1, record_every=7))
        new_values, x27 = tr.new_values.copy(), tr.iterate(27)
        corrupted = new_values.copy()
        corrupted[26] = 0.5  # x_27 is rebuilt from the snapshot at k = 21
        bad = dataclasses.replace(tr, new_values=corrupted)
        assert bad.iterate(27)[tr.coords[26]] == 0.5
        assert not bad.new_values.flags.writeable
        np.testing.assert_array_equal(tr.new_values, new_values)
        np.testing.assert_array_equal(tr.iterate(27), x27)
        np.testing.assert_array_equal(bad.f, tr.f)

    def test_recording_memory_does_not_scale_with_budget(self):
        # a gap-stopped run of about a thousand steps under a 10^6-step
        # budget: the coordinates are drawn a block at a time, and no
        # per-step record is sized to the budget
        p = fixtures.standard_fixtures()["svm_dual_n8"]
        budget = 1_000_000
        cfg = SolverConfig(max_iters=budget, seed=0, gap_tol=1e-8)
        tracemalloc.start()
        try:
            tr = run_scdm(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.stop_reason == "gap" and len(tr) < budget // 100
        assert peak / budget < 2

    def test_iterate_out_of_range(self):
        p = fixtures.lasso_small()
        tr = run_scdm(p, SolverConfig(max_iters=10, seed=0))
        with pytest.raises(IndexError):
            tr.iterate(11)


# ---------------------------------------------------------------------------
# runs from a floating-point fixed point: `_drive` writes the rest of the
# budget in bulk, and the trace must equal that of stepping through it


_RUNS = {"scdm-I": lambda p, cfg: run_scdm(p, cfg, "I"),
         "scdm-II": lambda p, cfg: run_scdm(p, cfg, "II"),
         "cyclic": run_cyclic_cd, "pgd": run_projected_gradient}
_CONTRACT = [f.name for f in dataclasses.fields(Trace)]


def assert_same_trace(fast, slow):
    """Every field of the two traces is bitwise equal."""
    for name in _CONTRACT:
        a, b = getattr(fast, name), getattr(slow, name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        elif isinstance(a, dict):
            assert list(a) == list(b), name
            assert np.array(list(a.values()), float).tobytes() == \
                np.array(list(b.values()), float).tobytes(), name
        else:
            assert a == b, name


def run_logged(run, p, cfg):
    """``run(p, cfg)`` and ``(count, filled)`` of each call of the driver's
    fixed-point rule: the steps asked for and whether it wrote them."""
    calls = []

    def spy(fixed):
        def logged(count):
            moves = fixed(count)
            calls.append((count, moves is not None))
            return moves
        return logged

    with fixed_point_rule(spy):
        return run(p, cfg), calls


class TestFixedPointFill:
    @pytest.mark.parametrize("method", list(_RUNS))
    def test_standard_fixtures_match_stepping(self, method, standard_problems):
        run, fills = _RUNS[method], 0
        for p in standard_problems.values():
            for seed in (1, 2):
                cfg = SolverConfig(max_iters=2000, seed=seed)
                tr, calls = run_logged(run, p, cfg)
                assert_same_trace(tr, run_stepping(run, p, cfg))
                fills += any(filled for _, filled in calls)
        # most of these runs reach a fixed point (8 to 10 of 14 per method)
        assert fills >= 4

    def test_fixed_point_from_the_first_step(self, standard_problems):
        p = standard_problems["quadratic_diag_n5"]
        tr, calls = run_logged(run_cyclic_cd, p, SolverConfig(max_iters=50))
        # one pass solves a diagonal quadratic; the second repeats it
        assert calls == [(48, True)]
        cfg = SolverConfig(max_iters=50, x0=tr.final_x)
        tr, calls = run_logged(run_cyclic_cd, p, cfg)
        assert calls == [(49, True)]
        assert_same_trace(tr, run_stepping(run_cyclic_cd, p, cfg))
        assert np.all(tr.disp_w_sq == 0.0) and np.all(tr.f == tr.f[0])

    @pytest.mark.parametrize("method,name", [("cyclic", "quadratic_diag_n5"),
                                             ("scdm-I", "erm_logistic_n20"),
                                             ("scdm-II", "svm_dual_n4"),
                                             ("pgd", "lasso_d5")])
    def test_budget_ending_at_the_detection_step(self, method, name,
                                                 standard_problems):
        p, run = standard_problems[name], _RUNS[method]
        _, calls = run_logged(run, p, SolverConfig(max_iters=2000, seed=1))
        (count, filled), = calls[-1:]
        assert filled
        detected = 2000 - count
        for budget in (detected, detected + 1):
            cfg = SolverConfig(max_iters=budget, seed=1)
            tr, calls = run_logged(run, p, cfg)
            # at the last step the rule has nothing left to write
            fills = [call for call in calls if call[1]]
            assert fills == ([] if budget == detected else [(1, True)])
            assert_same_trace(tr, run_stepping(run, p, cfg))

    @pytest.mark.parametrize("rule", ["gap", 1, 2, "4n"])
    def test_runs_with_a_rule_step_to_their_stop(self, rule, standard_problems):
        if rule == "gap":
            # cyclic sits at a fixed point of svm_dual_n8 for its last 1820
            # passes, with a gap of 5e-16, above the tolerance
            cases = [("cyclic", standard_problems["svm_dual_n8"],
                      SolverConfig(max_iters=2000, gap_tol=1e-300))]
        else:
            cases = [(method, p, SolverConfig(
                max_iters=2000, seed=1, stall_tol=0.0,
                stall_window=4 * p.n if rule == "4n" else rule))
                for p in standard_problems.values() for method in _RUNS]
        for method, p, cfg in cases:
            tr, calls = run_logged(_RUNS[method], p, cfg)
            assert calls == []
            assert_same_trace(tr, run_stepping(_RUNS[method], p, cfg))
        if rule == "gap":
            assert tr.stop_reason == "budget"
            assert list(tr.gaps) == list(range(1, 2001))
            assert np.all(tr.disp_w_sq[-1820:] == 0.0)

    def test_scdm_check_declines_while_a_coordinate_would_move(self):
        # x0 solves coordinate 0 but not coordinate 1; seed 0 draws 0 first,
        # so x_1 = x_0 at the first record point, yet x_0 is no fixed point
        p = separable_quadratic([1.0, 2.0])
        cfg = SolverConfig(max_iters=40, seed=0, record_every=1,
                           x0=np.array([0.0, 1.0]))
        tr, calls = run_logged(lambda p, cfg: run_scdm(p, cfg, "I"), p, cfg)
        assert tr.coords[0] == 0 and calls[0] == (39, False)
        assert calls[-1][1] and tr.f[-1] < tr.f[0] == tr.f[1]
        np.testing.assert_array_equal(tr.final_x, [0.0, 0.0])
        assert_same_trace(tr, run_stepping(run_scdm, p, cfg))

    @pytest.mark.parametrize("option,evaluate", [
        ("I", (ProblemState, "exact_coord_min")), ("II", (Box, "clip_coord"))])
    def test_scdm_rule_evaluates_no_coordinate_map(self, option, evaluate,
                                                   standard_problems):
        # the rule reads the values the steps already returned: every map
        # evaluation of a run is one of its steps, none is the rule's
        fills = 0
        for p in standard_problems.values():
            for seed in (1, 2):
                cfg = SolverConfig(max_iters=2000, seed=seed)
                with mock.patch.object(*evaluate, autospec=True,
                                       side_effect=getattr(*evaluate)) as spy:
                    _, calls = run_logged(_RUNS[f"scdm-{option}"], p, cfg)
                filled = [count for count, done in calls if done]
                assert spy.call_count == 2000 - sum(filled)
                fills += bool(filled)
        assert fills >= 4

    @pytest.mark.parametrize("method,name,record_every", [
        ("scdm-I", "erm_logistic_n20", 7), ("scdm-II", "quadratic_box_n8", 3)])
    def test_record_every_not_dividing_the_budget(self, method, name,
                                                  record_every,
                                                  standard_problems):
        p, run = standard_problems[name], _RUNS[method]
        cfg = SolverConfig(max_iters=2000, seed=1, record_every=record_every)
        tr, calls = run_logged(run, p, cfg)
        assert calls[-1][1] and 2000 % record_every
        assert tr.snap_ks[-2] == 2000 // record_every * record_every
        assert tr.snap_ks[-1] == 2000
        assert_same_trace(tr, run_stepping(run, p, cfg))


class TestCyclic:
    def test_n1_matches_option1_trajectory(self):
        p = QuadraticProblem(np.array([[2.0]]), np.array([-1.0]),
                             Box.cube(1, -5.0, 5.0))
        t_cyc = run_cyclic_cd(p, SolverConfig(max_iters=20, x0=np.array([4.0])))
        t_sto = run_scdm(p, SolverConfig(max_iters=20, seed=0,
                                         x0=np.array([4.0])), option="I")
        np.testing.assert_allclose(t_cyc.f, t_sto.f, rtol=0, atol=0)

    def test_separable_quadratic_converges_in_one_pass(self):
        p = separable_quadratic([1.0, 2.0, 3.0])
        tr = run_cyclic_cd(p, SolverConfig(max_iters=3,
                                           x0=np.array([1.0, -2.0, 0.5])))
        assert tr.f[1] == pytest.approx(0.0, abs=1e-15)
        assert tr.disp_w_sq[1] == pytest.approx(0.0, abs=1e-18)

    def test_progress_comparable_to_scdm_report(self, capsys):
        # report-only comparison: per-coordinate-update progress
        p = fixtures.svm_dual_toy(n=4, d=4)
        t_cyc = run_cyclic_cd(p, SolverConfig(max_iters=25))
        t_sto = run_scdm(p, SolverConfig(max_iters=100, seed=0), option="I")
        print(f"cyclic f after 25 passes: {t_cyc.f[-1]:.12g}; "
              f"scdm f after 100 updates: {t_sto.f[-1]:.12g}")
        assert t_cyc.f[-1] <= t_cyc.f[0]


class TestProjectedGradient:
    def test_stationary_at_optimum(self):
        p = separable_quadratic([1.0, 2.0])
        tr = run_projected_gradient(p, SolverConfig(max_iters=5,
                                                    x0=np.zeros(2)))
        np.testing.assert_array_equal(tr.final_x, np.zeros(2))
        assert tr.f[-1] == tr.f[0]

    def test_one_step_convergence_scalar(self):
        p = QuadraticProblem(np.array([[1.0]]), np.zeros(1))
        cfg = SolverConfig(max_iters=3, omega=1.0, w=np.ones(1),
                           x0=np.array([5.0]))
        tr = run_projected_gradient(p, cfg)
        assert tr.iterate(1)[0] == 0.0

    def test_box_quadratic_matches_oracle(self):
        p = fixtures.quadratic_box_2d()
        x_star, f_star = box_qp_oracle(p.hessian, p.linear,
                                       p.box.lower, p.box.upper)
        tr = run_projected_gradient(p, SolverConfig(max_iters=1000))
        np.testing.assert_allclose(tr.final_x, x_star, atol=1e-8)

    def test_divergent_step_size_aborts(self):
        p = separable_quadratic([4.0])
        cfg = SolverConfig(max_iters=50, omega=1.0, w=np.ones(1),
                           x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            run_projected_gradient(p, cfg)
        assert err.value.k >= 1
        # the solvers are public and may run in a caller's own process pool,
        # so the error must survive pickling intact
        back = pickle.loads(pickle.dumps(err.value))
        assert (str(back), back.k, back.f_values) == (
            str(err.value), err.value.k, err.value.f_values)


@pytest.mark.parametrize("method", ["II", pytest.param("pgd", marks=_NUMPY_OVERFLOW)])
def test_non_finite_objective_raises_divergence(method, standard_problems):
    if method == "II":
        # steps of 50/L_i multiply each coordinate by -49 until f overflows
        p = standard_problems["quadratic_diag_n5"]
        cfg = SolverConfig(max_iters=5000, omega=50.0, seed=0)
        with pytest.warns(UserWarning), pytest.raises(DivergenceError,
                                                      match="not finite") as err:
            run_scdm(p, cfg, option="II")
    else:
        # a single step overflows x, before two increases can be seen
        p = separable_quadratic([4.0])
        cfg = SolverConfig(max_iters=50, omega=1e200, w=np.ones(1),
                           x0=np.array([1e150]))
        with pytest.raises(DivergenceError, match="not finite") as err:
            run_projected_gradient(p, cfg)
    assert 1 <= err.value.k < cfg.max_iters
    assert np.isfinite(err.value.f_values[0])
    assert not np.isfinite(err.value.f_values[-1])


_RUNNERS = {"scdm-I": lambda p, cfg: run_scdm(p, cfg, "I"),
            "scdm-II": lambda p, cfg: run_scdm(p, cfg, "II"),
            "cyclic": run_cyclic_cd, "pgd": run_projected_gradient}


@pytest.mark.parametrize("omega", [None, 0.5, np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("method", list(_RUNNERS))
def test_step_size_is_the_runs_one_step(method, omega, standard_problems):
    # w = L on a diagonal quadratic: pgd's default step 1 / sum_i L_i/w_i
    # is 1/5, and a step of 0.5 is safe for every method that takes one
    p = standard_problems["quadratic_diag_n5"]
    cfg = SolverConfig(max_iters=20, seed=3, omega=omega)
    exact = method in ("scdm-I", "cyclic")
    if omega is None or (not exact and 0.0 < omega < np.inf):
        pgd_default = 1.0 / global_lipschitz_bound(p.lipschitz, p.lipschitz)
        expected = {"scdm-I": 1.0, "cyclic": 1.0, "scdm-II": omega or 1.0,
                    "pgd": omega or pgd_default}[method]
        assert cfg.step_size(p, method) == expected
        assert _RUNNERS[method](p, cfg).omega == expected
        return
    with pytest.raises(ValueError, match="no step size" if exact else "finite"):
        cfg.step_size(p, method)
    # rejected before the first step, by every runner of the method
    runs = [lambda: _RUNNERS[method](p, cfg)]
    if method.startswith("scdm"):
        runs.append(lambda: run_scdm_seeds(p, cfg, [0, 1], method.split("-")[1]))
    for run in runs:
        with pytest.raises(ValueError):
            run()


@pytest.mark.parametrize("method", ["I", "II", "cyclic", "pgd"])
def test_descent_and_feasibility_spot_check(method, standard_problems):
    from fdmkit.verify import check_trace_invariants
    p = standard_problems["lasso_d5"]
    cfg = SolverConfig(max_iters=400, seed=11)
    if method in ("I", "II"):
        tr = run_scdm(p, cfg, option=method)
    elif method == "cyclic":
        tr = run_cyclic_cd(p, cfg)
    else:
        tr = run_projected_gradient(p, cfg)
    rep = check_trace_invariants(tr, p)
    assert rep.all_ok, rep
