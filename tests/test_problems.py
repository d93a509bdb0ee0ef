import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdmkit import fixtures, problems
from fdmkit.geometry import Box
from fdmkit.problems import (_LOSSES, SLICE_DERIV_TOL, ErmProblem, _dot,
                             LassoBoxProblem, QuadraticProblem, SliceMinError,
                             SvmDualProblem, expit, global_lipschitz_bound,
                             lasso_lift, lasso_project_back, minimize_slice,
                             minimize_slices)
from oracles import (check_coord_strong_convexity, fd_gradient, grid_min_2d,
                     quadratic_lipschitz_w, svm_dual_batch)


def _random_feasible(p, rng):
    lo = np.where(np.isinf(p.box.lower), -3.0, p.box.lower)
    hi = np.where(np.isinf(p.box.upper), 3.0, p.box.upper)
    return rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# shared oracle contracts


@pytest.mark.parametrize("name", ["svm_dual_n4", "lasso_d5", "erm_logistic_n20",
                                  "quadratic_box_n8", "quadratic_diag_n5"])
def test_gradient_matches_finite_differences(name, standard_problems, rng):
    p = standard_problems[name]
    for _ in range(5):
        x = _random_feasible(p, rng)
        g = p.gradient(x)
        g_fd = fd_gradient(p.value, x)
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", ["svm_dual_n4", "lasso_d5", "erm_logistic_n20",
                                  "quadratic_box_n8"])
def test_coord_gradient_consistent_with_gradient(name, standard_problems, rng):
    p = standard_problems[name]
    for _ in range(10):
        x = _random_feasible(p, rng)
        i = int(rng.integers(p.n))
        assert p.coord_gradient(x, i) == pytest.approx(p.gradient(x)[i],
                                                       rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("name", ["svm_dual_n4", "lasso_d5", "erm_logistic_n20",
                                  "quadratic_box_n8", "quadratic_diag_n5"])
def test_coordinate_lipschitz_constants_hold(name, standard_problems, rng):
    # |grad_i f(x) - grad_i f(x + d e_i)| <= L_i |d| on sampled points
    p = standard_problems[name]
    for _ in range(40):
        x = _random_feasible(p, rng)
        i = int(rng.integers(p.n))
        lo, hi = p.box.lower[i], p.box.upper[i]
        d = rng.uniform(-1.0, 1.0)
        if np.isfinite(lo) or np.isfinite(hi):
            d = np.clip(x[i] + d, lo, hi) - x[i]
        x2 = x.copy()
        x2[i] += d
        change = abs(p.coord_gradient(x2, i) - p.coord_gradient(x, i))
        assert change <= p.lipschitz[i] * abs(d) + 1e-10


@pytest.mark.parametrize("name", [*fixtures.standard_fixtures(), "erm_logistic",
                                  "erm_squared", "erm_squared_hinge"])
def test_state_cache_matches_direct_oracles(name, standard_problems, rng):
    p = _problem(name, standard_problems)
    x = _random_feasible(p, rng)
    st = p.start_state(x)
    def agrees(i):
        return st.coord_grad(i) == pytest.approx(p.coord_gradient(st.x, i),
                                                 rel=1e-9, abs=1e-12)

    for _ in range(50):
        i = int(rng.integers(p.n))
        new = float(np.clip(st.x[i] + rng.uniform(-0.4, 0.4),
                            p.box.lower[i], p.box.upper[i]))
        st.coord_grad(i)  # as a solver step does before it moves i
        phi = st._image_deriv()
        st.set_coord(i, float(st.x[i]))
        # a zero-length move keeps the cached image-space derivative
        assert st._phi is phi
        moved = new != st.x[i]
        st.set_coord(i, new)
        # a derivative cached by the state must not outlive a coordinate move
        assert (st._phi is None) == moved
        assert agrees(i)
        assert agrees(int(rng.integers(p.n)))
    assert st.objective() == pytest.approx(p.value(st.x), rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(st.gradient(), p.gradient(st.x),
                               rtol=1e-9, atol=1e-12)
    # nor a rebuild of the whole iterate
    i = int(rng.integers(p.n))
    st.coord_grad(i)
    st.set_x(_random_feasible(p, rng))
    assert st._phi is None
    assert agrees(i)
    assert st.objective() == pytest.approx(p.value(st.x), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", ["svm_dual_n2", "svm_dual_n4", "svm_dual_n8",
                                  "lasso_d5", "quadratic_box_n8"])
def test_start_state_rejects_infeasible_start(name, standard_problems):
    p = standard_problems[name]
    x = p.box.clip(np.zeros(p.n))
    x[0] = p.box.upper[0] + 1.0 if np.isfinite(p.box.upper[0]) else -1.0
    with pytest.raises(ValueError, match="outside the box"):
        p.start_state(x)
    with pytest.raises(ValueError, match="outside the box"):
        p.start_state(np.full(p.n, 5.0 if np.isfinite(p.box.upper[0]) else -5.0))


def _problem(name, standard_problems):
    """A standard fixture, or ``erm_<loss>`` on a small random data set."""
    if name.startswith("erm_") and name[4:] in _LOSSES:
        return _batched_slice_problems()[name[4:]]
    return standard_problems[name]


@pytest.mark.parametrize("name", ["svm_dual_n2", "svm_dual_n4", "svm_dual_n8",
                                  "lasso_d5", "erm_logistic_n20",
                                  "quadratic_diag_n5", "quadratic_box_n8"])
def test_batched_values_match_value(name, standard_problems, rng):
    p = standard_problems[name]
    X = np.stack([_random_feasible(p, rng) for _ in range(300)])
    batched = p.values(X)
    assert batched.shape == (300,)
    np.testing.assert_allclose(batched, [p.value(x) for x in X], rtol=1e-12)


# Path gradients accumulate the moves with one cumulative sum and dot
# products in another order than coord_gradient; both agree to this
# tolerance relative to the largest gradient on the path (and 1).
PATH_GRAD_RTOL = 1e-10


def _random_path(p, rng, kinds):
    """Coordinates and values of a path from a random feasible start: a
    'stay' keeps the coordinate's value, a 'bound' moves it onto a finite
    bound, a 'free' move draws a feasible value."""
    x = _random_feasible(p, rng)
    cur = x.copy()
    coords = rng.integers(p.n, size=len(kinds))
    values = np.empty(len(kinds))
    for r, (i, kind) in enumerate(zip(coords, kinds)):
        bounds = [b for b in (p.box.lower[i], p.box.upper[i]) if np.isfinite(b)]
        if kind == "stay" or (kind == "bound" and not bounds):
            values[r] = cur[i]
        elif kind == "bound":
            values[r] = bounds[rng.integers(len(bounds))]
        else:
            values[r] = _random_feasible(p, rng)[i]
        cur[i] = values[r]
    return x, coords, values


@pytest.mark.parametrize("name", ["svm_dual_n2", "svm_dual_n4", "svm_dual_n8",
                                  "lasso_d5", "erm_logistic_n20",
                                  "quadratic_diag_n5", "quadratic_box_n8"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["stay", "bound", "free"]), max_size=40))
def test_coord_grads_along_matches_coord_gradient(name, standard_problems,
                                                  seed, kinds):
    p = standard_problems[name]
    rng = np.random.Generator(np.random.Philox(key=seed))
    x, coords, values = _random_path(p, rng, kinds)
    g_before, g_after = p.coord_grads_along(x, coords, values)
    want_before, want_after = [], []
    for i, v in zip(coords, values):
        want_before.append(p.coord_gradient(x, i))
        x[i] = v
        want_after.append(p.coord_gradient(x, i))
    want = np.array(want_before + want_after)
    tol = PATH_GRAD_RTOL * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(np.concatenate([g_before, g_after]), want,
                               rtol=0.0, atol=tol)


def test_coord_grads_along_rejects_bad_paths(standard_problems):
    p = standard_problems["svm_dual_n4"]
    x = np.full(4, 0.5)
    g_before, g_after = p.coord_grads_along(x, [], [])
    assert g_before.shape == g_after.shape == (0,)
    for coords, values in (([4], [0.1]), ([-1], [0.1]), ([0], [np.nan]),
                           ([0, 1], [0.1])):
        with pytest.raises(ValueError):
            p.coord_grads_along(x, coords, values)


_NON_FINITE_BUILDS = {
    "quadratic_hessian": lambda v: QuadraticProblem(np.diag([1.0, v]), np.zeros(2)),
    "quadratic_linear": lambda v: QuadraticProblem(np.eye(2), np.array([0.0, v])),
    "svm_features": lambda v: SvmDualProblem(np.array([[1.0, v], [0.5, 1.0]]),
                                             np.array([1.0, -1.0]), lam=0.1),
    "erm_points": lambda v: ErmProblem(np.array([[1.0, v], [0.5, 1.0]]),
                                       np.array([1.0, -1.0]), lam=0.1),
    "erm_labels": lambda v: ErmProblem(np.eye(2), np.array([1.0, v]), lam=0.1,
                                       loss="squared"),
    "lasso_design": lambda v: LassoBoxProblem(np.array([[1.0, v], [0.5, 1.0]]),
                                              np.ones(2)),
    "lasso_target": lambda v: LassoBoxProblem(np.eye(2), np.array([1.0, v])),
    "lasso_q": lambda v: LassoBoxProblem(np.eye(2), np.ones(2),
                                         q=np.array([v, 0.0])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_BUILDS))
def test_non_finite_data_rejected(field, bad):
    with pytest.raises(ValueError, match="non-finite"):
        _NON_FINITE_BUILDS[field](bad)


def test_expit_matches_scipy_within_few_ulps(rng):
    from scipy.special import expit as scipy_expit
    x = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                        rng.uniform(-800.0, 800.0, 100_000),
                        rng.standard_normal(100_000) * 10.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ours = expit(x)
    ref = scipy_expit(x)
    # scipy flushes results below the smallest normal float to zero
    normal = ref >= np.finfo(float).tiny
    np.testing.assert_array_max_ulp(ours[normal], ref[normal], maxulp=8)
    assert np.all((ours[~normal] >= 0.0) & (ours[~normal] < np.finfo(float).tiny))


def test_batched_values_reject_wrong_shape(standard_problems):
    p = standard_problems["quadratic_box_n8"]
    with pytest.raises(ValueError):
        p.values(np.zeros(p.n))
    with pytest.raises(ValueError):
        p.values(np.zeros((3, p.n + 1)))


# ---------------------------------------------------------------------------
# batched slice solves


def _erm_slices(loss, seed, n_slices):
    """Random l2-regularized ERM slices t -> mean(loss(u + t c)) + lam t^2/2,
    as a batched and a per-slice ``deriv_and_curv``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = int(rng.integers(1, 20))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    U = rng.standard_normal((n_slices, m)) * scale
    C = rng.standard_normal((n_slices, m)) * scale
    y = np.where(rng.standard_normal(m) > 0.0, 1.0, -1.0)
    lam = 10.0 ** rng.uniform(-3.0, 1.0)
    lo = _LOSSES[loss]

    def batched(t, idx):
        d1, d2 = lo.deriv_pair(U[idx] + t[:, None] * C[idx], y)
        return ((d1 * C[idx]).sum(axis=1) / m + lam * t,
                (d2 * C[idx] ** 2).sum(axis=1) / m + lam)

    def single(e):
        def deriv_and_curv(t):
            d, c = batched(np.array([t]), np.array([e]))
            return float(d[0]), float(c[0])
        return deriv_and_curv

    return batched, single, rng


def _collapsed(deriv_and_curv, t):
    """The derivative changes sign within a few ulps of ``t``."""
    gap = 4.0 * np.spacing(abs(t))
    return deriv_and_curv(t - gap)[0] <= 0.0 <= deriv_and_curv(t + gap)[0]


def _start(rng, kind, single):
    """A start of the kind the slice properties draw."""
    if kind == "near":
        return rng.standard_normal()
    if kind == "far":
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 6.0)
    # a start whose derivative is (numerically) zero
    return minimize_slice(single, 0.0, single(0.0)[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       loss=st.sampled_from(["logistic", "squared_hinge"]),
       starts=st.lists(st.sampled_from(["near", "far", "optimum"]),
                       min_size=1, max_size=8))
def test_minimize_slices_matches_minimize_slice(seed, loss, starts):
    batched, single, rng = _erm_slices(loss, seed, len(starts))
    t0 = np.array([_start(rng, kind, single(e))
                   for e, kind in enumerate(starts)])
    d0 = batched(t0, np.arange(len(starts)))[0]
    wants = [minimize_slice(single(e), t0[e], d0[e])
             for e in range(len(starts))]
    got = minimize_slices(batched, t0, d0)
    for e, (t, want) in enumerate(zip(got, wants)):
        assert t == want and np.signbit(t) == np.signbit(want)
        assert (abs(single(e)(t)[0]) <= SLICE_DERIV_TOL
                or _collapsed(single(e), t))
        if starts[e] == "optimum":
            assert t == t0[e]


def test_slice_solvers_converge_where_newton_oscillated():
    # slice 0 starts at t0 = -1913.86, where Newton steps accepted anywhere
    # inside the bracket alternated between t = 3.4976 and -5.3754
    batched, single, rng = _erm_slices("logistic", 21376, 4)
    t0 = np.array([_start(rng, "far", single(e)) for e in range(4)])
    assert t0[0] == -1913.8560485034996
    d0 = batched(t0, np.arange(4))[0]
    got = minimize_slices(batched, t0, d0)
    for e in range(4):
        assert got[e] == minimize_slice(single(e), t0[e], d0[e])
        assert abs(single(e)(got[e])[0]) <= SLICE_DERIV_TOL


def test_minimize_slices_too_few_iterations_raise(monkeypatch):
    batched, single, _ = _erm_slices("logistic", 5, 3)
    t0 = np.array([0.0, 1e4, -1e5])
    d0 = batched(t0, np.arange(3))[0]
    monkeypatch.setattr(problems, "SLICE_MAX_ITER", 2)
    with pytest.raises(SliceMinError):
        minimize_slice(single(1), t0[1], d0[1])
    with pytest.raises(SliceMinError):
        minimize_slices(batched, t0, d0)


def _batched_slice_problems():
    rng = np.random.Generator(np.random.Philox(key=11))
    A = rng.standard_normal((15, 4))
    y = np.where(rng.standard_normal(15) > 0.0, 1.0, -1.0)
    probs = {loss: ErmProblem(A, y, lam=0.05, loss=loss) for loss in _LOSSES}
    probs["quadratic_free"] = QuadraticProblem(
        np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]),
        np.array([1.0, -2.0, 0.5]))
    probs["quadratic_box"] = fixtures.quadratic_box()
    probs["svm_dual"] = fixtures.svm_dual_toy(n=4, d=4, seed=17)
    probs["lasso"] = fixtures.lasso_small()
    return probs


def test_newton_slices_only_on_free_boxes(standard_problems, small_problems):
    # the slice solvers search the real line, which is a coordinate's whole
    # range only where the box is free; every other slice is exact quadratic
    probs = {**standard_problems, **small_problems, **_batched_slice_problems()}
    newton = []
    for name, p in probs.items():
        if p._slice_curv is None:
            assert p.box.is_free(), name
            assert p._slice_deriv_curv is not None, name
            newton.append(name)
    assert sorted(newton) == ["erm_logistic_n20", "logistic", "squared_hinge"]


@pytest.mark.parametrize("name", sorted(_batched_slice_problems()))
def test_batched_oracles_match_scalar_oracles(name, rng):
    p = _batched_slice_problems()[name]
    X = np.array([_random_feasible(p, rng) for _ in range(6)])
    U = p._images(X)
    G = p._grad(X, p._phi(U))
    tilde = p.slice_minimizers(X, U, G)
    for r, x in enumerate(X):
        np.testing.assert_allclose(G[r], p.gradient(x), rtol=1e-12, atol=1e-14)
        assert p._values_at(X, U)[r] == pytest.approx(p.value(x), rel=1e-12)
        st_ = p.start_state(x)
        want = np.array([st_.exact_coord_min(j) for j in range(p.n)])
        np.testing.assert_allclose(tilde[r], want, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# SVM dual


class TestSvmDual:
    def test_value_zero_point(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        assert p.value(np.zeros(4)) == 0.0

    def test_value_scalar_instance(self):
        p = SvmDualProblem(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        assert p.value(np.array([1.0])) == pytest.approx(-0.5)

    def test_infeasible_point_rejected(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        with pytest.raises(ValueError):
            p.value(np.array([0.0, 1.5, 0.0, 0.0]))

    def test_lipschitz_formula(self):
        p = fixtures.svm_dual_tiny()
        row_sq = (p.ya**2).sum(axis=1)
        np.testing.assert_allclose(p.lipschitz, row_sq / (p.lam * p.n**2))

    def test_minimizer_matches_grid_oracle(self):
        p = fixtures.svm_dual_tiny()
        x_star, f_star = grid_min_2d(svm_dual_batch(p), 0.0, 1.0, resolution=1e-3)
        st = p.start_state(x_star.copy())
        for _ in range(200):
            for i in range(2):
                st.set_coord(i, st.exact_coord_min(i))
        assert st.objective() <= f_star + 1e-9
        assert f_star - st.objective() < 1e-5

    def test_q_matrix_psd(self, rng):
        p = fixtures.svm_dual_toy(n=8, d=10)
        for _ in range(100):
            z = rng.standard_normal(p.n)
            quad = float(z @ (p.ya @ (p.ya.T @ z)))
            assert quad >= -1e-10

    def test_convex_along_random_segments(self, rng):
        p = fixtures.svm_dual_toy(n=4, d=4)
        for _ in range(50):
            a = rng.uniform(0, 1, 4)
            b = rng.uniform(0, 1, 4)
            t = rng.uniform()
            mid = p.value(t * a + (1 - t) * b)
            assert mid <= t * p.value(a) + (1 - t) * p.value(b) + 1e-12

    def test_primal_from_dual_zero(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        np.testing.assert_array_equal(p.primal_weights(np.zeros(4)),
                                      np.zeros(p.d))

    def test_primal_from_dual_scalar_case(self):
        p = SvmDualProblem(np.array([[2.0, 0.0]]), np.array([1.0]), lam=1.0)
        np.testing.assert_allclose(p.primal_weights(np.array([1.0])),
                                   np.array([2.0, 0.0]))

    def test_primal_from_dual_matches_matvec(self, rng):
        p = fixtures.svm_dual_toy(n=8, d=10)
        for _ in range(20):
            x = rng.uniform(0, 1, p.n)
            expected = p.ya.T @ x / (p.lam * p.n)
            np.testing.assert_allclose(p.primal_weights(x), expected,
                                       rtol=1e-12, atol=1e-14)

    def test_gap_at_zero_is_one(self):
        # hinge loss at the zero weight vector is 1 per point; f(0) = 0
        for n, d in [(4, 4), (8, 10)]:
            p = fixtures.svm_dual_toy(n=n, d=d)
            assert p.duality_gap(np.zeros(n)) == pytest.approx(1.0)

    def test_gap_small_at_grid_optimum(self):
        p = fixtures.svm_dual_tiny()
        x_star, _ = grid_min_2d(svm_dual_batch(p), 0.0, 1.0, resolution=1e-3)
        assert p.duality_gap(x_star) <= 1e-6

    def test_gap_dominates_suboptimality(self, rng):
        # weak duality: G(x) >= f(x) - f*
        p = fixtures.svm_dual_tiny()
        _, f_star = grid_min_2d(svm_dual_batch(p), 0.0, 1.0, resolution=1e-3)
        for _ in range(50):
            x = rng.uniform(0, 1, 2)
            assert p.duality_gap(x) >= p.value(x) - f_star - 1e-9

    def test_gap_is_primal_plus_dual_value(self, rng):
        p = fixtures.svm_dual_toy(n=8, d=10)
        for _ in range(20):
            x = rng.uniform(0, 1, p.n)
            assert p.duality_gap(x) == (p.primal_value(p.primal_weights(x))
                                        + p.value(x))
        for bad in (np.full(p.n, 2.0), np.full(p.n, np.nan)):
            with pytest.raises(ValueError):
                p.duality_gap(bad)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           name=st.sampled_from(["tiny", "n2", "n8", "wide"]))
    def test_stacked_gap_equals_each_row_bitwise(self, seed, m, name):
        p = {"tiny": fixtures.svm_dual_tiny(),
             "n2": fixtures.svm_dual_toy(n=2, d=3, seed=13),
             "n8": fixtures.svm_dual_toy(n=8, d=10),
             "wide": fixtures.svm_dual_toy(n=16, d=40, seed=5)}[name]
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = rng.uniform(0.0, 1.0, (m, p.n))
        # bounds and signed zeros, as solver iterates carry them
        X[rng.uniform(size=X.shape) < 0.2] = 0.0
        X[rng.uniform(size=X.shape) < 0.1] = 1.0
        X[rng.uniform(size=X.shape) < 0.1] = -0.0
        gaps = p.duality_gap(X)
        assert gaps.shape == (m,)
        want = np.array([p.duality_gap(x) for x in X])
        assert gaps.tobytes() == want.tobytes()

    def test_stacked_gap_rejects_bad_stacks(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        X = np.full((3, 4), 0.5)
        for bad in (2.0, np.nan, -0.1):
            Y = X.copy()
            Y[1, 2] = bad
            with pytest.raises(ValueError):
                p.duality_gap(Y)
        with pytest.raises(ValueError):
            p.duality_gap(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            p.duality_gap(np.zeros((2, 3, 4)))

    def test_gap_nonnegative_along_trace(self, rng):
        p = fixtures.svm_dual_toy(n=8, d=10)
        x = rng.uniform(0, 1, p.n)
        st = p.start_state(x)
        for _ in range(100):
            i = int(rng.integers(p.n))
            st.set_coord(i, st.exact_coord_min(i))
            # the gap a solver run stops on, from the state's image and f
            gap = p._gap_at(st.image, st.objective())
            assert gap >= -1e-10
            assert gap == pytest.approx(p.duality_gap(st.x), rel=1e-9, abs=1e-12)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            SvmDualProblem(np.array([[0.0, 0.0], [1.0, 0.0]]),
                           np.array([1.0, -1.0]), lam=1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            SvmDualProblem(np.eye(2), np.array([1.0, 2.0]), lam=1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
       d=st.integers(1, 300))
def test_stacked_dot_equals_vector_dot_bitwise(seed, m, d):
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((m, d)) * rng.uniform(1e-3, 1e3, (m, 1))
    B = rng.standard_normal((m, d))
    got = _dot(A, B)
    assert got.tobytes() == np.array([float(a @ b) for a, b in zip(A, B)]).tobytes()


@pytest.mark.parametrize("d, m", [(5, 12), (3, 40), (20, 7)])
def test_stacked_dot_on_lasso_strided_cols_bitwise(d, m):
    # the lasso's _cols rows are strided column views of its design
    rng = np.random.Generator(np.random.Philox(key=d * m))
    p = LassoBoxProblem(rng.standard_normal((m, d)), rng.standard_normal(m),
                        l1=0.1)
    cols = p._cols
    assert not cols[0].flags.c_contiguous
    for A in (cols, cols[::2], cols[1::3]):
        B = rng.standard_normal(A.shape)
        want = np.array([float(a @ b) for a, b in zip(A, B)])
        assert _dot(A, B).tobytes() == want.tobytes()
        assert _dot(B, A).tobytes() == np.array(
            [float(b @ a) for a, b in zip(A, B)]).tobytes()


# ---------------------------------------------------------------------------
# lasso lift


class TestLassoLift:
    def test_lift_example(self):
        z = lasso_lift(np.array([1.0, -2.0]))
        assert z.tolist() == [1.0, 0.0, 0.0, 2.0]

    def test_lift_zero(self):
        assert lasso_lift(np.zeros(3)).tolist() == [0.0] * 6

    def test_round_trip_identity(self, rng):
        for _ in range(50):
            x = rng.standard_normal(5)
            np.testing.assert_array_equal(lasso_project_back(lasso_lift(x)), x)

    def test_back_projection_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            lasso_project_back(np.array([1.0, -0.5, 0.0, 0.0]))

    def test_back_projection_rejects_odd_length(self):
        with pytest.raises(ValueError):
            lasso_project_back(np.array([1.0, 0.0, 2.0]))

    def test_lifted_objective_agrees_with_original(self, rng):
        p = fixtures.lasso_small()
        for _ in range(50):
            x = rng.standard_normal(p.d_orig)
            lifted = p.value(lasso_lift(x))
            assert lifted == pytest.approx(p.inner_value(x), rel=1e-12,
                                           abs=1e-12)

    def test_lift_value_dominated_by_general_splits(self, rng):
        # any feasible split of v into positive parts pays at least as much
        p = fixtures.lasso_small()
        for _ in range(20):
            x = rng.standard_normal(p.d_orig)
            slack = rng.uniform(0, 1, p.d_orig)
            z = lasso_lift(x)
            z_slack = z + np.tile(slack, 2)
            assert p.value(z_slack) >= p.value(z) - 1e-12

    def test_zero_design_column_rejected(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            LassoBoxProblem(A, np.array([1.0, 1.0]), l1=0.1)


# ---------------------------------------------------------------------------
# ERM losses


class TestErm:
    @pytest.mark.parametrize("loss", ["logistic", "squared", "squared_hinge"])
    def test_losses_run_and_match_fd(self, loss, rng):
        ds_points = rng.standard_normal((12, 5))
        labels = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
        p = ErmProblem(ds_points, labels, lam=0.3, loss=loss)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(p.gradient(x), fd_gradient(p.value, x),
                                   rtol=1e-5, atol=1e-6)

    def test_squared_loss_allows_real_labels(self, rng):
        p = ErmProblem(rng.standard_normal((6, 3)), rng.standard_normal(6),
                       lam=0.1, loss="squared")
        assert np.isfinite(p.value(np.zeros(3)))

    def test_logistic_requires_binary_labels(self, rng):
        with pytest.raises(ValueError):
            ErmProblem(rng.standard_normal((6, 3)), rng.standard_normal(6),
                       lam=0.1, loss="logistic")

    def test_unknown_loss_rejected(self, rng):
        with pytest.raises(ValueError):
            ErmProblem(np.eye(3), np.ones(3), lam=0.1, loss="hinge")

    def test_logistic_stable_at_extreme_margins(self):
        p = ErmProblem(np.array([[100.0], [-100.0]]), np.array([1.0, -1.0]),
                       lam=0.1, loss="logistic")
        v = p.value(np.array([50.0]))
        assert np.isfinite(v)
        assert np.isfinite(p.coord_gradient(np.array([50.0]), 0))

    def test_squared_hinge_lipschitz_documented_formula(self, rng):
        A = rng.standard_normal((9, 4))
        y = np.where(rng.standard_normal(9) > 0, 1.0, -1.0)
        lam = 0.2
        p = ErmProblem(A, y, lam=lam, loss="squared_hinge")
        np.testing.assert_allclose(p.lipschitz,
                                   2.0 * (A**2).sum(axis=0) / 9 + lam)


# ---------------------------------------------------------------------------
# coordinate strong convexity


class TestCoordStrongConvexity:
    def test_quadratic_exact_curvature(self):
        L = np.array([1.0, 2.0, 3.0])
        p = QuadraticProblem(np.diag(L), np.zeros(3), Box.free(3))
        ok, witness = check_coord_strong_convexity(p, 0.5, L, samples=300)
        assert ok and witness is None

    def test_svm_dual_half_with_lipschitz_weights(self):
        p = fixtures.svm_dual_toy(n=4, d=4)
        ok, _ = check_coord_strong_convexity(p, 0.5, p.lipschitz, samples=300)
        assert ok

    def test_too_large_gamma_yields_witness(self):
        p = QuadraticProblem(np.array([[2.0]]), np.zeros(1), Box.free(1))
        ok, witness = check_coord_strong_convexity(p, 1.5, np.ones(1),
                                                   samples=200)
        assert not ok
        assert witness is not None and "lhs" in witness

    def test_gamma_accessor_matches_curvature_floor(self):
        p = fixtures.erm_logistic()
        w = p.lipschitz
        assert p.gamma(w) == pytest.approx(p.lam / (2 * w.max()))
        ok, _ = check_coord_strong_convexity(p, p.gamma(w), w, samples=200)
        assert ok


# ---------------------------------------------------------------------------
# global Lipschitz bound


class TestGlobalLipschitzBound:
    def test_w_equal_l_gives_n(self):
        L = np.array([0.5, 1.5, 7.0])
        assert global_lipschitz_bound(L, L) == pytest.approx(3.0)

    def test_direct_sum(self):
        assert global_lipschitz_bound([1.0, 2.0], [1.0, 1.0]) == pytest.approx(3.0)

    def test_bounds_true_constant_for_separable_quadratic(self):
        L = np.array([1.0, 2.0, 5.0])
        p = QuadraticProblem(np.diag(L), np.zeros(3), Box.free(3))
        true_l = quadratic_lipschitz_w(p, L)
        assert true_l == pytest.approx(1.0, rel=1e-6)
        assert true_l <= global_lipschitz_bound(L, L) + 1e-9
