import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fdmkit.geometry import (Box, check_weights, projected_gradient,
                             weighted_dual_norm_sq, weighted_norm_sq)


def test_weighted_norm_sq_euclidean_case():
    assert weighted_norm_sq([1.0, 2.0], [1.0, 1.0]) == 5.0


def test_weighted_norm_sq_direct_arithmetic():
    assert weighted_norm_sq([1.0, 2.0], [4.0, 1.0]) == 8.0


def test_weighted_norm_sq_zero_vector():
    assert weighted_norm_sq(np.zeros(3), [2.0, 3.0, 4.0]) == 0.0


def test_weighted_dual_norm_sq_direct_arithmetic():
    assert weighted_dual_norm_sq([2.0, 1.0], [4.0, 1.0]) == 2.0
    assert weighted_dual_norm_sq(np.zeros(2), [4.0, 1.0]) == 0.0


def test_norm_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        weighted_norm_sq([1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        weighted_dual_norm_sq([1.0, 2.0, 3.0], [1.0, 1.0])


def test_check_weights_rejects_nonpositive_and_nonfinite():
    with pytest.raises(ValueError):
        check_weights([1.0, 0.0])
    with pytest.raises(ValueError):
        check_weights([1.0, -2.0])
    with pytest.raises(ValueError):
        check_weights([1.0, np.inf])


def test_dual_pairing_cauchy_schwarz(rng):
    # |<x, y>| <= ||x||_W ||y||_W* on random pairs
    for _ in range(200):
        n = int(rng.integers(1, 10))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        w = rng.uniform(0.1, 10.0, n)
        lhs = abs(float(x @ y))
        rhs = np.sqrt(weighted_norm_sq(x, w) * weighted_dual_norm_sq(y, w))
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_dualnorm_product_dominates_l2(rng):
    # ||y||_W^2 * ||y||_W*^2 >= (sum y_i^2)^2 by Cauchy-Schwarz
    for _ in range(200):
        n = int(rng.integers(1, 10))
        y = rng.standard_normal(n)
        w = rng.uniform(0.1, 10.0, n)
        lhs = weighted_norm_sq(y, w) * weighted_dual_norm_sq(y, w)
        assert lhs >= float(y @ y) ** 2 * (1 - 1e-12)


class TestBox:
    def test_requires_nondegenerate_intervals(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Box(np.array([2.0]), np.array([1.0]))

    def test_infinite_bounds_mean_no_clipping(self):
        box = Box(np.array([0.0, -np.inf]), np.array([np.inf, 1.0]))
        out = box.clip(np.array([-5.0, 5.0]))
        assert out.tolist() == [0.0, 1.0]
        out = box.clip(np.array([100.0, -100.0]))
        assert out.tolist() == [100.0, -100.0]

    def test_contains_with_slack(self):
        box = Box.unit(2)
        assert box.contains(np.array([0.0, 1.0]))
        assert box.contains(np.array([-1e-13, 1.0 + 1e-13]))
        assert not box.contains(np.array([-1e-6, 0.5]))

    def test_violation_of_point_and_stack(self):
        box = Box(np.array([0.0, -np.inf]), np.array([1.0, 2.0]))
        rows = np.array([[0.5, -9.0], [-0.25, 0.0], [0.5, 2.75]])
        assert [box.violation(x) for x in rows] == [0.0, 0.25, 0.75]
        assert box.violation(rows) == 0.75
        assert box.violation(rows[:1]) == 0.0
        with pytest.raises(ValueError):
            box.violation(np.zeros((2, 3)))


def test_project_box_identity_inside():
    box = Box.unit(2)
    x = np.array([0.4, 0.7])
    assert box.clip(x).tolist() == [0.4, 0.7]


def test_project_box_clipping():
    box = Box.unit(2)
    assert box.clip(np.array([2.0, -1.0])).tolist() == [1.0, 0.0]


def test_project_box_matches_per_coordinate_minimization(rng):
    # oracle: minimize w_i (x_i - y)^2 over [lo_i, hi_i] with a 1-d solver
    box = Box(np.array([-1.0, 0.5]), np.array([0.25, 2.0]))
    for _ in range(50):
        x = rng.standard_normal(2) * 3
        w = rng.uniform(0.1, 10.0, 2)
        proj = box.clip(x)
        for i in range(2):
            res = minimize_scalar(lambda y: w[i] * (x[i] - y) ** 2,
                                  bounds=(box.lower[i], box.upper[i]),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            # the bounded solver itself is only ~1e-7 accurate at a boundary
            assert abs(proj[i] - res.x) < 1e-6


def test_projection_idempotent(rng):
    box = Box(np.array([-2.0, 0.0, 1.0]), np.array([2.0, 1.0, 4.0]))
    for _ in range(100):
        x = rng.standard_normal(3) * 5
        p1 = box.clip(x)
        np.testing.assert_array_equal(box.clip(p1), p1)


def test_projection_nonexpansive_in_weighted_norm(rng):
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    for _ in range(200):
        x = rng.standard_normal(2) * 3
        y = rng.standard_normal(2) * 3
        w = rng.uniform(0.1, 10.0, 2)
        d_proj = weighted_norm_sq(box.clip(x) - box.clip(y), w)
        d = weighted_norm_sq(x - y, w)
        assert d_proj <= d * (1 + 1e-12)


def test_projected_gradient_zero_gradient():
    box = Box.unit(3)
    x = np.array([0.2, 0.5, 1.0])
    np.testing.assert_array_equal(
        projected_gradient(x, np.zeros(3), box), np.zeros(3))


def test_projected_gradient_interior_equals_gradient():
    box = Box.unit(2)
    x = np.array([0.5, 0.5])
    g = np.array([0.1, -0.2])
    np.testing.assert_allclose(projected_gradient(x, g, box), g, atol=0)


def test_projected_gradient_outward_component_vanishes():
    # at the lower bound with the step pointing outward, that component is 0:
    # x - clip(x - g) with x = 0, g = +0.3 gives 0 - 0 = 0... evaluated by
    # hand: clip(0 - 0.3) = 0, so the projected gradient entry is 0
    box = Box.unit(1)
    out = projected_gradient(np.array([0.0]), np.array([0.3]), box)
    assert out.tolist() == [0.0]


def test_projected_gradient_zero_iff_first_order_optimal():
    # grid-checkable 1-d instance: f(x) = (x - 2)^2 on [0, 1], optimum at 1
    box = Box.unit(1)
    grad = lambda x: 2 * (x - 2.0)
    for xv in np.linspace(0.0, 1.0, 11):
        pg = projected_gradient(np.array([xv]), np.array([grad(xv)]), box)
        stationary = abs(pg[0]) < 1e-12
        assert stationary == (xv == 1.0)
