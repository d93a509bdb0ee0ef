"""Deterministic toy instances shared by the test and acceptance suites.

The problems the solvers and the invariant audit run on, the fixture sets
that group them, and :func:`correlated_rows`, the dataset of the Hoffman
constant's lower bound.  No config loads any of them.
"""

from __future__ import annotations

import numpy as np

from .datasets import Dataset, gaussian_margin
from .geometry import Box
from .problems import ErmProblem, LassoBoxProblem, QuadraticProblem, SvmDualProblem


def svm_dual_toy(n: int = 8, d: int = 10, lam: float = 0.1,
                 seed: int = 7) -> SvmDualProblem:
    """SVM dual on a normalized gaussian-margin dataset.

    With ``d >= n`` the dual Hessian is generically positive definite, so the
    optimum is unique (the quadratic-growth estimator assumes that).
    """
    ds = gaussian_margin(n, d, seed=seed).normalize_rows()
    return SvmDualProblem(ds.features, ds.labels, lam)


def svm_dual_tiny() -> SvmDualProblem:
    """Hand-sized two-point instance (grid-searchable)."""
    features = np.array([[1.0, 0.2], [0.3, -0.9]])
    labels = np.array([1.0, -1.0])
    return SvmDualProblem(features, labels, lam=0.5)


def quadratic_box(n: int = 8, seed: int = 3) -> QuadraticProblem:
    """Well-conditioned random PSD quadratic over the cube [-1, 1]^n.

    The linear term pushes part of the optimum onto the boundary.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    H = G @ G.T + np.eye(n)
    c = rng.standard_normal(n) * 1.5
    return QuadraticProblem(H, c, Box.cube(n, -1.0, 1.0))


def quadratic_box_2d() -> QuadraticProblem:
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([-3.0, 1.0])
    return QuadraticProblem(H, c, Box.cube(2, -1.0, 1.0))


def diagonal_quadratic(n: int = 5) -> QuadraticProblem:
    """Separable quadratic with curvature diag(1..n) over the whole space."""
    H = np.diag(np.arange(1.0, n + 1.0))
    c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return QuadraticProblem(H, c, Box.free(n))


def quadratic_diag_3d() -> QuadraticProblem:
    return diagonal_quadratic(3)


def lasso_small(d: int = 5, m: int = 12, l1: float = 0.1,
                seed: int = 11) -> LassoBoxProblem:
    """Least-squares lasso with a well-posed random design (doubled to 2d)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((m, d))
    x_true = rng.standard_normal(d)
    x_true[rng.uniform(size=d) < 0.4] = 0.0
    b = A @ x_true + 0.1 * rng.standard_normal(m)
    return LassoBoxProblem(A, b, l1=l1)


def lasso_tiny() -> LassoBoxProblem:
    """One original variable; the soft-threshold optimum is closed form."""
    A = np.array([[1.0], [0.5], [-0.25]])
    b = np.array([1.0, 0.3, 0.2])
    return LassoBoxProblem(A, b, l1=0.2)


def lasso_tiny_solution(p: LassoBoxProblem):
    """Closed-form optimum of :func:`lasso_tiny` in the original variable."""
    col = p.design[:, 0]
    rho = float(col @ p.target)
    denom = float(col @ col)
    v = np.sign(rho) * max(abs(rho) - p.l1, 0.0) / denom
    return np.array([v])


def erm_logistic(n_features: int = 20, n_points: int = 24, lam: float = 0.1,
                 seed: int = 5) -> ErmProblem:
    ds = gaussian_margin(n_points, n_features, seed=seed)
    return ErmProblem(ds.features, ds.labels, lam, loss="logistic")


def correlated_rows(delta: float, d: int = 3, n: int = 4, seed: int = 0) -> Dataset:
    """Feature matrix with two nearly identical rows, A_1 = A_2 + delta e_1.

    Rows of the returned dataset's feature-space matrix (``dataset.features.T``)
    are the near-duplicates; feeding those rows to the Hoffman brute force
    exhibits the 2-row support that forces theta >= sqrt(2)/|delta|.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    rng = np.random.Generator(np.random.Philox(key=seed))
    feat = rng.standard_normal((d, n))  # rows correspond to features
    feat /= np.linalg.norm(feat, axis=1, keepdims=True)
    feat[0] = feat[1].copy()
    feat[0, 0] += delta
    labels = np.where(rng.standard_normal(n) >= 0.0, 1.0, -1.0)
    return Dataset(feat.T, labels)


def standard_fixtures() -> dict:
    """The shipped fixture set exercised by the invariants acceptance run."""
    return {
        "svm_dual_n2": svm_dual_toy(n=2, d=3, seed=13),
        "svm_dual_n4": svm_dual_toy(n=4, d=4, seed=17),
        "svm_dual_n8": svm_dual_toy(n=8, d=10, seed=7),
        "lasso_d5": lasso_small(),
        "erm_logistic_n20": erm_logistic(),
        "quadratic_diag_n5": diagonal_quadratic(5),
        "quadratic_box_n8": quadratic_box(),
    }


def small_fixtures() -> dict:
    """Fixtures of dimension <= 3 with grid / closed-form optima."""
    return {
        "svm_dual_tiny": svm_dual_tiny(),
        "quadratic_box_2d": quadratic_box_2d(),
        "quadratic_diag_3d": quadratic_diag_3d(),
        "lasso_tiny": lasso_tiny(),
    }
