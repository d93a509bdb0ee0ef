"""Smooth box-constrained problems with coordinate-gradient oracles.

Every problem exposes its dimension, feasible :class:`~fdmkit.geometry.Box`,
per-coordinate gradient Lipschitz constants ``L_i`` and, where the coordinate
slice is an exact quadratic, a closed-form coordinate minimizer (otherwise a
safeguarded 1-D Newton solve is used).

Problem instances are immutable after construction and shareable across
concurrent runs; the incremental caches used by the solvers live in the
mutable state objects returned by :meth:`Problem.start_state`, one per run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .geometry import Box, check_weights, _check_vector

SLICE_DERIV_TOL = 1e-12
SLICE_MAX_ITER = 50
# Geometric steps allowed to bracket a slice minimizer.
_BRACKET_MAX_STEPS = 200

# Largest argument whose exponential is finite.
_EXP_MAX_ARG = float(np.log(np.finfo(float).max))


def expit(x):
    """Logistic sigmoid ``exp(x) / (1 + exp(x))``; the exponent is capped
    where ``exp`` would overflow, so very large ``x`` raises no warning."""
    e = np.exp(np.minimum(x, _EXP_MAX_ARG))
    return e / (1.0 + e)


class SliceMinError(RuntimeError):
    """1-D coordinate minimization failed to reach the derivative tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"coordinate slice solve: |derivative|={residual:.3e} after "
            f"{iterations} iterations (tolerance {SLICE_DERIV_TOL:.0e})"
        )


def minimize_slice(deriv_and_curv, t0: float, lo: float, hi: float,
                   tol: float = SLICE_DERIV_TOL,
                   max_iter: int = SLICE_MAX_ITER,
                   d0: float | None = None) -> float:
    """Minimize a strictly convex differentiable slice over ``[lo, hi]``.

    ``deriv_and_curv(t)`` returns the first and second derivative at ``t``.
    Newton steps are safeguarded by bisection on a sign-change bracket, so
    the iteration cannot leave the bracket even for poorly scaled slices.
    A caller that already has the derivative at ``t0`` (inside the bounds)
    passes it as ``d0``, and the slice is not evaluated there again.
    """
    if lo > -np.inf and deriv_and_curv(lo)[0] >= 0.0:
        return lo
    if hi < np.inf and deriv_and_curv(hi)[0] <= 0.0:
        return hi

    t = min(max(t0, lo), hi)
    if d0 is None:
        d0 = deriv_and_curv(t)[0]
    if abs(d0) <= tol:
        return t

    # Bracket a sign change; strict convexity makes the derivative increasing,
    # so geometric expansion in the descent direction must cross zero.
    step = max(1.0, abs(t)) * 0.5
    if d0 > 0.0:
        b = t
        a = t
        for _ in range(_BRACKET_MAX_STEPS):
            a = max(lo, a - step)
            da = deriv_and_curv(a)[0]
            if da <= 0.0:
                break
            step *= 2.0
        else:
            raise SliceMinError(_BRACKET_MAX_STEPS, da)
    else:
        a = t
        b = t
        for _ in range(_BRACKET_MAX_STEPS):
            b = min(hi, b + step)
            db = deriv_and_curv(b)[0]
            if db >= 0.0:
                break
            step *= 2.0
        else:
            raise SliceMinError(_BRACKET_MAX_STEPS, db)

    t = 0.5 * (a + b)
    for _ in range(max_iter):
        d, c = deriv_and_curv(t)
        if abs(d) <= tol:
            return t
        if d > 0.0:
            b = t
        else:
            a = t
        t_new = t - d / c if c > 0.0 else 0.5 * (a + b)
        if not (a < t_new < b):
            t_new = 0.5 * (a + b)
        if t_new == t:
            # Bracket has collapsed to float resolution.
            return t
        t = t_new
    raise SliceMinError(max_iter, abs(d))


def minimize_slices(deriv_and_curv, t0, d0, tol: float = SLICE_DERIV_TOL,
                    max_iter: int = SLICE_MAX_ITER) -> np.ndarray:
    """Minimize many strictly convex differentiable slices over the real line.

    Slice ``e`` starts at ``t0[e]``, where its derivative is ``d0[e]``.
    ``deriv_and_curv(t, idx)`` returns the first and second derivatives of
    the slices ``idx`` (an index array) at the points ``t``.  Every slice
    follows the bracket expansion, Newton, bisection and collapse rules of
    :func:`minimize_slice` with ``lo = -inf`` and ``hi = inf``, so given the
    same derivatives it takes the same steps to the same result; each
    iteration evaluates only the slices still running.  Raises
    :class:`SliceMinError` if any slice fails.
    """
    t = np.array(t0, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    a = t.copy()
    b = t.copy()
    step = np.maximum(1.0, np.abs(t)) * 0.5
    down = d0 > 0.0
    running = np.flatnonzero(~(np.abs(d0) <= tol))

    idx = running
    for _ in range(_BRACKET_MAX_STEPS):
        if idx.size == 0:
            break
        dn = down[idx]
        probe = np.where(dn, a[idx] - step[idx], b[idx] + step[idx])
        d = deriv_and_curv(probe, idx)[0]
        a[idx] = np.where(dn, probe, a[idx])
        b[idx] = np.where(dn, b[idx], probe)
        open_ = ~np.where(dn, d <= 0.0, d >= 0.0)
        idx, residual = idx[open_], d[open_]
        step[idx] *= 2.0
    else:
        if idx.size:
            raise SliceMinError(_BRACKET_MAX_STEPS, float(residual[0]))

    idx = running
    t[idx] = 0.5 * (a[idx] + b[idx])
    for _ in range(max_iter):
        if idx.size == 0:
            return t
        ti = t[idx]
        d, c = deriv_and_curv(ti, idx)
        pos = d > 0.0
        ai = np.where(pos, a[idx], ti)
        bi = np.where(pos, ti, b[idx])
        mid = 0.5 * (ai + bi)
        curved = c > 0.0
        t_new = np.where(curved, ti - d / np.where(curved, c, 1.0), mid)
        t_new = np.where((ai < t_new) & (t_new < bi), t_new, mid)
        # converged, or the bracket has collapsed to float resolution
        go = ~(np.abs(d) <= tol) & (t_new != ti)
        idx, residual = idx[go], np.abs(d[go])
        a[idx], b[idx], t[idx] = ai[go], bi[go], t_new[go]
    if idx.size:
        raise SliceMinError(max_iter, float(residual[0]))
    return t


class ProblemState(ABC):
    """Mutable per-run cache owning the current iterate.

    ``objective`` / ``coord_grad`` are exact functions of the cached
    quantities, so consecutive objective values recorded by a solver are
    mutually consistent (monotone descent is preserved to rounding).
    """

    x: np.ndarray

    @abstractmethod
    def objective(self) -> float: ...

    @abstractmethod
    def coord_grad(self, i: int) -> float: ...

    @abstractmethod
    def gradient(self) -> np.ndarray: ...

    @abstractmethod
    def set_coord(self, i: int, new: float) -> None: ...

    @abstractmethod
    def exact_coord_min(self, i: int) -> float:
        """Minimizer of the i-th coordinate slice over X_i (does not mutate)."""

    def set_x(self, x_new: np.ndarray) -> None:
        """Replace the whole iterate (full-vector methods); rebuilds caches.

        ``x_new`` must be a float vector of length n.  The state keeps it as
        its iterate without a copy, so the caller must not modify it later.
        """
        self._rebuild(x_new)

    @abstractmethod
    def _rebuild(self, x: np.ndarray) -> None: ...


class Problem(ABC):
    """Abstract smooth problem over a coordinate box."""

    n: int
    box: Box
    lipschitz: np.ndarray
    image_dim: int  # length of the linear image the gradient depends on

    @abstractmethod
    def value(self, x) -> float: ...

    @abstractmethod
    def values(self, X) -> np.ndarray:
        """Objective at each row of an ``(m, n)`` stack of points.

        Evaluated from scratch like :meth:`value`, but the rows are neither
        checked for finiteness nor for feasibility, so an audit can evaluate
        corrupted points; results agree with :meth:`value` to rounding.
        """

    @abstractmethod
    def gradient(self, x) -> np.ndarray: ...

    @abstractmethod
    def coord_gradient(self, x, i: int) -> float: ...

    def coord_grads_along(self, x, coords, values) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate gradients along a path of single-coordinate moves.

        The path starts at ``x_0 = x``, and ``x_{r+1}`` is ``x_r`` with
        coordinate ``coords[r]`` set to ``values[r]``.  Returns
        ``(g_before, g_after)``: ``g_before[r]`` is the ``coords[r]``-th
        partial derivative at ``x_r`` and ``g_after[r]`` the same partial at
        ``x_{r+1}``.

        The linear image of ``x`` that the gradient depends on is built from
        scratch, and the path's moves are accumulated in image space with one
        cumulative sum, so a path of length b costs O(b * image_dim) time and
        memory.  The results agree with :meth:`coord_gradient` at each point
        to rounding; the sums are ordered differently.
        """
        x = self._check_point(x)
        coords = np.asarray(coords, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if coords.ndim != 1 or values.shape != coords.shape:
            raise ValueError("coords and values must be 1-d and of equal length")
        if coords.size == 0:
            return np.empty(0), np.empty(0)
        if coords.min() < 0 or coords.max() >= self.n:
            raise ValueError(f"path coordinates must lie in [0, {self.n})")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        olds = path_start_values(x, coords, values)
        cols = self._image_columns(coords)
        images = cols * (values - olds)[:, None]
        np.cumsum(images, axis=0, out=images)
        image0 = self._image(x)
        images += image0
        g_after = self._coord_grads_at(coords, images, values, cols)
        g_before = np.concatenate([
            self._coord_grads_at(coords[:1], image0[None, :], olds[:1], cols[:1]),
            self._coord_grads_at(coords[1:], images[:-1], olds[1:], cols[1:]),
        ])
        return g_before, g_after

    @abstractmethod
    def _image(self, x: np.ndarray) -> np.ndarray:
        """The linear image of ``x`` (length ``image_dim``) that the
        gradient depends on."""

    @abstractmethod
    def _image_columns(self, coords: np.ndarray) -> np.ndarray:
        """Rows ``(b, image_dim)``: the change of the image per unit move
        of each coordinate in ``coords``."""

    @abstractmethod
    def _coord_grads_at(self, coords, images, xi, cols) -> np.ndarray:
        """Partial derivative ``coords[r]`` at a point whose image is
        ``images[r]`` and whose coordinate ``coords[r]`` is ``xi[r]``;
        ``cols`` is ``_image_columns(coords)``."""

    # Batched from-scratch oracles over an (m, n) stack of points.  Only the
    # families whose box can be free implement them: they serve the
    # expectation-mode certificate, which enumerates every coordinate slice.

    def _images(self, X) -> np.ndarray:
        """Rows ``(m, image_dim)``: the linear image of each row of ``X``."""
        raise NotImplementedError(f"{type(self).__name__} has no batched oracles")

    def _gradients_at(self, X, images) -> np.ndarray:
        """Full gradient at each row of ``X``, whose images are ``images``."""
        raise NotImplementedError(f"{type(self).__name__} has no batched oracles")

    def _values_at(self, X, images) -> np.ndarray:
        """Objective at each row of ``X``, whose images are ``images``."""
        raise NotImplementedError(f"{type(self).__name__} has no batched oracles")

    def slice_minimizers(self, X, images, grads) -> np.ndarray:
        """Minimizer of every coordinate slice at every row of ``X``.

        Entry ``(r, j)`` minimizes f over coordinate j with the others fixed
        at ``X[r]``; ``images`` and ``grads`` are ``_images(X)`` and
        ``_gradients_at(X, images)``, and a Newton solve starts from
        ``grads``.  Agrees with :meth:`ProblemState.exact_coord_min` to the
        slice solver's tolerance; the sums are ordered differently.
        """
        raise NotImplementedError(f"{type(self).__name__} has no batched oracles")

    @abstractmethod
    def start_state(self, x0) -> ProblemState: ...

    @abstractmethod
    def coord_curvature_floor(self) -> np.ndarray:
        """Per-coordinate lower bound on the slice curvature, valid on all of X."""

    def gamma(self, w) -> float:
        """Coordinate strong-convexity modulus wrt ``||.||_W``: min_i floor_i/(2 w_i)."""
        w = check_weights(w, self.n)
        return float(np.min(self.coord_curvature_floor() / (2.0 * w)))

    def exact_coord_min(self, x, i: int) -> float:
        """One-off exact coordinate minimizer (builds a throwaway state)."""
        st = self.start_state(np.array(x, dtype=float))
        return st.exact_coord_min(i)

    def _check_point(self, x) -> np.ndarray:
        x = _check_vector(x, self.n)
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x

    def _check_stack(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"point stack must have shape (m, {self.n}), "
                             f"got {X.shape}")
        return X


def _require_finite(**arrays) -> None:
    """Reject problem data that has NaN or infinite entries."""
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} has non-finite entries")


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two equally shaped 2-d arrays."""
    return np.einsum("ij,ij->i", A, B)


def path_start_values(x: np.ndarray, coords: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
    """Value of coordinate ``coords[r]`` at ``x_r`` on the path of
    :meth:`Problem.coord_grads_along`: its last assigned value on the path,
    or its entry of ``x`` if the path has not moved it yet."""
    olds = x[coords]
    order = np.argsort(coords, kind="stable")
    repeat = coords[order[1:]] == coords[order[:-1]]
    olds[order[1:][repeat]] = values[order[:-1][repeat]]
    return olds


def global_lipschitz_bound(lipschitz, w) -> float:
    """Upper bound ``sum_i L_i / w_i`` on the gradient Lipschitz constant
    with respect to ``||.||_W``."""
    lipschitz = _check_vector(lipschitz, name="lipschitz")
    w = check_weights(w, lipschitz.shape[0])
    return float(np.sum(lipschitz / w))


# ---------------------------------------------------------------------------
# quadratics


class QuadraticProblem(Problem):
    """f(x) = 0.5 x'Hx + c'x over a box, H symmetric PSD with H_ii > 0."""

    def __init__(self, hessian, linear, box: Box | None = None):
        H = np.ascontiguousarray(hessian, dtype=float)
        c = _check_vector(linear, name="linear")
        n = c.shape[0]
        if H.shape != (n, n):
            raise ValueError(f"hessian shape {H.shape} does not match linear term {n}")
        _require_finite(hessian=H, linear=c)
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValueError("hessian must be symmetric")
        d = np.diag(H)
        if np.any(d <= 0.0):
            raise ValueError("hessian must have strictly positive diagonal")
        self.n = n
        self.hessian = H.copy()
        self.linear = c.copy()
        self.box = box if box is not None else Box.free(n)
        if self.box.n != n:
            raise ValueError("box dimension mismatch")
        self.lipschitz = d.copy()
        self.image_dim = n

    def value(self, x) -> float:
        x = self._check_point(x)
        return float(0.5 * x @ self.hessian @ x + self.linear @ x)

    def values(self, X) -> np.ndarray:
        X = self._check_stack(X)
        return 0.5 * _row_dots(X @ self.hessian, X) + X @ self.linear

    def gradient(self, x) -> np.ndarray:
        return self._image(self._check_point(x))

    def coord_gradient(self, x, i: int) -> float:
        x = self._check_point(x)
        return float(self.hessian[i] @ x + self.linear[i])

    def _image(self, x):
        return self.hessian @ x + self.linear  # the gradient itself

    def _image_columns(self, coords):
        return self.hessian[:, coords].T

    def _coord_grads_at(self, coords, images, xi, cols):
        return images[np.arange(coords.shape[0]), coords]

    def _images(self, X):
        return X @ self.hessian.T + self.linear

    def _gradients_at(self, X, images):
        return images

    def _values_at(self, X, images):
        # x'(Hx + c) + c'x = x'Hx + 2 c'x
        return 0.5 * _row_dots(X, images + self.linear)

    def slice_minimizers(self, X, images, grads):
        # slice curvature is exactly H_ii: the clipped Newton point
        return np.clip(X - grads / self.lipschitz, self.box.lower, self.box.upper)

    def coord_curvature_floor(self) -> np.ndarray:
        return np.diag(self.hessian).copy()

    def start_state(self, x0) -> "QuadraticState":
        return QuadraticState(self, self._check_point(x0).copy())


class QuadraticState(ProblemState):
    __slots__ = ("p", "x", "g", "f")

    def __init__(self, p: QuadraticProblem, x: np.ndarray):
        self.p = p
        self._rebuild(x)

    def _rebuild(self, x: np.ndarray) -> None:
        self.x = x
        self.g = self.p._image(x)
        self.f = float(0.5 * x @ self.p.hessian @ x + self.p.linear @ x)

    def objective(self) -> float:
        return self.f

    def coord_grad(self, i: int) -> float:
        return float(self.g[i])

    def gradient(self) -> np.ndarray:
        return self.g.copy()

    def set_coord(self, i: int, new: float) -> None:
        delta = new - self.x[i]
        if delta == 0.0:
            return
        gi = self.g[i]
        self.f += gi * delta + 0.5 * self.p.hessian[i, i] * delta * delta
        self.g += delta * self.p.hessian[:, i]
        self.x[i] = new

    def exact_coord_min(self, i: int) -> float:
        # Slice curvature is exactly H_ii, so the minimizer is the clipped
        # Newton point.
        t = self.x[i] - self.g[i] / self.p.hessian[i, i]
        return self.p.box.clip_coord(t, i)


# ---------------------------------------------------------------------------
# SVM dual


class SvmDualProblem(Problem):
    """Dual of the hinge-loss linear SVM.

    Given rows ``a_i`` and labels ``y_i`` in {-1, +1}:

        f(x) = (1 / (2 lam n^2)) x'Qx - (1/n) 1'x,   Q_ij = y_i y_j <a_i, a_j>

    over the unit cube, with ``L_i = ||a_i||^2 / (lam n^2)``.  The gradient is
    evaluated through the primal-weight representation (the label-scaled data
    combination), never by materializing Q, so memory stays O(nd).
    """

    def __init__(self, features, labels, lam: float):
        A = np.ascontiguousarray(features, dtype=float)
        if A.ndim != 2:
            raise ValueError("features must be a 2-d array of row examples")
        y = _check_vector(labels, A.shape[0], "labels")
        _require_finite(features=A, labels=y)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if lam <= 0:
            raise ValueError("regularizer lam must be positive")
        row_sq = np.einsum("ij,ij->i", A, A)
        if np.any(row_sq <= 0.0):
            raise ValueError("every example must have a nonzero feature row")
        self.n, self.d = A.shape
        self.lam = float(lam)
        self.features = A.copy()
        self.labels = y.copy()
        # rows scaled by their labels; the dual Hessian is (ya)(ya)'/(lam n^2)
        self.ya = A * y[:, None]
        self.box = Box.unit(self.n)
        self.lipschitz = row_sq / (self.lam * self.n**2)
        self.image_dim = self.d

    def _require_feasible(self, x: np.ndarray) -> None:
        if not self.box.contains(x):
            raise ValueError("dual point is outside [0, 1]^n")

    def value(self, x) -> float:
        x = self._check_point(x)
        self._require_feasible(x)
        pw = self._image(x)
        return float(pw @ pw / (2.0 * self.lam * self.n**2) - np.sum(x) / self.n)

    def values(self, X) -> np.ndarray:
        X = self._check_stack(X)
        PW = X @ self.ya
        return (_row_dots(PW, PW) / (2.0 * self.lam * self.n**2)
                - np.sum(X, axis=1) / self.n)

    def gradient(self, x) -> np.ndarray:
        pw = self._image(self._check_point(x))
        return (self.ya @ pw) / (self.lam * self.n**2) - 1.0 / self.n

    def coord_gradient(self, x, i: int) -> float:
        pw = self._image(self._check_point(x))
        return float(self.ya[i] @ pw / (self.lam * self.n**2) - 1.0 / self.n)

    def _image(self, x):
        return self.ya.T @ x

    def _image_columns(self, coords):
        return self.ya[coords]

    def _coord_grads_at(self, coords, images, xi, cols):
        return _row_dots(cols, images) / (self.lam * self.n**2) - 1.0 / self.n

    def coord_curvature_floor(self) -> np.ndarray:
        # Slices are exact quadratics with curvature Q_ii/(lam n^2) = L_i.
        return self.lipschitz.copy()

    def primal_weights(self, x) -> np.ndarray:
        """Primal point w(x) = (1/(lam n)) sum_i x_i y_i a_i."""
        x = self._check_point(x)
        self._require_feasible(x)
        return self._image(x) / (self.lam * self.n)

    def primal_value(self, weights) -> float:
        """Hinge-loss primal objective at a weight vector."""
        weights = _check_vector(weights, self.d, "weights")
        margins = self.ya @ weights
        hinge = np.maximum(0.0, 1.0 - margins)
        return float(np.mean(hinge) + 0.5 * self.lam * weights @ weights)

    def duality_gap(self, x) -> float:
        """Duality gap G(x) = P(w(x)) + f(x); zero exactly at optimality."""
        return self.primal_value(self.primal_weights(x)) + self.value(x)

    def start_state(self, x0) -> "SvmDualState":
        x0 = self._check_point(x0).copy()
        self._require_feasible(x0)
        return SvmDualState(self, x0)


class SvmDualState(ProblemState):
    __slots__ = ("p", "x", "pw", "sum_x", "f", "scale", "_g_last")

    def __init__(self, p: SvmDualProblem, x: np.ndarray):
        self.p = p
        self._rebuild(x)

    def _rebuild(self, x: np.ndarray) -> None:
        self.x = x
        self.pw = self.p._image(x)  # unnormalized primal combination
        self.sum_x = float(np.sum(x))
        self.scale = 1.0 / (self.p.lam * self.p.n**2)
        self.f = float(self.pw @ self.pw * 0.5 * self.scale - self.sum_x / self.p.n)
        self._g_last = None

    def objective(self) -> float:
        return self.f

    def coord_grad(self, i: int) -> float:
        # A step asks for g_i twice (choosing the move, then set_coord), so
        # the last (i, g_i) is kept until pw changes.
        if self._g_last is None or self._g_last[0] != i:
            self._g_last = (i, float(self.p.ya[i] @ self.pw * self.scale
                                     - 1.0 / self.p.n))
        return self._g_last[1]

    def gradient(self) -> np.ndarray:
        return (self.p.ya @ self.pw) * self.scale - 1.0 / self.p.n

    def set_coord(self, i: int, new: float) -> None:
        delta = new - self.x[i]
        if delta == 0.0:
            return
        gi = self.coord_grad(i)
        self.f += gi * delta + 0.5 * self.p.lipschitz[i] * delta * delta
        self.pw += delta * self.p.ya[i]
        self.sum_x += delta
        self.x[i] = new
        self._g_last = None

    def exact_coord_min(self, i: int) -> float:
        t = self.x[i] - self.coord_grad(i) / self.p.lipschitz[i]
        return self.p.box.clip_coord(t, i)

    def duality_gap(self) -> float:
        w = self.pw / (self.p.lam * self.p.n)
        margins = self.p.ya @ w
        primal = float(np.mean(np.maximum(0.0, 1.0 - margins))
                       + 0.5 * self.p.lam * w @ w)
        return primal + self.f


# ---------------------------------------------------------------------------
# l2-regularized empirical risk minimization


class _Logistic:
    curv_max = 0.25

    @staticmethod
    def values(u, y):
        return np.logaddexp(0.0, -y * u)

    @staticmethod
    def deriv(u, y):
        ny = -y
        return ny * expit(ny * u)

    @staticmethod
    def deriv_pair(u, y):
        ny = -y
        s = expit(ny * u)
        return ny * s, s * (1.0 - s)  # curvature sigma(m) sigma(-m) <= 1/4


class _Squared:
    curv_max = 2.0

    @staticmethod
    def values(u, y):
        r = u - y
        return r * r

    @staticmethod
    def deriv(u, y):
        return 2.0 * (u - y)

    @staticmethod
    def deriv_pair(u, y):
        return 2.0 * (u - y), np.full_like(u, 2.0)


class _SquaredHinge:
    curv_max = 2.0

    @staticmethod
    def values(u, y):
        act = np.maximum(0.0, 1.0 - y * u)
        return act * act

    @staticmethod
    def deriv(u, y):
        return -2.0 * y * np.maximum(0.0, 1.0 - y * u)

    @staticmethod
    def deriv_pair(u, y):
        m = 1.0 - y * u
        act = np.maximum(0.0, m)
        return -2.0 * y * act, np.where(m > 0.0, 2.0, 0.0)


_LOSSES = {
    "logistic": _Logistic,
    "squared": _Squared,
    "squared_hinge": _SquaredHinge,
}


class ErmProblem(Problem):
    """Unconstrained l2-regularized empirical loss over the weight vector.

    f(x) = (1/N) sum_j loss(a_j'x; y_j) + (lam/2) x'x.

    Coordinate Lipschitz constants: the loss curvature is bounded by 1/4
    (logistic) or 2 (squared, squared hinge), so L_c = c_max/N * sum_j
    a_{j,c}^2 + lam.  The regularizer makes every slice lam-strongly convex.
    """

    def __init__(self, points, labels, lam: float, loss: str = "logistic"):
        A = np.ascontiguousarray(points, dtype=float)
        if A.ndim != 2:
            raise ValueError("points must be a 2-d array of row examples")
        y = _check_vector(labels, A.shape[0], "labels")
        _require_finite(points=A, labels=y)
        if loss not in _LOSSES:
            raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(_LOSSES)}")
        if loss in ("logistic", "squared_hinge") and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError(f"{loss} loss requires labels in {{-1, +1}}")
        if lam <= 0:
            raise ValueError("regularizer lam must be positive")
        self.points = A.copy()
        self.labels = y.copy()
        self.lam = float(lam)
        self.loss = loss
        self._lo = _LOSSES[loss]
        self.n_points = A.shape[0]
        self.n = A.shape[1]
        self.box = Box.free(self.n)
        self._points_sq = A * A
        col_sq = self._points_sq.sum(axis=0)
        self.lipschitz = self._lo.curv_max * col_sq / self.n_points + self.lam
        self.image_dim = self.n_points

    def value(self, x) -> float:
        x = self._check_point(x)
        u = self._image(x)
        return float(np.mean(self._lo.values(u, self.labels))
                     + 0.5 * self.lam * x @ x)

    def values(self, X) -> np.ndarray:
        X = self._check_stack(X)
        return self._values_at(X, self._images(X))

    def gradient(self, x) -> np.ndarray:
        x = self._check_point(x)
        d1 = self._lo.deriv(self._image(x), self.labels)
        return self.points.T @ d1 / self.n_points + self.lam * x

    def coord_gradient(self, x, i: int) -> float:
        x = self._check_point(x)
        d1 = self._lo.deriv(self._image(x), self.labels)
        return float(d1 @ self.points[:, i] / self.n_points + self.lam * x[i])

    def _image(self, x):
        return self.points @ x  # the margins

    def _image_columns(self, coords):
        return self.points[:, coords].T

    def _coord_grads_at(self, coords, images, xi, cols):
        d1 = self._lo.deriv(images, self.labels)
        return _row_dots(d1, cols) / self.n_points + self.lam * xi

    def _images(self, X):
        return X @ self.points.T

    def _gradients_at(self, X, images):
        d1 = self._lo.deriv(images, self.labels)
        return d1 @ self.points / self.n_points + self.lam * X

    def _values_at(self, X, images):
        return (np.mean(self._lo.values(images, self.labels), axis=1)
                + 0.5 * self.lam * _row_dots(X, X))

    def slice_minimizers(self, X, images, grads):
        if self.loss == "squared":
            # exact quadratic slices; their curvature is L_i
            return X - grads / self.lipschitz
        m, n = X.shape
        x = X.ravel()
        cols, cols_sq = self.points.T, self._points_sq.T
        y, inv_n, lam = self.labels, 1.0 / self.n_points, self.lam

        def deriv_and_curv(t, idx):
            r, j = np.divmod(idx, n)
            col = cols[j]
            d1, d2 = self._lo.deriv_pair(images[r] + (t - x[idx])[:, None] * col, y)
            return (_row_dots(d1, col) * inv_n + lam * t,
                    _row_dots(d2, cols_sq[j]) * inv_n + lam)

        return minimize_slices(deriv_and_curv, x, grads.ravel()).reshape(m, n)

    def coord_curvature_floor(self) -> np.ndarray:
        # Loss curvature is nonnegative, so lam is a uniform floor.
        return np.full(self.n, self.lam)

    def start_state(self, x0) -> "ErmState":
        return ErmState(self, self._check_point(x0).copy())


class ErmState(ProblemState):
    __slots__ = ("p", "x", "u", "sq_x", "_d1")

    def __init__(self, p: ErmProblem, x: np.ndarray):
        self.p = p
        self._rebuild(x)

    def _rebuild(self, x: np.ndarray) -> None:
        self.x = x
        self.u = self.p._image(x)
        self.sq_x = float(x @ x)
        self._d1 = None

    def _loss_deriv(self) -> np.ndarray:
        """Loss derivative at the margins ``u``, cached until ``u`` changes."""
        if self._d1 is None:
            self._d1 = self.p._lo.deriv(self.u, self.p.labels)
        return self._d1

    def objective(self) -> float:
        return float(np.mean(self.p._lo.values(self.u, self.p.labels))
                     + 0.5 * self.p.lam * self.sq_x)

    def coord_grad(self, i: int) -> float:
        d1 = self._loss_deriv()
        return float(d1 @ self.p.points[:, i] / self.p.n_points
                     + self.p.lam * self.x[i])

    def gradient(self) -> np.ndarray:
        d1 = self._loss_deriv()
        return self.p.points.T @ d1 / self.p.n_points + self.p.lam * self.x

    def set_coord(self, i: int, new: float) -> None:
        delta = new - self.x[i]
        if delta == 0.0:
            return
        self.sq_x += 2.0 * self.x[i] * delta + delta * delta
        self.u += delta * self.p.points[:, i]
        self.x[i] = new
        self._d1 = None

    def exact_coord_min(self, i: int) -> float:
        p = self.p
        col = p.points[:, i]
        xi = self.x[i]
        g = self.coord_grad(i)
        if p.loss == "squared":
            # Squared-loss slices are exact quadratics.
            curv = 2.0 * col @ col / p.n_points + p.lam
            return xi - g / curv
        if abs(g) <= SLICE_DERIV_TOL:
            return xi
        col_sq = p._points_sq[:, i]
        y, inv_n, lam = p.labels, 1.0 / p.n_points, p.lam

        def deriv_and_curv(t):
            d1, d2 = p._lo.deriv_pair(self.u + (t - xi) * col, y)
            return (float(d1 @ col) * inv_n + lam * t,
                    float(d2 @ col_sq) * inv_n + lam)

        return minimize_slice(deriv_and_curv, xi, -np.inf, np.inf, d0=g)


# ---------------------------------------------------------------------------
# Lasso via the doubled-variable box reformulation


def lasso_lift(x) -> np.ndarray:
    """Split ``x`` into nonnegative parts ``[x+; x-]`` (doubled dimension)."""
    x = _check_vector(x)
    return np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)])


def lasso_project_back(z) -> np.ndarray:
    """Recover ``x = x+ - x-`` from a lifted pair; rejects negative entries."""
    z = _check_vector(z, name="z")
    if z.shape[0] % 2 != 0:
        raise ValueError("lifted vector must have even length")
    if np.any(z < 0.0):
        raise ValueError("lifted pair has negative entries")
    half = z.shape[0] // 2
    return z[:half] - z[half:]


class LassoBoxProblem(Problem):
    """l1-penalized smooth composite, reformulated over the doubled orthant.

    The original objective ``h(A v) + q'v + l1 ||v||_1`` in dimension d becomes

        f([x+; x-]) = h(A (x+ - x-)) + q'(x+ - x-) + l1 1'x+ + l1 1'x-

    over ``[0, inf)^{2d}``.  Default inner function: least squares
    ``h(u) = 0.5 ||u - b||^2`` (strong convexity modulus 1).  A custom
    strongly convex ``h`` can be supplied via value/gradient/curvature
    callables plus curvature bounds.
    """

    def __init__(self, design, target=None, q=None, l1: float = 0.0,
                 h_value=None, h_grad=None, h_curv=None,
                 h_curv_max: float = 1.0, sigma_h: float = 1.0):
        A = np.ascontiguousarray(design, dtype=float)
        if A.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        m, d = A.shape
        if l1 < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.design = A.copy()
        self.d_orig = d
        self.q = np.zeros(d) if q is None else _check_vector(q, d, "q")
        _require_finite(design=A, q=self.q)
        self.l1 = float(l1)
        custom = [h_value, h_grad, h_curv]
        if any(fn is not None for fn in custom):
            if any(fn is None for fn in custom):
                raise ValueError("custom h requires h_value, h_grad and h_curv")
            self.target = None
            self._custom_h = (h_value, h_grad, h_curv)
            self._h_quadratic = False
        else:
            b = np.zeros(m) if target is None else _check_vector(target, m, "target")
            _require_finite(target=b)
            self.target = b.copy()
            self._custom_h = None
            self._h_quadratic = True
            h_curv_max = 1.0
            sigma_h = 1.0
        self.h_curv_max = float(h_curv_max)
        self.sigma_h = float(sigma_h)
        col_sq = np.einsum("ij,ij->j", A, A)
        if np.any(col_sq <= 0.0):
            raise ValueError("design has a zero column; drop unused variables")
        self._col_sq = col_sq
        self.n = 2 * d
        self.box = Box.nonneg(self.n)
        self.lipschitz = np.tile(self.h_curv_max * col_sq, 2)
        self.image_dim = m

    def _split(self, z: np.ndarray):
        return z[:self.d_orig], z[self.d_orig:]

    def _h_value(self, u) -> float:
        if self._custom_h is not None:
            return float(self._custom_h[0](u))
        r = u - self.target
        return 0.5 * float(r @ r)

    def _h_grad(self, u) -> np.ndarray:
        if self._custom_h is not None:
            return self._custom_h[1](u)
        return u - self.target

    def _h_curv(self, u) -> np.ndarray:
        if self._custom_h is not None:
            return self._custom_h[2](u)
        return np.ones(u.shape[0])

    def inner_value(self, v) -> float:
        """Original-space smooth part ``h(Av) + q'v`` plus the l1 term."""
        v = _check_vector(v, self.d_orig, "v")
        return float(self._h_value(self.design @ v) + self.q @ v
                     + self.l1 * np.sum(np.abs(v)))

    def value(self, z) -> float:
        z = self._check_point(z)
        xp, xm = self._split(z)
        v = xp - xm
        return float(self._h_value(self.design @ v) + self.q @ v
                     + self.l1 * (np.sum(xp) + np.sum(xm)))

    def values(self, Z) -> np.ndarray:
        Z = self._check_stack(Z)
        Xp, Xm = Z[:, :self.d_orig], Z[:, self.d_orig:]
        V = Xp - Xm
        U = V @ self.design.T
        if self._custom_h is None:
            R = U - self.target
            h = 0.5 * _row_dots(R, R)
        else:
            h = np.array([self._h_value(u) for u in U])
        return (h + V @ self.q
                + self.l1 * (np.sum(Xp, axis=1) + np.sum(Xm, axis=1)))

    def gradient(self, z) -> np.ndarray:
        r = self._h_grad(self._image(self._check_point(z)))
        g = self.design.T @ r + self.q
        return np.concatenate([g + self.l1, -g + self.l1])

    def coord_gradient(self, z, i: int) -> float:
        r = self._h_grad(self._image(self._check_point(z)))
        j, sign = (i, 1.0) if i < self.d_orig else (i - self.d_orig, -1.0)
        return float(sign * (self.design[:, j] @ r + self.q[j]) + self.l1)

    def _image(self, z):
        xp, xm = self._split(z)
        return self.design @ (xp - xm)

    def _signed_columns(self, coords):
        """Original column index and sign of each lifted coordinate."""
        lifted_minus = coords >= self.d_orig
        return (np.where(lifted_minus, coords - self.d_orig, coords),
                np.where(lifted_minus, -1.0, 1.0))

    def _image_columns(self, coords):
        j, sign = self._signed_columns(coords)
        return self.design[:, j].T * sign[:, None]

    def _coord_grads_at(self, coords, images, xi, cols):
        j, sign = self._signed_columns(coords)
        if self._custom_h is None:
            R = images - self.target
        else:
            R = np.array([self._h_grad(u) for u in images]).reshape(images.shape)
        return _row_dots(cols, R) + sign * self.q[j] + self.l1

    def coord_curvature_floor(self) -> np.ndarray:
        return np.tile(self.sigma_h * self._col_sq, 2)

    def start_state(self, x0) -> "LassoState":
        x0 = self._check_point(x0).copy()
        if not self.box.contains(x0):
            raise ValueError("lifted start point must be nonnegative")
        return LassoState(self, x0)


class LassoState(ProblemState):
    __slots__ = ("p", "x", "u", "_r")

    def __init__(self, p: LassoBoxProblem, x: np.ndarray):
        self.p = p
        self._rebuild(x)

    def _rebuild(self, x: np.ndarray) -> None:
        self.x = x
        self.u = self.p._image(x)
        self._r = None

    def _h_grad(self) -> np.ndarray:
        """Gradient of h at ``u``, cached until ``u`` changes."""
        if self._r is None:
            self._r = self.p._h_grad(self.u)
        return self._r

    def _col(self, i: int):
        if i < self.p.d_orig:
            return i, 1.0
        return i - self.p.d_orig, -1.0

    def objective(self) -> float:
        xp, xm = self.p._split(self.x)
        return float(self.p._h_value(self.u) + self.p.q @ (xp - xm)
                     + self.p.l1 * np.sum(self.x))

    def coord_grad(self, i: int) -> float:
        j, sign = self._col(i)
        r = self._h_grad()
        return float(sign * (self.p.design[:, j] @ r + self.p.q[j]) + self.p.l1)

    def gradient(self) -> np.ndarray:
        r = self._h_grad()
        g = self.p.design.T @ r + self.p.q
        return np.concatenate([g + self.p.l1, -g + self.p.l1])

    def set_coord(self, i: int, new: float) -> None:
        delta = new - self.x[i]
        if delta == 0.0:
            return
        j, sign = self._col(i)
        self.u += sign * delta * self.p.design[:, j]
        self.x[i] = new
        self._r = None

    def exact_coord_min(self, i: int) -> float:
        p = self.p
        j, sign = self._col(i)
        xi = self.x[i]
        if p._h_quadratic:
            # Least-squares slices are exact quadratics with curvature
            # ||A[:, j]||^2.
            t = xi - self.coord_grad(i) / p._col_sq[j]
            return max(t, 0.0)
        col = sign * p.design[:, j]

        def deriv_and_curv(t):
            u = self.u + (t - xi) * col
            return (float(col @ p._h_grad(u) + sign * p.q[j] + p.l1),
                    float(p._h_curv(u) @ (col * col)))

        return minimize_slice(deriv_and_curv, xi, 0.0, np.inf)


# ---------------------------------------------------------------------------
# sampled verification of coordinate strong convexity


def check_coord_strong_convexity(p: Problem, gamma: float, w,
                                 samples: int = 1000, seed: int = 0,
                                 rtol: float = 1e-9):
    """Sampled test of the coordinate strong-convexity inequality.

    Draws ``samples`` triples (x, i, xi) with x feasible and xi in X_i and
    checks that the slice gap  f(x with xi at i) - f(x) + grad_i f(x)(x_i - xi)
    dominates ``gamma * w_i (xi - x_i)^2``.  Sampling (seeded) stands in for
    the universal statement, which is not desk-checkable.

    Returns ``(ok, witness)`` where witness describes the first violation.
    """
    w = check_weights(w, p.n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo = np.where(np.isinf(p.box.lower), -10.0, p.box.lower)
    hi = np.where(np.isinf(p.box.upper), 10.0, p.box.upper)
    for _ in range(samples):
        x = rng.uniform(lo, hi)
        i = int(rng.integers(p.n))
        xi = rng.uniform(lo[i], hi[i])
        fx = p.value(x)
        gi = p.coord_gradient(x, i)
        x_mod = x.copy()
        x_mod[i] = xi
        lhs = p.value(x_mod) - fx + gi * (x[i] - xi)
        rhs = gamma * w[i] * (xi - x[i]) ** 2
        slack = rtol * max(1.0, abs(lhs), rhs)
        if lhs < rhs - slack:
            return False, {"x": x, "i": i, "xi": xi, "lhs": lhs, "rhs": rhs}
    return True, None
