"""Smooth box-constrained problems, each family defined once in image space.

All four families (box quadratics, the SVM dual, l2-ERM and the doubled
least-squares lasso) have the form f(x) = h(Ex) + (terms simple in x), the
weak-strong-convexity class of Wang & Lin (JMLR 2014).  A family states its
objective, gradients and coordinate slices through the linear image ``Ex``
(see :class:`Problem`); the scalar, path and batched oracles, the coordinate
minimizers and the incremental state of a solver run are all derived from
that one definition.
The only slices that are not exact quadratics are those of l2-ERM with the
logistic or squared-hinge loss, which is unconstrained; one safeguarded Newton
rule (rtsafe, Press et al., *Numerical Recipes* 9.4) minimizes them on the
real line: start at the current coordinate, take the Newton steps
:func:`_newton_ok` accepts within the bracket that the iterates' derivative
signs reveal, and otherwise bisect or widen it.

Problem instances are immutable after construction; the incremental caches
used by the solvers live in the mutable :class:`ProblemState` returned by
:meth:`Problem.start_state`, one per run.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .geometry import Box, check_number, check_weights, _check_vector

SLICE_DERIV_TOL = 1e-12
# The slice rule's iteration cap, 4189, from the float64 format.  Within two
# widenings t moves away from 0 with |t| >= 1, and each later one doubles |t|
# until it overflows.  Bisections halve a finite bracket, at most 2^(maxexp+1)
# wide, until it is the smallest subnormal wide and its midpoint is an end.
# Accepted Newton steps in a finite bracket halve |d| from at most 2^maxexp to
# SLICE_DERIV_TOL.  The cap sums the three counts (Newton steps in a half-open
# bracket are not counted); a solve that ends under a smaller cap is unchanged.
_F64 = np.finfo(float)
SLICE_MAX_ITER = ((_F64.maxexp + 2) + (_F64.maxexp + 1 - _F64.minexp + _F64.nmant)
                  + (_F64.maxexp + math.ceil(-math.log2(SLICE_DERIV_TOL))))

# Largest argument whose exponential is finite.
_EXP_MAX_ARG = float(np.log(_F64.max))
_EPS = float(_F64.eps)


def f_noise(f):
    """Rounding floor of a computed objective value, 32 ulps of max(1, |f|):
    objective differences below it are not resolved.  Elementwise on arrays."""
    return 32.0 * _EPS * np.maximum(1.0, np.abs(f))


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


def _newton_ok(t_new, a, b, d, d_last, half_open):
    """The slice rule's test of a Newton point ``t_new``, on floats or
    elementwise: it lies strictly inside the bracket ``(a, b)``, and |d| has
    at least halved since the last iterate's ``d_last`` or ``half_open``."""
    return (a < t_new) & (t_new < b) & ((2.0 * abs(d) < d_last) | half_open)


def minimize_slice(deriv_and_curv, t0: float, d0: float) -> float:
    """Minimize a strictly convex differentiable slice over the real line.

    ``deriv_and_curv(t)`` returns the first and second derivative at ``t``.
    The solve starts at ``t0``, where the derivative is ``d0``; a start with
    ``|d0| <= SLICE_DERIV_TOL`` is the answer.  Each iterate's derivative
    sign narrows the bracket ``(a, b)`` from ``(-inf, inf)``; the Newton step
    is taken while :func:`_newton_ok` accepts it, else a finite bracket is
    bisected and a half-open one left by a step of ``max(1, |t|)`` downhill.
    The solve stops at ``|derivative| <= SLICE_DERIV_TOL`` or a bracket
    collapsed to float resolution, and raises :class:`SliceMinError` after
    ``SLICE_MAX_ITER`` iterations.
    """
    tol, max_iter = SLICE_DERIV_TOL, SLICE_MAX_ITER
    t, d = t0, d0
    if abs(d) <= tol:
        return t
    c = deriv_and_curv(t)[1]
    a, b, d_last = -math.inf, math.inf, math.inf
    for _ in range(max_iter):
        if d > 0.0:
            b = t
        else:
            a = t
        half_open = math.isinf(a) or math.isinf(b)
        t_new = t - d / c if c > 0.0 else t
        if not _newton_ok(t_new, a, b, d, d_last, half_open):
            t_new = (t - math.copysign(max(1.0, abs(t)), d) if half_open
                     else 0.5 * (a + b))
        if t_new == t:
            return t  # the bracket has collapsed to float resolution
        t, d_last = t_new, abs(d)
        d, c = deriv_and_curv(t)
        if abs(d) <= tol:
            return t
    raise SliceMinError(max_iter, abs(d))


def minimize_slices(deriv_and_curv, t0, d0) -> np.ndarray:
    """Minimize many strictly convex differentiable slices over the real line.

    Slice ``e`` starts at ``t0[e]``, where its derivative is ``d0[e]``.
    ``deriv_and_curv(t, idx)`` returns the first and second derivatives of
    the slices ``idx`` (an index array) at the points ``t``.  Every slice
    follows the rule of :func:`minimize_slice` elementwise, so given the same
    derivatives it takes the same steps to the same result bit for bit; each
    evaluation covers only the slices still running.  Raises
    :class:`SliceMinError` if any slice fails.
    """
    tol, max_iter = SLICE_DERIV_TOL, SLICE_MAX_ITER
    t = np.array(t0, dtype=float)
    d = np.asarray(d0, dtype=float)
    idx = np.flatnonzero(~(np.abs(d) <= tol))
    d = d[idx]
    if idx.size == 0:
        return t
    c = deriv_and_curv(t[idx], idx)[1]
    a, b = np.full(t.shape, -np.inf), np.full(t.shape, np.inf)
    d_last = np.full(idx.size, np.inf)
    for _ in range(max_iter):
        ti = t[idx]
        pos = d > 0.0
        ai = np.where(pos, a[idx], ti)
        bi = np.where(pos, ti, b[idx])
        half_open = np.isinf(ai) | np.isinf(bi)
        # no curvature leaves t in place, which the test rejects
        newton = ti - d / np.where(c > 0.0, c, np.inf)
        t_new = np.where(
            _newton_ok(newton, ai, bi, d, d_last, half_open), newton,
            np.where(half_open, ti - np.copysign(np.maximum(1.0, np.abs(ti)), d),
                     0.5 * (ai + bi)))
        go = t_new != ti  # else the bracket has collapsed to float resolution
        idx, d_last = idx[go], np.abs(d[go])
        if idx.size == 0:
            return t
        a[idx], b[idx], t[idx] = ai[go], bi[go], t_new[go]
        d, c = deriv_and_curv(t[idx], idx)
        run = ~(np.abs(d) <= tol)
        idx, d, c, d_last = idx[run], d[run], c[run], d_last[run]
        if idx.size == 0:
            return t
    raise SliceMinError(max_iter, float(np.abs(d[0])))


def _dot(A: np.ndarray, B: np.ndarray):
    """Inner product of two vectors (BLAS ``@``, whose summation order the
    solver states rely on), or of each row of two equally shaped stacks.

    A stack goes through the same BLAS dot once per row, so each entry
    equals the vector call on that row bit for bit.
    """
    if A.ndim == 1:
        return float(A @ B)
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


class Problem(ABC):
    """A smooth problem over a coordinate box, defined once in image space.

    A family states f(x) = h(Ex) + (terms simple in x) through these hooks,
    each over one point ``(n,)`` or a stack ``(m, n)`` of points:

    - ``_images(X)``: the linear image (``Ex`` plus any offset), and
      ``_cols``, whose row i is the change of the image per unit move of x_i;
    - ``_values_at(X, images)``: the objective;
    - ``_phi(images)``: the image-space derivative the gradient needs;
    - ``_grad(X, phi)``: the gradient, and ``_coord_grad(i, xi, phi, cols)``:
      partial i at a point whose coordinate i is ``xi`` (``cols = _cols[i]``);
    - either ``_slice_curv``, the exact curvature of every coordinate slice
      (exact quadratic slices), or, for a problem over the whole space,
      ``_slice_deriv_curv(t, images, cols, j)``: slice j's first and second
      derivative at t from the image moved there, for a Newton solve on the
      real line.

    Everything else is derived here: the scalar, path and batched oracles,
    both coordinate minimizers and the :class:`ProblemState` of a run.
    """

    n: int
    box: Box
    lipschitz: np.ndarray
    _cols: np.ndarray
    # exact slice curvatures make f a quadratic in x, so a state updates f
    # by an exact Taylor step instead of evaluating it
    _slice_curv: np.ndarray | None = None

    @property
    def image_dim(self) -> int:
        """Length of the linear image the gradient depends on."""
        return self._cols.shape[1]

    @abstractmethod
    def _images(self, X) -> np.ndarray: ...

    @abstractmethod
    def _values_at(self, X, images): ...

    def _phi(self, images) -> np.ndarray:
        return images

    @abstractmethod
    def _grad(self, X, phi) -> np.ndarray: ...

    @abstractmethod
    def _coord_grad(self, i, xi, phi, cols): ...

    _slice_deriv_curv = None  # the Newton families' slices

    def coord_curvature_floor(self) -> np.ndarray:
        """Per-coordinate lower bound on the slice curvature, valid on all of X
        (the exact curvature where the slices are exact quadratics)."""
        return self._slice_curv.copy()

    # -- derived oracles -----------------------------------------------------

    def value(self, x) -> float:
        x = self._check_point(x)
        return float(self._values_at(x, self._images(x)))

    def values(self, X) -> np.ndarray:
        """Objective at each row of an ``(m, n)`` stack of points.

        Evaluated from scratch like :meth:`value`, but the rows are neither
        checked for finiteness nor for feasibility, so an audit can evaluate
        corrupted points; results agree with :meth:`value` to rounding.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"point stack must have shape (m, {self.n}), "
                             f"got {X.shape}")
        return self._values_at(X, self._images(X))

    def gradient(self, x) -> np.ndarray:
        x = self._check_point(x)
        return self._grad(x, self._phi(self._images(x)))

    def coord_gradient(self, x, i: int) -> float:
        x = self._check_point(x)
        return float(self._coord_grad(i, x[i], self._phi(self._images(x)),
                                      self._cols[i]))

    def coord_grads_along(self, x, coords, values) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate gradients along a path of single-coordinate moves.

        The path starts at ``x_0 = x``, and ``x_{r+1}`` is ``x_r`` with
        coordinate ``coords[r]`` set to ``values[r]``.  Returns
        ``(g_before, g_after)``: ``g_before[r]`` is the ``coords[r]``-th
        partial derivative at ``x_r`` and ``g_after[r]`` the same partial at
        ``x_{r+1}``.

        The image of ``x`` is built from scratch and the moves accumulated in
        image space with one cumulative sum: O(b * image_dim) for a path of
        length b.  Agrees with :meth:`coord_gradient` to rounding.
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
        cols = self._cols[coords]
        images = cols * (values - olds)[:, None]
        np.cumsum(images, axis=0, out=images)
        image0 = self._images(x)
        images += image0
        phi = self._phi(images)
        g_after = self._coord_grad(coords, values, phi, cols)
        g_before = np.concatenate([
            self._coord_grad(coords[:1], olds[:1], self._phi(image0[None, :]),
                             cols[:1]),
            self._coord_grad(coords[1:], olds[1:], phi[:-1], cols[1:]),
        ])
        return g_before, g_after

    def slice_minimizers(self, X, images, grads) -> np.ndarray:
        """Minimizer of every coordinate slice at every row of ``X``.

        Entry ``(r, j)`` minimizes f over coordinate j with the others fixed
        at ``X[r]``; ``images`` and ``grads`` are ``_images(X)`` and the
        gradients there.  Exact quadratic slices take the clipped Newton
        point, others :func:`minimize_slices` from ``grads`` on the real line.
        Agrees with :meth:`ProblemState.exact_coord_min` to the slice solver's
        tolerance.
        """
        if self._slice_curv is not None:
            return np.clip(X - grads / self._slice_curv,
                           self.box.lower, self.box.upper)
        m, n = X.shape
        x = X.ravel()

        def deriv_and_curv(t, idx):
            r, j = np.divmod(idx, n)
            cols = self._cols[j]
            return self._slice_deriv_curv(
                t, images[r] + (t - x[idx])[:, None] * cols, cols, j)

        return minimize_slices(deriv_and_curv, x, grads.ravel()).reshape(m, n)

    def start_state(self, x0) -> "ProblemState":
        """A fresh run state at a copy of ``x0``, which must lie in the box."""
        return ProblemState(self, self._check_feasible(x0).copy())

    def gamma(self, w) -> float:
        """Coordinate strong-convexity modulus wrt ``||.||_W``: min_i floor_i/(2 w_i)."""
        w = check_weights(w, self.n)
        return float(np.min(self.coord_curvature_floor() / (2.0 * w)))

    def _check_point(self, x) -> np.ndarray:
        x = _check_vector(x, self.n)
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x

    def _check_feasible(self, x) -> np.ndarray:
        x = self._check_point(x)
        if not self.box.contains(x):
            raise ValueError("point is outside the box")
        return x


class ProblemState:
    """Mutable per-run state owning the current iterate.

    It keeps x and its image, moved by ``image += delta * _cols[i]`` (the
    residual update of Nesterov, SIAM J. Optim. 2012, and Richtarik & Takac,
    arXiv:1107.2848); ``phi`` and the last ``(i, g_i)`` until the image
    moves; and, where every slice is an exact quadratic (``_slice_curv`` is
    set), f, moved by the exact Taylor step of each coordinate move (else
    ``f`` is None and evaluated on demand).  Recorded
    objectives are exact functions of these, so descent holds to rounding.
    """

    __slots__ = ("p", "x", "image", "f", "_phi", "_gi", "_g", "_cols", "_curv")

    def __init__(self, p: Problem, x: np.ndarray):
        self.p = p
        # list items read faster than numpy rows and scalars in a step loop
        self._cols = list(p._cols)
        self._curv = None if p._slice_curv is None else p._slice_curv.tolist()
        self.set_x(x)

    def set_x(self, x: np.ndarray) -> None:
        """Replace the whole iterate (full-vector methods); rebuilds caches.
        ``x`` (float, length n) is kept without a copy: do not modify it later."""
        self.x = x
        self.image = self.p._images(x)
        self._phi = None
        self._gi = -1
        self.f = (None if self._curv is None
                  else float(self.p._values_at(x, self.image)))

    def _image_deriv(self) -> np.ndarray:
        if self._phi is None:
            self._phi = self.p._phi(self.image)
        return self._phi

    def objective(self) -> float:
        if self.f is not None:
            return self.f
        return float(self.p._values_at(self.x, self.image))

    def coord_grad(self, i: int) -> float:
        # A step asks for g_i twice (choosing the move, then set_coord).
        if self._gi != i:
            phi = self._phi if self._phi is not None else self._image_deriv()
            self._g = float(self.p._coord_grad(i, self.x[i], phi, self._cols[i]))
            self._gi = i
        return self._g

    def gradient(self) -> np.ndarray:
        return self.p._grad(self.x, self._image_deriv())

    def set_coord(self, i: int, new: float) -> None:
        delta = new - float(self.x[i])
        if delta == 0.0:
            return
        if self.f is not None:
            self.f += self.coord_grad(i) * delta + 0.5 * self._curv[i] * delta * delta
        self.image += delta * self._cols[i]
        self.x[i] = new
        self._phi = None
        self._gi = -1

    def exact_coord_min(self, i: int) -> float:
        """Minimizer of the i-th coordinate slice over X_i (does not mutate)."""
        p = self.p
        g = self.coord_grad(i)
        xi = float(self.x[i])
        if self._curv is not None:
            return p.box.clip_coord(xi - g / self._curv[i], i)
        col = self._cols[i]
        image = self.image

        def deriv_and_curv(t):
            return p._slice_deriv_curv(t, image + (t - xi) * col, col, i)

        return minimize_slice(deriv_and_curv, xi, g)


def _require_finite(**arrays) -> None:
    """Reject problem data that has NaN or infinite entries."""
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} has non-finite entries")


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
    """f(x) = 0.5 x'Hx + c'x over a box, H symmetric PSD with H_ii > 0.

    The image is the gradient Hx + c, and every slice is an exact quadratic
    with curvature H_ii.
    """

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
        self._cols = self.hessian.T
        self._slice_curv = self.lipschitz

    def _images(self, X):
        return X @ self.hessian.T + self.linear

    def _values_at(self, X, images):
        # x'(Hx + c) + c'x = x'Hx + 2 c'x
        return 0.5 * _dot(X, images + self.linear)

    def _grad(self, X, phi):
        return phi.copy()

    def _coord_grad(self, i, xi, phi, cols):
        return phi[i] if phi.ndim == 1 else phi[np.arange(phi.shape[0]), i]


# ---------------------------------------------------------------------------
# SVM dual


class SvmDualProblem(Problem):
    """Dual of the hinge-loss linear SVM.

    Given rows ``a_i`` and labels ``y_i`` in {-1, +1}:

        f(x) = (1 / (2 lam n^2)) x'Qx - (1/n) 1'x,   Q_ij = y_i y_j <a_i, a_j>

    over the unit cube, with ``L_i = ||a_i||^2 / (lam n^2)``.  The image is
    the unnormalized primal combination ``sum_i x_i y_i a_i``, so Q is never
    materialized and memory stays O(nd); slices are exact quadratics with
    curvature ``L_i``.
    """

    def __init__(self, features, labels, lam: float):
        A = np.ascontiguousarray(features, dtype=float)
        if A.ndim != 2 or len(A) == 0:
            raise ValueError("features must be a 2-d array of row examples, not empty")
        y = _check_vector(labels, A.shape[0], "labels")
        _require_finite(features=A, labels=y)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        row_sq = np.einsum("ij,ij->i", A, A)
        if np.any(row_sq <= 0.0):
            raise ValueError("every example must have a nonzero feature row")
        self.n, self.d = A.shape
        self.lam = float(check_number(lam, "regularizer lam"))
        # rows scaled by their labels; the dual Hessian is (ya)(ya)'/(lam n^2)
        self.ya = A * y[:, None]
        self.box = Box.unit(self.n)
        self.lipschitz = row_sq / (self.lam * self.n**2)
        self._cols = self.ya
        self._slice_curv = self.lipschitz
        self._scale = 1.0 / (self.lam * self.n**2)

    def _images(self, X):
        return X @ self.ya

    def _values_at(self, X, images):
        return (_dot(images, images) / (2.0 * self.lam * self.n**2)
                - X.sum(axis=-1) / self.n)

    def _grad(self, X, phi):
        return phi @ self.ya.T * self._scale - 1.0 / self.n

    def _coord_grad(self, i, xi, phi, cols):
        return _dot(cols, phi) * self._scale - 1.0 / self.n

    def value(self, x) -> float:
        return super().value(self._check_feasible(x))

    def primal_weights(self, x) -> np.ndarray:
        """Primal point w(x) = (1/(lam n)) sum_i x_i y_i a_i."""
        return self._images(self._check_feasible(x)) / (self.lam * self.n)

    def primal_value(self, weights) -> float:
        """Hinge-loss primal objective at a weight vector."""
        return float(self._primal_at(_check_vector(weights, self.d, "weights")))

    def _primal_at(self, W):
        """The primal objective at one weight vector or at each row of a
        stack, each row through the BLAS calls of the single vector."""
        margins = np.matmul(self.ya, W[..., None])[..., 0]
        hinge = np.maximum(0.0, 1.0 - margins)
        return np.mean(hinge, axis=-1) + _dot(0.5 * self.lam * W, W)

    def duality_gap(self, x):
        """Duality gap G(x) = P(w(x)) + f(x); zero exactly at optimality.

        ``x`` may also be an ``(m, n)`` stack of feasible points: the result
        is then the array of their gaps, each equal bit for bit to the call
        on that row.
        """
        X = np.ascontiguousarray(x, dtype=float)
        if X.ndim == 1:
            X = self._check_feasible(X)
            images = self._images(X)
        elif X.ndim == 2 and X.shape[1] == self.n:
            if not (np.all(np.isfinite(X)) and self.box.contains(X)):
                raise ValueError("a point of the stack is non-finite or "
                                 "outside the box")
            images = np.matmul(X[:, None, :], self.ya)[:, 0]
        else:
            raise ValueError(f"points must have shape ({self.n},) or "
                             f"(m, {self.n}), got {X.shape}")
        return self._gap_at(images, self._values_at(X, images))

    def _gap_at(self, image, f):
        """The duality gap at a point (or a stack of points) whose image is
        ``image`` and whose objective is ``f``; solver runs stop on it
        through ``gap_tol``."""
        gap = self._primal_at(image / (self.lam * self.n)) + f
        return float(gap) if image.ndim == 1 else gap


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

    The image is the margins ``Ax`` and ``phi`` the loss derivative there.
    Coordinate Lipschitz constants: the loss curvature is bounded by 1/4
    (logistic) or 2 (squared, squared hinge), so L_c = c_max/N * sum_j
    a_{j,c}^2 + lam.  The regularizer makes every slice lam-strongly convex;
    squared-loss slices are exact quadratics with curvature L_c.
    """

    def __init__(self, points, labels, lam: float, loss: str = "logistic"):
        A = np.ascontiguousarray(points, dtype=float)
        if A.ndim != 2 or len(A) == 0:
            raise ValueError("points must be a 2-d array of row examples, not empty")
        y = _check_vector(labels, A.shape[0], "labels")
        _require_finite(points=A, labels=y)
        if loss not in _LOSSES:
            raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(_LOSSES)}")
        if loss in ("logistic", "squared_hinge") and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError(f"{loss} loss requires labels in {{-1, +1}}")
        self.points = A.copy()
        self.labels = y.copy()
        self.lam = float(check_number(lam, "regularizer lam"))
        self.loss = loss
        self._lo = _LOSSES[loss]
        self.n_points = A.shape[0]
        self.n = A.shape[1]
        self.box = Box.free(self.n)
        points_sq = A * A
        self.lipschitz = (self._lo.curv_max * points_sq.sum(axis=0) / self.n_points
                          + self.lam)
        self._cols = self.points.T
        self._cols_sq = points_sq.T
        self._inv_n = 1.0 / self.n_points
        if loss == "squared":
            self._slice_curv = self.lipschitz

    def _images(self, X):
        return X @ self.points.T

    def _values_at(self, X, images):
        # the sum and the division that .mean() makes, without its wrapper
        return (self._lo.values(images, self.labels).sum(axis=-1) / self.n_points
                + 0.5 * self.lam * _dot(X, X))

    def _phi(self, images):
        return self._lo.deriv(images, self.labels)

    def _grad(self, X, phi):
        return phi @ self.points / self.n_points + self.lam * X

    def _coord_grad(self, i, xi, phi, cols):
        return _dot(phi, cols) / self.n_points + self.lam * xi

    def _slice_deriv_curv(self, t, images, cols, j):
        d1, d2 = self._lo.deriv_pair(images, self.labels)
        return (_dot(d1, cols) * self._inv_n + self.lam * t,
                _dot(d2, self._cols_sq[j]) * self._inv_n + self.lam)

    def coord_curvature_floor(self) -> np.ndarray:
        # Loss curvature is nonnegative, so lam is a uniform floor.
        return np.full(self.n, self.lam)

    def newton_minimizer(self) -> tuple[np.ndarray, float]:
        """The minimizer x* and f* = f(x*), by damped Newton from the origin.

        Each step solves with the n x n Hessian ``A' diag(loss'') A / N + lam
        I``, from the curvatures of ``deriv_pair``, and is halved until it
        passes the Armijo test with slack ``f_noise(f)`` (or is under an
        ulp); squared hinge's Hessian is piecewise constant, so a full step
        can overshoot a kink.
        The solve stops on the gradient: once the Newton decrement is within
        the rounding floor of f, at the first step that does not lower
        ||grad f||_inf, keeping the point with the least ||grad f||_inf.
        """
        A, y, inv_n = self.points, self.labels, self._inv_n
        ridge = self.lam * np.eye(self.n)
        x = np.zeros(self.n)
        best_x, best_g = x, math.inf
        for _ in range(_NEWTON_MAX_ITER):
            u = A @ x
            d1, d2 = self._lo.deriv_pair(u, y)
            g = self._grad(x, d1)
            g_max = float(np.max(np.abs(g)))
            f = float(self._values_at(x, u))
            lowered = g_max < best_g
            if lowered:
                best_x, best_g = x, g_max
            step = np.linalg.solve((A.T * d2) @ A * inv_n + ridge, -g)
            slope = float(g @ step)
            if g_max == 0.0 or (not lowered and -slope <= f_noise(f)):
                break
            t = 1.0
            while True:
                x_t = x + t * step
                f_t = float(self._values_at(x_t, A @ x_t))
                if f_t <= f + _ARMIJO_C * t * slope + f_noise(f) or t < _EPS:
                    break
                t *= 0.5
            x = x_t
        return best_x, float(self._values_at(best_x, A @ best_x))


# Damped Newton's sufficient-decrease constant and its iteration cap; from the
# origin the solves on the tests' ERM instances take 4 to 11 steps.
_ARMIJO_C = 1e-4
_NEWTON_MAX_ITER = 100


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
    """Least-squares lasso, reformulated over the doubled orthant.

    The original objective ``0.5 ||A v - b||^2 + q'v + l1 ||v||_1`` in
    dimension d becomes

        f([x+; x-]) = 0.5 ||A (x+ - x-) - b||^2 + q'(x+ - x-) + l1 1'x+ + l1 1'x-

    over ``[0, inf)^{2d}``.  The image is ``A (x+ - x-)`` and ``phi`` the
    residual ``A (x+ - x-) - b``; lifted coordinate j + d moves the image
    along ``-A[:, j]``.  Every slice is an exact quadratic with curvature
    ``||A[:, j]||^2``, which is also the coordinate Lipschitz constant.
    """

    def __init__(self, design, target=None, q=None, l1: float = 0.0):
        A = np.ascontiguousarray(design, dtype=float)
        if A.ndim != 2 or len(A) == 0:
            raise ValueError("design must be a 2-d array of row examples, not empty")
        m, d = A.shape
        self.design = A.copy()
        self.d_orig = d
        self.q = np.zeros(d) if q is None else _check_vector(q, d, "q")
        b = np.zeros(m) if target is None else _check_vector(target, m, "target")
        _require_finite(design=A, q=self.q, target=b)
        self.target = b.copy()
        self.l1 = float(check_number(l1, "l1 weight", inclusive=True))
        col_sq = np.einsum("ij,ij->j", A, A)
        if np.any(col_sq <= 0.0):
            raise ValueError("design has a zero column; drop unused variables")
        self.n = 2 * d
        self.box = Box.nonneg(self.n)
        self.lipschitz = np.tile(col_sq, 2)
        # rows are strided column views, as the dots of the states need
        self._cols = np.concatenate([self.design, -self.design], axis=1).T
        self._q_lift = np.concatenate([self.q, -self.q])
        self._slice_curv = self.lipschitz

    def _h_value(self, U):
        R = U - self.target
        return 0.5 * _dot(R, R)

    def inner_value(self, v) -> float:
        """Original-space objective ``0.5 ||Av - b||^2 + q'v + l1 ||v||_1``."""
        v = _check_vector(v, self.d_orig, "v")
        return float(self._h_value(self.design @ v) + self.q @ v
                     + self.l1 * np.sum(np.abs(v)))

    def _images(self, Z):
        d = self.d_orig
        return (Z[..., :d] - Z[..., d:]) @ self.design.T

    def _values_at(self, Z, images):
        d = self.d_orig
        return (self._h_value(images) + (Z[..., :d] - Z[..., d:]) @ self.q
                + self.l1 * Z.sum(axis=-1))

    def _phi(self, images):
        return images - self.target

    def _grad(self, Z, phi):
        g = phi @ self.design + self.q
        return np.concatenate([g + self.l1, -g + self.l1], axis=-1)

    def _coord_grad(self, i, xi, phi, cols):
        return _dot(cols, phi) + self._q_lift[i] + self.l1

