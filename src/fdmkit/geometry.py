"""Diagonally weighted geometry: norms, dual norms, box projection.

For a strictly positive weight vector ``w`` the primal norm is
``||x||_W^2 = sum_i w_i x_i^2`` and its dual is
``(||y||_W*)^2 = sum_i y_i^2 / w_i``.  Feasible sets are coordinate boxes
(possibly unbounded on either side), for which the W-weighted projection
separates per coordinate and reduces to clipping regardless of ``w``.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

# Absolute slack allowed when testing box membership of computed points;
# projection outputs must test feasible despite rounding.
FEASIBILITY_TOL = 1e-12


def check_weights(w, n: int | None = None) -> np.ndarray:
    """Validate and return a weight vector (finite, strictly positive)."""
    w = np.ascontiguousarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weights must be a 1-d vector, got shape {w.shape}")
    if n is not None and w.shape[0] != n:
        raise ValueError(f"weight vector has length {w.shape[0]}, expected {n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    return w


def check_number(value, name: str, *, integer: bool = False, minimum=0,
                 inclusive: bool = False, below=math.inf):
    """``value`` if it is a number (an integer if ``integer``) above
    ``minimum`` (or equal to it if ``inclusive``) and below ``below``, whose
    size a float holds, else a ``ValueError`` naming ``name``.  A bool is not
    a number here, and an int is compared exactly, never converted, so an int
    too large for a float fails here rather than overflow later."""
    if (not isinstance(value, bool) and isinstance(value, Integral if integer else Real)
            and abs(value) <= sys.float_info.max
            and (minimum <= value if inclusive else minimum < value) and value < below):
        return value
    what = "integer" if integer else "number"
    if minimum == 0:
        what = ("nonnegative " if inclusive else "positive ") + what
    elif minimum > -math.inf:
        what += f" {'>=' if inclusive else '>'} {minimum}"
    if below < math.inf:
        pow2 = isinstance(below, int) and below & (below - 1) == 0
        what += f" below {f'2**{below.bit_length() - 1}' if pow2 else below}"
    raise ValueError(f"{name} must be a {'' if integer else 'finite '}{what}, "
                     f"got {value!r}")


def _check_vector(x, n: int | None = None, name: str = "x") -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {n}")
    return x


@dataclass(frozen=True)
class Box:
    """Separable feasible set ``X = prod_i [lower_i, upper_i]``.

    Bounds may be ``-inf`` / ``+inf`` (no clipping on that side); every
    interval must be nonempty and nondegenerate (``lower_i < upper_i``).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.ascontiguousarray(self.lower, dtype=float).copy()
        up = np.ascontiguousarray(self.upper, dtype=float).copy()
        if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape:
            raise ValueError("box bounds must be 1-d vectors of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ValueError("box bounds must not be NaN")
        if not np.all(lo < up):
            raise ValueError("box requires lower[i] < upper[i] for all i")
        lo.setflags(write=False)
        up.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        # Python floats: clip_coord runs once per coordinate step
        object.__setattr__(self, "_bounds", list(zip(lo.tolist(), up.tolist())))

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def unit(cls, n: int) -> "Box":
        """The unit cube [0, 1]^n."""
        return cls(np.zeros(n), np.ones(n))

    @classmethod
    def nonneg(cls, n: int) -> "Box":
        """The nonnegative orthant [0, inf)^n."""
        return cls(np.zeros(n), np.full(n, np.inf))

    @classmethod
    def free(cls, n: int) -> "Box":
        """The whole space (no constraints)."""
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    @classmethod
    def cube(cls, n: int, lo: float, hi: float) -> "Box":
        return cls(np.full(n, float(lo)), np.full(n, float(hi)))

    def is_free(self) -> bool:
        return bool(np.all(np.isinf(self.lower)) and np.all(np.isinf(self.upper)))

    def contains(self, x) -> bool:
        """Whether ``x``, or every row of an ``(m, n)`` stack, lies in the box
        up to ``FEASIBILITY_TOL``."""
        x = np.asarray(x, dtype=float)
        if not (x.ndim == 2 and x.shape[1] == self.n):
            x = _check_vector(x, self.n)
        return bool(np.all(x >= self.lower - FEASIBILITY_TOL)
                    and np.all(x <= self.upper + FEASIBILITY_TOL))

    def violation(self, x) -> float:
        """Largest one-sided bound violation of ``x`` (0 if feasible).

        ``x`` may also be an ``(m, n)`` stack of points; the result is then
        the largest violation over all rows.
        """
        x = np.asarray(x, dtype=float)
        if not (x.ndim == 2 and x.shape[1] == self.n):
            x = _check_vector(x, self.n)
        below = np.max(self.lower - x, initial=0.0)
        above = np.max(x - self.upper, initial=0.0)
        return float(max(below, above))

    def clip(self, x) -> np.ndarray:
        """W-weighted projection of ``x`` onto the box, for any positive ``w``.

        The weighted least-squares objective separates over coordinates with
        positive weights, so the minimizer is coordinate-wise clipping whatever
        the weights are.
        """
        x = _check_vector(x, self.n)
        return np.clip(x, self.lower, self.upper)

    def clip_coord(self, value: float, i: int) -> float:
        lo, up = self._bounds[i]
        return float(min(max(value, lo), up))


def weighted_norm_sq(x, w) -> float:
    """Squared weighted norm ``sum_i w_i x_i^2``."""
    x = _check_vector(x)
    w = _check_vector(w, x.shape[0], "w")
    return float(np.dot(w, x * x))


def weighted_dual_norm_sq(y, w) -> float:
    """Squared dual norm ``sum_i y_i^2 / w_i``."""
    y = _check_vector(y)
    w = _check_vector(w, y.shape[0], "w")
    return float(np.dot(y * y, 1.0 / w))


def projected_gradient(x, grad, box: Box) -> np.ndarray:
    """Projected gradient ``x - proj(x - grad)``; zero exactly at optima."""
    x = _check_vector(x, box.n)
    grad = _check_vector(grad, box.n, "grad")
    return x - box.clip(x - grad)
