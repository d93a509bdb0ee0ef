"""Linear-rate constants, their empirical counterparts, and conditioning tools.

Calculators for the geometric contraction factors of the randomized
feasible-descent frameworks, the iteration bound that drives the duality gap
of the SVM dual below a target, quadratic-growth (weak strong convexity)
estimation from traces, and a toy-scale combinatorial evaluation of the
Hoffman polyhedral conditioning constant.

The framework theorems bound expectations; empirical comparisons should
always aggregate means over many seeds, never single trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import check_number, check_weights, weighted_norm_sq
from .problems import Problem, QuadraticProblem, f_noise
from .solvers import Trace


@dataclass(frozen=True)
class RateConstants:
    """Per-iteration contraction descriptor of a convergence bound.

    ``factor`` is the geometric ratio of the bound right-hand side:
    ``c / (1 + c)`` for the full-expectation framework and ``1 - c`` for the
    coordinate frameworks.
    """

    framework: str
    c: float
    factor: float
    inputs: dict = field(default_factory=dict)


def rate_rfdm(kappa_f: float, zeta: float, beta: float, omega_bar: float,
              l_f_w: float) -> RateConstants:
    """Expectation-framework contraction: factor (c/(1+c))^k with
    c = (2/(kappa_f zeta)) [(L_f^W + 1/omega_bar)^2 + beta^2]."""
    for name, value in dict(kappa_f=kappa_f, zeta=zeta, omega_bar=omega_bar,
                            l_f_w=l_f_w).items():
        check_number(value, name)
    check_number(beta, "beta", inclusive=True)
    c = (2.0 / (kappa_f * zeta)) * ((l_f_w + 1.0 / omega_bar) ** 2 + beta**2)
    return RateConstants(
        framework="rfdm", c=c, factor=c / (1.0 + c),
        inputs={"kappa_f": kappa_f, "zeta": zeta, "beta": beta,
                "omega_bar": omega_bar, "l_f_w": l_f_w},
    )


def rate_rcfdm_zero_z(kappa: float, omega_bar: float, n: int) -> RateConstants:
    """Coordinate framework with zero correction: factor (1-c)^k with
    c = 2 omega_bar kappa / (n (2 omega_bar kappa + 1)).

    The bound's right-hand side carries the additive start-distance term
    ``||x_0 - xbar_0||_W^2 / (2 omega_bar)``; its coefficient is echoed in
    ``inputs['initial_penalty_coeff']``.
    """
    check_number(kappa, "kappa")
    check_number(omega_bar, "omega_bar")
    check_number(n, "n", integer=True)
    t = 2.0 * omega_bar * kappa
    c = t / (n * (t + 1.0))
    return RateConstants(
        framework="rcfdm-zero", c=c, factor=1.0 - c,
        inputs={"kappa": kappa, "omega_bar": omega_bar, "n": n,
                "initial_penalty_coeff": 1.0 / (2.0 * omega_bar)},
    )


def rate_rcfdm_general(kappa_f: float, zeta: float, beta: float,
                       omega_bar: float, n: int) -> RateConstants:
    """Coordinate framework with nonzero correction, two-branch factor.

    The branch is selected by whether ``omega_bar kappa_f / (omega_bar + 1)``
    reaches 1 (the clipped minimizer of the inner line search):

    * below 1:  factor = 1 - (1/2n) * (omega_bar kappa_f/(omega_bar+1))
                             * 2 zeta / (2 zeta + 2 beta + beta^2)
    * at/above: factor = 1 - zeta / (n (2 zeta + 2 beta + beta^2))

    The paper prints the low branch with the linear-in-beta denominator
    ``2 zeta + 2 beta + beta``; the quadratic one is used in both branches
    here, which makes the factor continuous at the branch boundary.
    """
    for name, value in dict(kappa_f=kappa_f, zeta=zeta, omega_bar=omega_bar).items():
        check_number(value, name)
    check_number(beta, "beta", inclusive=True)
    check_number(n, "n", integer=True)
    lam_arg = omega_bar * kappa_f / (omega_bar + 1.0)
    denom = 2.0 * zeta + 2.0 * beta + beta**2
    if lam_arg < 1.0:
        c = (0.5 / n) * lam_arg * (2.0 * zeta / denom)
        branch = "clip-inactive"
    else:
        c = zeta / (n * denom)
        branch = "clip-active"
    return RateConstants(
        framework="rcfdm-general", c=c, factor=1.0 - c,
        inputs={"kappa_f": kappa_f, "zeta": zeta, "beta": beta,
                "omega_bar": omega_bar, "n": n, "branch": branch},
    )


@dataclass
class GapReport:
    """Duality-gap iteration bound and (optionally) its observed counterpart."""

    epsilon: float
    s: float
    sigma_sq: float
    iteration_bound: int
    kappa_f: float
    initial_bound: float
    observed_iteration: Optional[int] = None
    mean_gap_at_bound: Optional[float] = None
    n_seeds: Optional[int] = None


def sdca_iteration_bound(epsilon: float, lam: float, sigma_sq: float, n: int,
                         kappa_f: float, initial_bound: float) -> GapReport:
    """Iterations after which the expected duality gap is below ``epsilon``.

    With s = min{1, epsilon lam / sigma_sq},

        K = ceil( n (1 + 1/(2 kappa_f)) log( 2 initial_bound / (s epsilon) ) )

    where ``initial_bound = f(0) - f* + ||x*||_L^2`` comes from a
    high-precision reference solve.  A nonpositive log argument gives K = 0.
    """
    for name, value in dict(epsilon=epsilon, lam=lam, sigma_sq=sigma_sq,
                            kappa_f=kappa_f, initial_bound=initial_bound).items():
        check_number(value, name)
    check_number(n, "n", integer=True)
    s = min(1.0, epsilon * lam / sigma_sq)
    arg = 2.0 * initial_bound / (s * epsilon)
    k = 0 if arg <= 1.0 else math.ceil(n * (1.0 + 0.5 / kappa_f) * math.log(arg))
    return GapReport(epsilon=float(epsilon), s=float(s), sigma_sq=float(sigma_sq),
                     iteration_bound=int(k), kappa_f=float(kappa_f),
                     initial_bound=float(initial_bound))


# ---------------------------------------------------------------------------
# conditioning estimates


def svm_sigma_sq(p) -> float:
    """Gap-bound constant sigma^2 = ||A|| / n for the label-scaled data matrix,
    with ||A|| its largest singular value from an exact SVD (an estimate from
    below would make the iteration bound optimistic)."""
    return float(np.linalg.norm(p.ya, 2)) / p.n


# Squared W-distance to the solution set below which a snapshot is skipped.
_KAPPA_DENOM_FLOOR = 1e-16


def _solution_set_projector(p: Problem, x_star, w: np.ndarray):
    """The W-projection onto the solution set of ``p``, or None where x* is
    the unique minimizer.

    An unconstrained quadratic with singular Hessian has the affine solution
    set x* + null(H); the null-space basis is computed once per call.
    """
    if not (isinstance(p, QuadraticProblem) and p.box.is_free()):
        return None
    evals, evecs = np.linalg.eigh(p.hessian)
    scale = float(np.max(np.abs(evals))) or 1.0
    null = evecs[:, np.abs(evals) <= 1e-10 * scale]
    if null.shape[1] == 0:
        return None
    wn = w[:, None] * null
    gram = null.T @ wn

    def project(x):
        return x_star + null @ np.linalg.solve(gram, wn.T @ (x - x_star))

    return project


def estimate_kappa_f(p: Problem, trace: Trace, x_star, f_star: float, w) -> float:
    """Empirical quadratic-growth modulus along a trace.

    Returns the minimum of ``(f(x_k) - f*) / ||x_k - xbar_k||_W^2`` over the
    trace's snapshots, skipping points whose denominator falls below 1e-16
    or whose objective excess falls below the rounding floor of f* (the
    ratio cannot be measured there).  ``xbar_k`` is ``x_star``, the unique
    minimizer, except for an unconstrained quadratic with singular Hessian,
    where it is the W-projection of x_k onto the affine solution set.

    Raises ``ValueError`` when the trace sits entirely at the optimum.
    """
    w = check_weights(w, p.n)
    x_star = np.asarray(x_star, dtype=float)
    project = _solution_set_projector(p, x_star, w)
    floor = f_noise(f_star)
    best = np.inf
    for x in trace.snap_x:
        xbar = x_star if project is None else project(x)
        denom = weighted_norm_sq(x - xbar, w)
        if denom < _KAPPA_DENOM_FLOOR:
            continue
        excess = p.value(x) - f_star
        if excess <= floor:
            continue
        best = min(best, excess / denom)
    if not np.isfinite(best):
        raise ValueError("trace is entirely at the optimum; kappa_f is undefined")
    return float(best)


# measured_rate fits the trailing half of the points above f*, and needs 10.
_RATE_TAIL = 0.5
_RATE_MIN_POINTS = 10


def measured_rate(f, f_star: float) -> float:
    """Empirical per-iteration geometric factor of f(x_k) - f*.

    ``f`` is the objective sequence f(x_0), f(x_1), ..., such as a trace's
    ``f`` or a mean over seeds.  Least-squares slope of log(f(x_k) - f*)
    against k over the trailing half of the iterations with a positive
    objective excess, of which there must be at least 10; returns
    exp(slope).
    """
    f = np.asarray(f, dtype=float)
    ks = np.arange(f.shape[0])
    pos = f > f_star
    ks, excess = ks[pos], f[pos] - f_star
    start = int(np.floor(len(ks) * (1.0 - _RATE_TAIL)))
    ks, excess = ks[start:], excess[start:]
    if len(ks) < _RATE_MIN_POINTS:
        raise ValueError(f"need at least {_RATE_MIN_POINTS} trace points "
                         f"above f_star, got {len(ks)}")
    slope = np.polyfit(ks, np.log(excess), 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# Hoffman constant (toy scale)


# Row cap of hoffman_theta_bruteforce: 2^12 supports at most.
_HOFFMAN_MAX_ROWS = 12


def hoffman_theta_bruteforce(a_rows, b_rows=None, q=None) -> float:
    """Hoffman conditioning constant by exhaustive support enumeration.

    Maximizes ``||(u, v)||`` subject to ``||B'u + [A; q']' v|| = 1`` with
    ``u >= 0`` and the selected rows linearly independent, where u ranges
    over rows of B and v over rows of the stacked matrix [A; q'].  For each
    linearly independent support the maximizer is the reciprocal smallest
    singular value of the selected-row matrix; supports whose maximizer
    violates the sign constraint on u (for both signs) are discarded.

    Enumeration is exponential in the row count, hence the hard cap of
    12 rows in B and [A; q'] together.
    """
    A = np.atleast_2d(np.asarray(a_rows, dtype=float))
    ncols = A.shape[1]
    if b_rows is None or len(b_rows) == 0:
        B = np.zeros((0, ncols))
    else:
        B = np.atleast_2d(np.asarray(b_rows, dtype=float))
        if B.shape[1] != ncols:
            raise ValueError("B rows must match the column count of A")
    q = np.zeros(ncols) if q is None else np.asarray(q, dtype=float)
    if q.shape != (ncols,):
        raise ValueError("q must match the column count of A")
    M = np.vstack([A, q[None, :]])
    n_b, n_m = B.shape[0], M.shape[0]
    total = n_b + n_m
    if total > _HOFFMAN_MAX_ROWS:
        raise ValueError(f"{total} rows exceeds the enumeration cap "
                         f"{_HOFFMAN_MAX_ROWS}")

    rows = np.vstack([B, M]) if n_b else M
    best = 0.0
    indices = list(range(total))
    for size in range(1, min(total, ncols) + 1):
        for support in itertools.combinations(indices, size):
            sel = rows[list(support)]
            if np.linalg.matrix_rank(sel, tol=1e-12) < size:
                continue
            # columns of C are the selected rows; ||C t|| = 1, maximize ||t||
            u_mat, s, vt = np.linalg.svd(sel.T, full_matrices=False)
            sigma_min = s[-1]
            if sigma_min <= 1e-300:
                continue
            t = vt[-1] / sigma_min
            u_positions = [j for j, r in enumerate(support) if r < n_b]
            if u_positions:
                u_part = t[u_positions]
                if np.all(u_part >= 0.0):
                    pass
                elif np.all(-u_part >= 0.0):
                    t = -t
                else:
                    continue
            best = max(best, float(np.linalg.norm(t)))
    return best


def kappa_from_theta(sigma_h: float, theta: float) -> float:
    """Quadratic-growth modulus from the Hoffman constant: sigma_h / (2 theta^2)."""
    check_number(sigma_h, "sigma_h")
    check_number(theta, "theta")
    return sigma_h / (2.0 * theta**2)
