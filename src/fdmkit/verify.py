"""Empirical certification of the randomized feasible-descent inequalities.

Given a coordinate-descent trace, this module rebuilds the per-iteration
correction vectors z_k, replays the projected update to confirm the trace is
exactly a randomized (coordinate) feasible-descent sequence, and extracts the
smallest correction constant (beta_hat^2) and largest sufficient-decrease
constant (zeta_hat) realized along the run.  Certificates compare those
against the theoretical constants of the framework.

Two modes:

* coordinate mode: the inequalities are checked per realized coordinate step;
* expectation mode (unconstrained problems, exact minimization only): the
  conditional expectations over the coordinate choice are computed exactly by
  enumerating all n candidate coordinates at each checked iteration, never by
  Monte Carlo.

Both modes walk the trace in chunks sized by the problem's image dimension
and evaluate a chunk with batched array operations.  Everything is rebuilt
from scratch at the chunk's iterates, never read from the solver's
incremental caches: coordinate mode evaluates gradients along the chunk's
path from one image, and expectation mode solves the n candidate slices of
all the chunk's checked iterations in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import check_weights, weighted_dual_norm_sq
from .problems import (SLICE_DERIV_TOL, Problem, global_lipschitz_bound,
                       path_start_values)
from .solvers import Trace, OPTION_I, OPTION_II

REPLAY_TOL = 1e-9
PASS_REL_SLACK = 1e-9
_EPS = float(np.finfo(float).eps)
# Snapshots per batched objective evaluation in the invariant audit; bounds
# the (block, inner dimension) temporaries of Problem.values.
_AUDIT_BLOCK = 256
# Bytes of one (chunk, image_dim) temporary of the rcfdm replay.
_REPLAY_CHUNK_BYTES = 1 << 20
# Bytes of one (candidate rows, image_dim) temporary of the rfdm
# enumeration.  On the 200x20 logistic benchmark run, 1 MiB chunks raised the
# peak memory from 44 to 51 MB and one chunk for the whole trace to 168 MB,
# neither of them faster.
_RFDM_CHUNK_BYTES = 1 << 17


def _f_noise(f_k):
    """Resolution of a recorded objective difference (a few ulps of f);
    elementwise on arrays."""
    return 32.0 * _EPS * np.maximum(1.0, np.abs(f_k))


def _z_noise(g_here, g_tilde, w_i, old, new, g_origin):
    """Absolute rounding scale of the reconstructed correction entry;
    elementwise on arrays.

    A coordinate gradient is its value at the origin, ``g_origin``, plus a
    part that varies with x.  Near a minimizer the two parts cancel, so the
    rounding of g follows their size, not the size of g alone.
    """
    return 32.0 * _EPS * (abs(g_here) + abs(g_tilde) + 2.0 * abs(g_origin)
                          + w_i * (abs(old) + abs(new)))


class ReplayError(RuntimeError):
    """The projected update with the reconstructed z does not reproduce the trace."""

    def __init__(self, k: int, error: float):
        self.k = k
        self.error = error
        super().__init__(
            f"update replay mismatch at iteration {k}: |error| = {error:.3e} "
            f"(tolerance {REPLAY_TOL:.0e})"
        )


@dataclass
class ZReconstruction:
    """Correction vector for one exact-minimization step.

    In coordinate mode entries away from the chosen coordinate are zero;
    in expectation mode they carry the full gradient of the current iterate.
    """

    k: int
    i: int
    z: np.ndarray
    dual_norm_sq: float
    mode: str


@dataclass
class Certificate:
    """Outcome of certifying one trace against one framework's constants."""

    framework: str               # 'rcfdm' or 'rfdm'
    option: str
    beta_hat_sq: float
    zeta_hat: float
    beta_sq_theory: float
    zeta_theory: float
    n_checked: int
    worst_beta_k: Optional[int]
    worst_zeta_k: Optional[int]
    passed: bool
    eta_hat: Optional[float] = None   # raw expectation ratio (relaxed constant)
    inputs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def fin(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "framework": self.framework,
            "option": self.option,
            "beta_hat_sq": fin(self.beta_hat_sq),
            "zeta_hat": fin(self.zeta_hat),
            "beta_sq_theory": fin(self.beta_sq_theory),
            "zeta_theory": fin(self.zeta_theory),
            "n_checked": self.n_checked,
            "worst_beta_k": self.worst_beta_k,
            "worst_zeta_k": self.worst_zeta_k,
            "passed": self.passed,
            "eta_hat": fin(self.eta_hat),
            "inputs": self.inputs,
        }


def _certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, zeta_theory) -> bool:
    return bool(beta_hat_sq <= beta_sq_theory * (1.0 + PASS_REL_SLACK)
                and zeta_hat >= zeta_theory * (1.0 - PASS_REL_SLACK))


def reconstruct_z_option1(p: Problem, x_k, i: int, x_tilde_i: float, w,
                          k: int = 0, mode: str = "rcfdm") -> ZReconstruction:
    """Rebuild the correction vector of an exact coordinate-minimization step.

    Coordinate ``i`` combines the coordinate-gradient change between the
    current iterate and the slice minimizer with the weighted displacement
    ``w_i (x_tilde_i - x_k[i])``; the displacement term carries the sign that
    makes the projected update reproduce x_{k+1} exactly.  Other coordinates
    are the plain gradient entries (expectation mode) or zero (coordinate
    mode).
    """
    if mode not in ("rcfdm", "rfdm"):
        raise ValueError("mode must be 'rcfdm' or 'rfdm'")
    w = check_weights(w, p.n)
    x_k = np.asarray(x_k, dtype=float)
    gi_here = p.coord_gradient(x_k, i)
    x_t = x_k.copy()
    x_t[i] = x_tilde_i
    gi_tilde = p.coord_gradient(x_t, i)
    zi = gi_here - gi_tilde + w[i] * (x_tilde_i - x_k[i])
    if mode == "rfdm":
        z = p.gradient(x_k)
        z[i] = zi
        dual = weighted_dual_norm_sq(z, w)
    else:
        z = np.zeros(p.n)
        z[i] = zi
        dual = zi * zi / w[i]
    return ZReconstruction(k=k, i=i, z=z, dual_norm_sq=float(dual), mode=mode)


def _assign_last(x: np.ndarray, coords: np.ndarray, values: np.ndarray) -> None:
    """Apply a run of coordinate assignments to ``x`` in place: each
    coordinate takes the last value the run assigns it."""
    c_last, pos = np.unique(coords[::-1], return_index=True)
    x[c_last] = values[::-1][pos]


def _fold_max(ratios, ks, best: float, best_k):
    """Fold a chunk's ratios into a running maximum ``(best, best_k)``.

    The first index of the largest ratio wins, as a strict running
    comparison finds, and a NaN ratio never wins.
    """
    if ratios.size:
        j = int(np.argmax(np.where(np.isnan(ratios), -np.inf, ratios)))
        if ratios[j] > best:
            return float(ratios[j]), int(ks[j])
    return best, best_k


def check_rcfdm(trace: Trace, p: Problem, w=None, option: Optional[str] = None,
                gamma: Optional[float] = None, l_f_w: Optional[float] = None,
                check_every: int = 1) -> Certificate:
    """Certify a coordinate-descent trace in coordinate mode.

    Every checked iteration is replayed through the projected update
    (hard :class:`ReplayError` beyond 1e-9), and per-iteration ratios give
    the empirical constants.  Option II asserts an identically zero
    correction.  Theory constants: ``beta^2 = 2[(L_f^W)^2 + 1]`` for exact
    minimization, ``beta = 0`` for projected coordinate-gradient steps;
    sufficient decrease ``zeta = gamma`` for both.

    The trace is walked in chunks that start at fixed multiples of a chunk
    length set by ``p.image_dim``.  x is rebuilt at each chunk start by
    assigning the recorded values, and :meth:`Problem.coord_grads_along`
    evaluates the chunk's gradients from scratch there, independently of
    the solver's incremental caches.  A non-finite recorded value raises
    ``ValueError`` unless a replay fails at an earlier checked iteration.
    """
    option = option or trace.option
    if option not in (OPTION_I, OPTION_II):
        raise ValueError("trace does not carry a coordinate-descent option")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    w = check_weights(trace.w if w is None else w, p.n)
    gamma_val = p.gamma(w) if gamma is None else float(gamma)
    lfw = global_lipschitz_bound(p.lipschitz, w) if l_f_w is None else float(l_f_w)
    beta_sq_theory = 0.0 if option == OPTION_II else 2.0 * (lfw**2 + 1.0)

    coords = trace.coords
    values = trace.new_values
    if np.any(coords < 0):
        raise ValueError("trace contains full-vector steps; walk snapshots instead")
    non_finite = np.flatnonzero(~np.isfinite(values))
    end = int(non_finite[0]) if non_finite.size else len(trace)
    chunk = max(1, _REPLAY_CHUNK_BYTES // (8 * p.image_dim))
    lower, upper = p.box.lower, p.box.upper
    f = trace.f
    omegas = trace.omegas

    beta_hat_sq = 0.0
    zeta_hat = np.inf
    worst_beta_k = None
    worst_zeta_k = None
    n_checked = 0
    x = trace.x0.copy()
    g_origin = p.gradient(np.zeros(p.n))
    for a in range(0, end, chunk):
        b = min(a + chunk, end)
        c = coords[a:b]
        new = values[a:b]
        old = path_start_values(x, c, new)
        g, g_tilde = p.coord_grads_along(x, c, new)
        _assign_last(x, c, new)  # x_b

        w_c = w[c]
        if option == OPTION_I:
            z = g - g_tilde + w_c * (new - old)
            z_eff = np.maximum(0.0, np.abs(z) - _z_noise(g, g_tilde, w_c, old, new,
                                                            g_origin[c]))
        else:
            z = z_eff = np.zeros(b - a)
        replayed = np.clip(old - (omegas[a:b] / w_c) * (g - z),
                           lower[c], upper[c])
        err = np.abs(replayed - new)
        checked = np.arange(a, b) % check_every == 0
        failed = np.flatnonzero(checked & (err > REPLAY_TOL))
        if failed.size:
            raise ReplayError(a + int(failed[0]), float(err[failed[0]]))
        n_checked += int(np.count_nonzero(checked))

        # a step that does not move has no correction and is skipped
        ks = np.flatnonzero(checked & (new != old))
        w_k = w_c[ks]
        # float_power calls the C pow, as a Python float's ``** 2`` does;
        # pow is not always correctly rounded, so d * d can differ in the
        # last ulp and move zeta_hat
        disp = w_k * np.float_power(new[ks] - old[ks], 2.0)
        beta = (z_eff[ks] * z_eff[ks] / w_k) / disp
        f_k = f[a + ks]
        zeta = (f_k - f[a + ks + 1] + _f_noise(f_k)) / disp
        beta_hat_sq, worst_beta_k = _fold_max(beta, a + ks, beta_hat_sq,
                                              worst_beta_k)
        neg_zeta, worst_zeta_k = _fold_max(-zeta, a + ks, -zeta_hat,
                                           worst_zeta_k)
        zeta_hat = -neg_zeta
    if end < len(trace):
        raise ValueError(f"recorded value at iteration {end} is not finite")
    passed = _certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, gamma_val)
    return Certificate(
        framework="rcfdm", option=option,
        beta_hat_sq=float(beta_hat_sq), zeta_hat=float(zeta_hat),
        beta_sq_theory=float(beta_sq_theory), zeta_theory=gamma_val,
        n_checked=n_checked, worst_beta_k=worst_beta_k,
        worst_zeta_k=worst_zeta_k, passed=passed,
        inputs={"l_f_w": lfw, "gamma": gamma_val, "check_every": check_every},
    )


def default_rfdm_check_every(n: int, iters: int, budget: int = 100_000) -> int:
    """Stride keeping the expectation check within ``budget`` coordinate
    gradient evaluations (it costs n of them per checked iteration)."""
    if n * iters <= budget:
        return 1
    return int(np.ceil(n * iters / budget))


def check_rfdm(trace: Trace, p: Problem, w=None, gamma: Optional[float] = None,
               l_f_w: Optional[float] = None,
               check_every: Optional[int] = None) -> Certificate:
    """Certify an exact-minimization trace in expectation mode.

    Requires an unconstrained problem.  At each checked iteration the
    conditional expectations of the squared dual correction norm and the
    squared displacement are computed exactly by enumerating all n candidate
    coordinates.  Theory constants:
    ``beta^2 = 2[(L_f^W)^2 + 1] + (n - 1) max_i L_i^2/w_i^2``, ``zeta = gamma``.

    The checked iterations are processed in chunks of m, with m as large as
    keeps an ``(m * n, image_dim)`` array within about 128 KiB, and at least
    1.  The chunk's iterates are rebuilt by assigning the recorded values,
    and everything at them is evaluated from scratch, independently of the
    solver's incremental caches: their images and full gradients, all
    ``m * n`` slice minimizers in one :meth:`Problem.slice_minimizers` call,
    and each candidate's coordinate gradient and objective from the image
    moved along the candidate's column.  The realized steps are replayed
    (hard :class:`ReplayError` beyond 1e-9) before the chunk's slices are
    solved.  A non-finite recorded value raises ``ValueError`` unless a
    replay fails at an earlier checked iteration.
    """
    if not p.box.is_free():
        raise ValueError("expectation-mode certification requires an unconstrained problem")
    if trace.option != OPTION_I:
        raise ValueError("expectation-mode certification applies to exact-minimization traces")
    w = check_weights(trace.w if w is None else w, p.n)
    gamma_val = p.gamma(w) if gamma is None else float(gamma)
    lfw = global_lipschitz_bound(p.lipschitz, w) if l_f_w is None else float(l_f_w)
    r_sq = float(np.max((p.lipschitz / w) ** 2))
    n = p.n
    beta_sq_theory = 2.0 * (lfw**2 + 1.0) + (n - 1) * r_sq
    if check_every is None:
        check_every = default_rfdm_check_every(n, len(trace))
    if check_every < 1:
        raise ValueError("check_every must be >= 1")

    coords = trace.coords
    values = trace.new_values
    omegas = trace.omegas
    non_finite = np.flatnonzero(~np.isfinite(values))
    end = int(non_finite[0]) if non_finite.size else len(trace)
    checked = np.arange(0, end, check_every)
    chunk = max(1, _RFDM_CHUNK_BYTES // (8 * n * p.image_dim))

    beta_hat_sq = 0.0
    zeta_hat = np.inf
    worst_beta_k = None
    worst_zeta_k = None
    x = trace.x0.copy()
    g_origin = p.gradient(np.zeros(n))
    at = 0  # x is x_at
    for start in range(0, checked.size, chunk):
        ks = checked[start:start + chunk]
        m = ks.size
        X = np.empty((m, n))
        for r, k in enumerate(ks):
            _assign_last(x, coords[at:k], values[at:k])
            at = k
            X[r] = x
        U = p._images(X)
        G = p._gradients_at(X, U)

        # replay the realized steps (other coordinates cancel exactly)
        rows = np.arange(m)
        i = coords[ks]
        new = values[ks]
        old = X[rows, i]
        col_i = p._cols[i]
        g_i = G[rows, i]
        g_new = p._coord_grads_at(i, U + col_i * (new - old)[:, None], new, col_i)
        z_real = g_i - g_new + w[i] * (new - old)
        replayed = np.clip(old - (omegas[ks] / w[i]) * (g_i - z_real),
                           p.box.lower[i], p.box.upper[i])
        err = np.abs(replayed - new)
        failed = np.flatnonzero(err > REPLAY_TOL)
        if failed.size:
            raise ReplayError(int(ks[failed[0]]), float(err[failed[0]]))

        # candidate (r, j): row r with coordinate j at its slice minimizer
        tilde = p.slice_minimizers(X, U, G)
        j = np.tile(np.arange(n), m)
        cols = p._cols[j]
        U_c = U[np.repeat(rows, n)] + cols * (tilde - X).reshape(-1, 1)
        g_tilde = p._coord_grads_at(j, U_c, tilde.ravel(), cols).reshape(m, n)
        X_c = np.repeat(X, n, axis=0)
        X_c[np.arange(m * n), j] = tilde.ravel()
        f_next = p._values_at(X_c, U_c).reshape(m, n)

        # Entries below the gradient's rounding scale cannot be measured, and
        # the coordinate solves only drive slice derivatives to the inner
        # tolerance, so entries that close to zero are unresolved as well.
        g_noise = (64.0 * _EPS * np.maximum(1.0, np.max(np.abs(G), axis=1))
                   + SLICE_DERIV_TOL)
        g_eff_sq = np.maximum(0.0, np.abs(G) - g_noise[:, None]) ** 2 / w
        z = G - g_tilde + w * (tilde - X)
        z_eff = np.maximum(0.0, np.abs(z) - _z_noise(G, g_tilde, w, X, tilde,
                                                     g_origin))
        # choosing j: coordinate j carries z_jj, others keep the gradient
        e_z = np.sum(z_eff * z_eff / w
                     + (np.sum(g_eff_sq, axis=1, keepdims=True) - g_eff_sq),
                     axis=1) / n
        e_disp = np.sum(w * np.float_power(tilde - X, 2.0), axis=1) / n
        f_here = p._values_at(X, U)
        decrease = f_here - np.sum(f_next, axis=1) / n + _f_noise(f_here)

        moved = e_disp != 0.0
        ks, e_disp = ks[moved], e_disp[moved]
        beta_hat_sq, worst_beta_k = _fold_max(e_z[moved] / e_disp, ks,
                                              beta_hat_sq, worst_beta_k)
        neg_zeta, worst_zeta_k = _fold_max(-decrease[moved] / e_disp, ks,
                                           -zeta_hat, worst_zeta_k)
        zeta_hat = -neg_zeta
    if end < len(trace):
        raise ValueError(f"recorded value at iteration {end} is not finite")
    passed = _certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, gamma_val)
    return Certificate(
        framework="rfdm", option=OPTION_I,
        beta_hat_sq=float(beta_hat_sq), zeta_hat=float(zeta_hat),
        beta_sq_theory=float(beta_sq_theory), zeta_theory=gamma_val,
        n_checked=int(checked.size), worst_beta_k=worst_beta_k,
        worst_zeta_k=worst_zeta_k, passed=passed,
        eta_hat=float(beta_hat_sq),
        inputs={"l_f_w": lfw, "gamma": gamma_val, "r_sq": r_sq,
                "check_every": check_every},
    )


@dataclass(frozen=True)
class CyclicConstants:
    """Feasible-descent constants of the deterministic cyclic sweep."""

    beta_sq: float
    zeta: float
    omega: float


def cyclic_constants(n: int, l_f_w: float, gamma: float = 1.0) -> CyclicConstants:
    """Constants for cyclic coordinate descent: ``beta^2 = (1 + sqrt(n) L)^2``.

    One cyclic iteration costs n coordinate updates, so these compare against
    the randomized constants taken per n single-coordinate steps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if l_f_w < 1.0:
        raise ValueError("l_f_w must be >= 1 (it is at least 1 for w = L)")
    beta = 1.0 + np.sqrt(n) * l_f_w
    return CyclicConstants(beta_sq=float(beta * beta), zeta=float(gamma), omega=1.0)


@dataclass
class InvariantReport:
    """Descent / feasibility audit of a trace."""

    descent_ok: bool
    worst_descent_violation: float
    feasible_ok: bool
    worst_feasibility_violation: float
    disp_nonnegative: bool
    objective_consistent: bool
    worst_objective_drift: float

    @property
    def all_ok(self) -> bool:
        return (self.descent_ok and self.feasible_ok and self.disp_nonnegative
                and self.objective_consistent)


def check_trace_invariants(trace: Trace, p: Problem, descent_tol: float = 1e-12,
                           feas_tol: float = 1e-12,
                           objective_rtol: float = 1e-9) -> InvariantReport:
    """Audit monotone descent, box feasibility and objective consistency.

    Feasibility is checked on every reconstructible iterate: over the stack
    of snapshots for full-step traces, and through the start point and the
    assigned coordinate values for coordinate traces.  Recorded objective
    values are compared against fresh evaluations at the snapshot points
    (the incremental caches must not drift), with one batched
    :meth:`Problem.values` call per block of 256 snapshots.  An infeasible
    or non-finite snapshot is reported in the result, never raised.
    """
    f = trace.f
    diffs = f[1:] - f[:-1]
    worst_descent = float(np.max(diffs, initial=-np.inf))
    descent_ok = bool(worst_descent <= descent_tol)
    disp_ok = bool(np.all(trace.disp_w_sq >= 0.0))

    ks, X = trace.snapshots()
    if trace.method in ("pgd", "cyclic"):
        worst_feas = p.box.violation(X)
    else:
        # Single-coordinate updates: every iterate is feasible iff the start
        # point and every assigned coordinate value are.
        worst_feas = p.box.violation(trace.x0)
        if len(trace) > 0:
            c = trace.coords
            v = trace.new_values
            below = float(np.max(p.box.lower[c] - v, initial=0.0))
            above = float(np.max(v - p.box.upper[c], initial=0.0))
            worst_feas = max(worst_feas, below, above)
    worst_drift = 0.0
    for start in range(0, ks.shape[0], _AUDIT_BLOCK):
        block = slice(start, start + _AUDIT_BLOCK)
        f_rec = f[ks[block]]
        drift = (np.abs(p.values(X[block]) - f_rec)
                 / np.maximum(1.0, np.abs(f_rec)))
        # np.maximum, unlike max(), carries a NaN drift into the report
        worst_drift = np.maximum(worst_drift, np.max(drift))
    return InvariantReport(
        descent_ok=descent_ok,
        worst_descent_violation=worst_descent,
        feasible_ok=bool(worst_feas <= feas_tol),
        worst_feasibility_violation=float(worst_feas),
        disp_nonnegative=disp_ok,
        objective_consistent=bool(worst_drift <= objective_rtol),
        worst_objective_drift=float(worst_drift),
    )
