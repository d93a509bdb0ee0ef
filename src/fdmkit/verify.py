"""Empirical certification of the randomized feasible-descent inequalities.

Both frameworks hold the correction z_k of the feasible descent method
(Wang & Lin, JMLR 15, 2014) to the constants beta and zeta: coordinate mode
(RC-FDM) at the drawn coordinate, expectation mode (R-FDM: unconstrained
problems, exact minimization) in its conditional expectation over the
coordinate choice, computed exactly from all n candidates, never by Monte
Carlo.  Each piece of that math is written once: the theory constants in
:func:`fdm_constants`; z, its part above rounding and the error of the
projected update it replays in ``_z_kernel``; the worst ratios in ``_fold``.
Both checkers walk a trace with ``_walk``, which only rebuilds x at each
chunk start by assigning the recorded values.  :func:`check_rcfdm` evaluates
a chunk's gradients from scratch along its path, never from the solver's
incremental caches, and replays every checked step; :func:`check_rfdm`
evaluates only the checked iterates, replays their steps and adds the
candidate enumeration, one batched slice solve per chunk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .geometry import FEASIBILITY_TOL, check_number, check_weights
from .problems import (_EPS, SLICE_DERIV_TOL, Problem, f_noise,
                       global_lipschitz_bound, path_start_values)
from .solvers import FULL_STEP_METHODS, OPTION_I, OPTION_II, Trace

REPLAY_TOL = 1e-9
PASS_REL_SLACK = 1e-9
# invariant audit: largest objective increase and relative drift of a
# recorded objective from a fresh evaluation (the box violation it allows is
# the geometry's FEASIBILITY_TOL)
DESCENT_TOL, OBJECTIVE_RTOL = 1e-12, 1e-9
# Coordinate-gradient evaluations the default rfdm stride allows for a trace.
RFDM_CHECK_BUDGET = 100_000
# Snapshots per batched objective evaluation in the invariant audit; bounds
# the (block, inner dimension) temporaries of Problem.values.
_AUDIT_BLOCK = 256
# Bytes of one (chunk, image_dim) temporary of the rcfdm replay.  On the
# svm-verify benchmark's traces (2000 x 50 svm dual, 2 x 12000 steps), 128 KiB
# chunks hold the replay's transient memory at 0.40 MB against 2.4 MB for
# 1 MiB chunks, at the same speed (22 ms for both traces on a 2-core x86-64
# VM).
_REPLAY_CHUNK_BYTES = 1 << 17
# Bytes of one (candidate rows, image_dim) temporary of the rfdm
# enumeration.  On the 200x20 logistic benchmark run, 1 MiB chunks raised the
# peak memory from 44 to 51 MB and one chunk for the whole trace to 168 MB,
# neither of them faster.
_RFDM_CHUNK_BYTES = 1 << 17
# (beta_hat_sq, zeta_hat, worst_beta_k, worst_zeta_k) before any ratio
_NO_RATIOS = (0.0, np.inf, None, None)


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
    inputs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields as JSON values; a non-finite ratio becomes None."""
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in asdict(self).items()}


def _certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, zeta_theory) -> bool:
    return bool(beta_hat_sq <= beta_sq_theory * (1.0 + PASS_REL_SLACK)
                and zeta_hat >= zeta_theory * (1.0 - PASS_REL_SLACK))


def _beta_sq(framework: str, n: int, l_f_w: float, r_sq: float) -> float:
    if framework in ("rcfdm-II", "pgd"):
        return 0.0
    if framework == "cyclic":
        beta = 1.0 + np.sqrt(n) * l_f_w
        return float(beta * beta)
    if framework not in ("rcfdm-I", "rfdm"):
        raise ValueError(f"unknown framework {framework!r}")
    beta_sq = 2.0 * (l_f_w**2 + 1.0)
    return beta_sq + (n - 1) * r_sq if framework == "rfdm" else beta_sq


def fdm_constants(p: Problem, w, framework: str) -> tuple[float, float, dict]:
    """Theory constants ``(beta^2, zeta, inputs)`` of a framework for ``p``
    in the geometry ``w``, with ``L = L_f^W`` (:func:`global_lipschitz_bound`).

    beta^2 is ``2(L^2 + 1)`` for ``'rcfdm-I'`` (exact minimization), 0 for
    ``'rcfdm-II'`` and ``'pgd'`` (projected gradient steps), ``2(L^2 + 1) +
    (n - 1) r_sq`` with ``r_sq = max_i L_i^2/w_i^2`` for ``'rfdm'``, and
    ``(1 + sqrt(n) L)^2`` for ``'cyclic'``.  zeta is ``p.gamma(w)``.
    ``inputs`` holds ``l_f_w``, ``gamma`` and, for ``'rfdm'``, ``r_sq``.
    """
    lfw = global_lipschitz_bound(p.lipschitz, w)
    gamma = p.gamma(w)
    r_sq = float(np.max((p.lipschitz / w) ** 2))
    inputs = {"l_f_w": lfw, "gamma": gamma}
    if framework == "rfdm":
        inputs["r_sq"] = r_sq
    return _beta_sq(framework, p.n, lfw, r_sq), gamma, inputs


def _z_kernel(option, g, g_tilde, w_i, old, new, g_origin,
              omega=1.0, lower=-np.inf, upper=np.inf):
    """``(z, z_eff, err)`` of coordinate steps ``old -> new``, elementwise;
    ``g`` and ``g_tilde`` are the moved partial derivative before and after.

    z is 0 for Option II steps.  For exact minimization it is the gradient
    change plus the weighted displacement, signed so that the projected
    update reproduces ``new``.  ``z_eff`` is |z| less its rounding scale,
    floored at 0, and ``err`` the error of the projected update with step
    ``omega`` and correction z.
    """
    if option == OPTION_I:
        z = g - g_tilde + w_i * (new - old)
        z_eff = np.maximum(0.0, np.abs(z) - _z_noise(g, g_tilde, w_i, old, new,
                                                     g_origin))
    else:
        z = z_eff = np.zeros_like(g)
    err = np.abs(np.clip(old - (omega / w_i) * (g - z), lower, upper) - new)
    return z, z_eff, err


def _fold(worst, beta, zeta, ks):
    """Fold a chunk's ratios at iterations ``ks`` into ``worst``, the running
    ``(beta_hat_sq, zeta_hat, worst_beta_k, worst_zeta_k)`` of the largest
    beta and smallest zeta.  The first index of an extreme ratio wins, as a
    strict running comparison finds, and a NaN ratio never wins.
    """
    beta_hat_sq, zeta_hat, beta_k, zeta_k = worst
    if ks.size:
        j = int(np.argmax(np.where(np.isnan(beta), -np.inf, beta)))
        if beta[j] > beta_hat_sq:
            beta_hat_sq, beta_k = float(beta[j]), int(ks[j])
        j = int(np.argmin(np.where(np.isnan(zeta), np.inf, zeta)))
        if zeta[j] < zeta_hat:
            zeta_hat, zeta_k = float(zeta[j]), int(ks[j])
    return beta_hat_sq, zeta_hat, beta_k, zeta_k


def _certificate(framework: str, trace: Trace, check_every: int, constants,
                 worst) -> Certificate:
    beta_sq_theory, zeta, inputs = constants
    beta_hat_sq, zeta_hat, beta_k, zeta_k = worst
    return Certificate(
        framework=framework, option=trace.option,
        beta_hat_sq=float(beta_hat_sq), zeta_hat=float(zeta_hat),
        beta_sq_theory=float(beta_sq_theory), zeta_theory=zeta,
        n_checked=len(range(0, len(trace), check_every)),
        worst_beta_k=beta_k, worst_zeta_k=zeta_k,
        passed=_certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, zeta),
        inputs={**inputs, "check_every": check_every},
    )


def _assign_last(x: np.ndarray, coords: np.ndarray, values: np.ndarray) -> None:
    """Apply a run of coordinate assignments to ``x`` in place: each
    coordinate takes the last value the run assigns it."""
    c_last, pos = np.unique(coords[::-1], return_index=True)
    x[c_last] = values[::-1][pos]


def _checked_rows(x: np.ndarray, c: np.ndarray, new: np.ndarray,
                  ks: np.ndarray) -> np.ndarray:
    """The iterates x_{a + k} at the increasing offsets ``ks`` of a chunk
    that starts at ``x = x_a`` and assigns ``new[t]`` to coordinate ``c[t]``
    at its step t, as the rows of one ``(ks.size, n)`` array.

    Row r holds, per coordinate, the value of the last step before ``ks[r]``
    that assigns it, or x's: the last step index per (segment between checked
    offsets, coordinate), then its running maximum over the segments.
    """
    steps = np.arange(c.size)
    # step t is seen by rows seg[t] and after; rows past the last see none
    seg = np.searchsorted(ks, steps, side="right")
    seen = seg < ks.size
    last = np.full((ks.size, x.size), -1)
    np.maximum.at(last, (seg[seen], c[seen]), steps[seen])
    np.maximum.accumulate(last, axis=0, out=last)
    return np.where(last >= 0, new[last], x)


def _walk(trace: Trace, check_every: int, chunk: int):
    """Walk a coordinate trace by assignment in chunks starting at multiples
    of ``chunk``: yield ``(a, x, c, new, ks)`` per chunk, with x = x_a (moved
    on when the walk resumes), the recorded coordinates and values, and the
    offsets ks of the checked steps k (``k % check_every == 0``).  Stops
    before the first non-finite recorded value, then raises ``ValueError``.
    """
    check_number(check_every, "check_every", integer=True)
    coords, values = trace.coords, trace.new_values
    non_finite = np.flatnonzero(~np.isfinite(values))
    end = int(non_finite[0]) if non_finite.size else len(trace)
    x = trace.x0.copy()
    for a in range(0, end, chunk):
        b = min(a + chunk, end)
        c, new = coords[a:b], values[a:b]
        yield a, x, c, new, np.arange(-a % check_every, b - a, check_every)
        _assign_last(x, c, new)
    if end < len(trace):
        raise ValueError(f"recorded value at iteration {end} is not finite")


def check_rcfdm(trace: Trace, p: Problem, w=None,
                check_every: int = 1) -> Certificate:
    """Certify a coordinate-descent trace in coordinate mode.

    Every checked iteration is replayed through the projected update (hard
    :class:`ReplayError` beyond 1e-9), and per-iteration ratios give the
    empirical constants; Option II asserts an identically zero correction.
    The theory constants are :func:`fdm_constants`' ``'rcfdm-I'`` or
    ``'rcfdm-II'``.  The walk's chunk length is set by ``p.image_dim``.  A
    non-finite recorded value raises ``ValueError`` unless a replay fails at
    an earlier checked iteration.
    """
    if trace.option not in (OPTION_I, OPTION_II):
        raise ValueError("trace does not carry a coordinate-descent option")
    w = check_weights(trace.w if w is None else w, p.n)
    constants = fdm_constants(p, w, f"rcfdm-{trace.option}")
    f = trace.f
    chunk = max(1, _REPLAY_CHUNK_BYTES // (8 * p.image_dim))
    g_origin = p.gradient(np.zeros(p.n))
    lower, upper = p.box.lower, p.box.upper
    worst = _NO_RATIOS
    for a, x, c, new, ks in _walk(trace, check_every, chunk):
        old = path_start_values(x, c, new)
        g, g_tilde = p.coord_grads_along(x, c, new)
        _, z_eff, err = _z_kernel(trace.option, g, g_tilde, w[c], old, new,
                                  g_origin[c], trace.omega, lower[c], upper[c])
        failed = ks[err[ks] > REPLAY_TOL]
        if failed.size:
            raise ReplayError(a + int(failed[0]), float(err[failed[0]]))
        w_k = w[c[ks]]
        # float_power calls the C pow, as a Python float's ``** 2`` does;
        # pow is not always correctly rounded, so d * d can differ in the
        # last ulp and move zeta_hat
        disp = w_k * np.float_power(new[ks] - old[ks], 2.0)
        # a step that does not move, or whose squared move underflows to 0,
        # gives no ratio and is skipped
        moved = disp != 0.0
        ks, w_k, disp = ks[moved], w_k[moved], disp[moved]
        f_k = f[a + ks]
        worst = _fold(worst, (z_eff[ks] * z_eff[ks] / w_k) / disp,
                      (f_k - f[a + ks + 1] + f_noise(f_k)) / disp, a + ks)
    return _certificate("rcfdm", trace, check_every, constants, worst)


def default_rfdm_check_every(n: int, iters: int) -> int:
    """Stride keeping the expectation check within ``RFDM_CHECK_BUDGET``
    coordinate gradient evaluations (it costs n of them per checked
    iteration)."""
    if n * iters <= RFDM_CHECK_BUDGET:
        return 1
    return int(np.ceil(n * iters / RFDM_CHECK_BUDGET))


def check_rfdm(trace: Trace, p: Problem, w=None,
               check_every: Optional[int] = None) -> Certificate:
    """Certify an exact-minimization trace in expectation mode.

    Requires an unconstrained problem.  At each checked iteration the
    conditional expectations of the squared dual correction norm and the
    squared displacement are computed exactly from all n candidate
    coordinates; the theory constants are :func:`fdm_constants`' ``'rfdm'``.

    The walk's chunks of ``m * check_every`` steps hold m checked iterates,
    m as large as keeps an ``(m * n, image_dim)`` array within about 128 KiB
    and at least 1; unchecked steps are only assigned.  The checked
    iterates' images and gradients, all ``m * n`` slice minimizers (one
    :meth:`Problem.slice_minimizers` call) and each candidate's coordinate
    gradient and objective, from the image moved along its column, are
    evaluated from scratch.  Each checked step is replayed from that gradient
    and the one at the image moved to the recorded value (hard
    :class:`ReplayError` beyond 1e-9).  A non-finite recorded value raises
    ``ValueError`` unless a replay fails at an earlier checked iteration.
    """
    if not p.box.is_free():
        raise ValueError("expectation-mode certification requires an unconstrained problem")
    if trace.option != OPTION_I:
        raise ValueError("expectation-mode certification applies to exact-minimization traces")
    w = check_weights(trace.w if w is None else w, p.n)
    constants = fdm_constants(p, w, "rfdm")
    n = p.n
    if check_every is None:
        check_every = default_rfdm_check_every(n, len(trace))
    rows_per_chunk = max(1, _RFDM_CHUNK_BYTES // (8 * n * p.image_dim))
    g_origin = p.gradient(np.zeros(n))
    worst = _NO_RATIOS
    for a, x, c, new, ks in _walk(trace, check_every,
                                  rows_per_chunk * check_every):
        m = ks.size
        X = _checked_rows(x, c, new, ks)
        U = p._images(X)
        G = p._grad(X, p._phi(U))

        # replay: row r's recorded step moves coordinate i to new_k
        rows, i, new_k = np.arange(m), c[ks], new[ks]
        old, cols = X[rows, i], p._cols[i]
        U_k = U + cols * (new_k - old)[:, None]
        _, _, err = _z_kernel(OPTION_I, G[rows, i],
                              p._coord_grad(i, new_k, p._phi(U_k), cols), w[i],
                              old, new_k, g_origin[i], trace.omega)
        failed = np.flatnonzero(err > REPLAY_TOL)
        if failed.size:
            raise ReplayError(a + int(ks[failed[0]]), float(err[failed[0]]))

        # candidate (r, j): row r with coordinate j at its slice minimizer
        tilde = p.slice_minimizers(X, U, G)
        j = np.tile(np.arange(n), m)
        cols = p._cols[j]
        U_c = U[np.repeat(np.arange(m), n)] + cols * (tilde - X).reshape(-1, 1)
        g_tilde = p._coord_grad(j, tilde.ravel(), p._phi(U_c), cols).reshape(m, n)
        X_c = np.repeat(X, n, axis=0)
        X_c[np.arange(m * n), j] = tilde.ravel()
        f_next = p._values_at(X_c, U_c).reshape(m, n)

        # Entries below the gradient's rounding scale cannot be measured, and
        # the coordinate solves only drive slice derivatives to the inner
        # tolerance, so entries that close to zero are unresolved as well.
        g_noise = (64.0 * _EPS * np.maximum(1.0, np.max(np.abs(G), axis=1))
                   + SLICE_DERIV_TOL)
        g_eff_sq = np.maximum(0.0, np.abs(G) - g_noise[:, None]) ** 2 / w
        _, z_eff, _ = _z_kernel(OPTION_I, G, g_tilde, w, X, tilde, g_origin)
        # choosing j: coordinate j carries z_jj, others keep the gradient
        e_z = np.sum(z_eff * z_eff / w
                     + (np.sum(g_eff_sq, axis=1, keepdims=True) - g_eff_sq),
                     axis=1) / n
        e_disp = np.sum(w * np.float_power(tilde - X, 2.0), axis=1) / n
        f_here = p._values_at(X, U)
        decrease = f_here - np.sum(f_next, axis=1) / n + f_noise(f_here)

        moved = e_disp != 0.0
        e_disp = e_disp[moved]
        worst = _fold(worst, e_z[moved] / e_disp, decrease[moved] / e_disp,
                      a + ks[moved])
    return _certificate("rfdm", trace, check_every, constants, worst)


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


def check_trace_invariants(trace: Trace, p: Problem) -> InvariantReport:
    """Audit monotone descent, box feasibility and objective consistency,
    within ``DESCENT_TOL``, ``FEASIBILITY_TOL`` and ``OBJECTIVE_RTOL``.

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
    descent_ok = bool(worst_descent <= DESCENT_TOL)
    disp_ok = bool(np.all(trace.disp_w_sq >= 0.0))

    ks, X = trace.snap_ks, trace.snap_x
    if trace.method in FULL_STEP_METHODS:
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
        feasible_ok=bool(worst_feas <= FEASIBILITY_TOL),
        worst_feasibility_violation=float(worst_feas),
        disp_nonnegative=disp_ok,
        objective_consistent=bool(worst_drift <= OBJECTIVE_RTOL),
        worst_objective_drift=float(worst_drift),
    )
