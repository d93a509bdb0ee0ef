"""Independent oracles used to freeze expected values.

These deliberately avoid the library's solver paths: box-constrained
quadratics are solved by exhaustive active-set enumeration, tiny duals by
grid search with refinement, gradients by central differences, and the
Hoffman maximization by dense sampling of the unit sphere, coordinate
strong convexity by sampled slice gaps, and the tight W-norm Lipschitz
constant of a quadratic by a dense matrix norm.  The rcfdm
certificate has a step-by-step reference that evaluates the scalar
coordinate gradient twice per step, and the rfdm certificate one that
solves each of the n candidate slices of a checked step through a scalar
state; the checked iterates of one chunk of the rfdm walk have a
row-by-row reference, and a trace's coordinate steps a walk from x0.  The
libsvm parser has a line-by-line, field-by-field reference, and the trace
CSV writer a row-by-row one.  The solver driver's fixed-point fill has a
reference run that steps through every iteration.  Reports are checked
against the shipped JSON Schema by jsonschema.
"""

import contextlib
import itertools
import json
import math
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np

from fdmkit import solvers
from fdmkit.datasets import Dataset, ParseError
from fdmkit.geometry import check_weights
from fdmkit.problems import (_EPS, SLICE_DERIV_TOL, f_noise,
                             global_lipschitz_bound)
from fdmkit.solvers import OPTION_I, OPTION_II
from fdmkit.verify import (REPLAY_TOL, Certificate, ReplayError,
                           _assign_last, _certificate_pass, _z_noise,
                           default_rfdm_check_every)


def box_qp_oracle(hessian, linear, lower, upper, tol=1e-9):
    """Global optimum of min 0.5 x'Hx + c'x over a box, H symmetric PSD.

    Enumerates every pattern of {at-lower, at-upper, free} per coordinate,
    solves the free subsystem, and keeps the KKT-certified candidates.
    Exponential in n; intended for n <= 10.
    """
    H = np.asarray(hessian, float)
    c = np.asarray(linear, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    n = c.shape[0]
    states_per_coord = []
    for i in range(n):
        states = ["free"]
        if np.isfinite(lower[i]):
            states.append("lo")
        if np.isfinite(upper[i]):
            states.append("up")
        states_per_coord.append(states)

    best_f, best_x = np.inf, None
    for pattern in itertools.product(*states_per_coord):
        x = np.zeros(n)
        active = []
        free = []
        for i, s in enumerate(pattern):
            if s == "lo":
                x[i] = lower[i]
                active.append(i)
            elif s == "up":
                x[i] = upper[i]
                active.append(i)
            else:
                free.append(i)
        if free:
            Hff = H[np.ix_(free, free)]
            rhs = -(c[free] + (H[np.ix_(free, active)] @ x[active]
                               if active else 0.0))
            sol, *_ = np.linalg.lstsq(Hff, rhs, rcond=None)
            if np.linalg.norm(Hff @ sol - rhs) > tol * max(1.0, np.linalg.norm(rhs)):
                continue  # inconsistent face (rank-deficient, no minimizer here)
            x[free] = sol
            if np.any(x[free] < lower[free] - tol) or np.any(x[free] > upper[free] + tol):
                continue
        g = H @ x + c
        ok = True
        for i, s in enumerate(pattern):
            if s == "lo" and g[i] < -tol:
                ok = False
            elif s == "up" and g[i] > tol:
                ok = False
            elif s == "free" and abs(g[i]) > tol * max(1.0, np.abs(g).max()):
                ok = False
        if not ok:
            continue
        f = 0.5 * x @ H @ x + c @ x
        if f < best_f:
            best_f, best_x = f, x.copy()
    assert best_x is not None, "no KKT-certified face found"
    return best_x, float(best_f)


def grid_min_2d(fun_batch, lo, hi, resolution=1e-3, refinements=3):
    """Brute-force minimum of a bivariate function over a square box.

    ``fun_batch`` maps an (m, 2) array of points to m values.
    """
    lo0, hi0 = np.array([lo, lo], float), np.array([hi, hi], float)
    best_x, best_f = None, np.inf
    lo_cur, hi_cur = lo0.copy(), hi0.copy()
    step = resolution * (hi - lo)
    for _ in range(refinements):
        g0 = np.arange(lo_cur[0], hi_cur[0] + step / 2, step)
        g1 = np.arange(lo_cur[1], hi_cur[1] + step / 2, step)
        m0, m1 = np.meshgrid(g0, g1, indexing="ij")
        pts = np.column_stack([m0.ravel(), m1.ravel()])
        vals = fun_batch(pts)
        j = int(np.argmin(vals))
        if vals[j] < best_f:
            best_f = float(vals[j])
            best_x = pts[j].copy()
        lo_cur = np.maximum(lo0, best_x - 2 * step)
        hi_cur = np.minimum(hi0, best_x + 2 * step)
        step /= 20.0
    return best_x, best_f


def svm_dual_batch(p):
    """Vectorized dual objective straight from its defining formula."""
    def fun_batch(pts):
        pw = pts @ p.ya
        return ((pw * pw).sum(axis=1) / (2.0 * p.lam * p.n**2)
                - pts.sum(axis=1) / p.n)
    return fun_batch


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        hp = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += hp
        xm[i] -= hp
        g[i] = (fun(xp) - fun(xm)) / (2 * hp)
    return g


def sphere_max_ratio(rows, n_samples=200_000, seed=0):
    """Hoffman-style maximization over the full row support by sampling:
    max ||t|| s.t. ||rows' t|| = 1, approximated as 1 / min_unit ||rows' t||."""
    rows = np.asarray(rows, float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    t = rng.standard_normal((n_samples, rows.shape[0]))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    norms = np.linalg.norm(t @ rows, axis=1)
    return float(1.0 / norms.min())


def one_sided_allowance(samples, confidence_z=2.3263):
    """Upper allowance on a sample mean at one-sided 99% confidence."""
    samples = np.asarray(samples, float)
    se = samples.std(ddof=1) / np.sqrt(samples.shape[0])
    return confidence_z * se


def check_coord_strong_convexity(p, gamma, w, samples=1000, seed=0,
                                 rtol=1e-9):
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


def quadratic_lipschitz_w(p, w):
    """Tight W-norm gradient Lipschitz constant of a quadratic,
    ||W^{-1/2} H W^{-1/2}||."""
    s = 1.0 / np.sqrt(check_weights(w, p.n))
    return float(np.linalg.norm(s[:, None] * p.hessian * s[None, :], 2))


@contextlib.contextmanager
def fixed_point_rule(wrap):
    """Inside the block, every solver run hands the driver ``wrap(fixed)``
    in place of its fixed-point rule ``fixed`` (see ``solvers._drive``)."""
    drive = solvers._drive

    def patched(*args, **kwargs):
        kwargs["fixed"] = wrap(kwargs.get("fixed", solvers._full_step_fixed))
        return drive(*args, **kwargs)

    with mock.patch.object(solvers, "_drive", patched):
        yield


def run_stepping(run, *args):
    """``run(*args)`` stepping through every iteration: the driver's
    fixed-point rule declines at every record point."""
    with fixed_point_rule(lambda fixed: lambda count: None):
        return run(*args)


def iter_steps(trace):
    """Yield (k, x_k, i_k, old, new) for every coordinate step of ``trace``.

    The yielded array is a reused buffer that advances with the walk; copy
    it if it must outlive the iteration step.
    """
    x = trace.x0.copy()
    for k in range(len(trace)):
        i = int(trace.coords[k])
        if i < 0:
            raise ValueError("trace contains full-vector steps; walk snapshots instead")
        new = float(trace.new_values[k])
        yield k, x, i, float(x[i]), new
        x[i] = new


def check_rcfdm_scalar(trace, p, w=None, option=None, check_every=1):
    """Coordinate-mode certificate by a scalar walk over :func:`iter_steps`.

    Each checked step calls ``p.coord_gradient`` at x_k and at x_k with the
    new value, each from scratch, so a step costs a full gradient image.
    """
    option = option or trace.option
    w = check_weights(trace.w if w is None else w, p.n)
    gamma = p.gamma(w)
    lfw = global_lipschitz_bound(p.lipschitz, w)
    beta_sq_theory = 0.0 if option == OPTION_II else 2.0 * (lfw**2 + 1.0)
    beta_hat_sq, zeta_hat = 0.0, np.inf
    worst_beta_k = worst_zeta_k = None
    n_checked = 0
    f = trace.f
    g_origin = p.gradient(np.zeros(p.n))
    for k, x, i, old, new in iter_steps(trace):
        if k % check_every != 0:
            continue
        n_checked += 1
        g_i = p.coord_gradient(x, i)
        if option == OPTION_I:
            x_t = x.copy()
            x_t[i] = new
            gi_tilde = p.coord_gradient(x_t, i)
            z_i = g_i - gi_tilde + w[i] * (new - old)
            z_eff = max(0.0, abs(z_i) - _z_noise(g_i, gi_tilde, w[i], old, new,
                                                   g_origin[i]))
        else:
            z_i = z_eff = 0.0
        replayed = p.box.clip_coord(old - (trace.omega / w[i]) * (g_i - z_i), i)
        err = abs(replayed - new)
        if err > REPLAY_TOL:
            raise ReplayError(k, err)
        disp = w[i] * (new - old) ** 2
        if disp == 0.0:  # no move, or one whose square underflows
            continue
        beta_ratio = (z_eff * z_eff / w[i]) / disp
        if beta_ratio > beta_hat_sq:
            beta_hat_sq, worst_beta_k = beta_ratio, k
        zeta_ratio = (f[k] - f[k + 1] + f_noise(f[k])) / disp
        if zeta_ratio < zeta_hat:
            zeta_hat, worst_zeta_k = zeta_ratio, k
    return Certificate(
        framework="rcfdm", option=option, beta_hat_sq=float(beta_hat_sq),
        zeta_hat=float(zeta_hat), beta_sq_theory=float(beta_sq_theory),
        zeta_theory=gamma, n_checked=n_checked, worst_beta_k=worst_beta_k,
        worst_zeta_k=worst_zeta_k,
        passed=_certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, gamma))


def check_rfdm_scalar(trace, p, w=None, check_every=None, ratios=None):
    """Expectation-mode certificate by a scalar walk over :func:`iter_steps`.

    At each checked step every candidate coordinate is solved through one
    state built at x_k, and its coordinate gradient and objective are
    evaluated from scratch at the candidate point.  A ``ratios`` dict
    receives ``k -> (beta ratio, zeta ratio)`` for every step that moves.
    """
    w = check_weights(trace.w if w is None else w, p.n)
    gamma = p.gamma(w)
    lfw = global_lipschitz_bound(p.lipschitz, w)
    r_sq = float(np.max((p.lipschitz / w) ** 2))
    n = p.n
    beta_sq_theory = 2.0 * (lfw**2 + 1.0) + (n - 1) * r_sq
    if check_every is None:
        check_every = default_rfdm_check_every(n, len(trace))
    beta_hat_sq, zeta_hat = 0.0, np.inf
    worst_beta_k = worst_zeta_k = None
    n_checked = 0
    g_origin = p.gradient(np.zeros(n))
    for k, x, i, old, new in iter_steps(trace):
        if k % check_every != 0:
            continue
        n_checked += 1
        grad = p.gradient(x)
        g_noise = (64.0 * _EPS * max(1.0, float(np.max(np.abs(grad))))
                   + SLICE_DERIV_TOL)
        g_eff = np.maximum(0.0, np.abs(grad) - g_noise)
        g_eff_dual_sq = float(np.dot(g_eff * g_eff, 1.0 / w))
        e_z = e_disp = e_f_next = 0.0
        x_t = x.copy()
        st = p.start_state(x)
        for j in range(n):
            tilde_j = st.exact_coord_min(j)
            x_t[j] = tilde_j
            gj_tilde = p.coord_gradient(x_t, j)
            z_jj = grad[j] - gj_tilde + w[j] * (tilde_j - x[j])
            z_eff = max(0.0, abs(z_jj)
                        - _z_noise(grad[j], gj_tilde, w[j], x[j], tilde_j,
                                 g_origin[j]))
            e_f_next += p.value(x_t)
            x_t[j] = x[j]
            e_z += z_eff * z_eff / w[j] + (g_eff_dual_sq
                                           - g_eff[j] * g_eff[j] / w[j])
            e_disp += w[j] * (tilde_j - x[j]) ** 2
        e_z /= n
        e_disp /= n
        e_f_next /= n
        g_i = grad[i]
        x_ti = x.copy()
        x_ti[i] = new
        z_real = g_i - p.coord_gradient(x_ti, i) + w[i] * (new - old)
        replayed = p.box.clip_coord(old - (trace.omega / w[i]) * (g_i - z_real), i)
        err = abs(replayed - new)
        if err > REPLAY_TOL:
            raise ReplayError(k, err)
        if e_disp == 0.0:
            continue
        beta_ratio = e_z / e_disp
        if beta_ratio > beta_hat_sq:
            beta_hat_sq, worst_beta_k = beta_ratio, k
        f_here = p.value(x)
        zeta_ratio = (f_here - e_f_next + f_noise(f_here)) / e_disp
        if ratios is not None:
            ratios[k] = (beta_ratio, zeta_ratio)
        if zeta_ratio < zeta_hat:
            zeta_hat, worst_zeta_k = zeta_ratio, k
    return Certificate(
        framework="rfdm", option=OPTION_I, beta_hat_sq=float(beta_hat_sq),
        zeta_hat=float(zeta_hat), beta_sq_theory=float(beta_sq_theory),
        zeta_theory=gamma, n_checked=n_checked, worst_beta_k=worst_beta_k,
        worst_zeta_k=worst_zeta_k,
        passed=_certificate_pass(beta_hat_sq, zeta_hat, beta_sq_theory, gamma))


def checked_rows_by_row(x, c, new, ks, check_every):
    """The iterates at a chunk's checked offsets ``ks``, spaced
    ``check_every`` apart, one row at a time: each row is the last one with
    the ``check_every`` recorded assignments between them applied."""
    X = np.empty((ks.size, x.size))
    x_k = x.copy()
    for r, k in enumerate(ks):
        X[r] = x_k
        _assign_last(x_k, c[k:k + check_every], new[k:k + check_every])
    return X


def parse_libsvm_by_line(path, classification=True):
    """:func:`fdmkit.datasets.parse_libsvm`, one line and one field at a
    time, with the same errors at the same line and field."""

    def parse_float(text, lineno, column, what):
        try:
            value = float(text)
        except ValueError:
            raise ParseError(lineno, column, f"bad {what} {text!r}") from None
        if not math.isfinite(value):
            raise ParseError(lineno, column, f"non-finite {what} {text!r}")
        return value

    rows, cols, vals, labels = [], [], [], []
    max_index = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            label = parse_float(fields[0], lineno, 1, "label")
            prev_index = 0
            for col, field in enumerate(fields[1:], start=2):
                idx_str, sep, val_str = field.partition(":")
                if not sep:
                    raise ParseError(lineno, col, f"missing ':' in {field!r}")
                try:
                    idx = int(idx_str)
                except ValueError:
                    raise ParseError(lineno, col, f"bad index {idx_str!r}") from None
                if idx < 1:
                    raise ParseError(lineno, col, f"index {idx} is not 1-based")
                if idx <= prev_index:
                    raise ParseError(
                        lineno, col,
                        f"index {idx} not strictly increasing after {prev_index}")
                rows.append(len(labels))
                cols.append(idx - 1)
                vals.append(parse_float(val_str, lineno, col, "value"))
                prev_index = idx
                max_index = max(max_index, idx)
            labels.append(label)
    n = len(labels)
    if classification:
        if n == 0:
            raise ParseError(0, 0, "classification dataset must have n >= 1 examples")
        bad = [v for v in labels if v not in (-1.0, 1.0)]
        if bad:
            raise ParseError(0, 0, f"classification labels must be -1/+1, got {bad[0]}")
    features = np.zeros((n, max_index))
    features[rows, cols] = vals
    return Dataset(features, np.asarray(labels))


def write_trace_csv_by_row(trace, path):
    """:func:`fdmkit.experiment.write_trace_csv`, one row per write."""

    def fmt(v):
        return f"{v:.17g}"

    k_total = len(trace)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("k,i,f,disp_w_sq,gap\n")
        for k in range(k_total + 1):
            i = ""
            disp = ""
            if k < k_total:
                ci = int(trace.coords[k])
                i = str(ci) if ci >= 0 else ""
                disp = fmt(float(trace.disp_w_sq[k]))
            gap = trace.gaps.get(k)
            gap_s = fmt(gap) if gap is not None else ""
            fh.write(f"{k},{i},{fmt(float(trace.f[k]))},{disp},{gap_s}\n")


def report_validator():
    """A jsonschema validator for the ``schemas/report.schema.json`` that the
    fdmkit package ships, after checking the schema itself."""
    text = resources.files("fdmkit").joinpath("schemas/report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)
