"""Solvers emitting verifiable iterate traces.

Methods: stochastic coordinate descent with exact coordinate minimization
(Option I) or a projected coordinate-gradient step (Option II), cyclic
coordinate descent, and full projected gradient descent.

Coordinate choices are drawn from a counter-based Philox generator keyed by
the run seed, so runs are reproducible bit-for-bit and independent of how
often the trace snapshots full iterates.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .geometry import check_weights
from .problems import Problem, ProblemState, global_lipschitz_bound

OPTION_I = "I"
OPTION_II = "II"

# Snapshot entries a trace allocates up front (8 MB).
_SNAPSHOT_BLOCK_ELEMS = 1 << 20
# Steps of a seed-batched run between two reads of its objectives.
_LOCKSTEP_CHUNK = 512


class DivergenceError(RuntimeError):
    """The objective became NaN or infinite at iteration ``k``, or projected
    gradient increased it on consecutive iterations."""

    def __init__(self, k: int, f_values, reason: Optional[str] = None):
        self.k = k
        self.f_values = [float(v) for v in f_values]
        self.reason = reason or f"objective increased at iterations {k - 1} and {k}"
        super().__init__(f"{self.reason}: {self.f_values}")

    def __reduce__(self):
        # rebuild from the constructor's arguments when sent across processes
        return type(self), (self.k, self.f_values, self.reason)


@dataclass
class SolverConfig:
    """Run parameters shared by all solvers.

    ``w`` is the diagonal step geometry (``None`` selects the coordinate
    Lipschitz constants, the natural scaling for Option II).  ``omega`` is a
    constant step size; a per-iteration schedule may be supplied instead, in
    which case ``omega_bar`` must give its positive floor.  Coordinate
    sampling is uniform over the ``n`` coordinates.  ``gap_tol`` stops a run
    once the duality gap, evaluated at every recorded snapshot, reaches it;
    it applies only to problems with a duality gap (the SVM dual) and is
    ignored on the others.  Exact minimization (Option I, cyclic) takes no
    step size, so it rejects ``omega`` and ``omega_schedule``.
    """

    w: Optional[np.ndarray] = None
    omega: Optional[float] = None
    omega_schedule: Optional[Callable[[int], float]] = None
    omega_bar: Optional[float] = None
    max_iters: int = 1000
    seed: int = 0
    record_every: Optional[int] = None
    x0: Optional[np.ndarray] = None
    gap_tol: Optional[float] = None
    stall_tol: Optional[float] = None
    stall_window: Optional[int] = None

    def resolve_w(self, p: Problem) -> np.ndarray:
        w = p.lipschitz if self.w is None else self.w
        return check_weights(w, p.n)

    def resolve_omega(self, default: float) -> tuple[Callable[[int], float], float]:
        """Return (per-iteration step size, floor omega_bar)."""
        if self.omega_schedule is not None:
            if self.omega_bar is None or self.omega_bar <= 0:
                raise ValueError("omega_schedule requires a positive omega_bar floor")
            return self.omega_schedule, float(self.omega_bar)
        omega = default if self.omega is None else float(self.omega)
        if omega <= 0:
            raise ValueError("step size omega must be positive")
        bar = omega if self.omega_bar is None else float(self.omega_bar)
        if bar <= 0 or bar > omega:
            raise ValueError("omega_bar must satisfy 0 < omega_bar <= omega")
        return (lambda k: omega), bar

    def reject_step_size(self, method: str) -> None:
        if self.omega is not None or self.omega_schedule is not None:
            raise ValueError(f"{method} minimizes each coordinate exactly and "
                             "takes no step size (omega, omega_schedule)")

    def resolve_x0(self, p: Problem) -> np.ndarray:
        if self.x0 is None:
            return p.box.clip(np.zeros(p.n))
        x0 = np.ascontiguousarray(self.x0, dtype=float).copy()
        if x0.shape != (p.n,):
            raise ValueError("x0 dimension mismatch")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 has non-finite entries")
        if not p.box.contains(x0):
            raise ValueError("x0 is infeasible")
        return x0

    def validate(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.gap_tol is not None and self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        tol = self.stall_tol
        if tol is not None and (isinstance(tol, bool) or not isinstance(tol, Real)
                                or not 0.0 <= tol < math.inf):
            raise ValueError("stall_tol must be a finite nonnegative number")


class Trace:
    """Per-iteration record of a solver run.

    Scalars (objective, squared W-displacement, chosen coordinate, step size,
    cumulative wall time) are stored for every iteration.  For coordinate
    methods the iterates are delta-encoded: full snapshots are kept every
    ``record_every`` iterations and single-coordinate deltas in between, so
    ``iterate(k)`` reconstructs any x_k exactly (assignment, no arithmetic).
    Full-step methods snapshot every iterate.

    Snapshots are the rows of one ``(m, n)`` array in increasing k, read as
    a stack through :meth:`snapshots`.  The array is allocated for the whole
    budget up to 2^20 entries and doubles beyond that, so a long full-step
    run that stops early does not reserve memory for its whole budget; a
    finished trace keeps only the rows in use.

    Wall-clock fields are excluded from the reproducibility contract; all
    other fields are bitwise-identical across runs with equal seed, config
    and data.
    """

    def __init__(self, x0: np.ndarray, w: np.ndarray, method: str,
                 option: Optional[str], seed: Optional[int],
                 record_every: int, capacity: int):
        self.n = x0.shape[0]
        self.x0 = x0.copy()
        self.w = np.array(w, dtype=float)
        self.method = method
        self.option = option
        self.seed = seed
        self.record_every = record_every
        self.stop_reason = "budget"
        self.wall_time_s = 0.0
        self.gaps: dict[int, float] = {}
        self._coords = np.full(capacity, -1, dtype=np.int64)
        self._new_values = np.full(capacity, np.nan)
        self._f = np.full(capacity + 1, np.nan)
        self._disp = np.full(capacity, np.nan)
        self._omegas = np.full(capacity, np.nan)
        self._times = np.zeros(capacity + 1)
        # snapshot rows: one per record point and the final iterate
        rows = min(capacity // record_every + 2,
                   max(2, _SNAPSHOT_BLOCK_ELEMS // max(self.n, 1)))
        self._snap_ks = np.empty(rows, dtype=np.int64)
        self._snap_x = np.empty((rows, self.n))
        self._n_snap = 0
        self._snapshot(0, x0)
        self._k = 0

    # -- recording (used by the solver driver) ------------------------------

    def _snapshot(self, k: int, x: np.ndarray) -> None:
        m = self._n_snap
        if m == self._snap_ks.shape[0]:
            ks = np.empty(2 * m, dtype=np.int64)
            X = np.empty((2 * m, self.n))
            ks[:m] = self._snap_ks
            X[:m] = self._snap_x
            self._snap_ks, self._snap_x = ks, X
        self._snap_ks[m] = k
        self._snap_x[m] = x
        self._n_snap = m + 1

    def _append(self, i: int, new_value: float, f_next: float, disp: float,
                omega: float, t: float, x_next: np.ndarray) -> None:
        """Record one iteration; snapshot ``x_next`` at every record point."""
        k = self._k
        self._coords[k] = i
        self._new_values[k] = new_value
        self._f[k + 1] = f_next
        self._disp[k] = disp
        self._omegas[k] = omega
        self._times[k + 1] = t
        self._k = k = k + 1
        if k % self.record_every == 0:
            self._snapshot(k, x_next)

    def _finalize(self, x_final: np.ndarray, stop_reason: str,
                  wall_time: float) -> None:
        k = self._k
        self._coords = self._coords[:k]
        self._new_values = self._new_values[:k]
        self._f = self._f[:k + 1]
        self._disp = self._disp[:k]
        self._omegas = self._omegas[:k]
        self._times = self._times[:k + 1]
        if self._snap_ks[self._n_snap - 1] != k:
            self._snapshot(k, x_final)
        # keep only the rows in use: a finished trace may be pickled
        m = self._n_snap
        self._snap_ks = self._snap_ks[:m].copy()
        self._snap_x = self._snap_x[:m].copy()
        self.stop_reason = stop_reason
        self.wall_time_s = wall_time

    # -- read access ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of iterations (trace holds len(trace) + 1 iterates)."""
        return self._k

    @property
    def f(self) -> np.ndarray:
        """Objective values f(x_k), k = 0..K."""
        return self._f

    @property
    def disp_w_sq(self) -> np.ndarray:
        """Squared W-displacements ||x_k - x_{k+1}||_W^2, k = 0..K-1."""
        return self._disp

    @property
    def coords(self) -> np.ndarray:
        """Chosen coordinate per iteration (-1 for full-vector steps)."""
        return self._coords

    @property
    def new_values(self) -> np.ndarray:
        return self._new_values

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self._k + 1)

    def snapshots(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored iterates as ``(ks, X)``: ``X[j]`` is x at iteration ``ks[j]``.

        ``ks`` is increasing.  Both arrays are read-only views of the trace's
        storage; copy a row that must be modified.
        """
        m = self._n_snap
        ks = self._snap_ks[:m]
        X = self._snap_x[:m]
        ks.flags.writeable = False
        X.flags.writeable = False
        return ks, X

    def iterate(self, k: int) -> np.ndarray:
        """Exact reconstruction of x_k."""
        if not 0 <= k <= self._k:
            raise IndexError(f"iteration {k} outside trace of length {self._k}")
        m = self._n_snap
        if m == 0:
            raise ValueError("trace stores no iterates")
        pos = int(np.searchsorted(self._snap_ks[:m], k, side="right")) - 1
        base = int(self._snap_ks[pos])
        x = self._snap_x[pos].copy()
        for j in range(base, k):
            i = self._coords[j]
            if i < 0:
                raise ValueError(f"iterate {k} is not reconstructible from deltas")
            x[i] = self._new_values[j]
        return x

    @property
    def final_x(self) -> np.ndarray:
        return self.iterate(self._k)

    def iter_steps(self):
        """Yield (k, x_k, i_k, old, new) for every coordinate step.

        The yielded array is a reused buffer that advances with the walk; copy
        it if it must outlive the iteration step.
        """
        x = self.x0.copy()
        for k in range(self._k):
            i = int(self._coords[k])
            if i < 0:
                raise ValueError("trace contains full-vector steps; walk snapshots instead")
            new = float(self._new_values[k])
            yield k, x, i, float(x[i]), new
            x[i] = new

    @classmethod
    def from_objectives(cls, f_values, seed: Optional[int] = None) -> "Trace":
        """Build a bare trace carrying only an objective sequence.

        Useful for rate analysis of externally produced runs; iterates are
        not available on such traces.
        """
        f_values = np.asarray(f_values, dtype=float)
        if f_values.ndim != 1 or f_values.shape[0] < 1:
            raise ValueError("need a 1-d, nonempty objective sequence")
        k = f_values.shape[0] - 1
        tr = cls(np.zeros(1), np.ones(1), "synthetic", None, seed,
                 record_every=1, capacity=k)
        tr._f[:] = f_values
        tr._k = k
        tr._n_snap = 0
        tr._snap_ks, tr._snap_x = np.empty(0, dtype=np.int64), np.empty((0, 1))
        return tr


# ---------------------------------------------------------------------------
# single steps (pure; used directly by the equivalence tests)


def scdm_step_option1(p: Problem, x, i: int) -> np.ndarray:
    """Replace coordinate ``i`` of ``x`` by the exact slice minimizer."""
    out = np.array(x, dtype=float)
    out[i] = p.exact_coord_min(out, i)
    return out


def scdm_step_option2(p: Problem, x, i: int, omega: float, w) -> np.ndarray:
    """Projected coordinate-gradient step on coordinate ``i``."""
    w = check_weights(w, p.n)
    if omega <= 0:
        raise ValueError("omega must be positive")
    out = np.array(x, dtype=float)
    g = p.coord_gradient(out, i)
    out[i] = p.box.clip_coord(out[i] - (omega / w[i]) * g, i)
    return out


# ---------------------------------------------------------------------------
# runners


def _drive(p: Problem, cfg: SolverConfig, w: np.ndarray, x0: np.ndarray,
           step, method: str, option: Optional[str] = None,
           omega=(lambda k: 1.0, 1.0), record_every: int = 1,
           pass_len: int = 1, abort_on_increase: bool = False) -> Trace:
    """The feasible-descent loop shared by every method.

    ``step(state, k, omega_k)`` moves ``state`` to iterate k+1 and returns
    ``(i, new_value, disp_w_sq)``, ``i = -1`` for a full-vector step.
    ``omega`` is the (schedule, floor) pair; the stall window defaults to
    one pass of ``pass_len`` iterations.
    """
    omega_of, omega_bar = omega
    stall_window = cfg.stall_window or pass_len
    state = p.start_state(x0)
    # the gap rule of a problem that has a duality gap, at the state's image
    gap_of = getattr(p, "_gap_at", None) if cfg.gap_tol else None
    trace = Trace(x0, w, method, option, cfg.seed, record_every, cfg.max_iters)
    f = trace._f
    f[0] = state.objective()
    if not math.isfinite(f[0]):
        raise DivergenceError(0, f[:1], "objective is not finite at the start")
    ulps = 32.0 * np.finfo(float).eps
    t_start = time.perf_counter()
    stop = "budget"
    increases = 0
    for k in range(cfg.max_iters):
        omega_k = omega_of(k)
        if omega_k < omega_bar:
            raise ValueError(f"omega schedule dropped below its floor at k={k}")
        i, new, disp = step(state, k, omega_k)
        f_next = state.objective()
        kk = k + 1
        if not math.isfinite(f_next):
            raise DivergenceError(kk, [f[k], f_next],
                                  f"objective is not finite at iteration {kk}")
        # increases above a few ulps of f signal a bad step size
        rising = abort_on_increase and f_next > f[k] + ulps * max(1.0, abs(f[k]))
        increases = increases + 1 if rising else 0
        if increases >= 2:
            raise DivergenceError(kk, f[max(0, k - 1):kk].tolist() + [f_next])
        trace._append(i, new, f_next, disp, omega_k,
                      time.perf_counter() - t_start, state.x)
        if gap_of is not None and kk % record_every == 0:
            gap = trace.gaps[kk] = gap_of(state.image, f_next)
            if gap <= cfg.gap_tol:
                stop = "gap"
                break
        if cfg.stall_tol is not None and kk >= stall_window:
            if f[kk - stall_window] - f[kk] <= cfg.stall_tol:
                stop = "stall"
                break
    trace._finalize(state.x, stop, time.perf_counter() - t_start)
    return trace


def _scdm_setup(p: Problem, cfg: SolverConfig, option: str, seeds):
    """The set-up :func:`run_scdm` and :func:`run_scdm_seeds` share.

    Checks the option and ``cfg``, warns when an Option II step size is
    unsafe, and returns ``(w, (omega_of, omega_bar), x0, draws)``: column r
    of the ``(max_iters, len(seeds))`` array ``draws`` holds the coordinates
    seed ``seeds[r]`` draws from its own Philox stream.
    """
    if option not in (OPTION_I, OPTION_II):
        raise ValueError(f"option must be 'I' or 'II', got {option!r}")
    cfg.validate()
    if option == OPTION_I:
        cfg.reject_step_size("scdm Option I")
    w = cfg.resolve_w(p)
    omega = cfg.resolve_omega(default=1.0)
    if option == OPTION_II:
        safe = float(np.min(w / p.lipschitz))
        if omega[0](0) > safe * (1.0 + 1e-12):
            warnings.warn(
                "Option II step size exceeds min_i w_i/L_i; descent and the "
                "zero-correction rate guarantee no longer apply",
                stacklevel=3,
            )
    x0 = cfg.resolve_x0(p)
    draws = np.empty((cfg.max_iters, len(seeds)), dtype=np.int64)
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(key=seed))
        draws[:, r] = rng.integers(p.n, size=cfg.max_iters)
    return w, omega, x0, draws


def run_scdm(p: Problem, cfg: SolverConfig, option: str = OPTION_I) -> Trace:
    """Stochastic coordinate descent, uniform coordinate sampling.

    Option I minimizes the chosen coordinate slice exactly; Option II takes
    the projected coordinate-gradient step with step size omega_k / w_i.
    Start point defaults to the projection of the origin onto the box.
    """
    w, omega, x0, draws = _scdm_setup(p, cfg, option, [cfg.seed])
    draws = draws[:, 0].tolist()
    w_of = w.tolist()  # Python floats read faster than numpy scalars

    def step(state: ProblemState, k: int, omega_k: float):
        i = draws[k]
        old = float(state.x[i])
        if option == OPTION_I:
            new = state.exact_coord_min(i)
        else:
            new = p.box.clip_coord(old - (omega_k / w_of[i]) * state.coord_grad(i), i)
        state.set_coord(i, new)
        delta = new - old
        return i, new, w_of[i] * delta * delta

    return _drive(p, cfg, w, x0, step, "scdm", option, omega,
                  record_every=cfg.record_every or p.n, pass_len=p.n)


def run_scdm_seeds(p: Problem, cfg: SolverConfig, seeds,
                   option: str = OPTION_I, at=None):
    """:func:`run_scdm` for many seeds at once, advanced in lockstep.

    The S seeds' iterates are the rows of one ``(S, n)`` array with an
    ``(S, image_dim)`` stack of images, and one iteration moves every row
    with a few numpy calls.  Row r draws its coordinates from seed
    ``seeds[r]``'s Philox stream, exactly as ``run_scdm`` with ``cfg.seed =
    seeds[r]`` does, and takes the same floating-point operations, so its
    iterates and tracked objectives equal that run's bit for bit.

    Returns an iterator of ``(k, X, f)`` for each iteration k in ``at``
    (default: every k from 0 to ``max_iters``): ``X`` is the ``(S, n)``
    stack of x_k, ``f`` the objectives f(x_k).  Both are buffers the run
    keeps moving; copy what must outlive the next step.  ``cfg.seed`` and
    ``cfg.record_every`` are ignored, and nothing is recorded between the
    requested iterations.

    Runs apply to problems whose runs track f as a quadratic with exact
    slices (the SVM dual and the quadratics) and stop on the budget alone.
    ERM and lasso, whose runs evaluate f afresh at every step, and
    ``gap_tol`` and ``stall_tol`` raise ``ValueError``; run those one seed
    at a time with :func:`run_scdm`.  Set-up errors raise here, a
    non-finite objective while iterating.
    """
    if not p._tracks_f:
        raise ValueError(f"{type(p).__name__} has no batched SCDM: a run does "
                         "not track its f as a quadratic; use run_scdm per seed")
    if cfg.gap_tol is not None or cfg.stall_tol is not None:
        raise ValueError("batched SCDM runs stop on the budget alone; "
                         "gap_tol and stall_tol need run_scdm per seed")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("batched SCDM needs at least one seed")
    w, (omega_of, omega_bar), x0, draws = _scdm_setup(p, cfg, option, seeds)
    k_max = cfg.max_iters
    at = range(k_max + 1) if at is None else sorted(set(int(k) for k in at))
    if at and not (at[0] >= 0 and at[-1] <= k_max):
        raise ValueError(f"requested iterations must lie in [0, {k_max}]")
    state = p.start_state(x0)
    if not math.isfinite(state.f):
        raise DivergenceError(0, [state.f], "objective is not finite at the start")
    return _lockstep(p, option, omega_of, omega_bar, w, state, seeds, draws, at)


def _lockstep(p: Problem, option, omega_of, omega_bar, w, state, seeds,
              draws, at):
    """The iteration of :func:`run_scdm_seeds`, one row per seed.

    Each step is ``ProblemState``'s (``exact_coord_min`` or the Option II
    step, then ``set_coord``) done on every row at once, with the same
    operations.  The steps run in chunks that end at the requested
    iterations; a chunk gathers its per-coordinate constants up front and
    collects the objective's increments, which one cumulative sum then adds
    in step order, as the serial state adds them one by one.
    """
    S, n = len(seeds), p.n
    X = np.tile(state.x, (S, 1))
    x_flat = X.reshape(-1)
    row_start = np.arange(S) * n
    images = np.tile(state.image, (S, 1))
    f = np.full(S, state.f)
    cols, curv = p._cols, p._slice_curv
    half_curv = 0.5 * curv
    lower, upper = p.box.lower, p.box.upper
    wanted = iter(at)
    due = next(wanted, None)
    k = 0
    while due is not None:
        stop = min(k + _LOCKSTEP_CHUNK, due)
        coords = draws[k:stop]
        flat_at = coords + row_start
        curv_at, half_at = curv[coords], half_curv[coords]
        lower_at, upper_at, w_at = lower[coords], upper[coords], w[coords]
        # row 0 holds f_k; row t + 1 the increment of step k + t, summed below
        f_path = np.empty((stop - k + 1, S))
        f_path[0] = f
        low = None
        for t in range(stop - k):
            omega_k = omega_of(k + t)
            if omega_k < omega_bar:
                low, f_path = k + t, f_path[:t + 1]
                break
            i = coords[t]
            xi = x_flat[flat_at[t]]
            col = cols.take(i, axis=0)
            g = p._coord_grad(i, xi, p._phi(images), col)
            if option == OPTION_I:
                new = xi - g / curv_at[t]
            else:
                new = xi - (omega_k / w_at[t]) * g
            # clip_coord's min(max(new, lo), hi), signed zeros included
            lo, hi = lower_at[t], upper_at[t]
            np.copyto(new, lo, where=lo > new)
            np.copyto(new, hi, where=hi < new)
            delta = new - xi
            # set_coord leaves a row whose coordinate does not move untouched:
            # adding -0.0 leaves every value as it is, signed zeros included
            stay = delta == 0.0
            inc = f_path[t + 1]
            np.add(g * delta, half_at[t] * delta * delta, out=inc)
            inc[stay] = -0.0
            np.multiply(col, delta[:, None], out=col)
            col[stay] = -0.0
            images += col
            np.copyto(new, xi, where=stay)
            x_flat[flat_at[t]] = new
        np.add.accumulate(f_path, axis=0, out=f_path)
        bad = ~np.isfinite(f_path)
        if bad.any():
            t, r = map(int, np.unravel_index(np.argmax(bad), bad.shape))
            raise DivergenceError(k + t, [f_path[t, r]], "objective is not finite "
                                  f"at iteration {k + t} (seed {seeds[r]})")
        if low is not None:
            raise ValueError(f"omega schedule dropped below its floor at k={low}")
        f = f_path[-1]
        k = stop
        if k == due:
            yield k, X, f
            due = next(wanted, None)


def run_cyclic_cd(p: Problem, cfg: SolverConfig) -> Trace:
    """Cyclic coordinate descent with exact coordinate minimization.

    One trace record covers a full pass over the coordinates in order
    1..n, so a cyclic record costs n coordinate updates.
    """
    cfg.validate()
    cfg.reject_step_size("cyclic coordinate descent")
    w = cfg.resolve_w(p)
    w_of = w.tolist()

    def step(state: ProblemState, k: int, omega_k: float):
        disp = 0.0
        for i in range(p.n):
            old = float(state.x[i])
            new = state.exact_coord_min(i)
            state.set_coord(i, new)
            disp += w_of[i] * (new - old) ** 2
        return -1, np.nan, disp

    return _drive(p, cfg, w, cfg.resolve_x0(p), step, "cyclic")


def run_projected_gradient(p: Problem, cfg: SolverConfig) -> Trace:
    """Full projected-gradient iteration x+ = proj(x - omega W^{-1} grad f(x)).

    The default step size is the reciprocal of the ``sum_i L_i / w_i`` bound,
    which guarantees monotone descent.  Two consecutive objective increases
    abort the run with a diagnostic.
    """
    cfg.validate()
    w = cfg.resolve_w(p)
    omega = cfg.resolve_omega(
        default=1.0 / global_lipschitz_bound(p.lipschitz, w))
    lower, upper = p.box.lower, p.box.upper

    def step(state: ProblemState, k: int, omega_k: float):
        x = state.x
        x_next = np.clip(x - omega_k * (state.gradient() / w), lower, upper)
        disp = float(np.dot(w, (x - x_next) ** 2))
        state.set_x(x_next)
        return -1, np.nan, disp

    return _drive(p, cfg, w, cfg.resolve_x0(p), step, "pgd", omega=omega,
                  abort_on_increase=True)
