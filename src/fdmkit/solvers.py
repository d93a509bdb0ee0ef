"""Solvers emitting verifiable iterate traces.

Methods: stochastic coordinate descent with exact coordinate minimization
(Option I) or a projected coordinate-gradient step (Option II), cyclic
coordinate descent, and full projected gradient descent.

Coordinate choices are drawn from a counter-based Philox generator keyed by
the run seed, so runs are reproducible bit-for-bit and independent of how
often the trace snapshots full iterates: every field of a trace is equal
across runs with equal seed, config and data.

Every step is a deterministic map of the run state (SCDM draws one of n
coordinate maps), so once x is a floating-point fixed point of every map,
each later step repeats bit for bit.  A run with no gap or stall rule then
writes the rest of its budget in bulk, as stepping would have recorded it
(see ``_drive``): a full step is at a fixed point once it left x unchanged,
SCDM once every coordinate has been drawn since x last moved.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Optional

import numpy as np

from .geometry import check_number, check_weights
from .problems import Problem, ProblemState, f_noise, global_lipschitz_bound

OPTION_I = "I"
OPTION_II = "II"
# The methods that minimize each coordinate exactly and take no step size.
EXACT_METHODS = ("scdm-I", "cyclic")
# The methods that snapshot every step and take no record_every.
FULL_STEP_METHODS = ("cyclic", "pgd")

# The ranges of a run's budget and seed, as check_number takes them: a trace
# counts steps in int64, and a seed is the 128-bit key of a Philox stream.
BUDGET_RANGE = {"integer": True, "inclusive": True, "below": 2**63}
SEED_RANGE = {"integer": True, "inclusive": True, "below": 2**128}
# Steps of a seed-batched run between two reads of its objectives.
_LOCKSTEP_CHUNK = 512
# Coordinates an SCDM run draws from each seed's stream at a time.
_DRAW_BLOCK = 4096


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
    Lipschitz constants, the natural scaling for Option II).  ``omega`` is
    the step size of the methods that take one (Option II, projected
    gradient); :meth:`step_size` resolves it.  Coordinate sampling is uniform
    over the ``n`` coordinates.  ``gap_tol`` stops a run once the duality
    gap, evaluated at every recorded snapshot, reaches it; only problems with
    a duality gap (the SVM dual) take it, and a run of any other problem
    raises ``ValueError``.  ``record_every`` is the steps between two
    snapshots of an SCDM run (default n); cyclic and projected-gradient runs
    snapshot every step and raise ``ValueError`` when it is set.
    """

    w: Optional[np.ndarray] = None
    omega: Optional[float] = None
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

    def step_size(self, p: Problem, method: str) -> float:
        """The step size of a run of ``method`` on ``p``.

        Every run takes this one constant step, so it is also the floor
        omega_bar that the linear-rate theorems are stated in.  Exact
        minimization (``'scdm-I'``, ``'cyclic'``) takes no step and counts as
        1; Option II (``'scdm-II'``) takes ``omega``, by default 1; projected
        gradient (``'pgd'``) takes ``omega``, by default the reciprocal of
        the ``sum_i L_i / w_i`` bound.  Raises ``ValueError`` for a set
        ``omega`` on exact minimization and for an ``omega`` that is not a
        finite positive number.
        """
        omega = self.omega
        if method in EXACT_METHODS:
            if omega is not None:
                raise ValueError(f"{method} minimizes each coordinate exactly "
                                 "and takes no step size (omega)")
            return 1.0
        if method not in ("scdm-II", "pgd"):
            raise ValueError(f"unknown method {method!r}")
        if omega is None:
            if method == "scdm-II":
                return 1.0
            return 1.0 / global_lipschitz_bound(p.lipschitz, self.resolve_w(p))
        return float(check_number(omega, "step size omega"))

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

    def validate(self, method: Optional[str] = None) -> None:
        """Raise ``ValueError`` unless every number field is in its range
        and, for a full-step ``method``, ``record_every`` is unset."""
        check_number(self.max_iters, "max_iters", **BUDGET_RANGE)
        check_number(self.seed, "seed", **SEED_RANGE)
        for name, rule in (("record_every", {"integer": True}),
                           ("stall_window", {"integer": True}),
                           ("gap_tol", {}), ("stall_tol", {"inclusive": True})):
            if getattr(self, name) is not None:
                check_number(getattr(self, name), name, **rule)
        if method in FULL_STEP_METHODS and self.record_every is not None:
            raise ValueError(f"record_every: {method} records every step")


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-iteration record of a solver run, built once when the run stops.

    A run of K steps takes the one step size ``omega`` (see
    :meth:`SolverConfig.step_size`) and records, for each step k = 0..K-1,
    the chosen coordinate ``coords`` (-1 for a full-vector step), its new
    value ``new_values`` and the squared W-displacement ``disp_w_sq``; for
    each iterate x_0..x_K it records the objective ``f``.  For coordinate
    methods the iterates are delta-encoded: the rows of ``snap_x`` are x at
    the increasing iterations ``snap_ks`` (every ``record_every`` iterations
    and the last), and ``iterate(k)`` rebuilds x_k from the snapshot before
    it by assignment, without arithmetic.  Full-step methods snapshot every
    iterate.  ``gaps`` maps each record point where the gap rule ran to its
    duality gap.

    The solver driver builds a trace once, when the run stops, and every
    array of it is read-only; build a modified copy with
    ``dataclasses.replace``.  Every field is bitwise-identical across runs
    with equal seed, config and data, the steps a run writes in bulk from a
    fixed point (see :func:`_drive`) included.
    """

    x0: np.ndarray
    w: np.ndarray
    method: str
    option: Optional[str]
    record_every: int
    omega: float
    f: np.ndarray
    disp_w_sq: np.ndarray
    coords: np.ndarray
    new_values: np.ndarray
    snap_ks: np.ndarray
    snap_x: np.ndarray
    gaps: dict = field(default_factory=dict)
    stop_reason: str = "budget"

    def __post_init__(self):
        for name in ("x0", "w", "f", "disp_w_sq", "coords", "new_values",
                     "snap_ks", "snap_x"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        """Number of iterations (trace holds len(trace) + 1 iterates)."""
        return self.f.shape[0] - 1

    def iterate(self, k: int) -> np.ndarray:
        """Exact reconstruction of x_k."""
        if not 0 <= k <= len(self):
            raise IndexError(f"iteration {k} outside trace of length {len(self)}")
        if self.snap_ks.shape[0] == 0:
            raise ValueError("trace stores no iterates")
        pos = int(np.searchsorted(self.snap_ks, k, side="right")) - 1
        x = self.snap_x[pos].copy()
        for j in range(int(self.snap_ks[pos]), k):
            i = self.coords[j]
            if i < 0:
                raise ValueError(f"iterate {k} is not reconstructible from deltas")
            x[i] = self.new_values[j]
        return x

    @property
    def final_x(self) -> np.ndarray:
        return self.iterate(len(self))


# ---------------------------------------------------------------------------
# runners


def _full_step_fixed(count: int):
    """:func:`_drive`'s ``fixed`` rule for cyclic passes and projected-gradient
    steps, recorded every step.  A step that left x unchanged left the whole
    state unchanged (a pass sets each coordinate once and ``set_coord`` skips
    a zero move; a gradient step rebuilds the image and f from x), so every
    later step repeats it."""
    return array("q", [-1]) * count, array("d", [math.nan]) * count


def _drive(p: Problem, cfg: SolverConfig, w: np.ndarray, omega: float,
           x0: np.ndarray, step, method: str, option: Optional[str] = None,
           record_every: int = 1, pass_len: int = 1,
           abort_on_increase: bool = False, fixed=_full_step_fixed) -> Trace:
    """The feasible-descent loop shared by every method.

    ``step(state)`` moves ``state`` to the next iterate and returns ``(i,
    new_value, disp_w_sq)``, ``i = -1`` for a full-vector step.  ``omega``
    is the run's step size, which ``step`` applies and the trace records;
    the stall window defaults to one pass of ``pass_len`` iterations.

    Fixed points.  A run with no gap or stall rule that reaches a fixed
    point writes the rest of its budget in bulk.  At a record point whose x
    equals the previous snapshot byte for byte (signed zeros included),
    ``fixed(count)`` returns the ``coords`` and ``new_values`` records of
    the next ``count`` steps if x is a fixed point of every step, else
    ``None`` to keep stepping: for a full step, x is one once the step left
    it unchanged; for SCDM, once every coordinate has been drawn since x
    last moved.  Each later step then repeats bit for bit, with f unchanged
    and a zero move, so the loop writes the later steps and snapshots up to
    the budget as stepping would have recorded them: every field of the
    trace is the one stepping would have produced.  A run with a rule
    steps to its stop: no workload fills one, and under a stall rule a fill
    would save at most one window.  Only exact repetition qualifies: a run
    whose x still changes in the last ulp does not repeat, so it steps to
    the end.
    """
    gap_of = None
    if cfg.gap_tol is not None:
        # the gap rule of a problem that has a duality gap, at the state's image
        gap_of = getattr(p, "_gap_at", None)
        if gap_of is None:
            raise ValueError(f"gap_tol needs a problem with a duality gap; "
                             f"{type(p).__name__} has none")
    stall_tol = cfg.stall_tol
    stall_window = pass_len if cfg.stall_window is None else cfg.stall_window
    fills = gap_of is None and stall_tol is None
    budget = cfg.max_iters
    state = p.start_state(x0)
    f0 = state.objective()
    if not math.isfinite(f0):
        raise DivergenceError(0, [f0], "objective is not finite at the start")
    # growable records of the run, read into the trace once it stops
    coords, new_values = array("q"), array("d")
    disp_w_sq = array("d")
    f = array("d", [f0])
    last_x = x0.tobytes()
    snap_ks, snap_x = array("q", [0]), array("d", last_x)
    gaps = {}
    stop = "budget"
    increases = 0
    for k in range(budget):
        i, new, disp = step(state)
        f_next = state.objective()
        kk = k + 1
        if not math.isfinite(f_next):
            raise DivergenceError(kk, [f[k], f_next],
                                  f"objective is not finite at iteration {kk}")
        # increases above the rounding floor of f signal a bad step size (the
        # floor is nonnegative, so only an increase evaluates it)
        rising = (abort_on_increase and f_next > f[k]
                  and f_next > f[k] + f_noise(f[k]))
        increases = increases + 1 if rising else 0
        if increases >= 2:
            raise DivergenceError(kk, f[max(0, k - 1):kk].tolist() + [f_next])
        coords.append(i)
        new_values.append(new)
        f.append(f_next)
        disp_w_sq.append(disp)
        if kk % record_every == 0:
            x_bytes = state.x.tobytes()
            snap_ks.append(kk)
            snap_x.frombytes(x_bytes)
            if gap_of is not None:
                gap = gaps[kk] = gap_of(state.image, f_next)
                if gap <= cfg.gap_tol:
                    stop = "gap"
                    break
            if fills and x_bytes == last_x and kk < budget:
                rest = budget - kk
                moves = fixed(rest)
                if moves is not None:
                    coords.extend(moves[0])
                    new_values.extend(moves[1])
                    f.extend(array("d", [f_next]) * rest)
                    disp_w_sq.extend(array("d", [0.0]) * rest)
                    points = range(kk + record_every, budget + 1, record_every)
                    snap_ks.extend(points)
                    snap_x.frombytes(x_bytes * len(points))
                    break
            last_x = x_bytes
        if stall_tol is not None and kk >= stall_window:
            if f[kk - stall_window] - f[kk] <= stall_tol:
                stop = "stall"
                break
    if snap_ks[-1] != len(coords):
        snap_ks.append(len(coords))
        snap_x.frombytes(state.x.tobytes())

    def read(buf):
        return np.frombuffer(buf, buf.typecode)

    return Trace(x0, np.array(w, dtype=float), method, option, record_every,
                 omega, f=read(f), disp_w_sq=read(disp_w_sq),
                 coords=read(coords), new_values=read(new_values),
                 snap_ks=read(snap_ks), snap_x=read(snap_x).reshape(-1, p.n),
                 gaps=gaps, stop_reason=stop)


def _scdm_setup(p: Problem, cfg: SolverConfig, option: str, seeds):
    """The set-up :func:`run_scdm` and :func:`run_scdm_seeds` share.

    Checks the option and ``cfg``, warns when an Option II step size is
    unsafe, and returns ``(w, omega, x0, blocks)``, where
    ``blocks`` is :func:`_draw_blocks` over ``seeds``: a run draws its
    coordinates ``_DRAW_BLOCK`` steps at a time as it advances, so its memory
    does not grow with the budget.
    """
    if option not in (OPTION_I, OPTION_II):
        raise ValueError(f"option must be 'I' or 'II', got {option!r}")
    cfg.validate()
    w = cfg.resolve_w(p)
    omega = cfg.step_size(p, f"scdm-{option}")
    if option == OPTION_II:
        safe = float(np.min(w / p.lipschitz))
        if omega > safe * (1.0 + 1e-12):
            warnings.warn(
                "Option II step size exceeds min_i w_i/L_i; descent and the "
                "zero-correction rate guarantee no longer apply",
                stacklevel=3,
            )
    return w, omega, cfg.resolve_x0(p), _draw_blocks(p.n, seeds, _DRAW_BLOCK)


def _draw_blocks(n: int, seeds, block: int):
    """Endless ``(block, len(seeds))`` int64 arrays of coordinates in
    ``[0, n)``: column r continues seed ``seeds[r]``'s Philox stream, so the
    blocks stacked equal one ``integers(n, size=K)`` draw of that stream."""
    rngs = [np.random.Generator(np.random.Philox(key=seed)) for seed in seeds]
    while True:
        yield np.stack([rng.integers(n, size=block) for rng in rngs], axis=1)


def run_scdm(p: Problem, cfg: SolverConfig, option: str = OPTION_I) -> Trace:
    """Stochastic coordinate descent, uniform coordinate sampling.

    Option I minimizes the chosen coordinate slice exactly; Option II takes
    the projected coordinate-gradient step with step size omega / w_i.
    Start point defaults to the projection of the origin onto the box.
    """
    w, omega, x0, blocks = _scdm_setup(p, cfg, option, [cfg.seed])
    draws = chain.from_iterable(b[:, 0].tolist() for b in blocks)
    w_of = w.tolist()  # Python floats read faster than numpy scalars

    if option == OPTION_I:
        new_value = ProblemState.exact_coord_min
    else:
        scale = [omega / w_i for w_i in w_of]

        def new_value(state: ProblemState, i: int) -> float:
            return p.box.clip_coord(
                float(state.x[i]) - scale[i] * state.coord_grad(i), i)

    # what each coordinate's map returned since x last moved; a step that
    # does not move leaves the state as it was (set_coord skips a zero move)
    stayed = {}

    def step(state: ProblemState):
        i = next(draws)
        old = float(state.x[i])
        new = new_value(state, i)
        state.set_coord(i, new)
        delta = new - old
        if delta:
            stayed.clear()
        else:
            stayed[i] = new
        return i, new, w_of[i] * delta * delta

    def fixed(count: int):
        if len(stayed) < p.n:
            return None
        drawn = array("q", islice(draws, count))
        return drawn, array("d", [stayed[i] for i in drawn])

    return _drive(p, cfg, w, omega, x0, step, "scdm", option,
                  record_every=cfg.record_every or p.n, pass_len=p.n,
                  fixed=fixed)


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

    Runs apply to problems whose slices are exact quadratics (the SVM dual,
    the quadratics, the lasso and squared-loss l2-ERM), whose runs track f
    by exact Taylor steps, and stop on the budget alone.  Problems with
    Newton slices (logistic and squared-hinge l2-ERM), whose runs evaluate
    f afresh at every step, and ``gap_tol`` and ``stall_tol`` raise
    ``ValueError``; run those one seed at a time with :func:`run_scdm`.
    Set-up errors, a seed outside ``SEED_RANGE`` among them, raise here; a
    non-finite objective raises while iterating.
    """
    if p._slice_curv is None:
        raise ValueError(f"{type(p).__name__} has no batched SCDM: its slices "
                         "are not exact quadratics, so a run does not track "
                         "its f; use run_scdm per seed")
    if cfg.gap_tol is not None or cfg.stall_tol is not None:
        raise ValueError("batched SCDM runs stop on the budget alone; "
                         "gap_tol and stall_tol need run_scdm per seed")
    seeds = [check_number(seed, "seed", **SEED_RANGE) for seed in seeds]
    if not seeds:
        raise ValueError("batched SCDM needs at least one seed")
    w, omega, x0, blocks = _scdm_setup(p, cfg, option, seeds)
    k_max = cfg.max_iters
    at = range(k_max + 1) if at is None else sorted(set(int(k) for k in at))
    if at and not (at[0] >= 0 and at[-1] <= k_max):
        raise ValueError(f"requested iterations must lie in [0, {k_max}]")
    state = p.start_state(x0)
    if not math.isfinite(state.f):
        raise DivergenceError(0, [state.f], "objective is not finite at the start")
    return _lockstep(p, option, omega, w, state, seeds, blocks, at)


def _lockstep(p: Problem, option, omega, w, state, seeds, blocks, at):
    """The iteration of :func:`run_scdm_seeds`, one row per seed.

    Each step is ``ProblemState``'s (``exact_coord_min`` or the Option II
    step, then ``set_coord``) done on every row at once, with the same
    operations.  The steps run in chunks that end at the requested
    iterations and at the ends of the draw ``blocks``; a chunk gathers its
    per-coordinate constants up front and keeps each step's coordinate
    gradient and move, from which one pass after the chunk forms the
    objective's increments and one cumulative sum adds them in step order,
    as the serial state adds them one by one.
    """
    S, n = len(seeds), p.n
    X = np.tile(state.x, (S, 1))
    x_flat = X.reshape(-1)
    row_start = np.arange(S) * n
    images = np.tile(state.image, (S, 1))
    f = np.full(S, state.f)
    cols, curv = p._cols, p._slice_curv
    # BLAS sums the dot of a strided vector in another order than that of a
    # contiguous one, so each step gathers its rows of _cols into a buffer
    # whose rows are strided exactly when those of _cols are: the dots of
    # the stack then equal the serial state's
    strided = cols.strides[1] != cols.itemsize
    step_cols = np.empty((S, cols.shape[1], 2 if strided else 1))[:, :, 0]
    half_curv = 0.5 * curv
    lower, upper = p.box.lower, p.box.upper
    wanted = iter(at)
    due = next(wanted, None)
    k, block, block_at = 0, next(blocks), 0
    while due is not None:
        if k == block_at + len(block):
            block, block_at = next(blocks), k
        stop = min(k + _LOCKSTEP_CHUNK, due, block_at + len(block))
        coords = block[k - block_at:stop - block_at]
        flat_at = coords + row_start
        lower_at, upper_at = lower[coords], upper[coords]
        if option == OPTION_I:
            curv_at = curv[coords]
        else:
            scale_at = omega / w[coords]
        # row t of g_at and delta_at: step k + t's coordinate gradient and move
        g_at, delta_at = np.empty((2, stop - k, S))
        for t in range(stop - k):
            i = coords[t]
            xi = x_flat[flat_at[t]]
            col = cols.take(i, axis=0, out=step_cols, mode="clip")
            g = g_at[t] = p._coord_grad(i, xi, p._phi(images), col)
            if option == OPTION_I:
                new = xi - g / curv_at[t]
            else:
                new = xi - scale_at[t] * g
            # clip_coord's min(max(new, lo), hi), signed zeros included
            lo, hi = lower_at[t], upper_at[t]
            np.copyto(new, lo, where=lo > new)
            np.copyto(new, hi, where=hi < new)
            delta = np.subtract(new, xi, out=delta_at[t])
            # set_coord leaves a row whose coordinate does not move untouched
            stay = delta == 0.0
            np.multiply(col, delta[:, None], out=col)
            np.add(images, col, out=images, where=~stay[:, None])
            np.copyto(new, xi, where=stay)
            x_flat[flat_at[t]] = new
        # row 0 holds f_k; row t + 1 set_coord's increment g d + (c/2) d^2 of
        # step k + t, and -0.0, which leaves every value as it is, where d = 0
        f_path = np.empty((stop - k + 1, S))
        f_path[0] = f
        inc = np.multiply(g_at, delta_at, out=f_path[1:])
        inc += half_curv[coords] * delta_at * delta_at
        np.copyto(inc, -0.0, where=delta_at == 0.0)
        np.add.accumulate(f_path, axis=0, out=f_path)
        bad = ~np.isfinite(f_path)
        if bad.any():
            t, r = map(int, np.unravel_index(np.argmax(bad), bad.shape))
            raise DivergenceError(k + t, [f_path[t, r]], "objective is not finite "
                                  f"at iteration {k + t} (seed {seeds[r]})")
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
    cfg.validate("cyclic")
    w = cfg.resolve_w(p)
    omega = cfg.step_size(p, "cyclic")
    w_of = w.tolist()

    def step(state: ProblemState):
        disp = 0.0
        for i in range(p.n):
            old = float(state.x[i])
            new = state.exact_coord_min(i)
            state.set_coord(i, new)
            disp += w_of[i] * (new - old) ** 2
        return -1, np.nan, disp

    return _drive(p, cfg, w, omega, cfg.resolve_x0(p), step, "cyclic")


def run_projected_gradient(p: Problem, cfg: SolverConfig) -> Trace:
    """Full projected-gradient iteration x+ = proj(x - omega W^{-1} grad f(x)).

    The default step size is the reciprocal of the ``sum_i L_i / w_i`` bound,
    which guarantees monotone descent.  Two consecutive objective increases
    abort the run with a diagnostic.
    """
    cfg.validate("pgd")
    w = cfg.resolve_w(p)
    omega = cfg.step_size(p, "pgd")
    lower, upper = p.box.lower, p.box.upper

    def step(state: ProblemState):
        x = state.x
        x_next = np.clip(x - omega * (state.gradient() / w), lower, upper)
        disp = float(np.dot(w, (x - x_next) ** 2))
        state.set_x(x_next)
        return -1, np.nan, disp

    return _drive(p, cfg, w, omega, cfg.resolve_x0(p), step, "pgd",
                  abort_on_increase=True)
