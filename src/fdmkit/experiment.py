"""Experiment configuration, orchestration and machine-readable reports.

A validated :class:`ExperimentConfig` drives: dataset construction, problem
assembly, per-seed solver runs in this process, optional certification and
rate/gap analyses, and serialization (one trace CSV per seed plus one
aggregate JSON report).  The run checks only that the report is valid JSON
(:func:`validate_report`); the shipped JSON Schema,
``schemas/report.schema.json``, is the report's output contract, and the
tests check every report a run writes against it.

The configuration hash covers every semantics-affecting field; two configs
with equal hash produce byte-identical report bodies modulo the timing block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .datasets import Dataset, gaussian_margin, parse_libsvm
from .geometry import Box, check_number
from .problems import (_LOSSES, ErmProblem, LassoBoxProblem, Problem,
                       QuadraticProblem, SvmDualProblem)
from .rates import (GapReport, estimate_kappa_f, measured_rate,
                    rate_rcfdm_general, rate_rcfdm_zero_z, rate_rfdm,
                    sdca_iteration_bound, svm_sigma_sq)
from .solvers import (BUDGET_RANGE, EXACT_METHODS, FULL_STEP_METHODS, OPTION_I,
                      OPTION_II, SEED_RANGE, SolverConfig, Trace, run_cyclic_cd,
                      run_projected_gradient, run_scdm, run_scdm_seeds)
from .verify import check_rcfdm, check_rfdm, fdm_constants, ReplayError

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check(rule, value, name: str):
    """``value`` if it keeps ``rule``, else a ``ValueError`` naming ``name``.

    A rule is a function of ``(value, name)`` such as :func:`check_number`;
    a tuple of the values allowed (``True`` is not 1 here); ``str`` for a
    nonempty string; ``[rule]`` for a nonempty list of values that keep
    ``rule``; or a key table, for an object whose keys it states.
    """
    if isinstance(rule, dict):
        return _take(value, rule, name)
    if isinstance(rule, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name} must be a nonempty list, got {value!r}")
        return [_check(rule[0], v, f"{name}[{j}]") for j, v in enumerate(value)]
    if isinstance(rule, tuple):
        ok = any(type(value) is type(v) and value == v for v in rule)
        what = f"one of {list(rule)}"
    elif rule is str:
        ok, what = isinstance(value, str) and value != "", "a nonempty string"
    else:
        return rule(value, name)
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _take(d, table: dict, where: str = "") -> dict:
    """``d`` with the defaults of ``table`` filled in and each value checked
    by its rule; ``None`` passes where it is the default.  A ``ConfigError``
    names the dotted key of an unknown key or a bad value."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {d!r}")
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
    out = {}
    for key, (default, rule) in table.items():
        value = d.get(key, default)
        try:
            out[key] = (None if value is None and default is None
                        else _check(rule, value, f"{where}.{key}" if where else key))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return out


_FLAG = (True, False)
_COUNT = partial(check_number, integer=True)
_SEED = partial(check_number, **SEED_RANGE)
_NONNEGATIVE = partial(check_number, inclusive=True)
_REAL = partial(check_number, minimum=-math.inf)


def _box(value, name):
    """[lo, hi] or {"lower": [...], "upper": [...]}: finite numbers that make
    a :class:`Box` (a report cannot hold an infinite bound)."""
    if isinstance(value, dict) and value.keys() == {"lower", "upper"}:
        sides = [_check([_REAL], value[k], f"{name}.{k}") for k in ("lower", "upper")]
    elif isinstance(value, list) and len(value) == 2:
        sides = [[bound] for bound in _check([_REAL], value, name)]
    else:
        raise ValueError(f"{name} must be [lo, hi] or {{'lower': [...], "
                         f"'upper': [...]}}, got {value!r}")
    try:
        Box(*sides)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return value


# Every key of a config with its default and its rule (see _check): the one
# place where the keys, their defaults and their checks are stated.
_CONFIG_KEYS = {
    "problem": ({}, {
        "kind": (None, ("svm-dual", "erm", "lasso", "quadratic")),
        "lam": (None, check_number), "loss": ("logistic", tuple(_LOSSES)),
        "l1": (0.0, _NONNEGATIVE), "q": (None, [_REAL]),
        "diag": (None, [_REAL]), "hessian": (None, [[_REAL]]),
        "linear": (None, [_REAL]), "box": (None, _box),
        "normalize": (True, _FLAG)}),
    "dataset": (None, {
        "source": (None, ("file", "synthetic")), "path": (None, str),
        "generator": (None, ("gaussian-margin",)),
        "n": (None, _COUNT), "d": (None, _COUNT), "seed": (0, _SEED),
        "margin": (0.1, _REAL)}),
    "solver": ({}, {
        "kind": ("scdm", ("scdm", "cyclic", "pgd")),
        "option": (OPTION_I, (OPTION_I, OPTION_II)),
        "w": ("L", lambda value, name: _check(
            ("L", "ones") if isinstance(value, str) else [check_number], value, name)),
        "omega": (None, check_number),
        "max_iters": (1000, partial(check_number, **BUDGET_RANGE)),
        "record_every": (None, _COUNT), "x0": (None, [_REAL]),
        "stall_tol": (None, _NONNEGATIVE)}),
    "seeds": ([0], [_SEED]),
    "epsilon": (None, check_number),
    "verify": ({}, {"rcfdm": (False, _FLAG), "rfdm": (False, _FLAG),
                    "check_every": (None, _COUNT)}),
    "rates": ({}, {"enabled": (False, _FLAG), "reference_iters": (None, _COUNT)}),
    "gap": ({}, {"enabled": (False, _FLAG), "epsilons": ([0.1], [check_number]),
                 "n_seeds": (64, _COUNT)}),
    "output_dir": ("out", str),
    "workers": (None, _COUNT),
}


@dataclass
class ExperimentConfig:
    """A validated experiment, whose keys, defaults and rules are stated in
    one place, the key table ``_CONFIG_KEYS``; :meth:`from_dict` adds the
    keys a problem kind or dataset source requires and the keys that
    conflict.  The seeds run one after another in this process, and
    ``workers`` is ignored."""

    problem: dict
    dataset: Optional[dict]
    solver: dict
    seeds: list
    epsilon: Optional[float]
    verify: dict
    rates: dict
    gap: dict
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        top = _take(raw, _CONFIG_KEYS)
        del top["workers"]
        problem, dataset = top["problem"], top["dataset"]
        kind, source = problem["kind"], dataset and dataset["source"]
        unset = [f"dataset.{key}" for key in {
            "file": ["path"], "synthetic": ["generator", "n", "d"]}.get(source, [])
            if dataset[key] is None]
        missing = (
            "problem.kind" if kind is None
            else "a dataset section" if kind != "quadratic" and not dataset
            else "problem.lam" if kind in ("svm-dual", "erm") and problem["lam"] is None
            else "problem.diag or problem.hessian" if kind == "quadratic"
            and problem["diag"] is None and problem["hessian"] is None
            else "dataset.source" if dataset and source is None
            else unset[0] if unset
            else "distinct seeds" if len(set(top["seeds"])) < len(top["seeds"])
            else None)
        if missing:
            raise ConfigError(f"config requires {missing}")
        solver, verify = top["solver"], top["verify"]
        method = _method(solver)
        # a box in a config has finite bounds (see _box)
        free = kind == "erm" or kind == "quadratic" and problem["box"] is None
        conflict = (
            "verify.rfdm requires an unconstrained problem: erm, or quadratic "
            "without problem.box" if verify["rfdm"] and not free
            else "verify.rfdm requires solver kind 'scdm', option 'I'"
            if verify["rfdm"] and method != "scdm-I"
            else "verify.rcfdm requires solver kind 'scdm'"
            if verify["rcfdm"] and solver["kind"] != "scdm"
            else "gap.enabled requires an svm-dual problem"
            if top["gap"]["enabled"] and kind != "svm-dual"
            else "epsilon is a duality-gap tolerance and requires an svm-dual problem"
            if top["epsilon"] is not None and kind != "svm-dual"
            else f"solver.omega: {method} minimizes each coordinate exactly "
            "and takes no step size" if solver["omega"] is not None
            and method in EXACT_METHODS
            else f"solver.record_every: {method} records every step"
            if solver["record_every"] is not None and method in FULL_STEP_METHODS
            else None)
        if conflict:
            raise ConfigError(conflict)
        return cls(**top)

    def semantic_dict(self) -> dict:
        """The semantics-affecting portion (drives the config hash)."""
        return {k: v for k, v in vars(self).items() if k != "output_dir"}

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# problem assembly


def build_dataset(cfg: ExperimentConfig) -> Optional[Dataset]:
    spec = cfg.dataset
    if spec is None:
        return None
    if spec["source"] == "file":
        classification = cfg.problem["kind"] in ("svm-dual", "erm")
        return parse_libsvm(spec["path"], classification=classification)
    return gaussian_margin(spec["n"], spec["d"], spec["seed"], spec["margin"])


def build_problem(cfg: ExperimentConfig, dataset: Optional[Dataset]) -> Problem:
    kind = cfg.problem["kind"]
    if kind == "quadratic":
        diag = cfg.problem["diag"]
        H = (np.asarray(cfg.problem["hessian"], float) if diag is None
             else np.diag(np.asarray(diag, float)))
        n = H.shape[0]
        lin = (np.zeros(n) if cfg.problem["linear"] is None
               else np.asarray(cfg.problem["linear"], dtype=float))
        box = cfg.problem["box"]
        if isinstance(box, dict):
            box = Box(np.asarray(box["lower"], float), np.asarray(box["upper"], float))
        elif box is not None:
            box = Box.cube(n, *box)
        return QuadraticProblem(H, lin, box)
    if kind == "svm-dual":
        if cfg.problem["normalize"]:
            dataset = dataset.normalize_rows()
        else:
            warnings.warn(
                "row normalization disabled: the duality-gap iteration bound "
                "assumes ||a_i|| <= 1 and may not hold", stacklevel=2)
        return SvmDualProblem(dataset.features, dataset.labels, cfg.problem["lam"])
    if kind == "erm":
        return ErmProblem(dataset.features, dataset.labels, cfg.problem["lam"],
                          loss=cfg.problem["loss"])
    # lasso: dataset rows are the design matrix, labels the regression target
    return LassoBoxProblem(dataset.features, dataset.labels, q=cfg.problem["q"],
                           l1=cfg.problem["l1"])


def resolve_w(spec, p: Problem) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    if spec == "ones":
        return np.ones(p.n)
    return p.lipschitz.copy()


def validate_pipeline(cfg: ExperimentConfig, p: Problem) -> None:
    """The checks that need the data, before any run starts: the length and
    sign of ``solver.w`` and the length and feasibility of ``solver.x0``."""
    sc = _solver_config(cfg, p, 0)
    for key, check in (("w", sc.resolve_w), ("x0", sc.resolve_x0)):
        try:
            check(p)
        except ValueError as exc:
            raise ConfigError(f"solver.{key}: {exc}") from None


# ---------------------------------------------------------------------------
# runs


def _method(solver: dict) -> str:
    """The method name of a solver section, as
    :meth:`SolverConfig.step_size` takes it."""
    kind = solver["kind"]
    return f"scdm-{solver['option']}" if kind == "scdm" else kind


def _solver_config(cfg: ExperimentConfig, p: Problem, seed: int) -> SolverConfig:
    return SolverConfig(
        w=resolve_w(cfg.solver["w"], p),
        omega=cfg.solver["omega"],
        max_iters=cfg.solver["max_iters"],
        seed=seed,
        record_every=cfg.solver["record_every"],
        x0=cfg.solver["x0"],
        gap_tol=cfg.epsilon,
        stall_tol=cfg.solver["stall_tol"],
    )


def run_single(p: Problem, cfg: ExperimentConfig, seed: int) -> Trace:
    sc = _solver_config(cfg, p, seed)
    kind = cfg.solver["kind"]
    if kind == "scdm":
        return run_scdm(p, sc, option=cfg.solver["option"])
    if kind == "cyclic":
        return run_cyclic_cd(p, sc)
    return run_projected_gradient(p, sc)


# The reference run's seed, and the duality gap it stops at on the SVM dual.
_REFERENCE_SEED = 10_000
_REFERENCE_GAP_TOL = 1e-12


def reference_solve(p: Problem, iters: Optional[int] = None):
    """The reference ``(x_star, f_star, trace)`` of the rates and gap blocks.

    ``trace`` is an exact-minimization (Option I) SCDM run from the default
    start with seed ``_REFERENCE_SEED`` and a budget of ``iters`` steps, by
    default ``max(400 n, 20000)``; :func:`estimate_kappa_f` samples its
    snapshots.  By family:

    - l2-ERM: ``(x_star, f_star)`` is the damped Newton solve of
      :meth:`ErmProblem.newton_minimizer`.  The run stops at the first pass
      of n steps that no longer lowers f (``stall_tol = 0``): its snapshots
      are a prefix of the full-budget run's, and the ones it leaves out sit
      within the rounding floor of f*, which the estimate skips.
    - SVM dual: the run stops once its duality gap reaches 1e-12, and
      ``(x_star, f_star)`` is its final iterate and objective.
    - Quadratics and the lasso: the run takes the whole budget, and
      ``(x_star, f_star)`` is its final iterate and objective.
    """
    if iters is None:
        iters = max(400 * p.n, 20_000)
    if isinstance(p, ErmProblem):
        sc = SolverConfig(max_iters=iters, seed=_REFERENCE_SEED, stall_tol=0.0)
        x_star, f_star = p.newton_minimizer()
        return x_star, f_star, run_scdm(p, sc, option=OPTION_I)
    gap_tol = _REFERENCE_GAP_TOL if isinstance(p, SvmDualProblem) else None
    sc = SolverConfig(max_iters=iters, seed=_REFERENCE_SEED, gap_tol=gap_tol)
    tr = run_scdm(p, sc, option=OPTION_I)
    return tr.final_x, float(tr.f[len(tr)]), tr


def mean_gap_experiment(p: SvmDualProblem, epsilons, n_seeds: int = 64,
                        reference=None) -> list[GapReport]:
    """Multi-seed duality-gap means against the theoretical iteration bound.

    The bound is stated in the geometry w = L: its kappa_f is estimated from
    ``reference`` (by default :func:`reference_solve`) with w = L.  Runs
    exact coordinate minimization from the origin with w = L for the seeds
    ``0 .. n_seeds - 1`` up to the largest bound, and fills each
    :class:`GapReport` with the observed mean behavior: the mean gap every n
    iterations and at each bound.

    All seeds advance together as one :func:`run_scdm_seeds` call, which
    draws their coordinates block by block, so memory grows with the number
    of seeds but not with the iteration bound.  At each reported iteration
    one :meth:`SvmDualProblem.duality_gap` call evaluates the stack of
    iterates, and the gaps are added in seed order, so the means equal those
    of one ``run_scdm`` per seed bit for bit.  No iterate is kept past its
    evaluation.
    """
    if reference is None:
        reference = reference_solve(p)
    x_star, f_star, ref_trace = reference
    w = p.lipschitz
    kappa_hat = estimate_kappa_f(p, ref_trace, x_star, f_star, w)
    f0 = p.value(p.box.clip(np.zeros(p.n)))
    initial = f0 - f_star + float(np.dot(w, x_star * x_star))
    sigma_sq = svm_sigma_sq(p)
    reports = [sdca_iteration_bound(eps, p.lam, sigma_sq, p.n, kappa_hat, initial)
               for eps in epsilons]
    k_max = max(r.iteration_bound for r in reports)
    ks = range(0, k_max + 1, p.n)
    gap_sum = np.zeros(len(ks))
    final_gaps = {r.iteration_bound: 0.0 for r in reports}
    for k, X, _ in run_scdm_seeds(p, SolverConfig(max_iters=k_max), range(n_seeds),
                                  OPTION_I, at=[*ks, *final_gaps]):
        gaps = p.duality_gap(X).tolist()
        if k % p.n == 0:
            for gap in gaps:
                gap_sum[k // p.n] += gap
        if k in final_gaps:
            for gap in gaps:
                final_gaps[k] += gap
    mean_gaps = gap_sum / n_seeds
    for r in reports:
        r.n_seeds = n_seeds
        r.mean_gap_at_bound = final_gaps[r.iteration_bound] / n_seeds
        hit = np.nonzero(mean_gaps <= r.epsilon)[0]
        r.observed_iteration = ks[hit[0]] if len(hit) else None
    return reports


# ---------------------------------------------------------------------------
# serialization


def format_float(v: float) -> str:
    return f"{v:.17g}"


# one row of a trace CSV per step, and the steps per format call
_CSV_ROW = "%d,%s,%.17g,%.17g,%s\n"
_CSV_CHUNK = 1 << 14


def write_trace_csv(trace: Trace, path) -> None:
    """Columns: k, i, f, disp_w_sq, gap (empty where not applicable).

    Floats are written as :func:`format_float` writes them.  The step rows
    are written a chunk at a time, each chunk one ``%``-format over its
    interleaved fields; the row of the final iterate, which has no step, is
    formatted on its own.
    """
    k_total = len(trace)
    gaps = {k: format_float(gap) for k, gap in trace.gaps.items()}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("k,i,f,disp_w_sq,gap\n")
        for a in range(0, k_total, _CSV_CHUNK):
            b = min(a + _CSV_CHUNK, k_total)
            fields = [None] * (5 * (b - a))
            fields[0::5] = range(a, b)
            fields[1::5] = [c if c >= 0 else "" for c in trace.coords[a:b].tolist()]
            fields[2::5] = trace.f[a:b].tolist()
            fields[3::5] = trace.disp_w_sq[a:b].tolist()
            fields[4::5] = [gaps.get(k, "") for k in range(a, b)]
            fh.write((_CSV_ROW * (b - a)) % tuple(fields))
        f_last = format_float(float(trace.f[k_total]))
        fh.write(f"{k_total},,{f_last},,{gaps.get(k_total, '')}\n")


def validate_report(report: dict) -> str:
    """``report`` as the text of ``report.json``, or ``ValueError`` where it
    holds a NaN or an infinity, which JSON cannot hold.

    This is the run's only check on the report: that it is valid JSON.  The
    output contract is ``schemas/report.schema.json`` (JSON Schema draft
    2020-12), and the tests check every report a run writes against it.
    """
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


@dataclass
class ExperimentResult:
    report: dict
    report_path: str
    trace_paths: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if any(s["status"] != "ok" for s in self.report["seeds"]):
            return 2
        if not self.report["aggregate"]["certificates_all_passed"]:
            return 3
        return 0


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute a validated configuration end to end.

    Per-seed solver failures are isolated (recorded with status 'failed');
    the aggregate report always lands on disk.  Certification failures mark
    the certificate as not passed rather than aborting the experiment.
    """
    t0 = time.perf_counter()
    dataset = build_dataset(cfg)
    problem = build_problem(cfg, dataset)
    validate_pipeline(cfg, problem)
    os.makedirs(cfg.output_dir, exist_ok=True)
    w = resolve_w(cfg.solver["w"], problem)

    traces: dict[int, Trace] = {}
    failures: dict[int, str] = {}
    for seed in cfg.seeds:
        try:
            traces[seed] = run_single(problem, cfg, seed)
        except Exception as exc:  # noqa: BLE001 - isolate per seed
            failures[seed] = f"{type(exc).__name__}: {exc}"

    reference = None
    f_star = None
    kappa_hat = None
    rate_block = None
    if cfg.rates["enabled"]:
        reference = reference_solve(problem, iters=cfg.rates["reference_iters"])
        x_star, f_star, ref_trace = reference
        try:
            kappa_hat = estimate_kappa_f(problem, ref_trace, x_star, f_star, w)
        except ValueError:
            pass  # the reference run sits at the optimum: kappa_f is undefined
    if kappa_hat is not None:
        kind = cfg.solver["kind"]
        framework = f"rcfdm-{cfg.solver['option']}" if kind == "scdm" else kind
        beta_sq, zeta, inputs = fdm_constants(problem, w, framework)
        lfw, beta = inputs["l_f_w"], float(np.sqrt(beta_sq))
        omega = _solver_config(cfg, problem, 0).step_size(problem,
                                                          _method(cfg.solver))
        if framework == "rcfdm-II":
            rc = rate_rcfdm_zero_z(kappa_hat, omega, problem.n)
        elif framework == "rcfdm-I":
            rc = rate_rcfdm_general(kappa_hat, zeta, beta, omega, problem.n)
        else:
            rc = rate_rfdm(kappa_hat, zeta, beta, omega, lfw)
        rate_block = asdict(rc)

    # built per call, so a caller may replace check_rcfdm or check_rfdm
    every = cfg.verify["check_every"]
    checkers = [c for c in (("rcfdm", check_rcfdm, every or 1),
                            ("rfdm", check_rfdm, every)) if cfg.verify[c[0]]]
    seed_entries = []
    trace_paths = {}
    all_certs_passed = True
    for seed in cfg.seeds:
        if seed in failures:
            seed_entries.append({"seed": seed, "status": "failed",
                                 "error": failures[seed]})
            continue
        tr = traces[seed]
        csv_name = f"trace_seed{seed}.csv"
        csv_path = os.path.join(cfg.output_dir, csv_name)
        write_trace_csv(tr, csv_path)
        trace_paths[seed] = csv_path
        entry = {
            "seed": seed, "status": "ok", "iterations": len(tr),
            "stop_reason": tr.stop_reason,
            "final_f": float(tr.f[len(tr)]), "trace_csv": csv_name,
            "certificates": [],
        }
        for framework, check, check_every in checkers:
            try:
                cert = check(tr, problem, w, check_every=check_every)
                entry["certificates"].append(cert.as_dict())
                all_certs_passed = all_certs_passed and cert.passed
            except ReplayError as exc:
                entry["certificates"].append(
                    {"framework": framework, "passed": False,
                     "replay_error": str(exc)})
                all_certs_passed = False
        if f_star is not None:
            try:
                entry["measured_rate"] = measured_rate(tr.f, f_star)
            except ValueError:
                entry["measured_rate"] = None
        seed_entries.append(entry)

    gap_block = None
    if cfg.gap["enabled"]:
        if reference is None:
            reference = reference_solve(problem)
        reports = mean_gap_experiment(problem, cfg.gap["epsilons"],
                                      n_seeds=cfg.gap["n_seeds"],
                                      reference=reference)
        gap_block = [asdict(r) for r in reports]

    ok_finals = [e["final_f"] for e in seed_entries if e["status"] == "ok"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash(),
        "config": cfg.semantic_dict(),
        "problem": {"kind": cfg.problem["kind"], "n": problem.n,
                    "box_free": problem.box.is_free()},
        "seeds": seed_entries,
        "failed_seeds": sorted(failures),
        "aggregate": {
            "certificates_all_passed": all_certs_passed,
            "mean_final_f": float(np.mean(ok_finals)) if ok_finals else None,
            "rate_constants": rate_block,
            "kappa_hat": kappa_hat,
            "f_star_reference": f_star,
            "gap_reports": gap_block,
        },
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    # encode before opening, so a value JSON cannot hold leaves no partial file
    text = validate_report(report)
    report_path = os.path.join(cfg.output_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return ExperimentResult(report=report, report_path=report_path,
                            trace_paths=trace_paths)
