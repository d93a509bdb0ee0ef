"""Experiment configuration, orchestration and machine-readable reports.

A validated :class:`ExperimentConfig` drives: dataset construction, problem
assembly, per-seed solver runs in this process, optional certification and
rate/gap analyses, and serialization (one trace CSV per seed plus one
aggregate JSON report checked against the shipped JSON Schema,
``schemas/report.schema.json``, by :func:`validate_report`).

The configuration hash covers every semantics-affecting field; two configs
with equal hash produce byte-identical report bodies modulo the timing block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
import warnings
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from .datasets import Dataset, generate_synthetic, parse_libsvm
from .geometry import Box
from .problems import (ErmProblem, LassoBoxProblem, Problem, QuadraticProblem,
                       SvmDualProblem)
from .rates import (GapReport, estimate_kappa_f, measured_rate,
                    rate_rcfdm_general, rate_rcfdm_zero_z, rate_rfdm,
                    sdca_iteration_bound, svm_sigma_sq)
from .solvers import (OPTION_I, OPTION_II, SolverConfig, Trace, run_cyclic_cd,
                      run_projected_gradient, run_scdm, run_scdm_seeds)
from .verify import check_rcfdm, check_rfdm, fdm_constants, ReplayError

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require_positive(value, name: str, integer: bool = False,
                      zero_ok: bool = False) -> None:
    """Reject all but a finite positive (``zero_ok``: nonnegative) number;
    a bool is not a number here."""
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (value >= 0 if zero_ok else value > 0)
            or not math.isfinite(value)):
        sign = "nonnegative" if zero_ok else "positive"
        kind = "integer" if integer else "number"
        raise ConfigError(f"{name} must be a finite {sign} {kind}, got {value!r}")


def _take(d: dict, allowed: dict, where: str) -> dict:
    """Strict key extraction: rejects unknown keys, fills defaults."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return {k: d.get(k, default) for k, default in allowed.items()}


@dataclass
class ExperimentConfig:
    """A validated experiment.  Its seeds run one after another in the calling
    process; a ``workers`` key must be a positive integer and is ignored."""

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
        top = _take(raw, {
            "problem": None, "dataset": None, "solver": None,
            "seeds": [0], "epsilon": None, "verify": {}, "rates": {},
            "gap": {}, "output_dir": "out", "workers": None,
        }, "config")
        if top["problem"] is None:
            raise ConfigError("config requires a 'problem' section")
        problem = _take(top["problem"], {
            "kind": None, "lam": None, "loss": "logistic", "l1": 0.0,
            "q": None, "diag": None, "hessian": None, "linear": None,
            "box": None, "normalize": True,
        }, "problem")
        if problem["kind"] not in ("svm-dual", "erm", "lasso", "quadratic"):
            raise ConfigError(f"unknown problem kind {problem['kind']!r}")
        dataset = top["dataset"]
        if dataset is not None:
            dataset = _take(dataset, {
                "source": None, "path": None, "generator": None,
                "n": None, "d": None, "seed": 0, "delta": None,
                "margin": 0.1,
            }, "dataset")
            if dataset["source"] not in ("file", "synthetic"):
                raise ConfigError("dataset.source must be 'file' or 'synthetic'")
        solver = _take(top["solver"] or {}, {
            "kind": "scdm", "option": "I", "w": "L", "omega": None,
            "max_iters": 1000, "record_every": None, "x0": None,
            "stall_tol": None,
        }, "solver")
        if solver["kind"] not in ("scdm", "cyclic", "pgd"):
            raise ConfigError(f"unknown solver kind {solver['kind']!r}")
        if solver["kind"] == "scdm" and solver["option"] not in (OPTION_I, OPTION_II):
            raise ConfigError("solver.option must be 'I' or 'II'")
        _require_positive(solver["max_iters"], "solver.max_iters", integer=True,
                          zero_ok=True)
        if not (isinstance(solver["w"], (list, tuple))
                or solver["w"] in ("L", "ones")):
            raise ConfigError("solver.w must be 'L', 'ones' or an explicit vector")
        verify = _take(top["verify"], {
            "rcfdm": False, "rfdm": False, "check_every": None,
        }, "verify")
        rates = _take(top["rates"], {
            "enabled": False, "measured": False, "reference_iters": None,
        }, "rates")
        gap = _take(top["gap"], {
            "enabled": False, "epsilons": [0.1], "n_seeds": 64,
        }, "gap")
        for name, value, integer in (
                ("epsilon", top["epsilon"], False),
                ("workers", top["workers"], True),
                ("solver.omega", solver["omega"], False),
                ("solver.record_every", solver["record_every"], True),
                ("verify.check_every", verify["check_every"], True),
                ("rates.reference_iters", rates["reference_iters"], True)):
            if value is not None:
                _require_positive(value, name, integer)
        if solver["stall_tol"] is not None:
            _require_positive(solver["stall_tol"], "solver.stall_tol", zero_ok=True)
        _require_positive(gap["n_seeds"], "gap.n_seeds", integer=True)
        if not isinstance(gap["epsilons"], (list, tuple)) or not gap["epsilons"]:
            raise ConfigError("gap.epsilons must be a nonempty list")
        for eps in gap["epsilons"]:
            _require_positive(eps, "gap.epsilons entry")
        seeds = top["seeds"]
        if (not isinstance(seeds, (list, tuple)) or len(seeds) == 0
                or not all(isinstance(s, int) and not isinstance(s, bool)
                           and 0 <= s < 2**128 for s in seeds)):
            # a seed keys a Philox stream, whose key is a 128-bit integer
            raise ConfigError("seeds must be a nonempty list of integers "
                              "in [0, 2**128)")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")
        return cls(problem=problem, dataset=dataset, solver=solver,
                   seeds=list(seeds), epsilon=top["epsilon"], verify=verify,
                   rates=rates, gap=gap, output_dir=top["output_dir"])

    def semantic_dict(self) -> dict:
        """The semantics-affecting portion (drives the config hash)."""
        return {
            "problem": self.problem, "dataset": self.dataset,
            "solver": self.solver, "seeds": self.seeds,
            "epsilon": self.epsilon, "verify": self.verify,
            "rates": self.rates, "gap": self.gap,
        }

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
        if not spec["path"]:
            raise ConfigError("dataset.source='file' requires dataset.path")
        classification = cfg.problem["kind"] in ("svm-dual", "erm")
        return parse_libsvm(spec["path"], classification=classification)
    gen = {k: v for k, v in spec.items()
           if k not in ("source",) and v is not None}
    out = generate_synthetic(gen)
    if not isinstance(out, Dataset):
        raise ConfigError("dataset generator did not produce a dataset; "
                          "use problem.kind='quadratic' for synthetic quadratics")
    return out


def build_problem(cfg: ExperimentConfig, dataset: Optional[Dataset]) -> Problem:
    kind = cfg.problem["kind"]
    if kind == "quadratic":
        if cfg.problem["diag"] is not None:
            H = np.diag(np.asarray(cfg.problem["diag"], dtype=float))
        elif cfg.problem["hessian"] is not None:
            H = np.asarray(cfg.problem["hessian"], dtype=float)
        else:
            raise ConfigError("quadratic problem requires 'diag' or 'hessian'")
        n = H.shape[0]
        lin = (np.zeros(n) if cfg.problem["linear"] is None
               else np.asarray(cfg.problem["linear"], dtype=float))
        box_spec = cfg.problem["box"]
        if box_spec is None:
            box = Box.free(n)
        elif (isinstance(box_spec, (list, tuple)) and len(box_spec) == 2
              and np.isscalar(box_spec[0])):
            box = Box.cube(n, float(box_spec[0]), float(box_spec[1]))
        elif isinstance(box_spec, dict):
            box = Box(np.asarray(box_spec["lower"], float),
                      np.asarray(box_spec["upper"], float))
        else:
            raise ConfigError("quadratic box must be null, [lo, hi] or "
                              "{'lower': [...], 'upper': [...]}")
        return QuadraticProblem(H, lin, box)
    if dataset is None:
        raise ConfigError(f"problem kind {kind!r} requires a dataset section")
    if kind == "svm-dual":
        if cfg.problem["lam"] is None:
            raise ConfigError("svm-dual requires problem.lam")
        if cfg.problem["normalize"]:
            dataset = dataset.normalize_rows()
        else:
            warnings.warn(
                "row normalization disabled: the duality-gap iteration bound "
                "assumes ||a_i|| <= 1 and may not hold", stacklevel=2)
        return SvmDualProblem(dataset.features, dataset.labels, cfg.problem["lam"])
    if kind == "erm":
        if cfg.problem["lam"] is None:
            raise ConfigError("erm requires problem.lam")
        return ErmProblem(dataset.features, dataset.labels, cfg.problem["lam"],
                          loss=cfg.problem["loss"])
    # lasso: dataset rows are the design matrix, labels the regression target
    q = None if cfg.problem["q"] is None else np.asarray(cfg.problem["q"], float)
    return LassoBoxProblem(dataset.features, dataset.labels, q=q,
                           l1=cfg.problem["l1"])


def resolve_w(spec, p: Problem) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    if spec == "ones":
        return np.ones(p.n)
    return p.lipschitz.copy()


def validate_pipeline(cfg: ExperimentConfig, p: Problem) -> None:
    """Cross-section checks that must fail before any run starts."""
    if cfg.verify["rfdm"] and not p.box.is_free():
        raise ConfigError("expectation-mode certification (verify.rfdm) "
                          "requires an unconstrained problem")
    if cfg.verify["rfdm"] and not (cfg.solver["kind"] == "scdm"
                                   and cfg.solver["option"] == OPTION_I):
        raise ConfigError("verify.rfdm requires solver kind 'scdm', option 'I'")
    if cfg.verify["rcfdm"] and cfg.solver["kind"] != "scdm":
        raise ConfigError("verify.rcfdm requires solver kind 'scdm'")
    if cfg.gap["enabled"] and not isinstance(p, SvmDualProblem):
        raise ConfigError("the duality-gap experiment requires an svm-dual problem")
    if cfg.epsilon is not None and not hasattr(p, "_gap_at"):
        raise ConfigError("epsilon is a duality-gap tolerance and requires "
                          "an svm-dual problem")
    try:
        sc = _solver_config(cfg, p, 0)
        sc.resolve_w(p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver.w: {exc}") from None
    try:
        sc.resolve_x0(p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver.x0: {exc}") from None
    try:
        sc.step_size(p, _method(cfg))
    except ValueError as exc:
        raise ConfigError(f"solver.omega: {exc}") from None


# ---------------------------------------------------------------------------
# runs


def _method(cfg: ExperimentConfig) -> str:
    """The method name :meth:`SolverConfig.step_size` takes."""
    kind = cfg.solver["kind"]
    return f"scdm-{cfg.solver['option']}" if kind == "scdm" else kind


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


def report_schema() -> dict:
    text = resources.files("fdmkit").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON Schema types (draft 2020-12): a bool is not a number, and a float
# with an integer value is an integer
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# the keywords validate_report checks, and the annotations it passes over
_SCHEMA_KEYWORDS = frozenset({"type", "properties", "required", "enum", "items",
                              "minimum", "additionalProperties", "const",
                              "pattern", "$schema", "title"})


def _json_equal(value, scalar) -> bool:
    """JSON equality with the scalar of an ``enum`` or ``const``: true and 1
    differ, 1.0 and 1 do not."""
    return isinstance(value, bool) == isinstance(scalar, bool) and value == scalar


def _check_schema(value, schema: dict, path: str) -> None:
    """Raise ``ValueError`` naming ``path`` if ``value`` fails ``schema``."""
    if not schema.keys() <= _SCHEMA_KEYWORDS:
        raise ValueError(f"{path}: schema keywords "
                         f"{sorted(schema.keys() - _SCHEMA_KEYWORDS)} are not checked")
    if "type" in schema:
        names = schema["type"]
        names = [names] if isinstance(names, str) else names
        if not any(_JSON_TYPES[t](value) for t in names):
            raise ValueError(f"{path}: {value!r} is not of type "
                             + " or ".join(names))
    if "const" in schema and not _json_equal(value, schema["const"]):
        raise ValueError(f"{path}: {value!r} is not {schema['const']!r}")
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        raise ValueError(f"{path}: {value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        raise ValueError(f"{path}: {value!r} is less than {schema['minimum']!r}")
    if ("pattern" in schema and isinstance(value, str)
            and not re.search(schema["pattern"], value)):
        raise ValueError(f"{path}: {value!r} does not match {schema['pattern']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _check_schema(item, properties[key], f"{path}.{key}")
            elif extra is False:
                raise ValueError(f"{path}: unexpected key {key!r}")
            elif extra is not True:
                _check_schema(item, extra, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for j, item in enumerate(value):
            _check_schema(item, schema["items"], f"{path}[{j}]")


def validate_report(report: dict) -> None:
    """Check ``report`` against ``report.schema.json`` (JSON Schema draft
    2020-12), or raise ``ValueError`` with the JSON path of a failure.

    The check covers the keywords the schema uses, as that draft defines
    them: ``type``, ``properties``, ``required``, ``enum``, ``items``,
    ``minimum``, ``additionalProperties``, ``const`` and ``pattern``;
    ``$schema`` and ``title`` are annotations and check nothing.
    """
    _check_schema(report, report_schema(), "$")


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
        omega = _solver_config(cfg, problem, 0).step_size(problem, _method(cfg))
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
        if cfg.rates["measured"] and f_star is not None:
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
    validate_report(report)
    # encode before opening, so a value JSON cannot hold leaves no partial file
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    report_path = os.path.join(cfg.output_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return ExperimentResult(report=report, report_path=report_path,
                            trace_paths=trace_paths)
