"""Per-layer metrics from the spans of one traced operation.

A layer's time is the total duration of its spans; a self time subtracts
the part of the span its child spans cover.  ``experiment.unattributed_s``
is the operation's wall time that no layer span covers.  Metrics of a layer
the workload does not reach are reported as 0.
"""

from __future__ import annotations

from collections import defaultdict

from child import METHODS, SOLVER_NAMES as SOLVERS
from workloads import FIXTURES

# Spans that run_experiment reaches only after the per-seed solves.
AFTER_SEEDS = ("reference_solve", "estimate_kappa_f", "write_trace_csv",
               "check_rcfdm", "check_rfdm", "mean_gap_experiment",
               "validate_report")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.import_s": "s",
    "datasets.parse_s": "s",
    "datasets.nnz_per_s": "1/s",
    "problems.build_s": "s",
    "solvers.run_s": "s",
    "solvers.steps": "count",
    "solvers.steps_per_s": "1/s",
    **{f"solvers.steps_per_s.{f}.{m}": "1/s" for f in FIXTURES for m in METHODS},
    "experiment.seed_solves_s": "s",
    "verify.rcfdm_s": "s",
    "verify.rcfdm_checked_per_s": "1/s",
    "verify.rfdm_s": "s",
    "verify.rfdm_checked_per_s": "1/s",
    **{f"verify.audit_s.{m}": "s" for m in METHODS},
    "verify.audit_snapshots_per_s": "1/s",
    "experiment.reference_solve_s": "s",
    "rates.kappa_s": "s",
    "experiment.mean_gap_self_s": "s",
    "experiment.gap_evals": "count",
    "experiment.csv_s": "s",
    "experiment.csv_rows_per_s": "1/s",
    "experiment.report_s": "s",
    "experiment.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _under(spans: list, s: dict, name: str) -> bool:
    while s["parent"] is not None:
        s = spans[s["parent"]]
        if s["name"] == name:
            return True
    return False


def cli_layers(trace: dict, wall: float, report: dict, inputs) -> dict:
    spans = trace["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    total = lambda name: sum(_dur(s) for s in by[name])  # noqa: E731
    built = by["build_problem"][0]["end"]
    seed_end = min(s["start"] for s in spans
                   if s["name"] in AFTER_SEEDS and s["start"] >= built)
    solves = [s for s in spans if s["name"] in SOLVERS
              and not _under(spans, s, "reference_solve")]
    if solves:
        run_s = sum(_dur(s) for s in solves)
        steps = sum(s["steps"] for s in solves)
    else:
        # Seeds solved in pool workers, out of this process's spans: the
        # pooled phase is the solver time, the report gives the steps.
        run_s = seed_end - built
        steps = sum(e["iterations"] for e in report["seeds"] if e["status"] == "ok")
    report_phase = (by["validate_report"][0]["start"], by["run_experiment"][0]["end"])
    mean_gap_self = sum(
        _dur(s) - sum(_dur(c) for c in spans if c["parent"] == idx)
        for idx, s in enumerate(spans) if s["name"] == "mean_gap_experiment")
    layer_spans = [s for name in ("import", "load_config", "build_dataset",
                                  "build_problem", *AFTER_SEEDS)
                   for s in by[name]]
    covered = _covered([(s["start"], s["end"]) for s in layer_spans]
                       + [(built, seed_end), report_phase])
    parse_s = total("build_dataset") if inputs.parses_file else 0.0
    m = {
        "cli.import_s": total("import"),
        "datasets.parse_s": parse_s,
        "datasets.nnz_per_s": _rate(inputs.nnz, parse_s),
        "problems.build_s": total("build_problem"),
        "solvers.run_s": run_s,
        "solvers.steps": steps,
        "solvers.steps_per_s": _rate(steps, run_s),
        "experiment.seed_solves_s": seed_end - built,
        "verify.rcfdm_s": total("check_rcfdm"),
        "verify.rcfdm_checked_per_s": _rate(
            sum(s["checked"] for s in by["check_rcfdm"]), total("check_rcfdm")),
        "verify.rfdm_s": total("check_rfdm"),
        "verify.rfdm_checked_per_s": _rate(
            sum(s["checked"] for s in by["check_rfdm"]), total("check_rfdm")),
        "experiment.reference_solve_s": total("reference_solve"),
        "rates.kappa_s": total("estimate_kappa_f"),
        "experiment.mean_gap_self_s": mean_gap_self,
        "experiment.gap_evals": trace["gap_evals"],
        "experiment.csv_s": total("write_trace_csv"),
        "experiment.csv_rows_per_s": _rate(
            sum(s["rows"] for s in by["write_trace_csv"]), total("write_trace_csv")),
        "experiment.report_s": report_phase[1] - report_phase[0],
        "experiment.unattributed_s": wall - covered,
    }
    return _complete(m)


def invariant_layers(trace: dict, wall: float, results: list) -> dict:
    spans = trace["spans"]
    solves = [s for s in spans if s["name"] in SOLVERS]
    audits = [s for s in spans if s["name"] == "check_trace_invariants"]
    if len(solves) != len(results) or len(audits) != len(results):
        raise ValueError("traced invariant suite: span count does not match results")
    m = {"cli.import_s": sum(_dur(s) for s in spans if s["name"] == "import"),
         "problems.build_s": sum(_dur(s) for s in spans
                                 if s["name"] == "standard_fixtures")}
    for s, e in zip(solves, results):
        m[f"solvers.steps_per_s.{e['fixture']}.{e['method']}"] = _rate(s["steps"], _dur(s))
    for method in METHODS:
        m[f"verify.audit_s.{method}"] = sum(
            _dur(a) for a, e in zip(audits, results) if e["method"] == method)
    run_s = sum(_dur(s) for s in solves)
    steps = sum(s["steps"] for s in solves)
    audit_s = sum(_dur(a) for a in audits)
    m.update({
        "solvers.run_s": run_s,
        "solvers.steps": steps,
        "solvers.steps_per_s": _rate(steps, run_s),
        "verify.audit_snapshots_per_s": _rate(
            sum(a["snapshots"] for a in audits), audit_s),
        "experiment.unattributed_s": wall - _covered(
            [(s["start"], s["end"]) for s in spans]),
    })
    return _complete(m)


def _complete(m: dict) -> dict:
    """Every per-layer metric, 0 for layers the workload does not reach."""
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"unlisted per-layer metrics {sorted(unknown)}")
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}
