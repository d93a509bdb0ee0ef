"""Code that runs inside the processes the benchmark launches.

    child.py setup CONFIG          import fdmkit, build the workload's problem
                                   (CONFIG '-' builds the standard fixtures)
    child.py invariant SEED STEPS RESULT
                                   the invariant-suite library run
    child.py traced SPANS cli ARGS...
    child.py traced SPANS invariant SEED STEPS RESULT
                                   the same runs with spans around the calls
                                   into each fdmkit layer, written to SPANS

The parent sets PYTHONPATH to the checkout's ``src`` directory.  Spans are
recorded by replacing module attributes at run time; no file under ``src/``
is changed.  Untraced runs install no wrapper.
"""

from __future__ import annotations

import json
import sys
import time

# (fixture order comes from fixtures.standard_fixtures(); methods are fixed)
METHODS = ("scdm-I", "scdm-II", "cyclic", "pgd")

# Names run_experiment looks up in fdmkit.experiment at call time.
EXPERIMENT_NAMES = ("build_dataset", "build_problem", "run_single", "run_scdm",
                    "check_rcfdm", "check_rfdm", "reference_solve",
                    "estimate_kappa_f", "mean_gap_experiment",
                    "write_trace_csv", "validate_report")
SOLVER_NAMES = ("run_scdm", "run_cyclic_cd", "run_projected_gradient")


def setup_probe(config: str) -> None:
    import fdmkit  # noqa: F401  (the package import is part of set-up)
    if config == "-":
        from fdmkit import fixtures
        print(len(fixtures.standard_fixtures()))
        return
    from fdmkit.experiment import build_dataset, build_problem, load_config
    cfg = load_config(config)
    print(build_problem(cfg, build_dataset(cfg)).n)


def invariant_suite(seed: int, steps: int) -> list:
    """Every standard fixture x every method, each trace audited."""
    from fdmkit import fixtures, solvers, verify
    results = []
    for name, p in fixtures.standard_fixtures().items():
        for method in METHODS:
            cfg = solvers.SolverConfig(max_iters=steps, seed=seed)
            if method == "scdm-I":
                tr = solvers.run_scdm(p, cfg, solvers.OPTION_I)
            elif method == "scdm-II":
                tr = solvers.run_scdm(p, cfg, solvers.OPTION_II)
            elif method == "cyclic":
                tr = solvers.run_cyclic_cd(p, cfg)
            else:
                tr = solvers.run_projected_gradient(p, cfg)
            rep = verify.check_trace_invariants(tr, p)
            results.append({"fixture": name, "method": method,
                            "iterations": len(tr), "stop_reason": tr.stop_reason,
                            "final_f": float(tr.f[len(tr)]),
                            "all_ok": bool(rep.all_ok)})
    return results


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def snapshot_count(trace) -> int:
    """Iterates the invariant audit evaluates: one per record point and the last."""
    k, r = len(trace), trace.record_every
    return k // r + 1 + (1 if k % r else 0)


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.gap_evals = 0
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": None})

    def wrap(self, module, name: str, counts=None) -> None:
        """Replace ``module.name`` by a wrapper that records a span around it.

        ``counts(args, result)`` returns work counts stored on the span.
        """
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        setattr(module, name, traced)

    def count_gap_evals(self, cls) -> None:
        """Count ``cls.duality_gap`` calls made inside mean_gap_experiment."""
        fn = cls.duality_gap

        def counted(problem, *args, **kwargs):
            if any(self.spans[i]["name"] == "mean_gap_experiment"
                   for i in self._open):
                self.gap_evals += 1
            return fn(problem, *args, **kwargs)

        cls.duality_gap = counted


def _steps(args, result):
    return {"steps": len(result)}


def traced(spans_path: str, mode: str, rest: list) -> int:
    tracer = Tracer()
    t0 = time.perf_counter()
    import fdmkit
    import fdmkit.cli
    tracer.add("import", t0, time.perf_counter())
    if mode == "cli":
        from fdmkit import experiment, problems
        for name in EXPERIMENT_NAMES:
            counts = None
            if name == "run_scdm":
                counts = _steps
            elif name == "write_trace_csv":
                counts = lambda a, r: {"rows": len(a[0]) + 1}  # noqa: E731
            elif name in ("check_rcfdm", "check_rfdm"):
                counts = lambda a, r: {"checked": r.n_checked}  # noqa: E731
            tracer.wrap(experiment, name, counts)
        tracer.wrap(fdmkit.cli, "load_config")
        tracer.wrap(fdmkit.cli, "run_experiment")
        tracer.count_gap_evals(problems.SvmDualProblem)
        rc = fdmkit.cli.main(rest)
    else:
        from fdmkit import fixtures, solvers, verify
        tracer.wrap(fixtures, "standard_fixtures")
        for name in SOLVER_NAMES:
            tracer.wrap(solvers, name, _steps)
        tracer.wrap(verify, "check_trace_invariants",
                    lambda a, r: {"snapshots": snapshot_count(a[0])})
        seed, steps, result_path = int(rest[0]), int(rest[1]), rest[2]
        write_json(result_path, invariant_suite(seed, steps))
        rc = 0
    write_json(spans_path, {"spans": tracer.spans, "gap_evals": tracer.gap_evals})
    return rc


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup_probe(argv[1])
        return 0
    if mode == "invariant":
        write_json(argv[3], invariant_suite(int(argv[1]), int(argv[2])))
        return 0
    if mode == "traced":
        return traced(argv[1], argv[2], argv[3:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
