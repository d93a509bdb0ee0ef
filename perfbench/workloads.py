"""The benchmark's workloads: inputs made from a seed, the command one
operation runs, and the checks on every operation's outputs.

Each operation is a fresh process.  The CLI workloads receive only a config
file (and, for two of them, a libsvm file written by ``fdmkit gen``); the
invariant suite runs the library API from ``child.py``.  Every input is a
function of ``--seed``.  Iteration budgets are fixed rather than set by a
stopping tolerance, so the work of one operation does not change with the
seed and runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from child import METHODS

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
EXPECTED_PATH = HERE / "expected.json"

# ROADMAP aim 1 lets a fast path reorder floating-point sums; the final
# objective must still agree to this relative tolerance.
FINAL_F_RTOL = 1e-9

# svm-gap's cost follows its dataset's conditioning estimate: the iteration
# bound varied 2.4x across gaussian-margin seeds at n=128, d=160.  Its
# dataset is therefore one fixed instance, and --seed sets the solver seed.
GAP_DATA_SEED = 2

FIXTURES = ("svm_dual_n2", "svm_dual_n4", "svm_dual_n8", "lasso_d5",
            "erm_logistic_n20", "quadratic_diag_n5", "quadratic_box_n8")


@dataclass
class Inputs:
    """What one run of a workload executes, made once per run."""

    argv: list            # one untraced operation, after the interpreter
    traced_argv: list     # the same operation as child.py traced SPANS arguments
    setup_config: str     # child.py setup argument
    problem_n: int        # dimension the set-up probe must print
    parses_file: bool     # whether build_dataset parses a libsvm file
    nnz: int = 0          # nonzeros in that file
    steps: int = 0        # invariant-suite steps per trace


@dataclass
class Workload:
    name: str
    # (seed, small) -> (fdmkit command, (n, d) of the libsvm file to
    # generate or None, problem dimension, config); None for the library run
    make: object

    @property
    def is_cli(self) -> bool:
        return self.make is not None


# ---------------------------------------------------------------------------
# inputs


def _gen(env: dict, workdir: str, seed: int, n: int, d: int) -> tuple[str, int]:
    """Write a gaussian-margin libsvm file through ``fdmkit gen``."""
    path = os.path.join(workdir, "data.libsvm")
    subprocess.run([sys.executable, "-m", "fdmkit", "gen", "--generator",
                    "gaussian-margin", "--n", str(n), "--d", str(d),
                    "--seed", str(seed), "--out", path],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    with open(path, encoding="ascii") as fh:
        nnz = sum(len(line.split()) - 1 for line in fh)
    return path, nnz


def _svm_verify(seed: int, small: bool):
    n, d, iters = (100, 10, 500) if small else (2000, 50, 12000)
    return "verify", (n, d), n, {
        "problem": {"kind": "svm-dual", "lam": 0.01},
        "solver": {"kind": "scdm", "option": "I", "max_iters": iters},
        "epsilon": 1e-6, "seeds": [0, 1], "workers": 2,
    }


def _svm_gap(seed: int, small: bool):
    n, d, n_seeds, eps = ((16, 24, 2, [0.1]) if small
                          else (128, 160, 16, [0.1, 0.01, 0.001]))
    return "gap", None, n, {
        "problem": {"kind": "svm-dual", "lam": 0.005},
        "dataset": {"source": "synthetic", "generator": "gaussian-margin",
                    "n": n, "d": d, "seed": GAP_DATA_SEED},
        "solver": {"kind": "scdm", "option": "I"},
        "gap": {"epsilons": eps, "n_seeds": n_seeds},
        "seeds": [seed], "workers": 1,
    }


def _erm_rfdm(seed: int, small: bool):
    n, d, iters, ref = (30, 5, 50, 2000) if small else (200, 20, 600, None)
    return "rates", (n, d), d, {
        "problem": {"kind": "erm", "lam": 0.01, "loss": "logistic"},
        "solver": {"kind": "scdm", "option": "I", "max_iters": iters},
        "verify": {"rfdm": True}, "rates": {"reference_iters": ref},
        "seeds": [0], "workers": 1,
    }


INVARIANT_STEPS = {False: 2000, True: 50}

# The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("svm-verify", _svm_verify),
    Workload("svm-gap", _svm_gap),
    Workload("erm-rfdm", _erm_rfdm),
    Workload("invariant-suite", None),
)}


def prepare(w: Workload, workdir: str, seed: int, small: bool, env: dict) -> Inputs:
    """Write this run's inputs into ``workdir`` and return how to run them."""
    if not w.is_cli:
        steps = INVARIANT_STEPS[small]
        result = os.path.join(workdir, "result.json")
        args = [str(seed), str(steps), result]
        return Inputs(argv=[CHILD, "invariant", *args],
                      traced_argv=["invariant", *args],
                      setup_config="-", problem_n=len(FIXTURES),
                      parses_file=False, steps=steps)
    command, gen_size, problem_n, config = w.make(seed, small)
    nnz = 0
    if gen_size is not None:
        path, nnz = _gen(env, workdir, seed, *gen_size)
        config["dataset"] = {"source": "file", "path": os.path.basename(path)}
    config["output_dir"] = "out"  # operations run with the work directory as cwd
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    cli = [command, "--config", config_path]
    return Inputs(argv=["-m", "fdmkit", *cli], traced_argv=["cli", *cli],
                  setup_config=config_path, problem_n=problem_n,
                  parses_file=gen_size is not None, nnz=nnz)


# ---------------------------------------------------------------------------
# output checks


def read_output(w: Workload, workdir: str):
    """The operation's output with wall-clock fields removed, or None."""
    name = "out/report.json" if w.is_cli else "result.json"
    try:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        return None
    if w.is_cli:
        out.pop("timing", None)
    return out


def summary(w: Workload, out) -> object:
    """The values compared against the recorded expectations."""
    if not w.is_cli:
        return [{k: e[k] for k in ("fixture", "method", "iterations",
                                   "stop_reason", "final_f", "all_ok")}
                for e in out]
    agg = out["aggregate"]
    return {
        "seeds": [{"seed": e["seed"], "status": e["status"],
                   "iterations": e.get("iterations"),
                   "stop_reason": e.get("stop_reason"),
                   "final_f": e.get("final_f"),
                   "certificates": [c["passed"] for c in e.get("certificates", [])]}
                  for e in out["seeds"]],
        "gap": [{"iteration_bound": r["iteration_bound"],
                 "observed_iteration": r["observed_iteration"]}
                for r in (agg["gap_reports"] or [])],
    }


def _close(a, b) -> bool:
    if not (isinstance(a, float) and isinstance(b, float)):
        return False
    return math.isclose(a, b, rel_tol=FINAL_F_RTOL, abs_tol=0.0)


def _diff(got, want, where: str) -> list[str]:
    """Differences between two summaries; ``final_f`` compares to FINAL_F_RTOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for k in want:
            if k == "final_f":
                if not _close(got[k], want[k]):
                    out.append(f"{where}.final_f: {got[k]!r} != {want[k]!r}")
            else:
                out.extend(_diff(got[k], want[k], f"{where}.{k}"))
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, x) in enumerate(zip(got, want)):
            out.extend(_diff(g, x, f"{where}[{i}]"))
        return out
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def check(w: Workload, inputs: Inputs, rc: int, out, reference,
          expected, workdir=None) -> list[str]:
    """Problems with one operation's outputs; empty when it is correct.

    ``reference`` is the first output of this run (every operation of a run
    must reproduce it exactly); ``expected`` is the summary recorded from
    the seed commit for this seed, or None.  With ``workdir`` the trace CSVs
    the report names are checked too.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if out is None:
        return problems + ["no readable output"]
    try:
        problems += _structural(w, inputs, out)
        if w.is_cli and workdir is not None:
            problems += _csv_rows(out, os.path.join(workdir, "out"))
        if expected is not None:
            problems += _diff(summary(w, out), expected, "expected")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    if reference is not None and out != reference:
        problems.append("output differs from the run's first operation")
    return problems


def _structural(w: Workload, inputs: Inputs, out) -> list[str]:
    """Checks that hold for every seed, recorded or not."""
    if not w.is_cli:
        problems = []
        if [(e["fixture"], e["method"]) for e in out] != [
                (f, m) for f in FIXTURES for m in METHODS]:
            problems.append("invariant suite did not run every fixture x method")
        for e in out:
            tag = f"{e['fixture']}.{e['method']}"
            if not e["all_ok"]:
                problems.append(f"{tag}: invariant audit failed")
            if e["iterations"] != inputs.steps:
                problems.append(f"{tag}: {e['iterations']} of {inputs.steps} steps")
            if not math.isfinite(e["final_f"]):
                problems.append(f"{tag}: final f is not finite")
        return problems
    problems = []
    for e in out["seeds"]:
        if e["status"] != "ok":
            problems.append(f"seed {e['seed']}: {e['status']} ({e.get('error')})")
            continue
        for c in e["certificates"]:
            if not c["passed"]:
                problems.append(f"seed {e['seed']}: {c['framework']} certificate failed")
        if not math.isfinite(e["final_f"]):
            problems.append(f"seed {e['seed']}: final f is not finite")
    if out["failed_seeds"]:
        problems.append(f"failed seeds {out['failed_seeds']}")
    if not out["aggregate"]["certificates_all_passed"]:
        problems.append("certificates_all_passed is false")
    for r in out["aggregate"]["gap_reports"] or []:
        seen = r["observed_iteration"]
        if seen is None or seen > r["iteration_bound"]:
            problems.append(f"epsilon {r['epsilon']}: mean gap reached at {seen}, "
                            f"after the bound {r['iteration_bound']}")
    return problems


def _csv_rows(report: dict, outdir: str) -> list[str]:
    """Each ok seed's trace CSV holds a header and iterations + 1 rows."""
    problems = []
    for e in report["seeds"]:
        if e["status"] != "ok":
            continue
        try:
            with open(os.path.join(outdir, e["trace_csv"]), encoding="ascii") as fh:
                rows = sum(1 for _ in fh) - 1
        except OSError as exc:
            problems.append(f"seed {e['seed']}: {exc}")
            continue
        if rows != e["iterations"] + 1:
            problems.append(f"seed {e['seed']}: trace CSV has {rows} rows, "
                            f"expected {e['iterations'] + 1}")
    return problems


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
