"""The names the benchmark's traced runs look up in fdmkit.

``perfbench/child.py`` replaces fdmkit attributes by name to time each
layer, and ``perfbench/layers.py`` reads the ``validate_report`` span to
find the report phase.  A rename in fdmkit would break ``run.py --trace 1``
without failing any run, so these tests hold the names in place.
"""

import dataclasses
import types
from pathlib import Path

from fdmkit import cli, experiment, fixtures, solvers, verify
from fdmkit.experiment import ExperimentConfig, run_experiment
from fdmkit.problems import SvmDualProblem
from fdmkit.solvers import Trace

_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    """child.py as a module, run from its source so that no bytecode is
    written beside it."""
    child = types.ModuleType("perfbench_child")
    exec(compile(_CHILD.read_text(encoding="utf-8"), str(_CHILD), "exec"),
         child.__dict__)
    return child


def test_wrapped_names_exist():
    child = _load_child()
    for name in child.EXPERIMENT_NAMES:
        assert callable(getattr(experiment, name)), name
    for name in child.SOLVER_NAMES:
        assert callable(getattr(solvers, name)), name
    for owner, name in ((cli, "load_config"), (cli, "run_experiment"),
                        (SvmDualProblem, "duality_gap"),
                        (verify, "check_trace_invariants"),
                        (fixtures, "standard_fixtures")):
        assert callable(getattr(owner, name)), name
    assert "record_every" in {f.name for f in dataclasses.fields(Trace)}


def test_run_validates_its_report_once(tmp_path, monkeypatch):
    calls = []
    validate = experiment.validate_report

    def spy(report):
        calls.append(validate(report))
        return calls[-1]

    monkeypatch.setattr(experiment, "validate_report", spy)
    result = run_experiment(ExperimentConfig.from_dict({
        "problem": {"kind": "quadratic", "diag": [1.0, 2.0]},
        "solver": {"kind": "scdm", "option": "I", "max_iters": 10},
        "seeds": [0], "output_dir": str(tmp_path / "out")}))
    assert result.exit_code == 0
    assert len(calls) == 1
    with open(result.report_path, encoding="utf-8") as fh:
        assert fh.read() == calls[0] + "\n"
