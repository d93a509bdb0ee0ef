import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fdmkit
from fdmkit import experiment, fixtures
from oracles import report_validator

# the CLI tests start `python -m fdmkit`: let it import the fdmkit under test
_SRC = str(Path(fdmkit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


@pytest.fixture(scope="session", autouse=True)
def report_schema_validator():
    """Check every report a run writes against the shipped schema, and give
    the validator to the tests that ask for it.

    The run itself checks only that its report is valid JSON.  Session scope
    puts the check in place before any module-scoped fixture runs.
    """
    validator = report_validator()
    validate = experiment.validate_report

    def checked(report):
        validator.validate(report)
        return validate(report)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "validate_report", checked)
        yield validator


@pytest.fixture(scope="session")
def standard_problems():
    return fixtures.standard_fixtures()


@pytest.fixture(scope="session")
def small_problems():
    return fixtures.small_fixtures()


@pytest.fixture(scope="session")
def far_squared_hinge():
    """30 squared-hinge ERM instances ``(p, x0)`` whose far starts make some
    slice solves bisect to float resolution: with a cap of 50 slice
    iterations, ``run_scdm`` (200 Option I steps at seed t) failed on
    instance 19 and ``check_rfdm`` of those traces on instances 10 and 22."""
    gen = np.random.default_rng(2)
    out = []
    for _ in range(30):
        A = gen.standard_normal((15, 4))
        y = np.sign(gen.standard_normal(15))
        x0 = gen.choice([-1, 1], 4) * 10 ** gen.uniform(2, 5, 4)
        out.append((fdmkit.ErmProblem(A, y, lam=0.07, loss="squared_hinge"), x0))
    return out


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=1234))
