import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fdmkit
from fdmkit import fixtures

# the CLI tests start `python -m fdmkit`: let it import the fdmkit under test
_SRC = str(Path(fdmkit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


@pytest.fixture(scope="session")
def standard_problems():
    return fixtures.standard_fixtures()


@pytest.fixture(scope="session")
def small_problems():
    return fixtures.small_fixtures()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=1234))
