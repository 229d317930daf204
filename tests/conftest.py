import os
from pathlib import Path

import pytest

from greenfan import validate_fixed_data

# the CLI tests run ``python -m greenfan`` in a child process, which must
# find the package of this checkout as the tests themselves do
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture
def a2():
    return validate_fixed_data([[0, 1], [-1, 0]], [1, 1])


@pytest.fixture
def b2():
    return validate_fixed_data([[0, 1], [-2, 0]], [1, 2])


@pytest.fixture
def b2_mirror():
    return validate_fixed_data([[0, 2], [-1, 0]], [2, 1])


@pytest.fixture
def g2():
    return validate_fixed_data([[0, 1], [-3, 0]], [1, 3])


@pytest.fixture
def a3():
    return validate_fixed_data([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1])


@pytest.fixture
def kronecker():
    return validate_fixed_data([[0, 2], [-2, 0]], [1, 1])


@pytest.fixture
def finite_fixtures(a2, b2, g2, a3):
    return {"A2": a2, "B2": b2, "G2": g2, "A3": a3}
