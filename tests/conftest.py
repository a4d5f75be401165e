import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from robustkkt.cli import load_problem, resolve_problem_path


@pytest.fixture(scope="session")
def spec22():
    return load_problem("example_2_2")


@pytest.fixture(scope="session")
def spec23():
    return load_problem("example_2_3")


def without_fixtures(spec):
    """spec as the command line hands it to the library without
    --fixtures: holding no fixture set, so every set is the engine's."""
    return dataclasses.replace(spec, fixtures=())


@pytest.fixture(scope="session")
def spec32_fixtures():
    return load_problem("example_3_2")


@pytest.fixture(scope="session")
def spec32(spec32_fixtures):
    return without_fixtures(spec32_fixtures)


@pytest.fixture(scope="session")
def spec35():
    return without_fixtures(load_problem("example_3_5"))


@pytest.fixture(scope="session")
def origin():
    return np.zeros(2)


@pytest.fixture(scope="session")
def fixtures_dir():
    return resolve_problem_path("example_3_2").parent
