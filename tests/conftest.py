import numpy as np
import pytest

from dualgeo import DEFAULT_CONFIG
from dualgeo.verify import default_models


@pytest.fixture(scope="session")
def cfg():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def models():
    return {m.name: m for m in default_models()}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
