import math

import numpy as np
import pytest

from rcmwalk import (
    BoxGeometry,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)


@pytest.fixture(scope="session")
def small_env():
    """Random d=2 environment, radius 8, gamma=2."""
    return sample_environment(BoxGeometry(2, 8), 2.0, 11)


@pytest.fixture(scope="session")
def holey_decomp(small_env):
    """Decomposition with several holes (strong density 0.6)."""
    return strong_cluster(small_env, threshold_for_density(2.0, 0.6))


@pytest.fixture(scope="session")
def homog_env():
    return sample_environment(BoxGeometry(2, 6), math.inf, 0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240815)
