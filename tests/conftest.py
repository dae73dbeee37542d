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


@pytest.fixture(scope="session")
def l1_ball():
    """``ball(geom, n, radius)``: the sites of ``B_n`` within L1 distance ``radius``, a mask over ``all_coords``.

    Sorted stably by L1 distance, so by (L1 distance, canonical index): the
    order the curve engine's ball patterns keep.
    """

    def ball(geom, n, radius):
        l1 = np.abs(geom.all_coords).sum(axis=1)
        keep = np.flatnonzero((np.abs(geom.all_coords).max(axis=1) <= n) & (l1 <= radius))
        return keep[np.argsort(l1[keep], kind="stable")]

    return ball
