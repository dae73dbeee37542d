"""End-to-end checks in three dimensions (most suites run at d=2)."""

import numpy as np
import pytest
from scipy.linalg import expm

from rcmwalk import (
    BoxGeometry,
    OperatorSpec,
    UniformizationCache,
    clt_lower_bound_check,
    effective_conductance_matrix,
    feynman_kac_mc,
    feynman_kac_spectral,
    sample_environment,
    strong_cluster,
    threshold_for_density,
)


@pytest.fixture(scope="module")
def env3():
    return sample_environment(BoxGeometry(3, 4), 2.0, 77)


@pytest.fixture(scope="module")
def decomp3(env3):
    return strong_cluster(env3, threshold_for_density(2.0, 0.75))


def test_partition_and_boundaries(env3, decomp3):
    total = decomp3.cluster_size + sum(h.volume for h in decomp3.holes)
    assert total == env3.geometry.n_sites
    for h in decomp3.holes:
        assert np.all(decomp3.labels[h.boundary] == -1)


def test_exact_kernel_vs_dense(env3):
    cache = UniformizationCache(env3, box_radius=2)  # 125 sites
    L = cache.chain.P.toarray() - np.eye(cache.chain.P.shape[0])
    o = cache.chain.origin
    for t in (0.5, 2.0, 6.0):
        assert cache.return_prob(t) == pytest.approx(expm(t * L)[o, o], abs=1e-12)


def test_effective_conductance_symmetry(env3, decomp3):
    M = effective_conductance_matrix(env3, decomp3).tocsr()
    assert abs(M - M.T).max() <= 1e-10 * M.max()
    rows = np.asarray(M.sum(axis=1)).ravel()
    mask = decomp3.in_cluster
    np.testing.assert_allclose(rows[mask], env3.pi_all[mask], rtol=1e-12)


def test_feynman_kac_routes(env3, decomp3):
    spec = OperatorSpec(env=env3, decomp=decomp3, box_radius=3, lam=0.25)
    exact = feynman_kac_spectral(spec, 2.0)
    est, se = feynman_kac_mc(spec, 2.0, 30_000, np.random.default_rng(9))
    assert abs(est - exact) <= 4 * se


def test_clt_lower_bound(env3, decomp3):
    (rep,) = clt_lower_bound_check(env3, decomp3, [4.0])
    assert rep.passed
