"""Invariances of the whole three-step estimator on a simulated panel."""

import numpy as np
import pytest

from factorcluster.assembly import assemble
from factorcluster.clustering import cluster_from_cov
from factorcluster.factors import fit_loadings
from factorcluster.panel import ClusterPartition, ReturnsPanel
from factorcluster.simulation import default_config, generate


def estimate(returns, factors):
    fit = fit_loadings(returns, factors)
    partition = cluster_from_cov(fit.residual_cov).partition
    return partition, assemble(fit, partition)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(scope="module")
def sim():
    return generate(default_config(p=30, n_clusters=3, n_periods=200, seed=5))


def test_series_permutation_permutes_the_estimate(sim):
    partition, est = estimate(sim.returns, sim.factors)
    perm = np.random.default_rng(6).permutation(30)
    returns = sim.returns
    shuffled = ReturnsPanel(
        returns.times, tuple(returns.names[i] for i in perm), returns.values[:, perm]
    )
    partition_p, est_p = estimate(shuffled, sim.factors)
    # series k of the shuffled panel is series perm[k] of the original
    assert partition_p == ClusterPartition.from_labels(partition.labels[perm])
    assert partition.n_clusters == 3
    assert rel_err(est_p.sigma, est.sigma[np.ix_(perm, perm)]) < 1e-10
    assert rel_err(est_p.precision, est.precision[np.ix_(perm, perm)]) < 1e-10


def test_scaling_returns_keeps_partition_and_scales_sigma(sim):
    c = 2.0
    partition, est = estimate(sim.returns, sim.factors)
    returns = sim.returns
    scaled = ReturnsPanel(returns.times, returns.names, c * returns.values)
    partition_c, est_c = estimate(scaled, sim.factors)
    assert partition_c == partition
    assert rel_err(est_c.sigma, c**2 * est.sigma) < 1e-10
    assert rel_err(est_c.precision, est.precision / c**2) < 1e-10
