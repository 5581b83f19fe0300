"""Hostile panels the estimator handles today: one cluster, no cluster
signal, T barely above r, a singleton cluster, and near-duplicate series."""

from dataclasses import replace

import numpy as np
import pytest

from factorcluster.assembly import assemble, estimate_cluster_series, idio_var
from factorcluster.clustering import cluster_from_cov
from factorcluster.errors import EstimationError
from factorcluster.factors import fit_loadings
from factorcluster.panel import ReturnsPanel
from factorcluster.portfolio import min_var_long_only, min_var_unconstrained
from factorcluster.simulation import default_config, generate


def fit_estimate(sim):
    fit = fit_loadings(sim.returns, sim.factors)
    partition = cluster_from_cov(fit.residual_cov).partition
    return partition, assemble(fit, partition)


def fit_weights(sim):
    partition, est = fit_estimate(sim)
    return partition, min_var_unconstrained(est.solve(np.ones(sim.returns.n_series)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_clusters=1, n_periods=200),  # one true cluster
        dict(n_clusters=3, n_periods=200, z_scale=1e-8),  # no cluster signal
        dict(n_clusters=3, n_periods=6),  # T = r + 1 with r = 5 factors
    ],
    ids=["one_cluster", "no_cluster_signal", "T_is_r_plus_1"],
)
def test_degenerate_panels_fit_one_cluster(kwargs, seed):
    partition, w = fit_weights(generate(default_config(60, seed=seed, **kwargs)))
    assert partition.n_clusters == 1
    assert np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_t_is_r_plus_3_fits_with_a_singleton_cluster():
    partition, est = fit_estimate(generate(default_config(60, 3, 8, seed=2)))
    assert 1 in partition.sizes and partition.n_clusters == 2
    for w in (min_var_unconstrained(est.solve(np.ones(60))), min_var_long_only(est)):
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_t_is_r_plus_3_refuses_more_clusters_than_t_minus_r():
    # six cluster paths from T - r = 3 residual dimensions
    with pytest.raises(EstimationError, match="cluster covariance is numerically singular"):
        fit_estimate(generate(default_config(60, 3, 8, seed=0)))


def test_near_duplicate_series_raise_naming_the_series():
    sim = generate(default_config(60, 3, 200, seed=0))
    values = sim.returns.values.copy()
    noise = np.random.default_rng(0).standard_normal(values.shape[0])
    values[:, 1] = values[:, 0] + 1e-9 * noise
    returns = ReturnsPanel(sim.returns.times, sim.returns.names, values)
    # the pair shares a cluster, so this is the non-singleton message
    with pytest.raises(EstimationError, match="series 'S000[12]'") as info:
        fit_weights(replace(sim, returns=returns))
    assert "explained exactly by the factors and cluster paths" in str(info.value)
    assert "alone in its cluster" not in str(info.value)


def near_duplicate_panel(eps):
    """Series 1 is series 0 plus eps times noise."""
    sim = generate(default_config(60, 3, 300, seed=0))
    values = sim.returns.values.copy()
    noise = np.random.default_rng(0).standard_normal(values.shape[0])
    values[:, 1] = values[:, 0] + eps * noise
    return replace(sim, returns=ReturnsPanel(sim.returns.times, sim.returns.names, values))


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_near_duplicate_series_fit_with_v_of_the_t_by_p_form(eps):
    sim = near_duplicate_panel(eps)
    partition, est = fit_estimate(sim)
    fit = fit_loadings(sim.returns, sim.factors)
    v_ref = idio_var(estimate_cluster_series(fit.residuals, partition)[1])
    gap = np.abs(est.structured.idio_var - v_ref).max()
    assert gap <= 1e-14 * np.diag(fit.residual_cov).max()
    w = min_var_unconstrained(est.solve(np.ones(60)))
    assert np.all(np.isfinite(w))


def test_nearer_duplicate_series_refuse_naming_either_member():
    # both members have the same v in exact arithmetic, so either name is right
    with pytest.raises(EstimationError, match="series 'S000[12]'"):
        fit_estimate(near_duplicate_panel(1e-6))
