"""Covariance assembly, low-rank precision identities, norms, and bundles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from factorcluster import cli, clustering
from factorcluster.assembly import (
    AssembledEstimate,
    SampleEstimate,
    StructuredCovariance,
    assemble,
    assemble_from_structure,
    cluster_cov,
    estimate_cluster_series,
    idio_var,
    load_bundle,
    max_norm,
    operator_norm,
    sample_cov,
    save_bundle,
    weighted_quadratic_norm,
)
from factorcluster.clustering import cluster_from_cov, residual_cov, run_clustering_pipeline
from factorcluster.errors import EstimationError
from factorcluster.factors import fit_loadings
from factorcluster.panel import (
    ClusterPartition,
    FactorPanel,
    ReturnsPanel,
    save_panel_csv,
    symmetrize,
)
from factorcluster.portfolio import BacktestConfig, _window_weights
from factorcluster.simulation import ExperimentCell, _replication, default_config, generate


def random_structure(rng, p, k, r, labels=None):
    if labels is None:
        labels = rng.integers(0, k, size=p)
        labels[:k] = np.arange(k)  # every cluster non-empty
    partition = ClusterPartition.from_labels(labels)
    loadings = rng.normal(size=(p, r))
    a = rng.normal(size=(r + 2, r))
    factor_cov = a.T @ a / (r + 2) + 0.1 * np.eye(r)
    b = rng.normal(size=(k + 2, k))
    clu_cov = b.T @ b / (k + 2) + 0.1 * np.eye(k)
    iv = rng.uniform(0.2, 2.0, size=p)
    return StructuredCovariance(
        loadings=loadings,
        factor_cov=factor_cov,
        partition=partition,
        cluster_cov=clu_cov,
        idio_var=iv,
        series_names=tuple(f"s{i}" for i in range(p)),
        factor_names=tuple(f"f{j}" for j in range(r)),
    )


def dense_oracle(structured):
    """Assemble and invert densely, no low-rank identities."""
    a = structured.partition.membership.astype(float)
    b = structured.loadings
    sigma_u = a @ structured.cluster_cov @ a.T + np.diag(structured.idio_var)
    sigma = b @ structured.factor_cov @ b.T + sigma_u
    return sigma, sigma_u, np.linalg.inv(sigma), np.linalg.inv(sigma_u)


def test_cluster_series_are_group_means():
    rng = np.random.default_rng(30)
    u = rng.normal(size=(15, 5))
    part = ClusterPartition.from_groups([(0, 2), (1, 3, 4)], 5)
    z, e = estimate_cluster_series(u, part)
    assert np.allclose(z[:, 0], u[:, [0, 2]].mean(axis=1))
    assert np.allclose(z[:, 1], u[:, [1, 3, 4]].mean(axis=1))
    assert np.allclose(e, u - z[:, part.labels])
    # group means are the least-squares fit, so residuals are orthogonal
    # to the membership columns
    assert np.allclose(e @ part.membership.astype(float), 0.0, atol=1e-12)


def test_cluster_series_residuals_are_c_ordered_and_equal_the_gather():
    # subtracting into the F-ordered gather z[:, labels] would give an
    # F-ordered e, whose column means idio_var would sum in another order
    sim = generate(default_config(p=60, n_clusters=6, n_periods=200, seed=4))
    fit = fit_loadings(sim.returns, sim.factors)
    part = sim.truth.partition
    z, e = estimate_cluster_series(fit.residuals, part)
    gathered = fit.residuals - z[:, part.labels]
    assert e.flags.c_contiguous
    assert np.array_equal(e, gathered)
    c_ordered = np.ascontiguousarray(gathered)
    assert np.array_equal(idio_var(e), (c_ordered * c_ordered).mean(axis=0))


def test_cluster_series_shape_checks():
    part = ClusterPartition.from_groups([(0, 1)], 2)
    with pytest.raises(ValueError, match="series"):
        estimate_cluster_series(np.zeros((5, 3)), part)


def test_second_moment_denominators_are_t():
    rng = np.random.default_rng(31)
    z = rng.normal(size=(9, 2)) + 1.0
    assert np.allclose(cluster_cov(z), z.T @ z / 9)
    e = rng.normal(size=(9, 4)) + 1.0
    assert np.allclose(idio_var(e), (e**2).sum(axis=0) / 9)


def test_two_series_identity_hand_case():
    # Sigma = I + 11' has inverse I - 11'/3
    part = ClusterPartition.from_labels([0, 0])
    structured = StructuredCovariance(
        loadings=np.zeros((2, 0)),
        factor_cov=np.zeros((0, 0)),
        partition=part,
        cluster_cov=np.array([[1.0]]),
        idio_var=np.array([1.0, 1.0]),
        series_names=("a", "b"),
        factor_names=(),
    )
    est = assemble_from_structure(structured)
    assert np.allclose(est.sigma, np.eye(2) + 1.0, atol=1e-15)
    assert np.allclose(est.precision, np.eye(2) - np.ones((2, 2)) / 3, atol=1e-14)


def test_assembly_matches_dense_oracle():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = int(rng.integers(3, 30))
        k = int(rng.integers(1, min(p, 6) + 1))
        r = int(rng.integers(0, 4))
        structured = random_structure(rng, p, k, r)
        est = assemble_from_structure(structured)
        sigma, _, precision, _ = dense_oracle(structured)
        assert np.allclose(est.sigma, sigma, atol=1e-12)
        assert np.allclose(est.precision, precision, atol=1e-8)
        identity = est.sigma @ est.precision
        assert max_norm(identity - np.eye(p)) < 1e-8


def test_assembled_matrices_are_symmetric_and_frozen():
    structured = random_structure(np.random.default_rng(33), 10, 3, 2)
    est = assemble_from_structure(structured)
    for m in (est.sigma, est.precision):
        assert np.array_equal(m, m.T)
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_assembly_rejects_tiny_idio_variance():
    structured = random_structure(np.random.default_rng(34), 6, 2, 1)
    bad = StructuredCovariance(
        loadings=structured.loadings,
        factor_cov=structured.factor_cov,
        partition=structured.partition,
        cluster_cov=structured.cluster_cov,
        idio_var=np.where(np.arange(6) == 3, 0.0, structured.idio_var),
        series_names=structured.series_names,
        factor_names=structured.factor_names,
    )
    with pytest.raises(EstimationError, match="'s3'"):
        assemble_from_structure(bad)


def test_singleton_cluster_assembles_with_zero_idio_variance():
    # a singleton's cluster path is its own residual, leaving it no
    # idiosyncratic variance; its cluster variance carries the diagonal
    rng = np.random.default_rng(44)
    t_len, p = 60, 6
    times = tuple(f"2000-01-01T{k:05d}" for k in range(t_len))
    f = rng.normal(size=(t_len, 1))
    returns = ReturnsPanel(times, tuple(f"s{i}" for i in range(p)), rng.normal(size=(t_len, p)))
    fit = fit_loadings(returns, FactorPanel(times, ("f1",), f))
    part = ClusterPartition.from_groups([(0, 1, 2), (3,), (4, 5)], p)
    est = assemble(fit, part)
    assert est.structured.idio_var[3] == 0.0
    sigma = est.sigma
    assert np.abs(sigma - dense_oracle(est.structured)[0]).max() <= 1e-12
    assert max_norm(sigma @ est.precision - np.eye(p)) <= 1e-8
    b = rng.normal(size=(p, 2))
    idx = np.array([1, 3, 4])
    pairs = [
        (est.solve(b), np.linalg.solve(sigma, b)),
        (est.matvec(b[:, 0]), sigma @ b[:, 0]),
        (est.block(idx), sigma[np.ix_(idx, idx)]),
        (est.diagonal(), np.diag(sigma)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-10


def test_assembly_rejects_singular_cluster_cov():
    structured = random_structure(np.random.default_rng(35), 8, 2, 1)
    bad = StructuredCovariance(
        loadings=structured.loadings,
        factor_cov=structured.factor_cov,
        partition=structured.partition,
        cluster_cov=np.ones((2, 2)),
        idio_var=structured.idio_var,
        series_names=structured.series_names,
        factor_names=structured.factor_names,
    )
    with pytest.raises(EstimationError, match="cluster covariance"):
        assemble_from_structure(bad)


def test_assembly_rejects_an_ill_conditioned_positive_definite_cluster_cov():
    # smallest eigenvalue positive, condition number 2e12 >= the 1e12 bound
    structured = random_structure(np.random.default_rng(37), 6, 3, 1, labels=[0, 0, 1, 1, 2, 2])
    bad = replace(structured, cluster_cov=np.diag([1.0, 1.0, 5e-13]))
    with pytest.raises(EstimationError, match=r"numerically singular \(condition number 2e\+12\)"):
        assemble_from_structure(bad)


def test_assemble_from_fit_end_to_end():
    rng = np.random.default_rng(36)
    t_len, p, r = 100, 8, 2
    times = tuple(f"2000-01-01T{k:05d}" for k in range(t_len))
    f = rng.normal(size=(t_len, r))
    y = rng.normal(size=(t_len, p)) + f @ rng.normal(size=(r, p))
    returns = ReturnsPanel(times, tuple(f"s{i}" for i in range(p)), y)
    factors = FactorPanel(times, tuple(f"f{j}" for j in range(r)), f)
    fit = fit_loadings(returns, factors)
    part = ClusterPartition.from_groups([(0, 1, 2), (3, 4), (5, 6, 7)], p)
    est = assemble(fit, part)
    assert isinstance(est, AssembledEstimate)
    z, e = estimate_cluster_series(fit.residuals, part)
    assert np.allclose(est.structured.cluster_cov, cluster_cov(z), atol=1e-12)
    assert np.allclose(est.structured.idio_var, idio_var(e), atol=1e-12)
    assert max_norm(est.sigma @ est.precision - np.eye(p)) < 1e-10
    # the S_u forms against the T x p forms on random panels and
    # partitions with four singleton clusters, at several scales
    for seed, scale in ((0, 1.0), (1, 1.0), (2, 1e-4), (3, 1e3)):
        rng = np.random.default_rng(seed)
        t_len, p = 90, 30
        times = tuple(f"2000-01-01T{k:05d}" for k in range(t_len))
        f = rng.normal(size=(t_len, r))
        y = scale * (rng.normal(size=(t_len, p)) + f @ rng.normal(size=(r, p)))
        returns = ReturnsPanel(times, tuple(f"s{i}" for i in range(p)), y)
        fit = fit_loadings(returns, FactorPanel(times, ("f1", "f2"), f))
        labels = rng.integers(0, 5, size=p)
        labels[rng.choice(p, size=4, replace=False)] = np.arange(5, 9)
        part = ClusterPartition.from_labels(labels)
        got = assemble(fit, part).structured
        z, e = estimate_cluster_series(fit.residuals, part)
        sz_ref, v_ref = cluster_cov(z), idio_var(e)
        assert np.abs(got.cluster_cov - sz_ref).max() <= 1e-12 * np.abs(sz_ref).max()
        assert np.abs(got.idio_var - v_ref).max() <= 1e-14 * np.diag(fit.residual_cov).max()
        singles = [g[0] for g in part.groups if len(g) == 1]
        assert len(singles) >= 4 and np.all(got.idio_var[singles] == 0.0)


@pytest.fixture
def residual_cov_calls(monkeypatch):
    """Counts calls of ``clustering.residual_cov``, the S_u of a fit."""
    calls = []
    monkeypatch.setattr(clustering, "residual_cov", lambda u: calls.append(1) or residual_cov(u))
    return calls


def test_residual_cov_is_built_once_per_fit(residual_cov_calls):
    sim = generate(default_config(30, 3, 80, seed=5))
    fit = fit_loadings(sim.returns, sim.factors)
    pipe = cluster_from_cov(fit.residual_cov)
    est = assemble(fit, pipe.partition)
    assert len(residual_cov_calls) == 1
    assert pipe.residual_cov is fit.residual_cov and not fit.residual_cov.flags.writeable
    assert np.array_equal(fit.residual_cov, residual_cov(fit.residuals))
    again = run_clustering_pipeline(fit.residuals)
    assert again.partition == pipe.partition
    assert np.array_equal(again.residual_cov, pipe.residual_cov)
    assert est.structured.cluster_cov.shape == (pipe.partition.n_clusters,) * 2


@pytest.mark.parametrize("scheme", ["unconstrained", "long_only"])
def test_one_residual_cov_per_backtest_window(residual_cov_calls, scheme):
    sim = generate(default_config(30, 3, 100, seed=6))
    config = BacktestConfig(train_window=80, scheme=scheme)
    w = _window_weights(sim.returns, sim.factors, config, 10, 90)
    assert len(residual_cov_calls) == 1
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_one_residual_cov_per_estimate_command(residual_cov_calls, tmp_path, capsys):
    sim = generate(default_config(12, 3, 80, seed=41))
    paths = [str(tmp_path / "returns.csv"), str(tmp_path / "factors.csv")]
    save_panel_csv(sim.returns, paths[0])
    save_panel_csv(sim.factors, paths[1])
    argv = ["estimate", "--returns", paths[0], "--factors", paths[1], "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert len(residual_cov_calls) == 1
    assert "clusters:" in capsys.readouterr().out


def test_one_residual_cov_per_replication(residual_cov_calls):
    out = _replication(ExperimentCell(n_periods=100, p=30, n_clusters=3), 7, 0.0, 0.95)
    assert out is not None
    assert len(residual_cov_calls) == 1


def test_assembled_dense_matrices_are_built_on_first_access():
    est = assemble_from_structure(random_structure(np.random.default_rng(11), 9, 3, 2))
    assert "sigma" not in vars(est) and "precision" not in vars(est)
    prec = est.precision
    assert "sigma" not in vars(est)
    assert est.precision is prec and not prec.flags.writeable
    assert est.sigma is est.sigma and not est.sigma.flags.writeable


def woodbury_inverse_reference(v, low, core):
    """The dense Woodbury inverse as written before it became a solve."""
    inv_v = 1.0 / v
    w = low * inv_v[:, None]
    inner = np.eye(core.shape[0]) + core @ (low.T @ w)
    return symmetrize(np.diag(inv_v) - w @ np.linalg.solve(inner, core @ w.T))


@pytest.mark.parametrize("p,k,r", [(9, 3, 2), (60, 5, 0), (200, 6, 3)])
def test_dense_precisions_bitwise_equal_the_woodbury_inverse(p, k, r):
    structured = random_structure(np.random.default_rng(p), p, k, r)
    est = assemble_from_structure(structured)
    a = structured.partition.membership.astype(np.float64)
    low = np.hstack([structured.loadings, a])
    core = block_diag(structured.factor_cov, structured.cluster_cov)
    v = structured.idio_var
    assert np.array_equal(est.precision, woodbury_inverse_reference(v, low, core))


@st.composite
def estimates_and_right_hand_sides(draw):
    """Structured estimates with k clusters of 2 or more members and up to
    p - 2k singleton clusters whose members have v = 0, as an estimated
    singleton does."""
    p = draw(st.integers(3, 40))
    r = draw(st.integers(0, 3))
    k = draw(st.integers(1, p // 2))
    n_single = draw(st.integers(0, p - 2 * k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate(
        [
            np.arange(k),
            np.arange(k),
            np.arange(k, k + n_single),
            rng.integers(0, k, size=p - 2 * k - n_single),
        ]
    )
    rng.shuffle(labels)
    structured = random_structure(rng, p, k + n_single, r, labels)
    v = np.where(labels >= k, 0.0, structured.idio_var)
    est = assemble_from_structure(replace(structured, idio_var=v))
    return est, rng.normal(size=p), rng.normal(size=(p, 2))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(estimates_and_right_hand_sides())
def test_solve_matches_the_dense_precision(case):
    est, b_vec, b_mat = case
    got = [est.solve(b_vec), est.solve(b_mat)]
    assert "precision" not in vars(est) and "sigma" not in vars(est)
    for b, x in zip((b_vec, b_mat), got):
        want = est.precision @ b
        assert x.shape == b.shape
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_sample_solve_goes_through_the_precision():
    rng = np.random.default_rng(38)
    x = rng.normal(size=(30, 4))
    est = SampleEstimate(sample_cov(x), 30)
    b = rng.normal(size=4)
    assert np.array_equal(est.solve(b), est.precision @ b)
    singular = SampleEstimate(sample_cov(x[:3]), 3)
    with pytest.raises(EstimationError, match="3 rows for 4 series"):
        singular.solve(b)


def test_sample_cov_matches_numpy():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(30, 5)) + 3.0
    got = sample_cov(x)
    assert np.allclose(got, np.cov(x, rowvar=False), atol=1e-12)
    times = tuple(f"2000-01-01T{k:05d}" for k in range(30))
    panel = ReturnsPanel(times, tuple(f"s{i}" for i in range(5)), x)
    assert np.array_equal(sample_cov(panel), got)


def test_operator_norm_is_largest_abs_eigenvalue():
    rng = np.random.default_rng(38)
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2
    expected = np.abs(np.linalg.eigvalsh(m)).max()
    assert operator_norm(m) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="not symmetric"):
        operator_norm(rng.normal(size=(6, 6)) + 10 * np.eye(6) + np.triu(np.ones((6, 6))))


def test_max_norm_is_largest_abs_entry():
    m = np.array([[1.0, -7.5], [3.0, 2.0]])
    assert max_norm(m) == 7.5


def test_weighted_norm_of_reference_is_one():
    rng = np.random.default_rng(39)
    for p in (2, 5, 11):
        a = rng.normal(size=(p + 2, p))
        ref = a.T @ a / (p + 2) + 0.1 * np.eye(p)
        assert weighted_quadratic_norm(ref, ref) == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_matches_direct_computation():
    rng = np.random.default_rng(40)
    p = 7
    a = rng.normal(size=(p + 2, p))
    ref = a.T @ a / (p + 2) + 0.1 * np.eye(p)
    m = rng.normal(size=(p, p))
    m = (m + m.T) / 2
    vals, vecs = np.linalg.eigh(ref)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
    expected = np.linalg.norm(inv_sqrt @ m @ inv_sqrt, "fro") / np.sqrt(p)
    assert weighted_quadratic_norm(m, ref) == pytest.approx(expected, rel=1e-10)


def test_weighted_norm_scales_and_triangle():
    rng = np.random.default_rng(41)
    p = 5
    a = rng.normal(size=(p + 2, p))
    ref = a.T @ a / (p + 2) + 0.1 * np.eye(p)
    m1 = np.eye(p)
    m2 = rng.normal(size=(p, p))
    m2 = (m2 + m2.T) / 2
    n1 = weighted_quadratic_norm(m1, ref)
    n2 = weighted_quadratic_norm(m2, ref)
    assert weighted_quadratic_norm(2.5 * m2, ref) == pytest.approx(2.5 * n2)
    assert weighted_quadratic_norm(m1 + m2, ref) <= n1 + n2 + 1e-12


def test_weighted_norm_rejects_indefinite_reference():
    ref = np.diag([1.0, -1.0])
    with pytest.raises(EstimationError, match="positive definite"):
        weighted_quadratic_norm(np.eye(2), ref)


def test_bundle_round_trip_bitwise(tmp_path):
    structured = random_structure(np.random.default_rng(42), 9, 3, 2)
    save_bundle(structured, str(tmp_path))
    back = load_bundle(str(tmp_path))
    assert np.array_equal(back.loadings, structured.loadings)
    assert np.array_equal(back.factor_cov, structured.factor_cov)
    assert np.array_equal(back.cluster_cov, structured.cluster_cov)
    assert np.array_equal(back.idio_var, structured.idio_var)
    assert back.partition == structured.partition
    assert back.series_names == structured.series_names
    # factor names are positional after reload
    assert back.factor_names == ("f1", "f2")
    est0 = assemble_from_structure(structured)
    est1 = assemble_from_structure(back)
    assert np.array_equal(est0.sigma, est1.sigma)
    assert np.array_equal(est0.precision, est1.precision)


def test_structure_validates_shapes():
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError, match="shapes"):
        StructuredCovariance(
            loadings=rng.normal(size=(4, 2)),
            factor_cov=np.eye(3),
            partition=ClusterPartition.from_labels([0, 0, 1, 1]),
            cluster_cov=np.eye(2),
            idio_var=np.ones(4),
            series_names=("a", "b", "c", "d"),
            factor_names=("f1", "f2"),
        )
