"""Covariance assembly, low-rank precision identities, norms, and bundles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

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
from factorcluster.errors import EstimationError
from factorcluster.factors import fit_loadings
from factorcluster.panel import ClusterPartition, FactorPanel, ReturnsPanel, symmetrize
from factorcluster.simulation import default_config, generate


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


def test_singleton_cluster_failure_names_the_series():
    # a singleton's cluster path is its own residual, leaving it no
    # idiosyncratic variance
    rng = np.random.default_rng(44)
    t_len, p = 60, 6
    times = tuple(f"2000-01-01T{k:05d}" for k in range(t_len))
    f = rng.normal(size=(t_len, 1))
    returns = ReturnsPanel(times, tuple(f"s{i}" for i in range(p)), rng.normal(size=(t_len, p)))
    fit = fit_loadings(returns, FactorPanel(times, ("f1",), f))
    part = ClusterPartition.from_groups([(0, 1, 2), (3,), (4, 5)], p)
    with pytest.raises(EstimationError, match="series 's3'.*alone in its cluster"):
        assemble(fit, part)


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
    """Structured estimates whose clusters all have 2 or more members."""
    p = draw(st.integers(3, 40))
    r = draw(st.integers(0, 3))
    k = draw(st.integers(1, p // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(k), np.arange(k), rng.integers(0, k, size=p - 2 * k)])
    rng.shuffle(labels)
    est = assemble_from_structure(random_structure(rng, p, k, r, labels))
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
