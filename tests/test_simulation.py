"""Synthetic panel generator: sizes, truncated draws, VAR paths, experiments."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from factorcluster.errors import EstimationError, FactorClusterError
from factorcluster.panel import write_text_atomic
from factorcluster.simulation import (
    DEFAULT_GRID,
    DgpConfig,
    ExperimentCell,
    balanced_sizes,
    default_config,
    experiment_csv,
    gamma_params,
    generate,
    imbalanced_proportions,
    load_config_file,
    replication_seed,
    run_experiment,
    sample_idio_sd,
    simulate_var1,
)


def test_balanced_sizes_hand_cases():
    assert balanced_sizes(10, 3) == (4, 4, 2)
    assert balanced_sizes(200, 6) == (34, 34, 34, 34, 34, 30)
    assert balanced_sizes(9, 3) == (3, 3, 3)
    assert balanced_sizes(5, 1) == (5,)


def test_balanced_sizes_cover_p_and_validate():
    for p in range(1, 60):
        for k in range(1, p + 1):
            try:
                sizes = balanced_sizes(p, k)
            except ValueError:
                continue
            assert sum(sizes) == p
            assert len(sizes) == k
            assert min(sizes) >= 1
            assert len(set(sizes[:-1])) <= 1
    with pytest.raises(ValueError, match="infeasible"):
        balanced_sizes(10, 7)  # head 2, 6 * 2 = 12 > 10


def test_imbalanced_proportions_pattern():
    pi = imbalanced_proportions(6)  # a = 2: weights 3,3,2,2,1,1 over 12
    assert np.allclose(pi, np.array([3, 3, 2, 2, 1, 1]) / 12)
    assert pi.sum() == pytest.approx(1.0)
    pi = imbalanced_proportions(13)  # a = 5: 3*5 + 2*5 + 1*3 = 28
    assert np.allclose(pi, np.array([3] * 5 + [2] * 5 + [1] * 3) / 28)
    with pytest.raises(ValueError, match="K >= 3"):
        imbalanced_proportions(2)


def test_gamma_params_hand_case_and_moments():
    assert gamma_params(2.0, 1.0) == (4.0, 0.5)
    for mean, sd in ((0.8, 0.3), (5.0, 2.0)):
        shape, scale = gamma_params(mean, sd)
        assert shape * scale == pytest.approx(mean)
        assert shape * scale * scale == pytest.approx(sd * sd)
    with pytest.raises(ValueError):
        gamma_params(0.0, 1.0)


def test_idio_sd_draws_respect_bounds_and_truncated_mean():
    rng = np.random.default_rng(50)
    mean, sd, lo, hi = 0.8, 0.3, 0.2, 2.0
    draws = sample_idio_sd(200_000, mean, sd, lo, hi, rng)
    assert draws.min() >= lo and draws.max() <= hi
    shape, scale = gamma_params(mean, sd)
    mass = stats.gamma.cdf(hi, a=shape, scale=scale) - stats.gamma.cdf(
        lo, a=shape, scale=scale
    )
    num, _ = integrate.quad(
        lambda x: x * stats.gamma.pdf(x, a=shape, scale=scale), lo, hi
    )
    truncated_mean = num / mass
    assert draws.mean() == pytest.approx(truncated_mean, abs=4 * sd / math.sqrt(200_000))


def test_idio_sd_rejects_empty_truncation():
    rng = np.random.default_rng(51)
    with pytest.raises(EstimationError, match="probability\\s+mass"):
        sample_idio_sd(10, 0.8, 0.05, 30.0, 40.0, rng)
    with pytest.raises(ValueError):
        sample_idio_sd(10, 0.8, 0.3, 2.0, 0.2, rng)


def test_idio_sd_is_deterministic_per_seed():
    a = sample_idio_sd(100, 0.8, 0.3, 0.2, 2.0, np.random.default_rng(7))
    b = sample_idio_sd(100, 0.8, 0.3, 0.2, 2.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_var1_matches_stationary_moments():
    rng = np.random.default_rng(52)
    phi = np.array([[0.5, 0.1], [0.0, 0.3]])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    mu = np.array([0.5, -0.2])
    x = simulate_var1(120_000, mu, phi, cov, rng, burn_in=200)
    target_mean = np.linalg.solve(np.eye(2) - phi, mu)
    assert np.allclose(x.mean(axis=0), target_mean, atol=0.03)
    xc = x - x.mean(axis=0)
    assert np.allclose(xc.T @ xc / len(x), cov, atol=0.03)
    # lag-1 autocovariance of a VAR(1) is phi @ cov
    lag1 = xc[1:].T @ xc[:-1] / (len(x) - 1)
    assert np.allclose(lag1, phi @ cov, atol=0.03)


def test_var1_rejects_unstable_or_infeasible():
    rng = np.random.default_rng(53)
    with pytest.raises(EstimationError, match="not stable"):
        simulate_var1(10, np.zeros(1), np.array([[1.0]]), np.eye(1), rng)
    # target covariance infeasible: innovation covariance indefinite
    phi = np.array([[0.9, 0.0], [0.0, 0.0]])
    cov = np.array([[1.0, 0.99], [0.99, 1.0]])
    with pytest.raises(EstimationError, match="innovation covariance"):
        simulate_var1(10, np.zeros(2), phi, cov, rng)


def test_var1_burn_in_zero_starts_at_stationary_mean():
    rng = np.random.default_rng(54)
    x = simulate_var1(3, np.array([1.0]), np.array([[0.5]]), np.zeros((1, 1)), rng, burn_in=0)
    # zero innovation: path stays at the stationary mean 1/(1-0.5) = 2
    assert np.allclose(x, 2.0)


def test_default_config_documented_constants():
    config = default_config(p=30, n_clusters=3, n_periods=50)
    assert config.n_factors == 5
    assert np.array_equal(config.mu_b, [1.0, 0.3, 0.2, 0.1, 0.1])
    assert np.array_equal(config.mu_f, [0.05, 0.02, 0.02, 0.01, 0.01])
    assert np.allclose(np.diag(config.phi_f), np.linspace(0.30, 0.10, 5))
    assert np.allclose(np.diag(config.phi_z), np.linspace(0.10, 0.30, 3))
    vols = np.array([1.0, 0.7, 0.6, 0.5, 0.5])
    assert np.allclose(np.diag(config.sigma_f), vols**2)
    assert np.allclose(
        config.sigma_z, 1.5 * (0.8 * np.eye(3) + 0.2 * np.ones((3, 3)))
    )
    assert config.sigma_bar == 0.8
    assert config.s_sigma == 0.3
    assert (config.sigma_min, config.sigma_max) == (0.2, 2.0)


def test_config_validation_errors():
    good = default_config(p=10, n_clusters=2, n_periods=20)
    with pytest.raises(ValueError, match="mode"):
        default_config(p=10, n_clusters=2, n_periods=20, mode="lumpy")
    with pytest.raises(ValueError, match="seed"):
        default_config(p=10, n_clusters=2, n_periods=20, seed=-1)
    with pytest.raises(ValueError, match="more clusters"):
        default_config(p=3, n_clusters=5, n_periods=20)
    from dataclasses import replace

    with pytest.raises(ValueError, match="phi_f"):
        replace(good, phi_f=np.eye(5) * 1.2)
    with pytest.raises(ValueError, match="sigma_z"):
        replace(good, sigma_z=np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_generate_shapes_names_and_dates():
    config = default_config(p=12, n_clusters=3, n_periods=40, seed=99)
    sim = generate(config)
    assert sim.returns.values.shape == (40, 12)
    assert sim.factors.values.shape == (40, 5)
    assert sim.returns.names[0] == "S0001"
    assert sim.returns.names[-1] == "S0012"
    assert sim.factors.names == ("F1", "F2", "F3", "F4", "F5")
    assert sim.returns.times[0] == "2000-01-01"
    assert sim.returns.times[1] == "2000-01-02"
    assert sim.returns.times == sim.factors.times


def test_generate_wide_panel_name_padding():
    config = default_config(p=12000, n_clusters=2, n_periods=2, seed=1)
    # only probe the name helper through a tiny panel: width follows p
    from factorcluster.simulation import _series_name

    assert _series_name(0, 12000) == "S00001"
    assert _series_name(11999, 12000) == "S12000"
    assert _series_name(0, 50) == "S0001"
    del config


def test_generate_identity_holds_exactly():
    config = default_config(p=15, n_clusters=4, n_periods=60, seed=5)
    sim = generate(config)
    truth = sim.truth
    reconstructed = (
        sim.factors.values @ truth.loadings.T
        + truth.cluster_paths[:, truth.partition.labels]
        + truth.idio_paths
    )
    assert np.array_equal(sim.returns.values, reconstructed)
    assert truth.partition.sizes == balanced_sizes(15, 4)
    assert truth.idio_sd.min() >= config.sigma_min
    assert truth.idio_sd.max() <= config.sigma_max


def test_generate_is_deterministic_and_seed_sensitive():
    config = default_config(p=10, n_clusters=2, n_periods=30, seed=11)
    a = generate(config)
    b = generate(config)
    assert np.array_equal(a.returns.values, b.returns.values)
    assert np.array_equal(a.factors.values, b.factors.values)
    other = generate(default_config(p=10, n_clusters=2, n_periods=30, seed=12))
    assert not np.array_equal(a.returns.values, other.returns.values)


def test_generate_streams_are_independent():
    # lengthening the sample must not disturb loadings, sizes, or sigmas
    short = generate(default_config(p=8, n_clusters=2, n_periods=20, seed=3))
    long = generate(default_config(p=8, n_clusters=2, n_periods=90, seed=3))
    assert np.array_equal(short.truth.loadings, long.truth.loadings)
    assert np.array_equal(short.truth.idio_sd, long.truth.idio_sd)
    assert short.truth.partition == long.truth.partition


def test_generate_imbalanced_nonempty_clusters():
    config = default_config(p=40, n_clusters=5, n_periods=20, seed=21, mode="imbalanced")
    sim = generate(config)
    assert sim.truth.partition.n_clusters == 5
    assert min(sim.truth.partition.sizes) >= 1
    assert sum(sim.truth.partition.sizes) == 40
    # skewed by construction: first cluster expected ~3x the last
    assert sim.truth.partition.sizes[0] > sim.truth.partition.sizes[-1]


def test_truth_assembled_satisfies_inverse_identity():
    config = default_config(p=20, n_clusters=3, n_periods=30, seed=8)
    est = generate(config).truth.assembled()
    assert np.abs(est.sigma @ est.precision - np.eye(20)).max() < 1e-10


def test_replication_seed_is_stable_and_distinct():
    seeds = [replication_seed(0, r) for r in range(50)]
    assert len(set(seeds)) == 50
    assert all(0 <= s < 2**64 for s in seeds)
    assert seeds == [replication_seed(0, r) for r in range(50)]
    assert replication_seed(1, 0) != replication_seed(0, 0)


def test_run_experiment_row_layout():
    cells = [ExperimentCell(60, 12, 3, "balanced")]
    rows = run_experiment(cells, n_reps=3, base_seed=123)
    assert [row.estimator for row in rows] == ["cluster", "sample"]
    cluster_row, sample_row = rows
    assert cluster_row.reps == 3
    assert cluster_row.failures == 0
    assert cluster_row.freq_correct_k is not None
    assert cluster_row.ari_mean is not None
    assert sample_row.freq_correct_k is None
    assert sample_row.ari_mean is None
    assert cluster_row.wq_mean is not None and cluster_row.wq_mean > 0
    assert sample_row.prec_mean is not None  # T > p, invertible


def test_run_experiment_estimates_singleton_clusters():
    # about a quarter of these replications estimate a singleton cluster
    rows = run_experiment([ExperimentCell(60, 12, 3)], n_reps=40)
    assert [row.failures for row in rows] == [0, 0]


def test_run_experiment_singular_sample_precision_left_empty():
    rows = run_experiment([ExperimentCell(20, 30, 3, "balanced")], n_reps=2, base_seed=5)
    sample_row = rows[1]
    assert sample_row.prec_mean is None
    assert sample_row.wq_mean is not None
    text = experiment_csv(rows)
    last = text.strip().splitlines()[-1].split(",")
    assert last[-2:] == ["", ""]


def run_with_fault(monkeypatch, target):
    """Three replications; the second raises LinAlgError inside ``target``."""
    import factorcluster.simulation as simulation

    original = getattr(simulation, target)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("singular matrix")
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, target, flaky)
    done = []
    rows = run_experiment(
        [ExperimentCell(60, 12, 3, "balanced")],
        n_reps=3,
        base_seed=2,
        progress=lambda cell, rep: done.append(rep),
    )
    monkeypatch.undo()
    return rows, done


def test_run_experiment_counts_linalg_error_as_failure(monkeypatch):
    rows, done = run_with_fault(monkeypatch, "assemble")
    assert done == [0, 2]
    assert [row.failures for row in rows] == [1, 1]
    cluster_row, sample_row = rows
    assert cluster_row.freq_correct_k in (0.0, 0.5, 1.0)
    assert cluster_row.wq_mean is not None and sample_row.wq_mean is not None
    # a fault after the cluster losses exist must leave the same record
    late_rows, late_done = run_with_fault(monkeypatch, "sample_cov")
    assert late_done == [0, 2]
    assert late_rows == rows


def test_experiment_csv_layout():
    rows = run_experiment([ExperimentCell(40, 9, 3, "balanced")], n_reps=2, base_seed=7)
    text = experiment_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "T,p,K,mode,estimator,reps,failures,freq_correct_k,ari_mean,"
        "wq_mean,wq_se,max_mean,max_se,prec_mean,prec_se"
    )
    assert len(lines) == 3
    assert lines[1].startswith("40,9,3,balanced,cluster,2,")
    assert lines[2].startswith("40,9,3,balanced,sample,2,")


def test_experiment_csv_exact_bytes():
    # the second cell has T < p, so its sample precision loss is undefined
    rows = run_experiment(
        [ExperimentCell(60, 24, 3), ExperimentCell(20, 30, 3)], n_reps=2, base_seed=5
    )
    assert experiment_csv(rows) == (
        "T,p,K,mode,estimator,reps,failures,freq_correct_k,ari_mean,"
        "wq_mean,wq_se,max_mean,max_se,prec_mean,prec_se\n"
        "60,24,3,balanced,cluster,2,0,1,1,0.361591,0.0101854,1.70846,0.748228,1.16425,0.20971\n"
        "60,24,3,balanced,sample,2,0,,,0.641923,0.00174924,2.16961,0.385588,8.77986,0.521863\n"
        "20,30,3,balanced,cluster,2,0,0,0,1.56815,0.240297,2.99827,0.471055,3.42519,0.598334\n"
        "20,30,3,balanced,sample,2,0,,,1.27238,0.0661237,3.09234,0.41412,,\n"
    )


def test_default_grid_matches_documented_cells():
    assert tuple((c.n_periods, c.p, c.n_clusters) for c in DEFAULT_GRID) == (
        (300, 200, 6),
        (500, 400, 6),
        (2000, 200, 6),
        (2000, 400, 6),
    )


def test_load_config_minimal_equals_defaults(tmp_path):
    import dataclasses

    path = str(tmp_path / "sim.cfg")
    write_text_atomic(path, "p = 12\nn_clusters = 3\nn_periods = 40\n")
    config = load_config_file(path)
    expected = default_config(p=12, n_clusters=3, n_periods=40)
    for field in dataclasses.fields(DgpConfig):
        got = getattr(config, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


def test_load_config_scalars_and_comments(tmp_path):
    path = str(tmp_path / "sim.cfg")
    write_text_atomic(
        path,
        "# comment line\n"
        "p = 10  # trailing comment\n"
        "n_clusters = 2\n"
        "n_periods = 30\n"
        "seed = 9\n"
        "mode = imbalanced\n"
        "sigma_bar = 1.1\n"
        "z_scale = 0.7\n"
        "burn_in = 100\n",
    )
    config = load_config_file(path)
    assert config.seed == 9
    assert config.mode == "imbalanced"
    assert config.sigma_bar == 1.1
    assert config.burn_in == 100
    assert np.allclose(config.sigma_z, 0.7 * (0.8 * np.eye(2) + 0.2 * np.ones((2, 2))))


def test_load_config_matrix_overrides(tmp_path):
    write_text_atomic(str(tmp_path / "mu_b.csv"), "1.5\n0.5\n")
    write_text_atomic(str(tmp_path / "sigma_f.csv"), "1,0\n0,2\n")
    write_text_atomic(
        str(tmp_path / "sim.cfg"),
        "p = 8\nn_clusters = 2\nn_periods = 25\nn_factors = 2\n"
        "mu_b = mu_b.csv\nsigma_f = sigma_f.csv\n",
    )
    config = load_config_file(str(tmp_path / "sim.cfg"))
    assert np.array_equal(config.mu_b, [1.5, 0.5])
    assert np.array_equal(config.sigma_f, [[1.0, 0.0], [0.0, 2.0]])


def test_load_config_row_vector_override(tmp_path):
    write_text_atomic(str(tmp_path / "mu_b.csv"), "1.5,0.5\n")
    write_text_atomic(
        str(tmp_path / "sim.cfg"),
        "p = 8\nn_clusters = 2\nn_periods = 25\nn_factors = 2\nmu_b = mu_b.csv\n",
    )
    assert np.array_equal(load_config_file(str(tmp_path / "sim.cfg")).mu_b, [1.5, 0.5])


def test_load_config_errors(tmp_path):
    path = str(tmp_path / "sim.cfg")
    write_text_atomic(path, "p = 12\nn_clusters = 3\n")
    with pytest.raises(FactorClusterError, match="missing required"):
        load_config_file(path)
    write_text_atomic(path, "p = 12\nn_clusters = 3\nn_periods = 40\nwhat = 1\n")
    with pytest.raises(FactorClusterError, match="unknown key 'what'"):
        load_config_file(path)
    write_text_atomic(path, "p twelve\n")
    with pytest.raises(FactorClusterError, match="expected 'key = value'"):
        load_config_file(path)
    write_text_atomic(path, "p = twelve\nn_clusters = 3\nn_periods = 40\n")
    with pytest.raises(FactorClusterError, match="bad value"):
        load_config_file(path)
    with pytest.raises(FactorClusterError, match="cannot read"):
        load_config_file(str(tmp_path / "absent.cfg"))
