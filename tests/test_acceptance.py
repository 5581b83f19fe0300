"""Acceptance gate: nine stated criteria, one verdict line each.

Each criterion is a single test so a verbose run prints exactly one
pass/fail line per criterion; every tolerance and budget asserted here
is the stated one, not a loosened stand-in.
"""

import functools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from factorcluster.assembly import (
    assemble,
    assemble_from_structure,
    cluster_cov,
    estimate_cluster_series,
    max_norm,
    operator_norm,
    sample_cov,
)
from factorcluster.clustering import (
    adjusted_rand_index,
    cluster,
    residual_cov,
    run_clustering_pipeline,
    scod_matrix,
)
from factorcluster.diagnostics import m_p
from factorcluster.factors import fit_loadings
from factorcluster.panel import ClusterPartition
from factorcluster.portfolio import min_var_long_only, summary_stats
from factorcluster.simulation import (
    DEFAULT_GRID,
    default_config,
    generate,
    replication_seed,
    run_experiment,
)

from test_assembly import dense_oracle, random_structure
from test_cli import CLI_ENV
from test_clustering import (
    ari_oracle,
    residual_cov_oracle,
    scod_oracle,
    single_linkage_cut_oracle,
)
from test_diagnostics import m_p_oracle
from test_portfolio import exhaustive_long_only, random_spd


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance criterion {number}: FAIL — {label}")
                raise
            print(f"acceptance criterion {number}: PASS — {label}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def experiment_rows():
    """Shared Monte Carlo table for the recovery and dominance criteria."""
    start = time.perf_counter()
    rows = run_experiment(DEFAULT_GRID, n_reps=100, base_seed=0)
    elapsed = time.perf_counter() - start
    table = {
        (row.cell.n_periods, row.cell.p, row.estimator): row for row in rows
    }
    return table, elapsed


@criterion(1, "estimator statistics match brute-force oracles at 1e-10")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(100):
        p = int(rng.integers(4, 11))
        t_len = int(rng.integers(15, 40))
        u = rng.standard_normal((t_len, p))
        cov = residual_cov(u)
        assert np.abs(cov - residual_cov_oracle(u)).max() <= 1e-10
        assert np.abs(scod_matrix(cov) - scod_oracle(cov)).max() <= 1e-10

        k = int(rng.integers(1, p + 1))
        labels = rng.integers(0, k, size=p)
        labels[:k] = np.arange(k)
        partition = ClusterPartition.from_labels(labels)
        z, _ = estimate_cluster_series(u, partition)
        z_oracle = np.column_stack(
            [u[:, list(g)].sum(axis=1) / len(g) for g in partition.groups]
        )
        cov_z = cluster_cov(z)
        cov_z_oracle = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                cov_z_oracle[a, b] = (
                    sum(z_oracle[t, a] * z_oracle[t, b] for t in range(t_len)) / t_len
                )
        assert np.abs(z - z_oracle).max() <= 1e-10
        assert np.abs(cov_z - cov_z_oracle).max() <= 1e-10

        sparse = cov.copy()
        sparse[np.abs(sparse) < np.quantile(np.abs(sparse), 0.3)] = 0.0
        for kappa in (0.0, 0.3, 0.7):
            assert abs(m_p(sparse, kappa) - m_p_oracle(sparse, kappa)) <= 1e-10

        la = rng.integers(0, 4, size=p)
        lb = rng.integers(0, 3, size=p)
        assert abs(adjusted_rand_index(la, lb) - ari_oracle(la, lb)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "merge loop equals a naive single-linkage dendrogram cut")
def test_criterion_2_single_linkage_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for i in range(100):
        p = int(rng.integers(2, 31))
        d = np.abs(rng.standard_normal((p, p))) + 0.01
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        off = d[~np.eye(p, dtype=bool)]
        if i % 10 == 0:
            gamma = float(off.max()) * 1.5  # everything merges
        elif i % 10 == 1:
            gamma = float(off.min()) * 0.5  # nothing merges
        else:
            gamma = float(np.quantile(off, rng.uniform(0.05, 0.95)))
        assert cluster(d, gamma) == single_linkage_cut_oracle(d, gamma)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"


@criterion(3, "low-rank precision identities agree with dense inverses at 1e-8")
def test_criterion_3_smw_correctness():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    for _ in range(100):
        k = int(rng.integers(1, 9))
        r = int(rng.integers(0, 6))
        p = int(rng.integers(max(k, 2), 51))
        structured = random_structure(rng, p, k, r)
        est = assemble_from_structure(structured)
        identity_gap = np.abs(est.sigma @ est.precision - np.eye(p)).max()
        assert identity_gap <= 1e-8
        _, _, dense_precision, _ = dense_oracle(structured)
        assert max_norm(est.precision - dense_precision) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s"


@criterion(4, "cluster-count recovery and ARI reach 0.90 and do not degrade")
def test_criterion_4_recovery_trend(experiment_rows):
    table, elapsed = experiment_rows
    assert elapsed < 900.0, f"experiment took {elapsed:.0f}s"
    small = table[(300, 200, "cluster")]
    large = table[(500, 400, "cluster")]
    assert small.failures == 0 and large.failures == 0
    assert large.freq_correct_k >= 0.90
    assert large.ari_mean >= 0.90
    assert large.freq_correct_k >= small.freq_correct_k - 0.05
    assert large.ari_mean >= small.ari_mean - 0.05


@criterion(5, "cluster estimator dominates sample and improves as p grows")
def test_criterion_5_estimator_dominance(experiment_rows):
    table, _ = experiment_rows
    for cell in DEFAULT_GRID:
        key = (cell.n_periods, cell.p)
        clu = table[key + ("cluster",)]
        smp = table[key + ("sample",)]
        assert clu.wq_mean < smp.wq_mean, key
    fixed_t = table[(2000, 400, "cluster")].wq_mean
    assert fixed_t < table[(2000, 200, "cluster")].wq_mean


@criterion(6, "structured precision stays finite where the sample is singular")
def test_criterion_6_precision_beyond_singularity():
    for rep in range(20):
        config = default_config(
            p=400, n_clusters=6, n_periods=300, seed=int(replication_seed(0, rep))
        )
        sim = generate(config)
        min_eig = np.linalg.eigvalsh(sample_cov(sim.returns.values))[0]
        assert min_eig <= 1e-10, (rep, min_eig)
        fit = fit_loadings(sim.returns, sim.factors)
        pipe = run_clustering_pipeline(fit.residuals)
        est = assemble(fit, pipe.partition)
        assert np.all(np.isfinite(est.precision)), rep
        loss = operator_norm(est.precision - sim.truth.assembled().precision)
        assert np.isfinite(loss), rep


@criterion(7, "long-only weights match the exhaustive active-set oracle")
def test_criterion_7_long_only_qp():
    start = time.perf_counter()
    hand = min_var_long_only(np.array([[1.0, 1.5], [1.5, 4.0]]))
    assert np.abs(hand - np.array([1.0, 0.0])).max() <= 1e-8
    rng = np.random.default_rng(1007)
    for _ in range(100):
        p = int(rng.integers(2, 7))
        sigma = random_spd(rng, p)
        w = min_var_long_only(sigma)
        oracle = exhaustive_long_only(sigma)
        gap = float(w @ sigma @ w) - float(oracle @ sigma @ oracle)
        assert abs(gap) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s"


@criterion(8, "three-day backtest fixture reproduces the annualized statistics")
def test_criterion_8_backtest_arithmetic():
    av, sd, ir = summary_stats(np.array([0.01, -0.01, 0.03]))
    assert av == pytest.approx(252.0, rel=1e-6)
    assert sd == pytest.approx(31.749015732775089, rel=1e-6)
    assert ir == pytest.approx(7.9372539331937713, rel=1e-6)


def _run_cli(args, threads=None):
    cmd = [sys.executable, "-m", "factorcluster.cli"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    result = subprocess.run(cmd + args, capture_output=True, text=True, env=CLI_ENV)
    assert result.returncode == 0, result.stderr
    return result


def _dir_blobs(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".csv"):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
    return out


@criterion(9, "seeded pipelines rewrite byte-identical CSVs across runs and threads")
def test_criterion_9_determinism(tmp_path):
    sim_args = [
        "simulate", "--p", "12", "--clusters", "3", "--periods", "60",
        "--reps", "2", "--seed", "7",
    ]
    sim_dirs = []
    for tag, threads in (("sa", None), ("sb", None), ("sc", 1), ("sd", 2)):
        out = str(tmp_path / tag)
        _run_cli(sim_args + ["--out", out], threads=threads)
        sim_dirs.append(out)
    baseline = _dir_blobs(sim_dirs[0])
    assert "experiment_results.csv" in baseline
    assert "returns_r01.csv" in baseline
    for other in sim_dirs[1:]:
        assert _dir_blobs(other) == baseline

    returns_path = os.path.join(sim_dirs[0], "returns_r01.csv")
    factors_path = os.path.join(sim_dirs[0], "factors_r01.csv")
    bt_args = [
        "backtest", "--returns", returns_path, "--factors", factors_path,
        "--estimator", "sample", "--window", "40", "--rebalance", "5",
    ]
    bt_dirs = []
    for tag, threads in (("ba", None), ("bb", None), ("bc", 1), ("bd", 2)):
        out = str(tmp_path / tag)
        _run_cli(bt_args + ["--out", out], threads=threads)
        bt_dirs.append(out)
    bt_baseline = _dir_blobs(bt_dirs[0])
    assert set(bt_baseline) == {
        "backtest_series.csv", "backtest_summary.csv", "backtest_weights.csv",
    }
    for other in bt_dirs[1:]:
        assert _dir_blobs(other) == bt_baseline
