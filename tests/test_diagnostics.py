"""Row-sparsity statistic and subpanel scans."""

import numpy as np
import pytest

from factorcluster.clustering import residual_cov
from factorcluster.diagnostics import SparsityReport, m_p, sparsity_csv, sparsity_scan


def m_p_oracle(sigma, kappa):
    p = sigma.shape[0]
    best = -np.inf
    for i in range(p):
        total = 0.0
        for j in range(p):
            if kappa == 0.0:
                total += 1.0 if sigma[i, j] != 0.0 else 0.0
            else:
                total += abs(sigma[i, j]) ** kappa
        best = max(best, total)
    return best


def test_m_p_hand_values():
    s = np.array([[1.0, 0.0, 0.25], [0.0, 4.0, 0.0], [0.25, 0.0, 1.0]])
    assert m_p(s, 0.0) == 2.0
    # rows: 1 + 0.5 = 1.5, sqrt(4) = 2, 0.5 + 1 = 1.5
    assert m_p(s, 0.5) == pytest.approx(2.0)
    assert m_p(np.eye(4), 0.0) == 1.0
    assert m_p(np.eye(4), 0.5) == 1.0


def test_m_p_matches_oracle():
    rng = np.random.default_rng(70)
    for _ in range(40):
        p = int(rng.integers(1, 10))
        s = rng.standard_normal((p, p))
        s = s @ s.T
        s[rng.random((p, p)) < 0.3] = 0.0  # inject exact zeros
        for kappa in (0.0, 0.25, 0.5, 0.9):
            assert m_p(s, kappa) == pytest.approx(m_p_oracle(s, kappa), rel=1e-12)


def test_m_p_validation():
    with pytest.raises(ValueError, match="kappa"):
        m_p(np.eye(2), 1.0)
    with pytest.raises(ValueError, match="kappa"):
        m_p(np.eye(2), -0.1)
    with pytest.raises(ValueError, match="square"):
        m_p(np.ones((2, 3)), 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        m_p(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.5)


def test_sparsity_scan_grid_and_determinism():
    rng = np.random.default_rng(71)
    u = rng.standard_normal((60, 20))
    report = sparsity_scan(u, p_grid=(5, 10, 20), kappas=(0.0, 0.5), seed=4)
    assert report.p_grid == (5, 10, 20)
    assert report.kappas == (0.0, 0.5)
    assert report.ratios.shape == (3, 2)
    again = sparsity_scan(u, p_grid=(5, 10, 20), kappas=(0.0, 0.5), seed=4)
    assert np.array_equal(report.ratios, again.ratios)
    other = sparsity_scan(u, p_grid=(5, 10, 20), kappas=(0.0, 0.5), seed=5)
    assert not np.array_equal(report.ratios[:2], other.ratios[:2])


def test_sparsity_scan_full_panel_matches_direct_statistic():
    rng = np.random.default_rng(72)
    u = rng.standard_normal((50, 8))
    report = sparsity_scan(u, p_grid=(8,), kappas=(0.5,), seed=0)
    cov = residual_cov(u)
    # full-size subpanel is a permutation: m_p is permutation-invariant
    assert report.ratios[0, 0] == pytest.approx(m_p(cov, 0.5) / 8, rel=1e-12)


def test_sparsity_scan_dense_rows_scale_with_p():
    rng = np.random.default_rng(73)
    common = rng.standard_normal((400, 1))
    u = 0.8 * common + 0.2 * rng.standard_normal((400, 30))
    report = sparsity_scan(u, p_grid=(5, 30), kappas=(0.5,), seed=1)
    # a shared component keeps m_p/p roughly flat; it must not collapse
    assert report.ratios[1, 0] > 0.5 * report.ratios[0, 0]


def test_sparsity_scan_validation():
    u = np.random.default_rng(74).standard_normal((10, 4))
    with pytest.raises(ValueError, match="outside"):
        sparsity_scan(u, p_grid=(5,), kappas=(0.5,))
    with pytest.raises(ValueError, match="nonempty"):
        sparsity_scan(u, p_grid=(), kappas=(0.5,))
    with pytest.raises(ValueError, match="T x p"):
        sparsity_scan(u[0], p_grid=(2,), kappas=(0.5,))


def test_sparsity_csv_layout():
    rng = np.random.default_rng(75)
    u = rng.standard_normal((30, 6))
    report = sparsity_scan(u, p_grid=(2, 4), kappas=(0.0, 0.5), seed=2)
    lines = sparsity_csv(report).splitlines()
    assert lines[0] == "p,kappa,ratio"
    assert len(lines) == 5
    assert lines[1].startswith("2,0,")
    assert lines[2].startswith("2,0.5,")
    assert lines[3].startswith("4,0,")
    parsed = float(lines[1].split(",")[2])
    assert parsed == report.ratios[0, 0]


def test_sparsity_csv_exact_text():
    report = SparsityReport(
        p_grid=(4, 12), kappas=(0.0, 0.25), ratios=np.array([[1.0, 0.1], [2 / 3, 1e-300]]), seed=0
    )
    assert sparsity_csv(report) == (
        "p,kappa,ratio\n"
        "4,0,1\n"
        "4,0.25,0.10000000000000001\n"
        "12,0,0.66666666666666663\n"
        "12,0.25,1e-300\n"
    )
