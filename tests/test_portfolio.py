"""Minimum-variance weights, simplex projection, and rolling backtests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcluster.assembly import assemble, assemble_from_structure, sample_cov
from factorcluster.clustering import run_clustering_pipeline
from factorcluster.errors import EstimationError
from factorcluster.factors import fit_loadings
from factorcluster.panel import FactorPanel, ReturnsPanel
from factorcluster.portfolio import (
    BacktestConfig,
    BacktestReport,
    backtest,
    min_var_long_only,
    min_var_unconstrained,
    project_simplex,
    report_series_csv,
    report_summary_csv,
    report_weights_csv,
    summary_stats,
)
from factorcluster.simulation import default_config, generate

from test_assembly import estimates_and_right_hand_sides


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p) * 0.1


def exhaustive_long_only(sigma):
    """Global long-only minimum-variance weights by support enumeration.

    Every support's equality-constrained stationary point that is
    feasible is a candidate; the optimum's own support produces the
    optimum, so the best candidate is the global solution.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    p = sigma.shape[0]
    best_w, best_obj = None, np.inf
    for mask in range(1, 2**p):
        idx = [i for i in range(p) if mask >> i & 1]
        sub = sigma[np.ix_(idx, idx)]
        try:
            x = np.linalg.solve(sub, np.ones(len(idx)))
        except np.linalg.LinAlgError:
            continue
        denom = x.sum()
        if denom <= 0.0:
            continue
        w_sub = x / denom
        if w_sub.min() < -1e-12:
            continue
        w = np.zeros(p)
        w[idx] = np.maximum(w_sub, 0.0)
        w /= w.sum()
        obj = float(w @ sigma @ w)
        if obj < best_obj:
            best_obj, best_w = obj, w
    return best_w


def test_unconstrained_hand_case():
    precision = np.diag([1.0, 0.5])  # sigma = diag(1, 2)
    assert np.allclose(min_var_unconstrained(precision @ np.ones(2)), [2 / 3, 1 / 3])


def test_unconstrained_matches_solve_oracle():
    rng = np.random.default_rng(60)
    for _ in range(25):
        p = int(rng.integers(2, 12))
        sigma = random_spd(rng, p)
        precision = np.linalg.inv(sigma)
        raw = np.linalg.solve(sigma, np.ones(p))
        expected = raw / raw.sum()
        got = min_var_unconstrained(precision @ np.ones(p))
        assert np.allclose(got, expected, atol=1e-10)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_unconstrained_rejects_degenerate_and_nonsquare():
    with pytest.raises(EstimationError, match="not positive"):
        min_var_unconstrained(np.zeros(3))
    with pytest.raises(ValueError, match="vector"):
        min_var_unconstrained(np.ones((2, 3)))


def test_project_simplex_hand_cases():
    assert np.allclose(project_simplex(np.array([0.2, 0.8])), [0.2, 0.8])
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.allclose(project_simplex(np.array([0.0, 0.0])), [0.5, 0.5])
    assert np.allclose(project_simplex(np.array([-1.0, -3.0])), [1.0, 0.0])


def test_project_simplex_is_nearest_feasible_point():
    rng = np.random.default_rng(61)
    for _ in range(50):
        p = int(rng.integers(1, 9))
        v = rng.standard_normal(p) * 3.0
        w = project_simplex(v)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # optimality against random feasible competitors
        for _ in range(20):
            other = rng.dirichlet(np.ones(p))
            assert np.sum((v - w) ** 2) <= np.sum((v - other) ** 2) + 1e-10


def test_long_only_hand_cases():
    assert np.allclose(min_var_long_only(np.diag([1.0, 2.0])), [2 / 3, 1 / 3], atol=1e-9)
    sigma = np.array([[1.0, 1.5], [1.5, 4.0]])
    assert np.allclose(min_var_long_only(sigma), [1.0, 0.0], atol=1e-9)
    assert np.array_equal(min_var_long_only(np.array([[5.0]])), [1.0])


def test_long_only_matches_exhaustive_oracle():
    rng = np.random.default_rng(62)
    for _ in range(40):
        p = int(rng.integers(2, 7))
        sigma = random_spd(rng, p)
        w = min_var_long_only(sigma)
        oracle = exhaustive_long_only(sigma)
        assert np.abs(w - oracle).max() <= 1e-8


def simplex_kkt_residual(sigma, w):
    """Scaled KKT violation of w for min w'Sw over the simplex.

    With g = 2Sw and multiplier lam = w'g, optimality asks g_i = lam on
    the support and g_i >= lam off it; the violation is scaled by
    max(1, |g|_inf).
    """
    g = 2.0 * (sigma @ w)
    lam = float(w @ g)
    on = w > 0.0
    violation = float(np.abs(g[on] - lam).max())
    if not on.all():
        violation = max(violation, lam - float(g[~on].min()))
    return violation / max(1.0, float(np.abs(g).max()))


@st.composite
def long_only_covariances(draw):
    """SPD matrices with condition numbers up to 1e4, or singular sample covariances (T <= p rows)."""
    p = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_periods = draw(st.integers(2, p))
        return sample_cov(rng.standard_normal((n_periods, p)))
    cond = 10.0 ** draw(st.floats(0.0, 4.0))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eig = np.geomspace(1.0, 1.0 / cond, p)
    return (q * eig) @ q.T


@settings(derandomize=True, max_examples=150, deadline=None)
@given(long_only_covariances())
def test_long_only_meets_optimality_conditions(sigma):
    w = min_var_long_only(sigma)
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert simplex_kkt_residual(sigma, w) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_long_only_returns_exact_solution_on_its_support(seed):
    # factor-model covariances B B' + D with a market factor, so the
    # optimum holds a minority of names; on seeds 3, 5 and 7 a
    # projected-gradient iterate about 1e-9 from the exact solution
    # also meets the KKT tolerance
    rng = np.random.default_rng(seed)
    p = 60
    b = rng.standard_normal((p, 3)) * 0.5 + [1.0, 0.0, 0.0]
    sigma = b @ b.T + np.diag(rng.uniform(0.2, 1.0, p))
    w = min_var_long_only(sigma)
    idx = np.flatnonzero(w > 0.0)
    assert 1 < idx.size < p
    x = np.linalg.solve(sigma[np.ix_(idx, idx)], np.ones(idx.size))
    exact = np.zeros(p)
    exact[idx] = x / x.sum()
    assert np.abs(w - exact).max() <= 1e-12


@st.composite
def cluster_estimates(draw):
    """Structured estimates, some with singleton clusters; a market factor
    (first loading column shifted by 1) keeps most optima off the full
    support."""
    structured = draw(estimates_and_right_hand_sides())[0].structured
    market = np.arange(structured.loadings.shape[1]) == 0
    return assemble_from_structure(replace(structured, loadings=structured.loadings + market))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(cluster_estimates())
def test_long_only_on_the_structured_estimate_matches_the_dense_solve(est):
    w = min_var_long_only(est)
    assert "sigma" not in vars(est)
    dense = min_var_long_only(est.sigma)
    assert np.array_equal(w > 0.0, dense > 0.0)
    assert np.abs(w - dense).max() <= 1e-12
    assert w.min() >= 0.0
    assert simplex_kkt_residual(est.sigma, w) <= 1e-9


def test_long_only_rank_one_sample_covariance():
    # two rows give sigma = 2 a a'; with mixed signs in a, a long-only
    # portfolio with zero variance exists, and every two-name block of
    # sigma is singular
    a = np.array([1.0, -2.0, 0.5, 3.0, -0.7])
    sigma = sample_cov(np.vstack([a, -a]))
    assert np.linalg.matrix_rank(sigma) == 1
    w = min_var_long_only(sigma)
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert simplex_kkt_residual(sigma, w) <= 1e-9
    assert float(w @ sigma @ w) <= 1e-15


def test_long_only_iteration_cap():
    # the factor-model case of seed 0 above, whose optimum holds several
    # names, needs more than one active-set step
    rng = np.random.default_rng(0)
    b = rng.standard_normal((60, 3)) * 0.5 + [1.0, 0.0, 0.0]
    sigma = b @ b.T + np.diag(rng.uniform(0.2, 1.0, 60))
    with pytest.raises(EstimationError, match="did not reach tolerance"):
        min_var_long_only(sigma, max_iter=1)
    assert np.count_nonzero(min_var_long_only(sigma)) > 1


def test_long_only_validation():
    with pytest.raises(ValueError, match="square"):
        min_var_long_only(np.ones((2, 3)))
    with pytest.raises(ValueError, match="tol"):
        min_var_long_only(np.eye(2), tol=0.0)
    with pytest.raises(EstimationError, match="exactly zero"):
        min_var_long_only(np.zeros((3, 3)))


def test_summary_stats_three_day_fixture():
    av, sd, ir = summary_stats(np.array([0.01, -0.01, 0.03]))
    assert av == pytest.approx(252.0, rel=1e-12)
    assert sd == pytest.approx(31.749015732775089, rel=1e-12)
    assert ir == pytest.approx(7.9372539331937713, rel=1e-12)
    assert ir == pytest.approx(math.sqrt(252.0) / 2.0, rel=1e-12)


def test_summary_stats_percent_inputs_skip_rescale():
    plain = summary_stats(np.array([0.01, -0.01, 0.03]))
    percent = summary_stats(np.array([1.0, -1.0, 3.0]), inputs_in_percent=True)
    assert percent == pytest.approx(plain, rel=1e-12)


def test_summary_stats_edge_cases():
    av, sd, ir = summary_stats(np.array([0.02]))
    assert av == pytest.approx(252 * 0.02 * 100)
    assert math.isnan(sd) and math.isnan(ir)
    av, sd, ir = summary_stats(np.array([0.01, 0.01]))
    assert sd == 0.0 and math.isnan(ir)
    with pytest.raises(ValueError):
        summary_stats(np.array([]))
    with pytest.raises(ValueError):
        summary_stats(np.zeros((2, 2)))


def test_backtest_config_validation():
    with pytest.raises(ValueError, match="train_window"):
        BacktestConfig(train_window=1)
    with pytest.raises(ValueError, match="estimator"):
        BacktestConfig(estimator="oracle")
    with pytest.raises(ValueError, match="scheme"):
        BacktestConfig(scheme="shorting")
    with pytest.raises(ValueError, match="rebalance_every"):
        BacktestConfig(rebalance_every=0)


def _tiny_panels(values, n_factors=1, seed=0):
    n, p = values.shape
    times = tuple(f"2020-01-{d + 1:02d}" for d in range(n))
    names = tuple(f"A{i}" for i in range(p))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n_factors)) * 0.01
    return (
        ReturnsPanel(times, names, np.asarray(values, dtype=np.float64)),
        FactorPanel(times, tuple(f"F{j + 1}" for j in range(n_factors)), f),
    )


def test_backtest_window_arithmetic_and_dates():
    rng = np.random.default_rng(63)
    values = rng.standard_normal((9, 2)) * 0.01
    returns, factors = _tiny_panels(values)
    config = BacktestConfig(train_window=5, estimator="sample", rebalance_every=2)
    report = backtest(returns, factors, config)
    assert report.dates == returns.times[5:]
    # rebalances at test positions 0 and 2 -> dates of test days 5 and 7
    assert report.weights_dates == (returns.times[5], returns.times[7])
    assert report.weights.shape == (2, 2)
    # day 6 is priced with the weights fitted for day 5
    w0 = report.weights[0]
    assert report.daily_returns[1] == pytest.approx(float(np.sum(w0 * values[6])))
    assert np.allclose(report.cumulative, np.cumsum(report.daily_returns))
    # every 3 over 4 test days: the last block holds one day
    report = backtest(returns, factors, replace(config, rebalance_every=3))
    assert report.weights_dates == (returns.times[5], returns.times[8])
    held = report.weights[[0, 0, 0, 1]]
    for i, (w, t) in enumerate(zip(held, range(5, 9))):
        assert report.daily_returns[i] == float(np.sum(w * values[t]))


def test_backtest_has_no_lookahead():
    rng = np.random.default_rng(64)
    values = rng.standard_normal((10, 2)) * 0.01
    bumped = values.copy()
    bumped[-1] += 0.05
    config = BacktestConfig(train_window=6, estimator="sample")
    r_a = backtest(*_tiny_panels(values), config)
    r_b = backtest(*_tiny_panels(bumped), config)
    assert np.array_equal(r_a.weights, r_b.weights)
    assert np.array_equal(r_a.daily_returns[:-1], r_b.daily_returns[:-1])
    assert r_a.daily_returns[-1] != r_b.daily_returns[-1]


def test_backtest_explicit_range_errors_name_offending_date():
    rng = np.random.default_rng(65)
    values = rng.standard_normal((8, 2)) * 0.01
    returns, factors = _tiny_panels(values)
    config = BacktestConfig(train_window=5, estimator="sample")
    with pytest.raises(EstimationError, match="2020-01-03.*only 2 prior rows"):
        backtest(returns, factors, config, test_start="2020-01-03")
    with pytest.raises(EstimationError, match="no days"):
        backtest(returns, factors, config, test_start="2021-01-01")
    report = backtest(
        returns, factors, config, test_start="2020-01-07", test_end="2020-01-07"
    )
    assert report.dates == ("2020-01-07",)


def test_backtest_singular_sample_window_reports_window_end():
    values = np.zeros((8, 3))
    values[:, 0] = np.linspace(0.01, 0.08, 8)
    values[:, 1] = values[:, 0]  # duplicate series: singular sample covariance
    values[:, 2] = np.linspace(-0.02, 0.05, 8)
    returns, factors = _tiny_panels(values)
    config = BacktestConfig(train_window=5, estimator="sample")
    with pytest.raises(EstimationError, match="window ending 2020-01-05") as info:
        backtest(returns, factors, config)
    min_eig = np.linalg.eigvalsh(sample_cov(values[:5]))[0]
    assert f"min eigenvalue {min_eig:.3g})" in str(info.value)
    assert "5 rows for 3 series" in str(info.value)


def test_backtest_sample_long_only_window_shorter_than_p():
    # a singular window covariance is fine: the long-only path never inverts it
    sim = generate(default_config(p=12, n_clusters=2, n_periods=30, seed=23))
    config = BacktestConfig(
        train_window=8, estimator="sample", scheme="long_only", rebalance_every=7
    )
    assert np.linalg.eigvalsh(sample_cov(sim.returns.values[:8]))[0] <= 1e-10
    report = backtest(sim.returns, sim.factors, config)
    assert report.weights.shape == (4, 12)
    assert report.weights.min() >= 0.0
    assert np.allclose(report.weights.sum(axis=1), 1.0, atol=1e-12)


def test_backtest_cluster_estimator_end_to_end():
    sim = generate(default_config(p=12, n_clusters=2, n_periods=90, seed=17))
    config = BacktestConfig(train_window=60, estimator="cluster", rebalance_every=5)
    report = backtest(sim.returns, sim.factors, config)
    assert len(report.dates) == 30
    assert report.weights.shape == (6, 12)
    assert np.allclose(report.weights.sum(axis=1), 1.0, atol=1e-9)
    assert math.isfinite(report.av) and math.isfinite(report.sd)
    again = backtest(sim.returns, sim.factors, config)
    assert np.array_equal(report.daily_returns, again.daily_returns)
    assert np.array_equal(report.weights, again.weights)


def _window_estimate(sim, start, stop):
    """The cluster estimate on validated copies of rows ``[start, stop)``."""
    r, f = sim.returns, sim.factors
    win_r = ReturnsPanel(r.times[start:stop], r.names, r.values[start:stop].copy())
    win_f = FactorPanel(f.times[start:stop], f.names, f.values[start:stop].copy())
    fit = fit_loadings(win_r, win_f)
    return assemble(fit, run_clustering_pipeline(fit.residuals).partition)


@pytest.mark.parametrize("scheme", ["unconstrained", "long_only"])
def test_backtest_weights_match_a_dense_fit_on_window_copies(scheme):
    # unconstrained: the Woodbury solve agrees with the dense precision's
    # row sums; long-only reads the same structured estimate, so it is
    # bitwise unchanged, and agrees with a solve on the dense sigma
    sim = generate(default_config(p=40, n_clusters=4, n_periods=160, seed=29))
    config = BacktestConfig(train_window=120, rebalance_every=10, scheme=scheme)
    report = backtest(sim.returns, sim.factors, config)
    assert report.weights.shape == (4, 40)
    for j, w in enumerate(report.weights):
        t = 120 + 10 * j
        est = _window_estimate(sim, t - 120, t)
        if scheme == "long_only":
            assert np.array_equal(w, min_var_long_only(est))
            assert np.abs(w - min_var_long_only(est.sigma)).max() <= 1e-12
        else:
            prec = est.precision
            assert np.abs(w - prec.sum(axis=1) / prec.sum()).max() <= 1e-12


def test_backtest_long_only_weights_feasible():
    sim = generate(default_config(p=6, n_clusters=2, n_periods=70, seed=19))
    config = BacktestConfig(
        train_window=50, estimator="sample", scheme="long_only", rebalance_every=10
    )
    report = backtest(sim.returns, sim.factors, config)
    assert report.weights.min() >= 0.0
    assert np.allclose(report.weights.sum(axis=1), 1.0, atol=1e-9)


def test_report_csvs_shapes_and_headers():
    rng = np.random.default_rng(66)
    values = rng.standard_normal((9, 2)) * 0.01
    returns, factors = _tiny_panels(values)
    report = backtest(
        returns, factors, BacktestConfig(train_window=5, estimator="sample")
    )
    series = report_series_csv(report).splitlines()
    assert series[0] == "date,portfolio_return,cumulative_return"
    assert len(series) == 1 + len(report.dates)
    assert series[1].startswith(report.dates[0] + ",")
    summary = report_summary_csv(report).splitlines()
    assert summary[0] == (
        "estimator,scheme,n_days,annualized_return,annualized_volatility,"
        "information_ratio"
    )
    fields = summary[1].split(",")
    assert fields[:3] == ["sample", "unconstrained", str(len(report.dates))]
    assert float(fields[3]) == pytest.approx(report.av, rel=1e-15)
    weights = report_weights_csv(report).splitlines()
    assert weights[0] == "date,A0,A1"
    assert len(weights) == 1 + len(report.weights_dates)


def test_report_csvs_exact_bytes():
    report = BacktestReport(
        config=BacktestConfig(train_window=2, rebalance_every=2, estimator="sample", scheme="long_only"),
        dates=("2000-01-05", "2000-01-06", "2000-01-07"),
        daily_returns=np.array([0.1, -0.2, 1 / 3]),
        cumulative=np.cumsum([0.1, -0.2, 1 / 3]),
        weights_dates=("2000-01-05", "2000-01-07"),
        weights=np.array([[0.25, 0.75], [1.0, -0.0]]),
        series_names=("a", "b"),
        av=12.5,
        sd=0.0,
        ir=float("nan"),
    )
    assert report_series_csv(report) == (
        "date,portfolio_return,cumulative_return\n"
        "2000-01-05,0.10000000000000001,0.10000000000000001\n"
        "2000-01-06,-0.20000000000000001,-0.10000000000000001\n"
        "2000-01-07,0.33333333333333331,0.23333333333333331\n"
    )
    assert report_weights_csv(report) == "date,a,b\n2000-01-05,0.25,0.75\n2000-01-07,1,-0\n"
    assert report_summary_csv(report) == (
        "estimator,scheme,n_days,annualized_return,annualized_volatility,information_ratio\n"
        "sample,long_only,3,12.5,0,nan\n"
    )
