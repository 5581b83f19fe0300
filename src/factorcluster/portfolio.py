"""Minimum-variance portfolios and rolling out-of-sample backtests.

The unconstrained weights are ``Sigma^{-1} 1 / (1' Sigma^{-1} 1)``, so
they need only the vector ``Sigma^{-1} 1``; the long-only variant
minimizes ``w' Sigma w`` over the probability simplex with accelerated
projected gradient, which every 10 iterations solves the
equality-constrained problem exactly on the current support and stops
at the first such solution that meets the KKT conditions.
Backtests rebalance on a rolling window with no lookahead:
the window for a test day ends strictly before that day. The windows
are read-only row views of the aligned panels. Each window yields one
estimate object: the unconstrained scheme takes ``Sigma^{-1} 1`` from
its ``solve``, which for the cluster estimator is one Woodbury solve of
size r + K, and only the long-only scheme builds the dense covariance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .assembly import AssembledEstimate, SampleEstimate, assemble, sample_cov
from .clustering import DEFAULT_CQ, DEFAULT_DELTA, run_clustering_pipeline
from .errors import EstimationError
from .factors import fit_loadings
from .panel import FactorPanel, ReturnsPanel, _format_rows, align, symmetrize

_KKT_TOL = 1e-9
_MAX_ITER = 100_000


def min_var_unconstrained(precision_ones: np.ndarray) -> np.ndarray:
    """Fully-invested minimum-variance weights from ``Sigma^{-1} 1``.

    Pass ``est.solve(np.ones(p))`` for an estimate ``est``, or the row
    sums of a precision matrix.

    Raises
    ------
    EstimationError
        If ``1' Sigma^{-1} 1`` is not safely positive.
    """
    raw = np.asarray(precision_ones, dtype=np.float64)
    if raw.ndim != 1:
        raise ValueError(f"expected the vector Sigma^-1 1, got shape {raw.shape}")
    denom = raw.sum()
    if not denom > 1e-12:
        raise EstimationError(
            f"normalizer 1'P1 = {denom:.3g} is not positive; "
            "precision matrix is degenerate"
        )
    w = raw / denom
    return w / w.sum()


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    mask = u - css / idx > 0
    rho = int(np.nonzero(mask)[0][-1]) + 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _kkt_residual(grad: np.ndarray, w: np.ndarray) -> float:
    """Stationarity violation of w for min w'Sw on the simplex."""
    support = w > 0.0
    lam = float(grad @ w)
    on = float(np.abs(grad[support] - lam).max())
    if np.all(support):
        return on
    off = float(max(0.0, lam - grad[~support].min()))
    return max(on, off)


def min_var_long_only(
    sigma: np.ndarray,
    tol: float = _KKT_TOL,
    max_iter: int = _MAX_ITER,
) -> np.ndarray:
    """Long-only minimum-variance weights on the simplex.

    If the unconstrained solution is already nonnegative (within 1e-6)
    it is clipped, renormalized, and returned directly. Otherwise
    accelerated projected gradient runs with step ``1/L``,
    ``L = 2 lambda_max(Sigma)``; every 10 iterations, when the
    support ``{w > 0}`` has changed, the equality-constrained problem is
    solved exactly on it, and the first nonnegative solution whose KKT
    residual is below ``tol * scale`` (scale = max(1, |grad|_inf)) is
    returned. If the iterate meets that tolerance first, the exact solve
    is tried on its support (entries below ``1e-10 * max(w)`` dropped)
    and the iterate is returned only when that fails.

    Raises
    ------
    EstimationError
        If the iteration cap is reached before meeting the tolerance.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    p = s.shape[0]
    if p == 1:
        return np.array([1.0])
    s = symmetrize(s)

    def scaled_resid(w: np.ndarray) -> float:
        g = 2.0 * (s @ w)
        return _kkt_residual(g, w) / max(1.0, float(np.abs(g).max()))

    def support_solve(support: np.ndarray) -> np.ndarray | None:
        """The exact minimizer on ``support`` if it is feasible and meets KKT."""
        idx = np.flatnonzero(support)
        try:
            sub = np.linalg.solve(s[np.ix_(idx, idx)], np.ones(idx.size))
        except np.linalg.LinAlgError:
            return None
        denom = sub.sum()
        if not (denom > 1e-12 and sub.min() / denom >= -1e-12):
            return None
        cand = np.zeros(p)
        cand[idx] = np.maximum(sub / denom, 0.0)
        cand /= cand.sum()
        return cand if scaled_resid(cand) <= tol else None

    try:
        raw = np.linalg.solve(s, np.ones(p))
        denom = raw.sum()
        if denom > 1e-12:
            cand = raw / denom
            if cand.min() >= -1e-6:
                cand = np.maximum(cand, 0.0)
                cand /= cand.sum()
                if scaled_resid(cand) <= tol:
                    return cand
    except np.linalg.LinAlgError:
        pass

    lip = 2.0 * eigh(s, eigvals_only=True, subset_by_index=[p - 1, p - 1])[0]
    if not lip > 0.0:
        raise EstimationError("covariance matrix is exactly zero")
    step = 1.0 / lip
    w = np.full(p, 1.0 / p)
    y = w.copy()
    theta = 1.0
    tried = np.ones(p, dtype=bool)  # the full support failed the fast path
    converged = False
    for it in range(max_iter):
        w_next = project_simplex(y - step * 2.0 * (s @ y))
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        y = w_next + ((theta - 1.0) / theta_next) * (w_next - w)
        w = w_next
        theta = theta_next
        if it % 10 == 0:
            support = w > 0.0
            if not np.array_equal(support, tried):
                tried = support
                cand = support_solve(support)
                if cand is not None:
                    return cand
            if scaled_resid(w) <= tol:
                converged = True
                break
    if not converged and scaled_resid(w) > tol:
        raise EstimationError(
            f"long-only solver did not reach tolerance {tol:g} "
            f"in {max_iter} iterations"
        )

    cand = support_solve(w > 1e-10 * w.max())
    if cand is not None:
        return cand
    w = np.maximum(w, 0.0)
    return w / w.sum()


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling minimum-variance backtest settings."""

    train_window: int = 504
    rebalance_every: int = 1
    estimator: str = "cluster"
    scheme: str = "unconstrained"
    delta: float = DEFAULT_DELTA
    c_q: float = DEFAULT_CQ
    annualization: float = 252.0
    inputs_in_percent: bool = False

    def __post_init__(self) -> None:
        if self.train_window < 2:
            raise ValueError("train_window must be >= 2")
        if self.rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        if self.estimator not in ("cluster", "sample"):
            raise ValueError(f"estimator must be 'cluster' or 'sample', got {self.estimator!r}")
        if self.scheme not in ("unconstrained", "long_only"):
            raise ValueError(f"scheme must be 'unconstrained' or 'long_only', got {self.scheme!r}")
        if not self.annualization > 0:
            raise ValueError("annualization must be positive")


@dataclass(frozen=True)
class BacktestReport:
    """Out-of-sample daily returns, weights, and summary statistics.

    ``av`` and ``sd`` are annualized mean return and volatility (in
    percent unless inputs were flagged as already in percent); ``ir``
    is their ratio, NaN when sd is 0 or undefined.
    """

    config: BacktestConfig
    dates: tuple[str, ...]
    daily_returns: np.ndarray
    cumulative: np.ndarray
    weights_dates: tuple[str, ...]
    weights: np.ndarray
    series_names: tuple[str, ...]
    av: float
    sd: float
    ir: float


def summary_stats(
    daily_returns: np.ndarray,
    annualization: float = 252.0,
    inputs_in_percent: bool = False,
) -> tuple[float, float, float]:
    """Annualized mean, volatility, and their ratio for a daily return series."""
    r = np.asarray(daily_returns, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("need a nonempty 1-D return series")
    unit = 1.0 if inputs_in_percent else 100.0
    av = annualization * float(r.mean()) * unit
    if r.size < 2:
        return av, math.nan, math.nan
    sd = math.sqrt(annualization) * float(r.std(ddof=1)) * unit
    ir = av / sd if sd > 0.0 else math.nan
    return av, sd, ir


def _estimate_window(
    returns: ReturnsPanel,
    factors: FactorPanel,
    config: BacktestConfig,
) -> AssembledEstimate | SampleEstimate:
    """The configured estimator fit on one window."""
    if config.estimator == "cluster":
        fit = fit_loadings(returns, factors)
        pipe = run_clustering_pipeline(fit.residuals, delta=config.delta, c_q=config.c_q)
        return assemble(fit, pipe.partition)
    return SampleEstimate(sample_cov(returns.values), returns.n_periods)


def backtest(
    returns: ReturnsPanel,
    factors: FactorPanel,
    config: BacktestConfig = BacktestConfig(),
    test_start: str | None = None,
    test_end: str | None = None,
) -> BacktestReport:
    """Run a rolling-window minimum-variance backtest.

    Panels are aligned on shared dates first. Each test day is priced
    with weights fit on the ``train_window`` rows strictly before it;
    weights refresh every ``rebalance_every`` test days. The test range
    defaults to every day with a full training window and can be
    narrowed by inclusive date bounds.

    Raises
    ------
    EstimationError
        If the requested range has no test days, a requested day lacks
        a full training window, or a window estimate fails (message
        carries the window end date).
    """
    returns, factors = align(returns, factors)
    times = returns.times
    n = len(times)
    lo = 0 if test_start is None else bisect_left(times, test_start)
    hi = n if test_end is None else bisect_right(times, test_end)
    explicit = test_start is not None or test_end is not None
    if explicit:
        test_idx = list(range(lo, hi))
    else:
        test_idx = list(range(config.train_window, n))
    if not test_idx:
        raise EstimationError("test range contains no days")
    if test_idx[0] < config.train_window:
        raise EstimationError(
            f"test day {times[test_idx[0]]} has only {test_idx[0]} prior rows; "
            f"train_window={config.train_window} required"
        )
    daily = np.empty(len(test_idx), dtype=np.float64)
    weights_dates: list[str] = []
    weights_rows: list[np.ndarray] = []
    w: np.ndarray | None = None
    for pos, t in enumerate(test_idx):
        if pos % config.rebalance_every == 0:
            start = t - config.train_window
            try:
                est = _estimate_window(returns.rows(start, t), factors.rows(start, t), config)
                if config.scheme == "unconstrained":
                    w = min_var_unconstrained(est.solve(np.ones(returns.n_series)))
                else:
                    w = min_var_long_only(est.sigma)
            except EstimationError as exc:
                raise EstimationError(
                    f"estimation failed on window ending {times[t - 1]}: {exc}"
                ) from exc
            weights_dates.append(times[t])
            weights_rows.append(w)
        daily[pos] = float(np.sum(w * returns.values[t]))
    av, sd, ir = summary_stats(daily, config.annualization, config.inputs_in_percent)
    return BacktestReport(
        config=config,
        dates=tuple(times[t] for t in test_idx),
        daily_returns=daily,
        cumulative=np.cumsum(daily),
        weights_dates=tuple(weights_dates),
        weights=np.vstack(weights_rows),
        series_names=returns.names,
        av=av,
        sd=sd,
        ir=ir,
    )


def report_series_csv(report: BacktestReport) -> str:
    """Per-day CSV: date, portfolio return, running cumulative return."""
    values = np.column_stack([report.daily_returns, report.cumulative])
    lines = ["date,portfolio_return,cumulative_return", *_format_rows(values, report.dates)]
    return "\n".join(lines) + "\n"


def report_summary_csv(report: BacktestReport) -> str:
    """One-row CSV with the annualized performance statistics."""
    config = report.config
    label = f"{config.estimator},{config.scheme},{len(report.dates)}"
    lines = [
        "estimator,scheme,n_days,annualized_return,annualized_volatility,information_ratio",
        *_format_rows([[report.av, report.sd, report.ir]], [label]),
    ]
    return "\n".join(lines) + "\n"


def report_weights_csv(report: BacktestReport) -> str:
    """Rebalance-day weight vectors, one dated row per rebalance."""
    lines = ["date," + ",".join(report.series_names)]
    lines += _format_rows(report.weights, report.weights_dates)
    return "\n".join(lines) + "\n"
