"""Minimum-variance portfolios and rolling out-of-sample backtests.

The unconstrained weights are ``Sigma^{-1} 1 / (1' Sigma^{-1} 1)``, so
they need only the vector ``Sigma^{-1} 1``. The long-only variant
minimizes ``w' Sigma w`` over the probability simplex exactly: the
simplex projection of the unconstrained weights is returned when it
meets the KKT conditions, and otherwise a primal active-set method
(Lawson and Hanson) adds and drops one name per step, solving the
bordered equality-constrained system on the current support. It reads
the covariance through ``Sigma^{-1} 1``, ``Sigma w``, the variances and
principal blocks, so on a cluster estimate it never forms the p x p
matrix. Backtests rebalance on a rolling window with no lookahead:
the window for a test day ends strictly before that day. One function
maps a window, a read-only row view of the aligned panels, to its
weights; the backtest calls it once per rebalance, in date order, and
prices every test day in one product of the held weights with the
returns. Each window yields one estimate object, which both schemes
read through its structure: for the cluster estimator ``solve`` is one
Woodbury solve of size r + K. The sample estimator's long-only scheme
reads its dense covariance.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledEstimate, SampleEstimate, assemble, sample_cov
from .clustering import DEFAULT_CQ, DEFAULT_DELTA, cluster_from_cov
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


def _support_weights(sub: np.ndarray) -> np.ndarray:
    """Minimizer of ``x' sub x`` subject to ``1'x = 1``, from the bordered KKT system.

    The bordered matrix ``[[sub, 1], [1', 0]]`` stays nonsingular when
    ``sub`` is singular (a sample window with T <= p) as long as no
    direction summing to zero has zero variance, which holds on every
    support the active-set method visits.
    """
    m = sub.shape[0]
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = sub
    kkt[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return np.linalg.solve(kkt, rhs)[:m]


def min_var_long_only(
    sigma: np.ndarray | AssembledEstimate,
    tol: float = _KKT_TOL,
    max_iter: int = _MAX_ITER,
) -> np.ndarray:
    """Long-only minimum-variance weights on the simplex.

    ``sigma`` is a dense square covariance or an ``AssembledEstimate``,
    which is read through ``solve``, ``matvec``, ``block`` and
    ``diagonal`` without building the dense matrix. With g = 2 Sigma w,
    lam = g'w and scale = max(1, |g|_inf), w is optimal when
    ``g_i = lam`` on its support and no ``g_i < lam - tol * scale``.

    Fast path: the projection of ``Sigma^-1 1 / (1' Sigma^-1 1)`` onto
    the simplex, returned if its scaled KKT residual is at most ``tol``.
    Otherwise the primal active-set method of Lawson and Hanson runs
    from the lowest-variance name (ties to the smallest index). Each
    step solves the equality-constrained problem exactly on the free set.
    If that solution is nonnegative it is taken, and the name that most
    violates KKT joins the free set (ties to the smallest index); when
    none does, it is returned. Otherwise the weights step toward the
    solution until the first one reaches zero, and that name leaves.

    Raises
    ------
    EstimationError
        If the covariance is exactly zero, or ``max_iter`` steps end
        before meeting the tolerance.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    if isinstance(sigma, AssembledEstimate):
        matvec, block, solve = sigma.matvec, sigma.block, sigma.solve
        variances = sigma.diagonal()
    else:
        s = np.asarray(sigma, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {s.shape}")
        s = symmetrize(s)
        matvec, solve = s.dot, functools.partial(np.linalg.solve, s)
        variances = s.diagonal()

        def block(idx: np.ndarray) -> np.ndarray:
            return s[np.ix_(idx, idx)]

    p = variances.size
    if p == 1:
        return np.array([1.0])
    if not variances.max() > 0.0:
        raise EstimationError("covariance matrix is exactly zero")

    try:
        raw = solve(np.ones(p))
    except np.linalg.LinAlgError:
        raw = None
    if raw is not None:
        denom = raw.sum()
        if 1e-12 < denom < math.inf:
            w = project_simplex(raw / denom)
            g = 2.0 * matvec(w)
            if _kkt_residual(g, w) <= tol * max(1.0, float(np.abs(g).max())):
                return w

    free = [int(np.argmin(variances))]
    w = np.zeros(p)  # read only on the free set until a solution is taken
    w[free] = 1.0
    for _ in range(max_iter):
        idx = np.array(free)
        x = _support_weights(block(idx))
        if x.min() >= 0.0:
            w = np.zeros(p)
            w[idx] = x
            g = 2.0 * matvec(w)
            floor = float(g @ w) - tol * max(1.0, float(np.abs(g).max()))
            g[idx] = np.inf
            j = int(np.argmin(g))
            if not g[j] < floor:
                return w
            free.append(j)
        else:
            cur = w[idx]
            neg = np.flatnonzero(x < 0.0)
            ratios = cur[neg] / (cur[neg] - x[neg])
            step = cur + ratios.min() * (x - cur)
            step[neg[np.argmin(ratios)]] = 0.0
            w[idx] = step
            free = [i for i, wi in zip(free, step) if wi > 0.0]
    raise EstimationError(
        f"long-only solver did not reach tolerance {tol:g} in {max_iter} iterations"
    )


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


def _window_weights(
    returns: ReturnsPanel,
    factors: FactorPanel,
    config: BacktestConfig,
    start: int,
    stop: int,
) -> np.ndarray:
    """Weights of the configured estimator and scheme fit on rows ``[start, stop)``.

    Raises
    ------
    EstimationError
        If the window estimate or its weights fail; the message carries
        the window end date.
    """
    window = returns.rows(start, stop)
    try:
        if config.estimator == "cluster":
            fit = fit_loadings(window, factors.rows(start, stop))
            pipe = cluster_from_cov(fit.residual_cov, delta=config.delta, c_q=config.c_q)
            est = assemble(fit, pipe.partition)
        else:
            est = SampleEstimate(sample_cov(window.values), window.n_periods)
        if config.scheme == "unconstrained":
            return min_var_unconstrained(est.solve(np.ones(window.n_series)))
        return min_var_long_only(est if config.estimator == "cluster" else est.sigma)
    except EstimationError as exc:
        raise EstimationError(
            f"estimation failed on window ending {returns.times[stop - 1]}: {exc}"
        ) from exc


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
    narrowed by inclusive date bounds. Each rebalance is one call of
    ``_window_weights``, in date order, and all test days are then
    priced by one product of the held weights with their returns.

    Raises
    ------
    EstimationError
        If the requested range has no test days, a requested day lacks
        a full training window, or a window estimate fails (message
        carries the window end date).
    """
    returns, factors = align(returns, factors)
    times = returns.times
    window, every = config.train_window, config.rebalance_every
    if test_start is None and test_end is None:
        first, stop = window, len(times)
    else:
        first = 0 if test_start is None else bisect_left(times, test_start)
        stop = len(times) if test_end is None else bisect_right(times, test_end)
    if first >= stop:
        raise EstimationError("test range contains no days")
    if first < window:
        raise EstimationError(
            f"test day {times[first]} has only {first} prior rows; "
            f"train_window={window} required"
        )
    rebalances = range(first, stop, every)
    weights = np.vstack(
        [_window_weights(returns, factors, config, t - window, t) for t in rebalances]
    )
    held = weights[np.arange(stop - first) // every]
    daily = (held * returns.values[first:stop]).sum(axis=1)
    av, sd, ir = summary_stats(daily, config.annualization, config.inputs_in_percent)
    return BacktestReport(
        config=config,
        dates=times[first:stop],
        daily_returns=daily,
        cumulative=np.cumsum(daily),
        weights_dates=tuple(times[t] for t in rebalances),
        weights=weights,
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
