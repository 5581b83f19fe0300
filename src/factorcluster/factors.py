"""Per-series regression on observable factors.

Each series is regressed on the factor panel without an intercept:
``b_i = (sum_t f_t f_t')^{-1} sum_t f_t y_it``. The factor covariance
is the centered sample covariance with a ``1/(T-1)`` denominator;
residuals keep the full panel shape. ``FactorFit.residual_cov`` is
their second-moment matrix S_u = U'U/T, built once on first access;
the clustering stage (SCOD) and the assembly stage (S_z and S_e) both
read it, so a fit makes no second T x p pass over its residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clustering
from .errors import EstimationError
from .panel import FactorPanel, ReturnsPanel, symmetrize

_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class FactorFit:
    """Result of the factor regression stage.

    Attributes
    ----------
    loadings : np.ndarray
        p x r matrix; row i holds the coefficients of series i.
    factor_cov : np.ndarray
        r x r centered sample covariance of the factors.
    residuals : np.ndarray
        T x p regression residuals, aligned with the input panel rows.
    factor_names : tuple of str
    series_names : tuple of str
    """

    loadings: np.ndarray
    factor_cov: np.ndarray
    residuals: np.ndarray
    factor_names: tuple[str, ...]
    series_names: tuple[str, ...]

    @cached_property
    def residual_cov(self) -> np.ndarray:
        """p x p read-only ``S_u = U'U / T`` of the residuals, built on first access."""
        cov = clustering.residual_cov(self.residuals)
        cov.setflags(write=False)
        return cov


def sample_factor_cov(factors: FactorPanel) -> np.ndarray:
    """Centered sample covariance of the factor panel (1/(T-1) denominator)."""
    f = factors.values
    fc = f - f.mean(axis=0, keepdims=True)
    return symmetrize(fc.T @ fc / (f.shape[0] - 1))


def fit_loadings(returns: ReturnsPanel, factors: FactorPanel) -> FactorFit:
    """Regress every series on the factors without an intercept.

    Parameters
    ----------
    returns, factors : ReturnsPanel, FactorPanel
        Already-aligned panels (identical time labels).

    Returns
    -------
    FactorFit

    Raises
    ------
    EstimationError
        If the panels are not aligned, T <= r, or the factor
        second-moment matrix is numerically singular; in the singular
        case the message names the factors in the collinear
        combination (largest components of the smallest-eigenvalue
        eigenvector).
    """
    if returns.times != factors.times:
        raise EstimationError(
            "returns and factors are not aligned; call align() first"
        )
    y = returns.values
    f = factors.values
    t_len, r = f.shape
    if t_len <= r:
        raise EstimationError(
            f"need more periods than factors: T={t_len}, r={r}"
        )
    gram = symmetrize(f.T @ f / t_len)
    eigvals, eigvecs = np.linalg.eigh(gram)
    smallest = eigvals[0]
    largest = eigvals[-1]
    if smallest <= 0.0 or largest / smallest >= _MAX_CONDITION:
        v = np.abs(eigvecs[:, 0])
        involved = [
            factors.names[i]
            for i in range(r)
            if v[i] >= 0.2 * v.max()
        ]
        cond = np.inf if smallest <= 0.0 else largest / smallest
        raise EstimationError(
            f"factor second-moment matrix is near-singular "
            f"(condition number {cond:.3g}); collinear combination "
            f"involves factors {involved}"
        )
    loadings = np.linalg.solve(gram, f.T @ y / t_len).T
    residuals = f @ loadings.T
    np.subtract(y, residuals, out=residuals)
    return FactorFit(
        loadings=loadings,
        factor_cov=sample_factor_cov(factors),
        residuals=residuals,
        factor_names=factors.names,
        series_names=returns.names,
    )
