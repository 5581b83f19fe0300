"""Row-sparsity diagnostics for residual covariance structure.

The statistic ``m_p(S, kappa) = max_i sum_j |S_ij|^kappa`` measures how
concentrated the rows of a covariance matrix are; ``kappa = 0`` counts
exact nonzeros per row. Scanning ``m_p / p`` over subpanels of growing
size shows whether cross-sectional dependence grows with the panel,
which is what separates a diagonal-plus-cluster structure from an
unstructured dense one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import residual_cov
from .panel import _format_rows, _freeze


def m_p(sigma_u: np.ndarray, kappa: float) -> float:
    """Largest row sum of ``|S_ij|^kappa``.

    Parameters
    ----------
    sigma_u : np.ndarray
        Square covariance matrix.
    kappa : float
        Exponent in ``[0, 1)``; 0 counts exact nonzeros per row.
    """
    s = np.asarray(sigma_u, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must be in [0, 1), got {kappa}")
    if kappa == 0.0:
        rows = (s != 0.0).sum(axis=1)
    else:
        rows = (np.abs(s) ** kappa).sum(axis=1)
    return float(rows.max())


@dataclass(frozen=True)
class SparsityReport:
    """Grid of ``m_p / p`` ratios over subpanel sizes and exponents."""

    p_grid: tuple[int, ...]
    kappas: tuple[float, ...]
    ratios: np.ndarray  # len(p_grid) x len(kappas)
    seed: int

    def __post_init__(self) -> None:
        r = _freeze(self.ratios)
        if r.shape != (len(self.p_grid), len(self.kappas)):
            raise ValueError("ratio grid shape does not match p_grid x kappas")
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))


def sparsity_scan(
    residuals: np.ndarray,
    p_grid,
    kappas,
    seed: int = 0,
) -> SparsityReport:
    """Evaluate ``m_p(S, kappa) / p'`` on random subpanels of each size.

    For each ``p'`` in the grid (in order), ``p'`` series are sampled
    without replacement from one shared seeded generator, their
    uncentered residual covariance is formed, and the normalized
    statistic is recorded for every exponent. Draws for different grid
    points are independent.
    """
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < 2:
        raise ValueError("residuals must be T x p with T >= 2")
    p = u.shape[1]
    p_grid = tuple(int(v) for v in p_grid)
    kappas = tuple(float(k) for k in kappas)
    if not p_grid or not kappas:
        raise ValueError("p_grid and kappas must be nonempty")
    for v in p_grid:
        if not 1 <= v <= p:
            raise ValueError(f"subpanel size {v} outside [1, {p}]")
    rng = np.random.default_rng(seed)
    ratios = np.empty((len(p_grid), len(kappas)), dtype=np.float64)
    for gi, sub_p in enumerate(p_grid):
        idx = rng.choice(p, size=sub_p, replace=False)
        cov = residual_cov(u[:, idx])
        for ki, kappa in enumerate(kappas):
            ratios[gi, ki] = m_p(cov, kappa) / sub_p
    return SparsityReport(p_grid=p_grid, kappas=kappas, ratios=ratios, seed=int(seed))


def sparsity_csv(report: SparsityReport) -> str:
    """Render a report as ``p,kappa,ratio`` rows, grid-major."""
    kappas = np.tile(report.kappas, len(report.p_grid))
    labels = [sub_p for sub_p in report.p_grid for _ in report.kappas]
    values = np.column_stack([kappas, report.ratios.ravel()])
    lines = ["p,kappa,ratio", *_format_rows(values, labels)]
    return "\n".join(lines) + "\n"
