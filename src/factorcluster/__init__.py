"""Covariance and precision estimation for high-dimensional panels.

The estimator proceeds in three stages: regress each series on
observable factors, cluster the residuals by screened correlations of
differences, and assemble a factor-plus-cluster-plus-diagonal
covariance whose precision comes from one low-rank Woodbury solve.
Also included: a seeded synthetic-panel generator with a Monte Carlo
experiment runner, a rolling minimum-variance backtester, and
row-sparsity diagnostics.

Submodules are imported lazily so the command-line entry point can cap
BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "FactorClusterError": ".errors",
    "PanelFormatError": ".errors",
    "EstimationError": ".errors",
    "ReturnsPanel": ".panel",
    "FactorPanel": ".panel",
    "ClusterPartition": ".panel",
    "symmetrize": ".panel",
    "load_panel_csv": ".panel",
    "save_panel_csv": ".panel",
    "load_matrix_csv": ".panel",
    "save_matrix_csv": ".panel",
    "save_partition_csv": ".panel",
    "load_partition_csv": ".panel",
    "align": ".panel",
    "FactorFit": ".factors",
    "fit_loadings": ".factors",
    "sample_factor_cov": ".factors",
    "residual_cov": ".clustering",
    "scod_matrix": ".clustering",
    "ThresholdSelection": ".clustering",
    "select_threshold": ".clustering",
    "cluster": ".clustering",
    "ClusteringResult": ".clustering",
    "cluster_from_cov": ".clustering",
    "run_clustering_pipeline": ".clustering",
    "adjusted_rand_index": ".clustering",
    "DEFAULT_DELTA": ".clustering",
    "DEFAULT_CQ": ".clustering",
    "estimate_cluster_series": ".assembly",
    "cluster_cov": ".assembly",
    "idio_var": ".assembly",
    "StructuredCovariance": ".assembly",
    "AssembledEstimate": ".assembly",
    "assemble": ".assembly",
    "assemble_from_structure": ".assembly",
    "sample_cov": ".assembly",
    "operator_norm": ".assembly",
    "max_norm": ".assembly",
    "weighted_quadratic_norm": ".assembly",
    "save_bundle": ".assembly",
    "load_bundle": ".assembly",
    "DgpConfig": ".simulation",
    "default_config": ".simulation",
    "balanced_sizes": ".simulation",
    "imbalanced_proportions": ".simulation",
    "gamma_params": ".simulation",
    "sample_idio_sd": ".simulation",
    "simulate_var1": ".simulation",
    "SimulationTruth": ".simulation",
    "SimulatedPanel": ".simulation",
    "generate": ".simulation",
    "replication_seed": ".simulation",
    "ExperimentCell": ".simulation",
    "ExperimentRow": ".simulation",
    "run_experiment": ".simulation",
    "experiment_csv": ".simulation",
    "load_config_file": ".simulation",
    "min_var_unconstrained": ".portfolio",
    "project_simplex": ".portfolio",
    "min_var_long_only": ".portfolio",
    "BacktestConfig": ".portfolio",
    "BacktestReport": ".portfolio",
    "summary_stats": ".portfolio",
    "backtest": ".portfolio",
    "m_p": ".diagnostics",
    "SparsityReport": ".diagnostics",
    "sparsity_scan": ".diagnostics",
    "sparsity_csv": ".diagnostics",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
