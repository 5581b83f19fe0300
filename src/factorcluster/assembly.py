"""Covariance assembly and matrix norms.

Given factor loadings B, factor covariance S_f, a partition with
membership matrix A, cluster covariance S_z, and idiosyncratic
variances S_e = diag(v), the assembled estimate

    Sigma = B S_f B' + A S_z A' + S_e = L C L' + diag(d),
    L = [B | A],

is low rank plus diagonal. C = blockdiag(S_f, S_z) and d = v, except
at a singleton cluster k = {i}: its path is the member's own residual,
so v_i is exactly 0, and its variance S_z[kk] moves from C onto d_i.
Sigma is unchanged, every d_i is positive, and C may become singular;
that is harmless, because one Woodbury identity solves against Sigma
with a single (r + K) x (r + K) solve that never inverts C:

    Sigma^-1 b = D^-1 b - W (I + C L' W)^-1 C W' b,   W = D^-1 L,

with D = diag(d) (Henderson & Searle, SIAM Review 23, 1981).

``_woodbury_solve`` is that identity. ``AssembledEstimate.solve`` applies
it to a vector or a few columns in O(p (r + K)^2), with no p x p matrix;
the dense precision is the same identity with b = I. The same
factors give ``Sigma w`` in O(p (r + K)), the variances, and a principal
block ``Sigma[idx, idx]`` from the rows ``L[idx]``; the long-only solver
reads the estimate through these. An estimate keeps only these
components; each dense p x p matrix is built on its first access.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationError
from .factors import FactorFit
from .panel import (
    ClusterPartition,
    _freeze,
    load_matrix_csv,
    load_partition_csv,
    save_matrix_csv,
    save_partition_csv,
    symmetrize,
)

_MAX_CONDITION = 1e12
_MIN_IDIO_VAR = 1e-12
_EIG_FLOOR = 1e-10


def estimate_cluster_series(
    residuals: np.ndarray, partition: ClusterPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares cluster paths and leftover idiosyncratic residuals.

    With membership matrix A, the cluster path solves
    ``z_t = (A'A)^{-1} A' u_t``, i.e. row-wise group means; the
    second output is ``e_t = u_t - A z_t``, formed in the C-ordered
    product ``z A'``, which is exact because A is 0/1.

    Returns
    -------
    (np.ndarray, np.ndarray)
        T x K cluster paths and T x p idiosyncratic residuals.
    """
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"residuals must be 2-D, got {u.ndim}-D")
    if u.shape[1] != partition.n_series:
        raise ValueError(
            f"residuals have {u.shape[1]} series, partition has {partition.n_series}"
        )
    z = np.empty((u.shape[0], partition.n_clusters), dtype=np.float64)
    for k, g in enumerate(partition.groups):
        z[:, k] = u[:, list(g)].mean(axis=1)
    e = z @ partition.membership.T.astype(np.float64)
    np.subtract(u, e, out=e)
    return z, e


def cluster_cov(z_hat: np.ndarray) -> np.ndarray:
    """Uncentered second-moment matrix of the cluster paths, denominator T."""
    z = np.asarray(z_hat, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("cluster paths must be T x K with T >= 2")
    return symmetrize(z.T @ z / z.shape[0])


def idio_var(e_hat: np.ndarray) -> np.ndarray:
    """Per-series uncentered residual variances, denominator T."""
    e = np.asarray(e_hat, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 2:
        raise ValueError("idiosyncratic residuals must be T x p with T >= 2")
    return (e * e).mean(axis=0)


@dataclass(frozen=True)
class StructuredCovariance:
    """The five-component representation of an assembled covariance.

    Everything needed to rebuild the p x p matrices: loadings (p x r),
    factor covariance (r x r), the partition, cluster covariance
    (K x K), and idiosyncratic variances (length p).
    """

    loadings: np.ndarray
    factor_cov: np.ndarray
    partition: ClusterPartition
    cluster_cov: np.ndarray
    idio_var: np.ndarray
    series_names: tuple[str, ...]
    factor_names: tuple[str, ...]

    def __post_init__(self) -> None:
        b = np.asarray(self.loadings, dtype=np.float64)
        sf = np.asarray(self.factor_cov, dtype=np.float64)
        sz = np.asarray(self.cluster_cov, dtype=np.float64)
        v = np.asarray(self.idio_var, dtype=np.float64)
        p, r = b.shape
        k = self.partition.n_clusters
        if self.partition.n_series != p:
            raise ValueError("partition size does not match loadings")
        if sf.shape != (r, r) or sz.shape != (k, k) or v.shape != (p,):
            raise ValueError("component shapes are inconsistent")
        if len(self.series_names) != p or len(self.factor_names) != r:
            raise ValueError("name tuples do not match component shapes")
        for arr, name in ((b, "loadings"), (sf, "factor_cov"), (sz, "cluster_cov"), (v, "idio_var")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "loadings", _freeze(b))
        object.__setattr__(self, "factor_cov", _freeze(sf))
        object.__setattr__(self, "cluster_cov", _freeze(sz))
        object.__setattr__(self, "idio_var", _freeze(v))
        object.__setattr__(self, "series_names", tuple(self.series_names))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))


@dataclass(frozen=True)
class AssembledEstimate:
    """An assembled estimate: its structured form and the dense matrices.

    Every view reads the one form ``Sigma = L C L' + diag(d)`` of
    ``_low_rank``. ``sigma`` and ``precision`` are built on first access
    and cached; ``solve``, ``matvec``, ``block`` and ``diagonal`` build
    neither.
    """

    structured: StructuredCovariance

    @cached_property
    def sigma(self) -> np.ndarray:
        low, core, d = self._low_rank
        return _freeze(symmetrize(low @ core @ low.T) + np.diag(d))

    @cached_property
    def precision(self) -> np.ndarray:
        p = self.structured.idio_var.size
        return _freeze(symmetrize(self.solve(np.eye(p))))

    @cached_property
    def _low_rank(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``L = [B | A]``, ``C`` and ``d`` with ``Sigma = L C L' + diag(d)``.

        C is ``blockdiag(S_f, S_z)`` and d is v, except that the variance
        of each singleton cluster moves from C onto its member's d.
        """
        st = self.structured
        low = np.hstack([st.loadings, st.partition.membership.astype(np.float64)])
        r = st.factor_cov.shape[0]
        core = np.zeros((low.shape[1], low.shape[1]))
        core[:r, :r] = st.factor_cov
        core[r:, r:] = st.cluster_cov
        s = r + np.flatnonzero(np.array(st.partition.sizes) == 1)
        d = st.idio_var + low[:, s] @ core[s, s]
        core[s, s] = 0.0
        return low, core, d

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``Sigma^-1 b`` for a length-p vector or a p x m matrix, in O(p (r + K)^2)."""
        low, core, d = self._low_rank
        return _woodbury_solve(d, low, core, np.asarray(b, dtype=np.float64))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``Sigma w`` for a length-p vector, in O(p (r + K))."""
        low, core, d = self._low_rank
        return low @ (core @ (low.T @ w)) + d * w

    def block(self, idx: np.ndarray) -> np.ndarray:
        """``Sigma[idx, idx]`` from the rows ``L[idx]``, C and ``d[idx]``."""
        low, core, d = self._low_rank
        rows = low[idx]
        out = rows @ core @ rows.T
        out.flat[:: len(rows) + 1] += d[idx]
        return out

    def diagonal(self) -> np.ndarray:
        """The variances ``diag(Sigma)``, in O(p (r + K)^2)."""
        low, core, d = self._low_rank
        return np.einsum("ij,ij->i", low @ core, low) + d


def _woodbury_solve(
    v: np.ndarray, low: np.ndarray, core: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``(low core low' + diag(v))^-1 b`` from one solve the size of ``core``."""
    inv_v = 1.0 / v
    w = low * inv_v[:, None]
    inner = np.eye(core.shape[0]) + core @ (low.T @ w)
    x = b.reshape(b.shape[0], -1)  # a vector as one column
    out = inv_v[:, None] * x
    out -= w @ np.linalg.solve(inner, core @ (w.T @ x))
    return out.reshape(b.shape)


def _check_conditioning(m: np.ndarray, what: str) -> None:
    eigvals = np.linalg.eigvalsh(symmetrize(m))
    if eigvals[0] <= 0.0 or eigvals[-1] / eigvals[0] >= _MAX_CONDITION:
        cond = np.inf if eigvals[0] <= 0.0 else eigvals[-1] / eigvals[0]
        raise EstimationError(
            f"{what} is numerically singular (condition number {cond:.3g})"
        )


def assemble_from_structure(structured: StructuredCovariance) -> AssembledEstimate:
    """Check the components and wrap them; dense matrices come on access.

    Raises
    ------
    EstimationError
        If any diagonal entry d of the low-rank form falls below 1e-12
        (message names the series) or the factor/cluster covariances are
        numerically singular.
    """
    est = AssembledEstimate(structured)
    d = est._low_rank[2]
    if np.any(d < _MIN_IDIO_VAR):
        i = int(np.argmin(d))
        raise EstimationError(
            f"idiosyncratic variance of series {structured.series_names[i]!r} "
            f"is {d[i]:.3g} (< {_MIN_IDIO_VAR:g}); series is explained exactly "
            "by the factors and cluster paths"
        )
    _check_conditioning(structured.cluster_cov, "cluster covariance")
    if structured.factor_cov.shape[0] > 0:
        _check_conditioning(structured.factor_cov, "factor covariance")
    return est


def assemble(fit: FactorFit, partition: ClusterPartition) -> AssembledEstimate:
    """Third estimation stage: cluster paths and checked components."""
    z_hat, e_hat = estimate_cluster_series(fit.residuals, partition)
    structured = StructuredCovariance(
        loadings=fit.loadings,
        factor_cov=fit.factor_cov,
        partition=partition,
        cluster_cov=cluster_cov(z_hat),
        idio_var=idio_var(e_hat),
        series_names=fit.series_names,
        factor_names=fit.factor_names,
    )
    return assemble_from_structure(structured)


def sample_cov(data) -> np.ndarray:
    """Centered sample covariance (1/(T-1)) of a panel or T x p array."""
    x = np.asarray(getattr(data, "values", data), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a T x p array with T >= 2")
    xc = x - x.mean(axis=0, keepdims=True)
    return symmetrize(xc.T @ xc / (x.shape[0] - 1))


@dataclass(frozen=True)
class SampleEstimate:
    """A sample covariance from ``n_obs`` rows; its precision is built on access."""

    sigma: np.ndarray
    n_obs: int

    @cached_property
    def precision(self) -> np.ndarray:
        """``sigma^-1``; raises EstimationError if an eigenvalue is <= 1e-10."""
        min_eig = np.linalg.eigvalsh(self.sigma)[0]
        if min_eig <= _EIG_FLOOR:
            raise EstimationError(
                f"sample covariance is singular (min eigenvalue {min_eig:.3g}); "
                f"{self.n_obs} rows for {self.sigma.shape[0]} series"
            )
        return symmetrize(np.linalg.solve(self.sigma, np.eye(self.sigma.shape[0])))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``sigma^-1 b`` through ``precision``, so the singular-window rule applies."""
        return self.precision @ b


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return m


def operator_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = _require_symmetric(m)
    return float(np.abs(np.linalg.eigvalsh(symmetrize(m))).max())


def max_norm(m: np.ndarray) -> float:
    """Largest absolute entry."""
    return float(np.abs(np.asarray(m, dtype=np.float64)).max())


def weighted_quadratic_norm(m: np.ndarray, ref: np.ndarray) -> float:
    """Frobenius norm of ``ref^{-1/2} m ref^{-1/2}`` scaled by ``p^{-1/2}``.

    Satisfies ``weighted_quadratic_norm(ref, ref) == 1``.

    Raises
    ------
    EstimationError
        If the reference matrix has an eigenvalue <= 1e-10.
    """
    m = _require_symmetric(m)
    ref = _require_symmetric(ref)
    if m.shape != ref.shape:
        raise ValueError("matrix and reference must have the same shape")
    eigvals, eigvecs = np.linalg.eigh(symmetrize(ref))
    if eigvals[0] <= _EIG_FLOOR:
        raise EstimationError(
            f"reference matrix is not positive definite "
            f"(min eigenvalue {eigvals[0]:.3g} <= {_EIG_FLOOR:g})"
        )
    inv_sqrt = (eigvecs / np.sqrt(eigvals)[None, :]) @ eigvecs.T
    x = inv_sqrt @ m @ inv_sqrt
    p = m.shape[0]
    return float(np.linalg.norm(x, "fro") / np.sqrt(p))


_BUNDLE_FILES = (
    "loadings.csv",
    "factor_cov.csv",
    "partition.csv",
    "cluster_cov.csv",
    "idio_var.csv",
)


def save_bundle(structured: StructuredCovariance, directory: str) -> None:
    """Write the five-component bundle into a directory.

    Matrices round-trip bitwise. Factor names are not part of the
    bundle format; reloading substitutes positional names.
    """
    os.makedirs(directory, exist_ok=True)
    save_matrix_csv(structured.loadings, os.path.join(directory, "loadings.csv"))
    save_matrix_csv(structured.factor_cov, os.path.join(directory, "factor_cov.csv"))
    save_partition_csv(
        structured.partition,
        structured.series_names,
        os.path.join(directory, "partition.csv"),
    )
    save_matrix_csv(structured.cluster_cov, os.path.join(directory, "cluster_cov.csv"))
    save_matrix_csv(structured.idio_var, os.path.join(directory, "idio_var.csv"))


def load_bundle(directory: str) -> StructuredCovariance:
    """Reload a bundle written by :func:`save_bundle`."""
    paths = {name: os.path.join(directory, name) for name in _BUNDLE_FILES}
    loadings = load_matrix_csv(paths["loadings.csv"])
    factor_cov = load_matrix_csv(paths["factor_cov.csv"])
    clu_cov = load_matrix_csv(paths["cluster_cov.csv"])
    iv = load_matrix_csv(paths["idio_var.csv"])[:, 0]
    with open(paths["partition.csv"], "r", encoding="utf-8") as fh:
        names = tuple(line.split(",", 1)[0] for line in fh.read().splitlines()[1:] if line)
    partition = load_partition_csv(paths["partition.csv"], names)
    r = loadings.shape[1]
    return StructuredCovariance(
        loadings=loadings,
        factor_cov=factor_cov,
        partition=partition,
        cluster_cov=clu_cov,
        idio_var=iv,
        series_names=names,
        factor_names=tuple(f"f{j + 1}" for j in range(r)),
    )
