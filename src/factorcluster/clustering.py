"""Residual clustering via screened correlations of differences.

The dissimilarity between series i and j is

    D_ij = max_{l != i,j} |S_il - S_jl| / sqrt((S_ii + S_jj - 2 S_ij) * S_ll)

where S is the uncentered residual covariance. Within a cluster the
numerator vanishes for every probe l, so D_ij concentrates near zero;
across clusters it stays bounded away from zero. The numerator is the
Chebyshev distance between rows i and j of ``S_il / sqrt(S_ll)`` with
a NaN diagonal, which leaves out the probes l = i and l = j, so the
O(p^3) work is one compiled SciPy ``pdist`` call. A ratio rule on the
sorted dissimilarities picks the threshold gamma, and the groups are
the connected components of the threshold graph with edges
``{D_ij < gamma}``, which is the single-linkage cut at gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from .errors import EstimationError
from .panel import ClusterPartition, _freeze, symmetrize

DEFAULT_DELTA = 0.0
DEFAULT_CQ = 0.95


def residual_cov(residuals: np.ndarray) -> np.ndarray:
    """Uncentered second-moment matrix of the residuals, denominator T.

    Parameters
    ----------
    residuals : np.ndarray
        T x p residual matrix, T >= 2.
    """
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"residuals must be 2-D, got {u.ndim}-D")
    if u.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {u.shape[0]}")
    m = u.T @ u
    m /= u.shape[0]
    return symmetrize(m)


def _check_scod_input(s: np.ndarray, min_p: int) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if s.shape[0] < min_p:
        raise ValueError(f"need at least {min_p} series, got {s.shape[0]}")
    if not np.isfinite(s).all():
        i, j = map(int, np.argwhere(~np.isfinite(s))[0])
        raise ValueError(f"non-finite entry {s[i, j]} at (i={i}, j={j})")
    if not np.array_equal(s, s.T):
        scale = np.abs(s).max()
        if scale > 0 and np.abs(s - s.T).max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
    return s


def scod_matrix(resid_cov: np.ndarray) -> np.ndarray:
    """Pairwise screened-correlation-of-differences matrix.

    The numerators are SciPy's Chebyshev ``pdist`` over the rows of
    ``S_il / sqrt(S_ll)`` with a NaN diagonal: a NaN difference never
    wins the running max, so for each pair exactly the probes l = i
    and l = j drop out, and the O(p^3) work runs in compiled code.

    Parameters
    ----------
    resid_cov : np.ndarray
        p x p finite symmetric residual covariance, p >= 3, positive
        diagonal, and positive variance of every difference
        ``u_i - u_j``.

    Returns
    -------
    np.ndarray
        p x p symmetric matrix with zero diagonal.

    Raises
    ------
    EstimationError
        If some denominator is nonpositive; the message identifies the
        offending (i, j, l) triple (0-based), which signals degenerate
        residuals such as duplicated series.
    """
    s = _check_scod_input(np.asarray(resid_cov), 3)
    p = s.shape[0]
    d = np.diag(s)
    if np.any(d <= 0.0):
        l = int(np.argmin(d))
        raise EstimationError(
            f"nonpositive residual variance for series l={l} "
            f"(value {d[l]:.3g}); denominators require S_ll > 0"
        )
    var = np.add.outer(d, d)
    var -= 2.0 * s
    # squareform(checks=False) reads the upper triangle row by row, as pdist does
    cvar = squareform(var, checks=False)
    if (cvar <= 0.0).any():
        i, j = map(int, np.argwhere(np.triu(var <= 0.0, 1))[0])
        l = next(k for k in range(p) if k not in (i, j))
        raise EstimationError(
            f"nonpositive denominator for triple (i={i}, j={j}, l={l}): "
            f"var(u_{i} - u_{j}) = {var[i, j]:.3g} <= 0; "
            f"series {i} and {j} look numerically identical"
        )
    scaled = s / np.sqrt(d)[None, :]
    np.fill_diagonal(scaled, np.nan)
    num = pdist(scaled, "chebyshev")
    num /= np.sqrt(cvar)
    return squareform(num)


@dataclass(frozen=True)
class ThresholdSelection:
    """Outcome of the ratio rule on sorted dissimilarities.

    ``sorted_values`` holds all Q = p(p-1)/2 off-diagonal values in
    descending order; ``q_hat`` is the 1-based rank maximizing the
    successive ratio, and ``gamma = sorted_values[q_hat - 1]``.
    """

    sorted_values: np.ndarray
    q_hat: int
    gamma: float
    delta: float
    c_q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sorted_values", _freeze(self.sorted_values))


def _check_rule(delta: float, c_q: float) -> None:
    """Reject threshold-rule parameters outside their domains."""
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not 0.0 < c_q <= 1.0:
        raise ValueError(f"c_q must be in (0, 1], got {c_q}")


def select_threshold(
    scod: np.ndarray,
    delta: float = DEFAULT_DELTA,
    c_q: float = DEFAULT_CQ,
) -> ThresholdSelection:
    """Pick the clustering threshold by the largest successive ratio.

    The Q off-diagonal dissimilarities are sorted descending and the
    rule maximizes ``(D_(m) + d) / (D_(m+1) + d)`` over
    ``m = 1..min(ceil(c_q * Q), Q - 1)`` with ``d = max(delta, 1e-12)``;
    ties go to the smallest m. The threshold is ``gamma = D_(q_hat)``.

    Parameters
    ----------
    scod : np.ndarray
        p x p symmetric dissimilarity matrix, p >= 3.
    delta : float
        Nonnegative ratio regularizer; 0 uses the 1e-12 floor only.
    c_q : float
        Search-range fraction in (0, 1].
    """
    s = _check_scod_input(np.asarray(scod), 3)
    _check_rule(delta, c_q)
    values = np.sort(squareform(s, checks=False))[::-1]
    q_total = values.size
    d_eff = max(float(delta), 1e-12)
    m_max = min(math.ceil(c_q * q_total - 1e-9), q_total - 1)
    ratios = (values[:m_max] + d_eff) / (values[1 : m_max + 1] + d_eff)
    q_hat = int(np.argmax(ratios)) + 1
    return ThresholdSelection(
        sorted_values=values,
        q_hat=q_hat,
        gamma=float(values[q_hat - 1]),
        delta=float(delta),
        c_q=float(c_q),
    )


def cluster(scod: np.ndarray, gamma: float) -> ClusterPartition:
    """Single-linkage cut of the dissimilarities at a threshold.

    Series i and j share a cluster when a chain of pairs with
    ``D < gamma`` (strict) links them, so the clusters are the
    connected components of the threshold graph with edges
    ``{D_ij < gamma}``; that is exactly the single-linkage dendrogram
    cut below ``gamma`` (Gower & Ross 1969). Clusters are labelled by
    their smallest member, as in ``ClusterPartition``.

    Parameters
    ----------
    scod : np.ndarray
        p x p symmetric dissimilarity matrix, p >= 2.
    gamma : float
        Strictly positive merge threshold.
    """
    s = _check_scod_input(np.asarray(scod), 2)
    if not gamma > 0.0:
        raise EstimationError(
            f"merge threshold must be > 0, got {gamma}; "
            "the dissimilarities are degenerate"
        )
    _, labels = connected_components(csr_matrix(s < gamma), directed=False)
    return ClusterPartition.from_labels(labels)


@dataclass(frozen=True)
class ClusteringResult:
    """Residual covariance, dissimilarities, threshold, and partition."""

    residual_cov: np.ndarray
    scod: np.ndarray
    selection: ThresholdSelection
    partition: ClusterPartition


def run_clustering_pipeline(
    residuals: np.ndarray,
    delta: float = DEFAULT_DELTA,
    c_q: float = DEFAULT_CQ,
) -> ClusteringResult:
    """Residual covariance -> dissimilarities -> threshold -> partition."""
    cov = residual_cov(residuals)
    scod = scod_matrix(cov)
    selection = select_threshold(scod, delta=delta, c_q=c_q)
    partition = cluster(scod, selection.gamma)
    return ClusteringResult(
        residual_cov=cov, scod=scod, selection=selection, partition=partition
    )


def adjusted_rand_index(a, b) -> float:
    """Chance-adjusted pair-counting agreement between two partitions.

    Accepts ``ClusterPartition`` objects or label vectors of equal
    length. Returns 1.0 whenever the adjusted denominator is zero,
    which only happens for identical trivial partitions (both
    all-singletons or both single-cluster).
    """
    la = a.labels if isinstance(a, ClusterPartition) else np.asarray(a)
    lb = b.labels if isinstance(b, ClusterPartition) else np.asarray(b)
    if la.ndim != 1 or lb.ndim != 1 or la.size != lb.size:
        raise ValueError("partitions must label the same 1-D index set")
    if la.size == 0:
        raise ValueError("partitions must be nonempty")
    n = la.size
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    na = int(ia.max()) + 1
    nb = int(ib.max()) + 1
    counts = np.bincount(ia * nb + ib, minlength=na * nb).reshape(na, nb)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    sum_cells = sum(comb2(int(v)) for v in counts.ravel() if v > 1)
    sum_a = sum(comb2(int(v)) for v in counts.sum(axis=1))
    sum_b = sum(comb2(int(v)) for v in counts.sum(axis=0))
    pairs = comb2(n)
    # integer arithmetic throughout; a single float division at the end
    numer = 2 * (sum_cells * pairs - sum_a * sum_b)
    denom = (sum_a + sum_b) * pairs - 2 * sum_a * sum_b
    if denom == 0:
        return 1.0
    return numer / denom
