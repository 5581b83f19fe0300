"""Synthetic panel generation and Monte Carlo experiments.

The data-generating process is ``y_t = B f_t + A z_t + e_t`` with
VAR(1) factor and cluster paths, Gaussian idiosyncratic noise whose
standard deviations are truncated-Gamma draws, and loading rows drawn
from a multivariate normal. All randomness flows through named child
streams of one seed (order: loadings, sizes, sigmas, f, z, e), so any
output is reproducible bit-for-bit from the config alone. The Monte
Carlo scores the cluster and sample estimates by one loss function,
which builds each dense matrix on first access.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import gammainc

from .assembly import (
    AssembledEstimate,
    SampleEstimate,
    StructuredCovariance,
    assemble,
    assemble_from_structure,
    max_norm,
    operator_norm,
    sample_cov,
    weighted_quadratic_norm,
)
from .clustering import (
    DEFAULT_CQ,
    DEFAULT_DELTA,
    adjusted_rand_index,
    cluster_from_cov,
)
from .errors import EstimationError, FactorClusterError
from .factors import fit_loadings
from .panel import ClusterPartition, FactorPanel, ReturnsPanel, _freeze, load_matrix_csv, symmetrize

_PSD_TOL = -1e-10
_REDRAW_CAP = 10_000
_REJECTION_CAP = 1_000_000
_MIN_TRUNCATION_MASS = 1e-6

_STREAMS = ("loadings", "sizes", "sigmas", "f", "z", "e")


def balanced_sizes(p: int, n_clusters: int) -> tuple[int, ...]:
    """Cluster sizes ``ceil(p/K)`` for the first K-1 clusters, remainder last.

    Raises
    ------
    ValueError
        If the remainder is not positive.
    """
    if n_clusters < 1 or p < 1:
        raise ValueError("p and n_clusters must be positive")
    head = math.ceil(p / n_clusters)
    last = p - head * (n_clusters - 1)
    if last < 1:
        raise ValueError(
            f"balanced sizes infeasible for p={p}, K={n_clusters}: "
            f"last cluster would get {last}"
        )
    return (head,) * (n_clusters - 1) + (last,)


def imbalanced_proportions(n_clusters: int) -> np.ndarray:
    """Skewed cluster proportions: ceil(K/3) clusters at 3x and 2x the base weight.

    With ``a = ceil(K/3)``, the first ``a`` clusters get weight
    ``3/(K+3a)``, the next ``a`` get ``2/(K+3a)``, the rest get
    ``1/(K+3a)``.
    """
    if n_clusters < 3:
        raise ValueError(f"imbalanced mode needs K >= 3, got {n_clusters}")
    a = math.ceil(n_clusters / 3)
    base = 1.0 / (n_clusters + 3 * a)
    out = np.full(n_clusters, base, dtype=np.float64)
    out[:a] = 3 * base
    out[a : 2 * a] = 2 * base
    return out


def gamma_params(mean: float, sd: float) -> tuple[float, float]:
    """Moment-matched Gamma shape and scale: ``((mean/sd)^2, sd^2/mean)``."""
    if mean <= 0 or sd <= 0:
        raise ValueError("mean and sd must be positive")
    return (mean / sd) ** 2, sd * sd / mean


def sample_idio_sd(
    n: int,
    mean: float,
    sd: float,
    lower: float,
    upper: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n Gamma(mean, sd) values by rejection into ``[lower, upper]``.

    Raises
    ------
    EstimationError
        If the interval carries less than 1e-6 Gamma probability mass,
        or the 1e6-draw rejection budget is exhausted.
    """
    if not 0 < lower < upper:
        raise ValueError(f"need 0 < lower < upper, got [{lower}, {upper}]")
    if n < 1:
        raise ValueError("n must be positive")
    shape, scale = gamma_params(mean, sd)
    mass = gammainc(shape, upper / scale) - gammainc(shape, lower / scale)
    if mass < _MIN_TRUNCATION_MASS:
        raise EstimationError(
            f"truncation interval [{lower}, {upper}] carries probability "
            f"mass {mass:.3g} < {_MIN_TRUNCATION_MASS:g} under "
            f"Gamma(shape={shape:.3g}, scale={scale:.3g})"
        )
    out = np.empty(n, dtype=np.float64)
    filled = 0
    drawn = 0
    while filled < n:
        chunk = min(max(2 * (n - filled), 64), _REJECTION_CAP - drawn)
        if chunk <= 0:
            raise EstimationError(
                f"rejection sampling exhausted {_REJECTION_CAP} draws "
                f"with {filled}/{n} accepted"
            )
        draws = rng.gamma(shape, scale, size=chunk)
        drawn += chunk
        keep = draws[(draws >= lower) & (draws <= upper)]
        take = min(keep.size, n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def _cov_root(cov: np.ndarray, what: str) -> np.ndarray:
    """Symmetric square root with PSD validation (eigenvalues >= -1e-10, clipped)."""
    eigvals, eigvecs = np.linalg.eigh(symmetrize(cov))
    if eigvals[0] < _PSD_TOL:
        raise EstimationError(
            f"{what} is not positive semidefinite "
            f"(min eigenvalue {eigvals[0]:.3g} < {_PSD_TOL:g})"
        )
    lam = np.where(eigvals > 0.0, eigvals, 0.0)
    return (eigvecs * np.sqrt(lam)[None, :]) @ eigvecs.T


def simulate_var1(
    n_periods: int,
    mu: np.ndarray,
    phi: np.ndarray,
    cov: np.ndarray,
    rng: np.random.Generator,
    burn_in: int = 500,
) -> np.ndarray:
    """Simulate ``x_t = mu + phi x_{t-1} + eps_t`` targeting stationary covariance ``cov``.

    The innovation covariance ``cov - phi cov phi'`` is validated to be
    PSD (tolerance -1e-10, small negatives clipped) and the chain
    starts at the stationary mean ``(I - phi)^{-1} mu``.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    phi = np.asarray(phi, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    d = mu.shape[0]
    if phi.shape != (d, d) or cov.shape != (d, d):
        raise ValueError("mu, phi, cov dimensions are inconsistent")
    if n_periods < 1 or burn_in < 0:
        raise ValueError("need n_periods >= 1 and burn_in >= 0")
    if np.abs(np.linalg.eigvals(phi)).max() >= 1.0:
        raise EstimationError("transition matrix is not stable (spectral radius >= 1)")
    innov = symmetrize(cov - phi @ cov @ phi.T)
    root = _cov_root(innov, "innovation covariance")
    x = np.linalg.solve(np.eye(d) - phi, mu)
    shocks = rng.standard_normal((burn_in + n_periods, d)) @ root.T
    out = np.empty((n_periods, d), dtype=np.float64)
    for t in range(burn_in + n_periods):
        x = mu + phi @ x + shocks[t]
        if t >= burn_in:
            out[t - burn_in] = x
    return out


@dataclass(frozen=True)
class DgpConfig:
    """Full parameterization of the synthetic panel generator."""

    p: int
    n_clusters: int
    n_periods: int
    seed: int
    mode: str
    mu_b: np.ndarray
    sigma_b: np.ndarray
    mu_f: np.ndarray
    phi_f: np.ndarray
    sigma_f: np.ndarray
    phi_z: np.ndarray
    sigma_z: np.ndarray
    sigma_bar: float = 0.8
    s_sigma: float = 0.3
    sigma_min: float = 0.2
    sigma_max: float = 2.0
    burn_in: int = 500

    def __post_init__(self) -> None:
        if self.p < 1 or self.n_clusters < 1 or self.n_periods < 2:
            raise ValueError("need p >= 1, n_clusters >= 1, n_periods >= 2")
        if self.n_clusters > self.p:
            raise ValueError(f"more clusters ({self.n_clusters}) than series ({self.p})")
        if self.mode not in ("balanced", "imbalanced"):
            raise ValueError(f"mode must be 'balanced' or 'imbalanced', got {self.mode!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2^64)")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.sigma_bar <= 0 or self.s_sigma <= 0:
            raise ValueError("sigma_bar and s_sigma must be positive")
        mu_b = np.atleast_1d(np.asarray(self.mu_b, dtype=np.float64))
        mu_f = np.atleast_1d(np.asarray(self.mu_f, dtype=np.float64))
        r = mu_b.shape[0]
        k = self.n_clusters
        mats = {
            "sigma_b": (np.asarray(self.sigma_b, dtype=np.float64), (r, r)),
            "phi_f": (np.asarray(self.phi_f, dtype=np.float64), (r, r)),
            "sigma_f": (np.asarray(self.sigma_f, dtype=np.float64), (r, r)),
            "phi_z": (np.asarray(self.phi_z, dtype=np.float64), (k, k)),
            "sigma_z": (np.asarray(self.sigma_z, dtype=np.float64), (k, k)),
        }
        if mu_f.shape != (r,):
            raise ValueError("mu_f length must match mu_b length")
        for name, (m, shape) in mats.items():
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
        for name in ("phi_f", "phi_z"):
            m = mats[name][0]
            if np.abs(np.linalg.eigvals(m)).max() >= 1.0:
                raise ValueError(f"{name} is not stable (spectral radius >= 1)")
        for name in ("sigma_b", "sigma_f", "sigma_z"):
            m = mats[name][0]
            if np.abs(m - m.T).max() > 1e-10 * max(np.abs(m).max(), 1.0):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(symmetrize(m))[0] < _PSD_TOL:
                raise ValueError(f"{name} must be positive semidefinite")
        object.__setattr__(self, "mu_b", _freeze(mu_b))
        object.__setattr__(self, "mu_f", _freeze(mu_f))
        for name, (m, _) in mats.items():
            object.__setattr__(self, name, _freeze(m))

    @property
    def n_factors(self) -> int:
        return self.mu_b.shape[0]


def default_config(
    p: int,
    n_clusters: int,
    n_periods: int,
    seed: int = 0,
    mode: str = "balanced",
    n_factors: int = 5,
    z_scale: float = 1.5,
    z_corr: float = 0.2,
) -> DgpConfig:
    """Documented default parameterization.

    Loading means taper from 1 (market-like) to 0.1; loading rows have
    diagonal-dominant covariance 0.09 I + 0.009 (J - I); factor and
    cluster transitions are diagonal with entries inside [0.1, 0.3];
    the factor covariance is an equicorrelation(0.1) matrix scaled by
    volatilities tapering from 1.0 to 0.5; the cluster covariance is
    ``z_scale * ((1 - z_corr) I + z_corr J)``.
    """
    r = n_factors
    if r < 1:
        raise ValueError("n_factors must be >= 1")
    base_mu_b = [1.0, 0.3, 0.2, 0.1, 0.1]
    base_mu_f = [0.05, 0.02, 0.02, 0.01, 0.01]
    base_vols = [1.0, 0.7, 0.6, 0.5, 0.5]
    mu_b = np.array([base_mu_b[i] if i < 5 else 0.1 for i in range(r)])
    mu_f = np.array([base_mu_f[i] if i < 5 else 0.01 for i in range(r)])
    vols = np.array([base_vols[i] if i < 5 else 0.5 for i in range(r)])
    sigma_b = 0.09 * np.eye(r) + 0.009 * (np.ones((r, r)) - np.eye(r))
    corr_f = 0.1 * np.ones((r, r)) + 0.9 * np.eye(r)
    sigma_f = corr_f * np.outer(vols, vols)
    phi_f = np.diag(np.linspace(0.30, 0.10, r))
    k = n_clusters
    phi_z = np.diag(np.linspace(0.10, 0.30, k))
    sigma_z = z_scale * ((1.0 - z_corr) * np.eye(k) + z_corr * np.ones((k, k)))
    return DgpConfig(
        p=p,
        n_clusters=n_clusters,
        n_periods=n_periods,
        seed=seed,
        mode=mode,
        mu_b=mu_b,
        sigma_b=sigma_b,
        mu_f=mu_f,
        phi_f=phi_f,
        sigma_f=sigma_f,
        phi_z=phi_z,
        sigma_z=sigma_z,
    )


@dataclass(frozen=True)
class SimulationTruth:
    """Ground truth backing one simulated panel."""

    loadings: np.ndarray
    partition: ClusterPartition
    idio_sd: np.ndarray
    cluster_paths: np.ndarray
    idio_paths: np.ndarray
    config: DgpConfig

    def structure(self) -> StructuredCovariance:
        """True components in assembled form (population factor/cluster covariances)."""
        return StructuredCovariance(
            loadings=self.loadings,
            factor_cov=self.config.sigma_f,
            partition=self.partition,
            cluster_cov=self.config.sigma_z,
            idio_var=self.idio_sd**2,
            series_names=tuple(
                _series_name(i, self.config.p) for i in range(self.config.p)
            ),
            factor_names=tuple(f"F{j + 1}" for j in range(self.config.n_factors)),
        )

    def assembled(self) -> AssembledEstimate:
        """True covariance and precision matrices."""
        return assemble_from_structure(self.structure())


@dataclass(frozen=True)
class SimulatedPanel:
    returns: ReturnsPanel
    factors: FactorPanel
    truth: SimulationTruth


def _series_name(i: int, p: int) -> str:
    width = max(4, len(str(p)))
    return f"S{i + 1:0{width}d}"


def _dates(n: int) -> tuple[str, ...]:
    start = datetime.date(2000, 1, 1)
    return tuple((start + datetime.timedelta(days=t)).isoformat() for t in range(n))


def _draw_partition(config: DgpConfig, rng: np.random.Generator) -> ClusterPartition:
    if config.mode == "balanced":
        sizes = balanced_sizes(config.p, config.n_clusters)
    else:
        pi = imbalanced_proportions(config.n_clusters)
        for _ in range(_REDRAW_CAP):
            draw = rng.multinomial(config.p, pi)
            if np.all(draw >= 1):
                sizes = tuple(int(s) for s in draw)
                break
        else:
            raise EstimationError(
                f"could not draw {config.n_clusters} nonempty clusters over "
                f"p={config.p} in {_REDRAW_CAP} attempts"
            )
    bounds = np.cumsum((0,) + tuple(sizes))
    groups = [tuple(range(bounds[k], bounds[k + 1])) for k in range(config.n_clusters)]
    return ClusterPartition.from_groups(groups, config.p)


def generate(config: DgpConfig) -> SimulatedPanel:
    """Generate one seeded panel plus its ground truth.

    Randomness uses six named child streams spawned in fixed order
    (loadings, sizes, sigmas, f, z, e), so the output is a pure
    function of the config.
    """
    children = np.random.SeedSequence(config.seed).spawn(len(_STREAMS))
    rngs = {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(_STREAMS, children)
    }
    p, k, t_len, r = config.p, config.n_clusters, config.n_periods, config.n_factors

    b_root = _cov_root(config.sigma_b, "loading covariance")
    loadings = config.mu_b[None, :] + rngs["loadings"].standard_normal((p, r)) @ b_root.T
    partition = _draw_partition(config, rngs["sizes"])
    sd = sample_idio_sd(
        p, config.sigma_bar, config.s_sigma, config.sigma_min, config.sigma_max,
        rngs["sigmas"],
    )
    f_path = simulate_var1(
        t_len, config.mu_f, config.phi_f, config.sigma_f, rngs["f"], config.burn_in
    )
    z_path = simulate_var1(
        t_len, np.zeros(k), config.phi_z, config.sigma_z, rngs["z"], config.burn_in
    )
    e_path = rngs["e"].standard_normal((t_len, p)) * sd[None, :]
    values = f_path @ loadings.T + z_path[:, partition.labels] + e_path

    times = _dates(t_len)
    series = tuple(_series_name(i, p) for i in range(p))
    fac_names = tuple(f"F{j + 1}" for j in range(r))
    return SimulatedPanel(
        returns=ReturnsPanel(times, series, values),
        factors=FactorPanel(times, fac_names, f_path),
        truth=SimulationTruth(
            loadings=_freeze(loadings),
            partition=partition,
            idio_sd=_freeze(sd),
            cluster_paths=_freeze(z_path),
            idio_paths=_freeze(e_path),
            config=config,
        ),
    )


def replication_seed(base_seed: int, rep: int) -> int:
    """Derived 64-bit seed for replication ``rep`` of a study seeded by ``base_seed``."""
    state = np.random.SeedSequence([int(base_seed), int(rep)]).generate_state(1, np.uint64)
    return int(state[0])


@dataclass(frozen=True)
class ExperimentCell:
    """One Monte Carlo design point."""

    n_periods: int
    p: int
    n_clusters: int
    mode: str = "balanced"


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated metrics for one (cell, estimator) pair."""

    cell: ExperimentCell
    estimator: str
    reps: int
    failures: int
    freq_correct_k: float | None
    ari_mean: float | None
    wq_mean: float | None
    wq_se: float | None
    max_mean: float | None
    max_se: float | None
    prec_mean: float | None
    prec_se: float | None


DEFAULT_GRID = (
    ExperimentCell(n_periods=300, p=200, n_clusters=6),
    ExperimentCell(n_periods=500, p=400, n_clusters=6),
    ExperimentCell(n_periods=2000, p=200, n_clusters=6),
    ExperimentCell(n_periods=2000, p=400, n_clusters=6),
)
DEFAULT_REPS = 5


def _mean_se(vals: list[float]) -> tuple[float | None, float | None]:
    clean = [v for v in vals if not math.isnan(v)]
    if not clean:
        return None, None
    arr = np.asarray(clean)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _losses(
    est: AssembledEstimate | SampleEstimate, truth: AssembledEstimate
) -> tuple[float, float, float]:
    """Weighted quadratic, max and precision operator-norm losses; NaN for a singular precision."""
    diff = est.sigma - truth.sigma
    try:
        prec_loss = operator_norm(est.precision - truth.precision)
    except EstimationError:
        prec_loss = math.nan
    return weighted_quadratic_norm(diff, truth.sigma), max_norm(diff), prec_loss


def _replication(
    cell: ExperimentCell, seed: int, delta: float, c_q: float
) -> tuple[float, float, tuple[float, float, float], tuple[float, float, float]] | None:
    """One replication of ``cell``: (K hit, ARI, cluster losses, sample losses).

    Returns None if any step raises an estimation error or a
    ``LinAlgError``, so nothing of a failed replication is recorded.
    """
    config = default_config(cell.p, cell.n_clusters, cell.n_periods, seed, cell.mode)
    try:
        sim = generate(config)
        truth = sim.truth.assembled()
        fit = fit_loadings(sim.returns, sim.factors)
        pipe = cluster_from_cov(fit.residual_cov, delta=delta, c_q=c_q)
        cluster_loss = _losses(assemble(fit, pipe.partition), truth)
        sample = SampleEstimate(sample_cov(sim.returns.values), cell.n_periods)
        sample_loss = _losses(sample, truth)
    except (FactorClusterError, np.linalg.LinAlgError):
        return None
    k_hit = 1.0 if pipe.partition.n_clusters == cell.n_clusters else 0.0
    ari = adjusted_rand_index(sim.truth.partition, pipe.partition)
    return k_hit, ari, cluster_loss, sample_loss


def run_experiment(
    cells=DEFAULT_GRID,
    n_reps: int = DEFAULT_REPS,
    base_seed: int = 0,
    delta: float = DEFAULT_DELTA,
    c_q: float = DEFAULT_CQ,
    progress=None,
) -> list[ExperimentRow]:
    """Monte Carlo comparison of the cluster estimator against the sample covariance.

    Each replication is one call of ``_replication``, in rep order: the
    panel is regenerated from a derived seed, both estimators are fit,
    and estimation losses against the true covariance are recorded
    (weighted quadratic norm, entrywise max norm, and operator-norm
    precision loss; the latter is left undefined for a numerically
    singular sample covariance). A replication that raises an
    estimation error or a ``LinAlgError`` returns None; a cell's
    ``failures`` is the count of those, and the grid carries on.

    Returns two rows per cell, estimator ``"cluster"`` then ``"sample"``.
    """
    rows: list[ExperimentRow] = []
    cells = [c if isinstance(c, ExperimentCell) else ExperimentCell(*c) for c in cells]
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    for cell in cells:
        done = []
        for rep in range(n_reps):
            result = _replication(cell, replication_seed(base_seed, rep), delta, c_q)
            if result is not None:
                done.append(result)
                if progress is not None:
                    progress(cell, rep)
        failures = n_reps - len(done)
        k_hits, aris, *losses = zip(*done) if done else ((),) * 4
        k_ari = (float(np.mean(k_hits)), float(np.mean(aris))) if done else (None, None)
        for name, recorded, first in zip(("cluster", "sample"), losses, (k_ari, (None, None))):
            columns = list(zip(*recorded)) or [(), (), ()]  # no replication succeeded
            stats = [s for column in columns for s in _mean_se(list(column))]
            rows.append(ExperimentRow(cell, name, n_reps, failures, *first, *stats))
    return rows


_EXPERIMENT_HEADER = (
    "T,p,K,mode,estimator,reps,failures,freq_correct_k,ari_mean,"
    "wq_mean,wq_se,max_mean,max_se,prec_mean,prec_se"
)


def experiment_csv(rows: list[ExperimentRow]) -> str:
    """Render experiment rows as CSV; undefined cells are left empty."""

    def text(v) -> str:
        if v is None:
            return ""
        return "%.6g" % v if isinstance(v, float) else str(v)

    lines = [_EXPERIMENT_HEADER]
    for row in rows:
        values = [getattr(row.cell, f.name) for f in fields(row.cell)]
        values += [getattr(row, f.name) for f in fields(row)[1:]]
        lines.append(",".join(text(v) for v in values))
    return "\n".join(lines) + "\n"


_SCALAR_KEYS = {
    "p": int,
    "n_clusters": int,
    "n_periods": int,
    "n_factors": int,
    "seed": int,
    "burn_in": int,
    "mode": str,
    "sigma_bar": float,
    "s_sigma": float,
    "sigma_min": float,
    "sigma_max": float,
    "z_scale": float,
    "z_corr": float,
}
_MATRIX_KEYS = ("mu_b", "sigma_b", "mu_f", "phi_f", "sigma_f", "phi_z", "sigma_z")


def load_config_file(path: str) -> DgpConfig:
    """Parse a flat ``key = value`` config file into a DgpConfig.

    Scalar keys: p, n_clusters, n_periods (required); n_factors, seed,
    mode, burn_in, sigma_bar, s_sigma, sigma_min, sigma_max, z_scale,
    z_corr (optional, defaulted). Matrix keys (mu_b, sigma_b, mu_f,
    phi_f, sigma_f, phi_z, sigma_z) name headerless CSV files resolved
    relative to the config file and override the defaults. ``#``
    starts a comment; unknown keys are rejected.
    """
    scalars: dict = {}
    matrices: dict = {}
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise FactorClusterError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FactorClusterError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _SCALAR_KEYS:
            try:
                scalars[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                raise FactorClusterError(
                    f"{path}:{lineno}: bad value {value!r} for {key}"
                ) from None
        elif key in _MATRIX_KEYS:
            matrices[key] = load_matrix_csv(os.path.join(base, value))
        else:
            raise FactorClusterError(f"{path}:{lineno}: unknown key {key!r}")
    missing = [k for k in ("p", "n_clusters", "n_periods") if k not in scalars]
    if missing:
        raise FactorClusterError(f"{path}: missing required keys {missing}")
    build_kwargs = {
        k: scalars[k]
        for k in ("p", "n_clusters", "n_periods", "seed", "mode", "n_factors", "z_scale", "z_corr")
        if k in scalars
    }
    config = default_config(**build_kwargs)
    extra = {
        k: scalars[k]
        for k in ("sigma_bar", "s_sigma", "sigma_min", "sigma_max", "burn_in")
        if k in scalars
    }
    overrides = dict(extra)
    for key, m in matrices.items():
        if key in ("mu_b", "mu_f") and 1 in m.shape:
            overrides[key] = m.ravel()
        else:
            overrides[key] = m
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as exc:
            raise FactorClusterError(f"{path}: invalid config: {exc}") from exc
    return config
