"""The four benchmark workloads: seeded inputs, one call, and its output check.

Every workload is a closed loop with one caller: the harness builds
the input of a call (untimed), times the call, then checks its output
(untimed) before the next call starts.
Calls reach the program through module attributes (``cli.main``,
``portfolio.backtest``, ``simulation.run_experiment``) so that the
traced run's wrappers apply. Inputs are a pure function of the
workload seed; the program only ever sees the generated panels or
experiment seeds.

The output checks use tolerances rather than byte digests, so an
implementation that reorders floating-point arithmetic still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from factorcluster import assembly, cli, clustering, factors, panel, portfolio, simulation

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

N_CLUSTERS = 6
IDENTITY_TOL = 1e-8  # criterion 3: entries of Sigma P - I
REBUILD_RTOL = 1e-10  # sigma.csv against the rebuilt bundle, relative to max |Sigma|
WEIGHT_SUM_TOL = 1e-9
KKT_TOL = 1e-9  # the long-only solver's default tolerance
ARITH_RTOL = 1e-9  # report arithmetic recomputed from its own weights and returns
GOLDEN_RTOL = 1e-6  # values recorded at the commit that defined the benchmark
GOLDEN_ATOL = 1e-9


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def golden_key(name: str, seed: int) -> str:
    return f"{name}/{seed}"


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


class Workload:
    """Base class; subclasses define ``name``, ``why``, ``op`` and the hooks."""

    name = ""
    why = ""
    op = ""
    n_inputs = {"full": 1, "tiny": 1}
    ops = 1  # operations in one call

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.golden = load_golden().get(golden_key(self.name, seed)) if size == "full" else None

    @property
    def inputs(self) -> int:
        return self.n_inputs[self.size]

    def setup(self) -> None:
        """Generate the inputs shared by every call."""

    def input(self, k: int):
        """The input of a call on input ``k``; built outside the timed interval."""
        return k

    def call(self, x):
        """Run the program once on input ``x`` and return what the check needs."""
        raise NotImplementedError

    def check(self, k: int, x, out) -> list[str]:
        """Problems with the output of input ``k``; empty when correct.

        A problem string that starts with ``"op <j>:"`` fails only
        operation ``j`` of the call; any other fails every operation.
        """
        raise NotImplementedError

    def record(self, out):
        """The values kept in golden.json for one output; None when nothing is kept."""
        return None

    def _compare_golden(self, k: int, values: list[float]) -> list[str]:
        if self.golden is None:
            return []
        expected = self.golden[k]
        if len(expected) != len(values):
            return [f"golden record has {len(expected)} values, got {len(values)}"]
        return [
            f"value {j} is {got!r}, recorded {want!r}"
            for j, (got, want) in enumerate(zip(values, expected))
            if got is None or not _close(got, want, GOLDEN_RTOL, GOLDEN_ATOL)
        ]


# -- estimate_wide --------------------------------------------------------


def _read_partition(path: str, names: tuple[str, ...]) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["name", "cluster_id"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    label = {name: int(cid) - 1 for name, cid in rows[1:]}
    return np.array([label[n] for n in names], dtype=np.int64)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the two label vectors define the same groups (ARI = 1)."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def check_estimate_output(out: str, sim) -> list[str]:
    """Partition, identity and rebuild checks on one ``estimate`` output directory."""
    names = sim.returns.names
    labels = _read_partition(os.path.join(out, "partition.csv"), names)
    problems = []
    if not _same_partition(labels, sim.truth.partition.labels):
        problems.append("written partition differs from the simulated truth (ARI < 1)")
    sigma = np.loadtxt(os.path.join(out, "sigma.csv"), delimiter=",", ndmin=2)
    prec = np.loadtxt(os.path.join(out, "precision.csv"), delimiter=",", ndmin=2)
    gap = float(np.abs(sigma @ prec - np.eye(sigma.shape[0])).max())
    if not gap <= IDENTITY_TOL:
        problems.append(f"max |Sigma P - I| = {gap:.3g} > {IDENTITY_TOL:g}")
    b = np.loadtxt(os.path.join(out, "loadings.csv"), delimiter=",", ndmin=2)
    s_f = np.loadtxt(os.path.join(out, "factor_cov.csv"), delimiter=",", ndmin=2)
    s_z = np.loadtxt(os.path.join(out, "cluster_cov.csv"), delimiter=",", ndmin=2)
    v = np.loadtxt(os.path.join(out, "idio_var.csv"), delimiter=",", ndmin=1)
    rebuilt = b @ s_f @ b.T + s_z[np.ix_(labels, labels)] + np.diag(v)
    err = float(np.abs(sigma - rebuilt).max())
    if not err <= REBUILD_RTOL * float(np.abs(rebuilt).max()):
        problems.append(f"sigma.csv differs from B S_f B' + A S_z A' + diag(v) by {err:.3g}")
    return problems


class EstimateWide(Workload):
    name = "estimate_wide"
    why = (
        "CLI estimate on CSV panels with p > T: SCOD, CSV I/O and dense p x p "
        "assembly; the only workload that reads panels and writes matrices"
    )
    op = "one in-process cli.main(['estimate', ...]) on the CSV panels"
    shape = {"full": (600, 500), "tiny": (60, 200)}  # (p, T)

    def setup(self) -> None:
        p, t_len = self.shape[self.size]
        self.sim = simulation.generate(simulation.default_config(p, N_CLUSTERS, t_len, self.seed))
        os.makedirs(self.workdir, exist_ok=True)
        returns_csv = os.path.join(self.workdir, "returns.csv")
        factors_csv = os.path.join(self.workdir, "factors.csv")
        panel.save_panel_csv(self.sim.returns, returns_csv)
        panel.save_panel_csv(self.sim.factors, factors_csv)
        self.out = os.path.join(self.workdir, "estimate")
        self.argv = ["estimate", "--returns", returns_csv, "--factors", factors_csv, "--out", self.out]

    def call(self, x):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, k: int, x, rc) -> list[str]:
        if rc != 0:
            return [f"cli.main returned {rc}"]
        return check_estimate_output(self.out, self.sim)


# -- backtests -------------------------------------------------------------


def kkt_residual(sigma: np.ndarray, w: np.ndarray) -> float:
    """Scaled stationarity violation of ``w`` for min w'Sw on the simplex."""
    g = 2.0 * (sigma @ w)
    lam = float(g @ w)
    support = w > 0.0
    resid = float(np.abs(g[support] - lam).max())
    if not np.all(support):
        resid = max(resid, lam - float(g[~support].min()))
    return resid / max(1.0, float(np.abs(g).max()))


def window_sigma(sim, start: int, stop: int) -> np.ndarray:
    """The cluster estimator's Sigma on rows ``[start, stop)`` of a panel."""
    r, f = sim.returns, sim.factors
    win_r = panel.ReturnsPanel(r.times[start:stop], r.names, r.values[start:stop])
    win_f = panel.FactorPanel(f.times[start:stop], f.names, f.values[start:stop])
    fit = factors.fit_loadings(win_r, win_f)
    pipe = clustering.run_clustering_pipeline(fit.residuals)
    return assembly.assemble(fit, pipe.partition).sigma


def check_backtest(report, sim, config, expected_rebalances: int) -> list[str]:
    """Weights, arithmetic and (long-only) optimality checks on one backtest."""
    window, every = config.train_window, config.rebalance_every
    weights = np.asarray(report.weights)
    if weights.shape[0] != expected_rebalances:
        return [f"{weights.shape[0]} rebalances, expected {expected_rebalances}"]
    problems = []
    for j, w in enumerate(weights):
        total = float(w.sum())
        if not (np.all(np.isfinite(w)) and abs(total - 1.0) <= WEIGHT_SUM_TOL):
            problems.append(f"op {j}: weights sum to {total!r}")
        elif config.scheme == "long_only":
            if w.min() < 0.0:
                problems.append(f"op {j}: negative weight {w.min():.3g}")
                continue
            t = window + j * every
            resid = kkt_residual(window_sigma(sim, t - window, t), w)
            if not resid <= KKT_TOL:
                problems.append(f"op {j}: KKT residual {resid:.3g} > {KKT_TOL:g}")
    values = sim.returns.values[window:]
    held = weights[np.arange(values.shape[0]) // every]
    daily = np.sum(held * values, axis=1)
    scale = 1.0 + float(np.abs(daily).max())
    if not float(np.abs(daily - report.daily_returns).max()) <= ARITH_RTOL * scale:
        problems.append("daily returns differ from the held weights times the returns")
    unit = 1.0 if config.inputs_in_percent else 100.0
    av = config.annualization * float(np.mean(report.daily_returns)) * unit
    sd = math.sqrt(config.annualization) * float(np.std(report.daily_returns, ddof=1)) * unit
    for what, got, want in (("av", report.av, av), ("sd", report.sd, sd), ("ir", report.ir, av / sd)):
        if not _close(got, want, ARITH_RTOL):
            problems.append(f"{what} = {got!r}, recomputed {want!r}")
    return problems


class Backtest(Workload):
    op = "one rebalance: a window estimate and its minimum-variance weights"
    # Many short backtests, one panel each: how fast the long-only solver
    # converges varies by panel, so a run averages over many panels.
    shape = {"full": (200, 504, 10), "tiny": (60, 120, 6)}  # (p, window, test days)
    n_inputs = {"full": 64, "tiny": 2}
    scheme = "unconstrained"
    rebalance_every = 1

    def setup(self) -> None:
        _, window, days = self.shape[self.size]
        self.ops = math.ceil(days / self.rebalance_every)
        self.config = portfolio.BacktestConfig(
            train_window=window, rebalance_every=self.rebalance_every, scheme=self.scheme
        )

    def input(self, k: int):
        p, window, days = self.shape[self.size]
        seed = simulation.replication_seed(self.seed, k)
        return simulation.generate(simulation.default_config(p, N_CLUSTERS, window + days, seed))

    def call(self, sim):
        return portfolio.backtest(sim.returns, sim.factors, self.config)

    def check(self, k: int, sim, report) -> list[str]:
        problems = check_backtest(report, sim, self.config, self.ops)
        return problems + self._compare_golden(k, self.record(report))

    def record(self, report):
        return [report.av, report.sd, report.ir]


class BacktestUnconstrained(Backtest):
    name = "backtest_unconstrained"
    why = (
        "daily rebalance with T > p: per-window overhead, SCOD and cluster dominate; "
        "the long-only solver is never called"
    )


class BacktestLongOnly(Backtest):
    name = "backtest_long_only"
    why = (
        "the same panels, long-only, rebalanced every 10 days: the projected-gradient "
        "solver dominates and clustering is a small share"
    )
    scheme = "long_only"
    rebalance_every = 10


# -- montecarlo ------------------------------------------------------------


class MonteCarlo(Workload):
    name = "montecarlo"
    why = (
        "one replication of the experiment grid: the only workload that simulates panels "
        "and computes loss norms against the true covariance"
    )
    op = "one replication of run_experiment over every grid cell"
    n_inputs = {"full": 12, "tiny": 2}

    def setup(self) -> None:
        if self.size == "full":
            self.cells = simulation.DEFAULT_GRID
        else:
            self.cells = (
                simulation.ExperimentCell(n_periods=150, p=30, n_clusters=3),
                simulation.ExperimentCell(n_periods=200, p=60, n_clusters=6),
            )

    def input(self, k: int):
        return simulation.replication_seed(self.seed, k)

    def call(self, base_seed):
        done = []
        rows = simulation.run_experiment(
            self.cells, n_reps=1, base_seed=base_seed, progress=lambda cell, rep: done.append(cell)
        )
        return rows, done

    def check(self, k: int, base_seed, out) -> list[str]:
        rows, done = out
        if len(rows) != 2 * len(self.cells) or len(done) != len(self.cells):
            return [f"{len(done)} of {len(self.cells)} cells completed, {len(rows)} rows"]
        failures = sum(row.failures for row in rows[::2])
        if failures:
            return [f"run_experiment counted {failures} failed replication(s)"]
        return self._compare_golden(k, self.record(out))

    def record(self, out):
        rows, _ = out
        values = []
        for clu, smp in zip(rows[::2], rows[1::2]):
            values += [clu.freq_correct_k, clu.ari_mean, clu.wq_mean, smp.wq_mean]
        return values


WORKLOADS = {
    cls.name: cls for cls in (EstimateWide, BacktestUnconstrained, BacktestLongOnly, MonteCarlo)
}
