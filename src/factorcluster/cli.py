"""Command-line interface.

Subcommands: ``estimate`` (fit the structured covariance on CSV
panels), ``simulate`` (seeded panel generation plus the Monte Carlo
experiment table), ``backtest`` (rolling minimum-variance portfolios),
and ``diagnose`` (residual sparsity scan). Exit codes: 0 success,
1 numerical/estimation failure, 2 usage or input errors.

Heavy numeric imports happen after argument parsing so that
``--threads`` can cap the BLAS pools via environment variables before
they are initialized.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcluster",
        description=(
            "Covariance and precision estimation for high-dimensional panels "
            "via factor regression and residual clustering."
        ),
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap internal parallelism (default: machine parallelism); "
        "results do not depend on this setting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit the structured covariance on CSV panels")
    est.add_argument("--returns", required=True, help="returns panel CSV")
    est.add_argument("--factors", required=True, help="factor panel CSV")
    est.add_argument("--out", required=True, help="output directory")
    est.add_argument("--delta", type=float, default=0.0, help="threshold-rule regularizer (default 0)")
    est.add_argument("--cq", type=float, default=None, help="threshold search fraction (default 0.95)")
    est.add_argument(
        "--emit-scod", action="store_true", help="also write the dissimilarity matrix"
    )
    est.set_defaults(func=cmd_estimate)

    simp = sub.add_parser(
        "simulate", help="generate seeded panels and run the Monte Carlo experiment"
    )
    simp.add_argument("--out", required=True, help="output directory")
    simp.add_argument("--config", default=None, help="key=value config file")
    simp.add_argument("--p", type=int, default=None, help="number of series")
    simp.add_argument("--clusters", type=int, default=None, help="number of clusters")
    simp.add_argument("--periods", type=int, default=None, help="number of periods")
    simp.add_argument("--mode", default="balanced", choices=("balanced", "imbalanced"))
    simp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default: the config file's seed, else 0)",
    )
    simp.add_argument("--reps", type=int, default=None, help="replications (default 5)")
    simp.add_argument("--delta", type=float, default=0.0)
    simp.add_argument("--cq", type=float, default=None)
    simp.add_argument(
        "--skip-experiment",
        action="store_true",
        help="write panels only, skip the experiment table",
    )
    simp.set_defaults(func=cmd_simulate)

    back = sub.add_parser("backtest", help="rolling minimum-variance backtest")
    back.add_argument("--returns", required=True)
    back.add_argument("--factors", required=True)
    back.add_argument("--out", required=True, help="output directory")
    back.add_argument("--estimator", default="cluster", choices=("cluster", "sample"))
    back.add_argument(
        "--scheme", default="unconstrained", choices=("unconstrained", "long_only")
    )
    back.add_argument("--window", type=int, default=504, help="training window (default 504)")
    back.add_argument("--rebalance", type=int, default=1, help="rebalance every N test days")
    back.add_argument("--test-start", default=None, help="first test date (inclusive)")
    back.add_argument("--test-end", default=None, help="last test date (inclusive)")
    back.add_argument("--delta", type=float, default=0.0)
    back.add_argument("--cq", type=float, default=None)
    back.add_argument(
        "--annualization", type=float, default=252.0, help="periods per year (default 252)"
    )
    back.add_argument(
        "--percent",
        action="store_true",
        help="inputs are already percent returns; skip the x100 scaling",
    )
    back.set_defaults(func=cmd_backtest)

    diag = sub.add_parser("diagnose", help="residual sparsity scan")
    diag.add_argument("--returns", required=True)
    diag.add_argument("--factors", required=True)
    diag.add_argument("--out", required=True, help="output directory")
    diag.add_argument(
        "--p-grid", default=None, help="comma-separated subpanel sizes (default: 4 sizes up to p)"
    )
    diag.add_argument(
        "--kappas", default="0,0.25,0.5,0.75", help="comma-separated exponents in [0,1)"
    )
    diag.add_argument("--seed", type=int, default=0)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def _load_panels(returns_path: str, factors_path: str):
    from .panel import align, load_panel_csv

    returns = load_panel_csv(returns_path, kind="returns")
    factors = load_panel_csv(factors_path, kind="factors")
    return align(returns, factors)


def _rule(args) -> tuple[float, float]:
    """The threshold rule's ``(delta, c_q)`` from the flags, checked before any work."""
    from .clustering import DEFAULT_CQ, _check_rule

    c_q = DEFAULT_CQ if args.cq is None else args.cq
    _check_rule(args.delta, c_q)
    return args.delta, c_q


def _number_list(text: str, kind, flag: str) -> list:
    """Parse a comma-separated flag value; a bad entry is a usage error naming the flag."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}") from None


def cmd_estimate(args) -> int:
    from .assembly import assemble, save_bundle
    from .clustering import run_clustering_pipeline
    from .factors import fit_loadings
    from .panel import save_matrix_csv, write_text_atomic

    delta, c_q = _rule(args)
    os.makedirs(args.out, exist_ok=True)
    returns, factors = _load_panels(args.returns, args.factors)
    fit = fit_loadings(returns, factors)
    pipe = run_clustering_pipeline(fit.residuals, delta=delta, c_q=c_q)
    est = assemble(fit, pipe.partition)

    save_bundle(est.structured, args.out)
    save_matrix_csv(est.sigma, os.path.join(args.out, "sigma.csv"))
    save_matrix_csv(est.precision, os.path.join(args.out, "precision.csv"))
    if args.emit_scod:
        save_matrix_csv(pipe.scod, os.path.join(args.out, "scod.csv"))

    partition = pipe.partition
    sizes = ", ".join(str(s) for s in partition.sizes)
    lines = [
        f"series: {returns.n_series}",
        f"periods: {returns.n_periods}",
        f"factors: {factors.n_series}",
        f"clusters: {partition.n_clusters}",
        f"cluster sizes: {sizes}",
        f"threshold gamma: {pipe.selection.gamma:.6g}",
        f"threshold rank q_hat: {pipe.selection.q_hat} of {pipe.selection.sorted_values.size}",
    ]
    text = "\n".join(lines) + "\n"
    write_text_atomic(os.path.join(args.out, "summary.txt"), text)
    print(text, end="")
    return 0


def cmd_simulate(args) -> int:
    from dataclasses import replace

    from .errors import FactorClusterError
    from .panel import save_panel_csv, save_partition_csv, write_text_atomic
    from .simulation import (
        DEFAULT_GRID,
        DEFAULT_REPS,
        ExperimentCell,
        default_config,
        experiment_csv,
        generate,
        load_config_file,
        replication_seed,
        run_experiment,
    )

    delta, c_q = _rule(args)
    explicit_dims = [args.p, args.clusters, args.periods]
    if args.config is not None and any(v is not None for v in explicit_dims):
        raise ValueError("pass either --config or explicit dimensions, not both")
    reps = DEFAULT_REPS if args.reps is None else args.reps
    if reps < 1:
        raise ValueError("--reps must be >= 1")
    if args.config is not None:
        try:
            base = load_config_file(args.config)
        except FactorClusterError as exc:
            raise ValueError(str(exc)) from exc
        if not args.skip_experiment:
            raise ValueError(
                "--config needs --skip-experiment: the experiment table draws "
                "default_config panels and cannot take the file's design"
            )
        cells = ()
    elif any(v is not None for v in explicit_dims):
        if not all(v is not None for v in explicit_dims):
            raise ValueError("--p, --clusters, --periods must be given together")
        base = default_config(args.p, args.clusters, args.periods, mode=args.mode)
        cells = (ExperimentCell(args.periods, args.p, args.clusters, args.mode),)
    else:
        cells = DEFAULT_GRID
        first = cells[0]
        base = default_config(first.p, first.n_clusters, first.n_periods, mode=first.mode)
    seed = base.seed if args.seed is None else args.seed

    os.makedirs(args.out, exist_ok=True)
    for rep in range(reps):
        config = replace(base, seed=replication_seed(seed, rep))
        sim = generate(config)
        tag = f"r{rep + 1:02d}"
        save_panel_csv(sim.returns, os.path.join(args.out, f"returns_{tag}.csv"))
        save_panel_csv(sim.factors, os.path.join(args.out, f"factors_{tag}.csv"))
        save_partition_csv(
            sim.truth.partition,
            sim.returns.names,
            os.path.join(args.out, f"true_partition_{tag}.csv"),
        )
    print(f"wrote {reps} replication panel(s) to {args.out}")

    if not args.skip_experiment:
        rows = run_experiment(
            cells, n_reps=reps, base_seed=seed, delta=delta, c_q=c_q
        )
        table = experiment_csv(rows)
        write_text_atomic(os.path.join(args.out, "experiment_results.csv"), table)
        print(table, end="")
    return 0


def cmd_backtest(args) -> int:
    from .panel import write_text_atomic
    from .portfolio import (
        BacktestConfig,
        backtest,
        report_series_csv,
        report_summary_csv,
        report_weights_csv,
    )

    delta, c_q = _rule(args)
    config = BacktestConfig(
        train_window=args.window,
        rebalance_every=args.rebalance,
        estimator=args.estimator,
        scheme=args.scheme,
        delta=delta,
        c_q=c_q,
        annualization=args.annualization,
        inputs_in_percent=args.percent,
    )
    os.makedirs(args.out, exist_ok=True)
    returns, factors = _load_panels(args.returns, args.factors)
    report = backtest(
        returns, factors, config, test_start=args.test_start, test_end=args.test_end
    )
    write_text_atomic(os.path.join(args.out, "backtest_series.csv"), report_series_csv(report))
    write_text_atomic(os.path.join(args.out, "backtest_summary.csv"), report_summary_csv(report))
    write_text_atomic(os.path.join(args.out, "backtest_weights.csv"), report_weights_csv(report))
    print(
        f"test days: {len(report.dates)}  rebalances: {len(report.weights_dates)}\n"
        f"annualized return: {report.av:.6g}\n"
        f"annualized volatility: {report.sd:.6g}\n"
        f"information ratio: {report.ir:.6g}"
    )
    return 0


def cmd_diagnose(args) -> int:
    from .diagnostics import sparsity_csv, sparsity_scan
    from .factors import fit_loadings
    from .panel import write_text_atomic

    grid = None if args.p_grid is None else _number_list(args.p_grid, int, "--p-grid")
    kappas = _number_list(args.kappas, float, "--kappas")
    os.makedirs(args.out, exist_ok=True)
    returns, factors = _load_panels(args.returns, args.factors)
    fit = fit_loadings(returns, factors)
    if grid is None:
        p = returns.n_series
        grid = sorted({max(1, round(p * frac)) for frac in (0.25, 0.5, 0.75, 1.0)})
    report = sparsity_scan(fit.residuals, grid, kappas, seed=args.seed)
    table = sparsity_csv(report)
    write_text_atomic(os.path.join(args.out, "sparsity.csv"), table)
    print(table, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_threads(args.threads)
    from .errors import FactorClusterError, PanelFormatError

    try:
        return args.func(args)
    except (PanelFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
