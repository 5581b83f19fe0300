"""Command-line runs: files, exit codes, determinism.

Determinism across ``--threads`` and one run per command go through a
fresh ``python -m factorcluster.cli`` process; exit codes and messages
are checked in-process through ``main``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from factorcluster.cli import main
from factorcluster.panel import save_panel_csv, write_text_atomic
from factorcluster.simulation import default_config, generate

CLI = [sys.executable, "-m", "factorcluster.cli"]
# pytest's pythonpath setting does not reach a subprocess
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
)


def run_cli(*args, threads=None):
    cmd = list(CLI)
    if threads is not None:
        cmd += ["--threads", str(threads)]
    cmd += [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    root = tmp_path_factory.mktemp("panels")
    sim = generate(default_config(p=12, n_clusters=3, n_periods=80, seed=41))
    returns_path = str(root / "returns.csv")
    factors_path = str(root / "factors.csv")
    save_panel_csv(sim.returns, returns_path)
    save_panel_csv(sim.factors, factors_path)
    return returns_path, factors_path


def test_estimate_writes_outputs(panels, tmp_path):
    returns_path, factors_path = panels
    out = str(tmp_path / "est")
    result = run_cli(
        "estimate", "--returns", returns_path, "--factors", factors_path,
        "--out", out, "--emit-scod",
    )
    assert result.returncode == 0, result.stderr
    for name in (
        "sigma.csv", "precision.csv", "scod.csv", "summary.txt",
        "loadings.csv", "factor_cov.csv", "cluster_cov.csv",
        "idio_var.csv", "partition.csv",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    assert "clusters:" in result.stdout
    assert "threshold gamma:" in result.stdout


def test_estimate_is_deterministic_across_runs_and_threads(panels, tmp_path):
    returns_path, factors_path = panels
    outs = []
    for tag, threads in (("a", None), ("b", None), ("c", 1), ("d", 2)):
        out = str(tmp_path / tag)
        result = run_cli(
            "estimate", "--returns", returns_path, "--factors", factors_path,
            "--out", out, threads=threads,
        )
        assert result.returncode == 0, result.stderr
        outs.append(out)
    baseline = {
        name: read_bytes(os.path.join(outs[0], name))
        for name in ("sigma.csv", "precision.csv", "summary.txt")
    }
    for out in outs[1:]:
        for name, blob in baseline.items():
            assert read_bytes(os.path.join(out, name)) == blob, (out, name)


def test_estimate_bad_input_exits_2(panels, tmp_path, capsys):
    _, factors_path = panels
    bad = str(tmp_path / "bad.csv")
    write_text_atomic(bad, "date,A,B\n2020-01-01,0.1\n")
    code = main(["estimate", "--returns", bad, "--factors", factors_path,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["estimate", "--returns", str(tmp_path / "absent.csv"),
                 "--factors", factors_path, "--out", str(tmp_path / "out")])
    assert code == 2


def test_estimate_degenerate_panel_exits_1(panels, tmp_path, capsys):
    _, factors_path = panels
    rng = np.random.default_rng(2)
    dates = [f"2020-02-{d + 1:02d}" for d in range(20)]
    col = rng.standard_normal(20)
    other = rng.standard_normal(20)
    lines = ["date,A,B,C"]
    for i, d in enumerate(dates):
        v = "%.17g" % col[i]
        lines.append(f"{d},{v},{v},{'%.17g' % other[i]}")  # A and B identical
    twin = str(tmp_path / "twin.csv")
    write_text_atomic(twin, "\n".join(lines) + "\n")
    factors20 = str(tmp_path / "factors20.csv")
    f = rng.standard_normal(20)
    write_text_atomic(
        factors20,
        "date,F1\n"
        + "\n".join(f"{d},{'%.17g' % f[i]}" for i, d in enumerate(dates))
        + "\n",
    )
    code = main(["estimate", "--returns", twin, "--factors", factors20,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_panels_only(tmp_path):
    out = str(tmp_path / "sim")
    result = run_cli(
        "simulate", "--out", out, "--p", 8, "--clusters", 2, "--periods", 30,
        "--reps", 2, "--skip-experiment",
    )
    assert result.returncode == 0, result.stderr
    for tag in ("r01", "r02"):
        for stem in ("returns", "factors", "true_partition"):
            assert os.path.exists(os.path.join(out, f"{stem}_{tag}.csv"))
    assert not os.path.exists(os.path.join(out, "experiment_results.csv"))


def test_simulate_experiment_deterministic_across_runs_and_threads(tmp_path):
    args = ["simulate", "--p", 12, "--clusters", 3, "--periods", 60, "--reps", 2]
    outs = []
    for tag, threads in (("a", None), ("b", None), ("c", 1), ("d", 2)):
        out = str(tmp_path / tag)
        result = run_cli(*args, "--out", out, threads=threads)
        assert result.returncode == 0, result.stderr
        outs.append(out)
    names = ["experiment_results.csv", "returns_r01.csv", "factors_r02.csv"]
    baseline = {n: read_bytes(os.path.join(outs[0], n)) for n in names}
    for out in outs[1:]:
        for name, blob in baseline.items():
            assert read_bytes(os.path.join(out, name)) == blob, (out, name)
    header = baseline["experiment_results.csv"].decode().splitlines()[0]
    assert header.startswith("T,p,K,mode,estimator,")


def test_simulate_config_file(tmp_path):
    cfg = str(tmp_path / "dgp.cfg")
    write_text_atomic(cfg, "p = 9\nn_clusters = 3\nn_periods = 40\nseed = 4\n")
    out = str(tmp_path / "sim")
    result = run_cli(
        "simulate", "--config", cfg, "--out", out, "--reps", 1, "--skip-experiment"
    )
    assert result.returncode == 0, result.stderr
    header = read_bytes(os.path.join(out, "returns_r01.csv")).decode().splitlines()[0]
    assert header == "date," + ",".join(f"S{i + 1:04d}" for i in range(9))


def test_simulate_config_seed_is_the_base_seed(tmp_path):
    panels = {}
    for tag, seed, extra in (("a", 4, []), ("b", 9, []), ("c", 9, ["--seed", "4"])):
        cfg = str(tmp_path / f"{tag}.cfg")
        write_text_atomic(cfg, f"p = 9\nn_clusters = 3\nn_periods = 40\nseed = {seed}\n")
        out = str(tmp_path / tag)
        code = main(["simulate", "--config", cfg, "--out", out, "--reps", "1",
                     "--skip-experiment", *extra])
        assert code == 0
        panels[tag] = read_bytes(os.path.join(out, "returns_r01.csv"))
    assert panels["a"] != panels["b"]
    assert panels["c"] == panels["a"]


def test_simulate_usage_errors_exit_2(tmp_path, capsys):
    cfg = str(tmp_path / "dgp.cfg")
    write_text_atomic(cfg, "p = 9\nn_clusters = 3\nn_periods = 40\n")
    result = run_cli(
        "simulate", "--config", cfg, "--p", 5, "--out", str(tmp_path / "x")
    )
    assert result.returncode == 2
    assert "not both" in result.stderr
    result = run_cli("simulate", "--p", 5, "--clusters", 2, "--out", str(tmp_path / "y"))
    assert result.returncode == 2
    assert "together" in result.stderr
    write_text_atomic(cfg, "p = 9\nn_clusters = 3\nn_periods = 40\nmystery = 1\n")
    result = run_cli(
        "simulate", "--config", cfg, "--out", str(tmp_path / "z"), "--reps", 1
    )
    assert result.returncode == 2
    assert "unknown key" in result.stderr
    # the experiment table cannot take the file's design
    write_text_atomic(cfg, "p = 9\nn_clusters = 3\nn_periods = 40\nz_scale = 6\n")
    out = tmp_path / "w"
    code = main(["simulate", "--config", cfg, "--out", str(out), "--reps", "1"])
    assert code == 2
    assert "--skip-experiment" in capsys.readouterr().err
    assert not out.exists()


def test_backtest_cli_outputs_and_determinism(panels, tmp_path):
    returns_path, factors_path = panels
    args = [
        "backtest", "--returns", returns_path, "--factors", factors_path,
        "--estimator", "sample", "--window", 40, "--rebalance", 10,
    ]
    outs = []
    for tag, threads in (("a", None), ("b", 1), ("c", 2)):
        out = str(tmp_path / tag)
        result = run_cli(*args, "--out", out, threads=threads)
        assert result.returncode == 0, result.stderr
        assert "information ratio:" in result.stdout
        outs.append(out)
    names = ["backtest_series.csv", "backtest_summary.csv", "backtest_weights.csv"]
    baseline = {n: read_bytes(os.path.join(outs[0], n)) for n in names}
    for out in outs[1:]:
        for name, blob in baseline.items():
            assert read_bytes(os.path.join(out, name)) == blob, (out, name)


def test_backtest_cluster_estimator_cli(panels, tmp_path):
    returns_path, factors_path = panels
    out = str(tmp_path / "bt")
    result = run_cli(
        "backtest", "--returns", returns_path, "--factors", factors_path,
        "--out", out, "--estimator", "cluster", "--window", 60, "--rebalance", 10,
    )
    assert result.returncode == 0, result.stderr
    summary = read_bytes(os.path.join(out, "backtest_summary.csv")).decode()
    assert summary.splitlines()[1].startswith("cluster,unconstrained,20,")


def test_backtest_without_history_exits_1(panels, tmp_path, capsys):
    returns_path, factors_path = panels
    code = main(["backtest", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(tmp_path / "bt")])
    # default window 504 exceeds the 80-row fixture
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_backtest_bad_flag_exits_2(panels, tmp_path, capsys):
    returns_path, factors_path = panels
    code = main(["backtest", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(tmp_path / "bt"), "--window", "1"])
    assert code == 2
    assert "train_window" in capsys.readouterr().err


def test_diagnose_cli(panels, tmp_path):
    returns_path, factors_path = panels
    out = str(tmp_path / "diag")
    result = run_cli(
        "diagnose", "--returns", returns_path, "--factors", factors_path,
        "--out", out, "--p-grid", "4,8,12", "--kappas", "0,0.5", "--seed", 3,
    )
    assert result.returncode == 0, result.stderr
    table = read_bytes(os.path.join(out, "sparsity.csv")).decode()
    lines = table.splitlines()
    assert lines[0] == "p,kappa,ratio"
    assert len(lines) == 7
    assert result.stdout.startswith("p,kappa,ratio")
    again = run_cli(
        "diagnose", "--returns", returns_path, "--factors", factors_path,
        "--out", str(tmp_path / "diag2"), "--p-grid", "4,8,12",
        "--kappas", "0,0.5", "--seed", 3,
    )
    assert read_bytes(os.path.join(str(tmp_path / "diag2"), "sparsity.csv")).decode() == table


def test_diagnose_bad_arguments_exit_2(panels, tmp_path, capsys):
    returns_path, factors_path = panels
    code = main(["diagnose", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(tmp_path / "d"), "--kappas", "0,zero"])
    assert code == 2
    code = main(["diagnose", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(tmp_path / "d"), "--p-grid", "4,99"])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_diagnose_bad_kappas_rejected_before_any_panel_is_read(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(["diagnose", "--returns", str(tmp_path / "missing.csv"),
                 "--factors", str(tmp_path / "missing_f.csv"), "--out", str(out),
                 "--kappas", "0,zero"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--kappas" in err and "missing" not in err
    assert not out.exists()


def test_simulate_zero_reps_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--p", "6", "--clusters", "2", "--periods", "30",
                 "--reps", "0", "--out", str(out)])
    assert code == 2
    assert "--reps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_no_subcommand_exits_2():
    result = run_cli()
    assert result.returncode == 2


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_threads_below_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", value, "diagnose", "--returns", "r.csv",
              "--factors", "f.csv", "--out", "out"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_estimate_out_of_range_cq_exits_2(panels, tmp_path, capsys):
    returns_path, factors_path = panels
    code = main(["estimate", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(tmp_path / "out"), "--cq", "1.5"])
    assert code == 2
    assert "c_q must be in (0, 1]" in capsys.readouterr().err


def test_estimate_out_naming_a_file_exits_2(panels, tmp_path, capsys):
    returns_path, factors_path = panels
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["estimate", "--returns", returns_path, "--factors", factors_path,
                 "--out", str(taken)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_rejects_out_naming_a_file_before_reading(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = str(tmp_path / "missing.csv")
    code = main(["estimate", "--returns", missing, "--factors", missing, "--out", str(taken)])
    assert code == 2
    assert str(taken) in capsys.readouterr().err


def test_estimate_rejects_cq_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code = main(["estimate", "--returns", missing, "--factors", missing,
                 "--out", str(tmp_path / "out"), "--cq", "1.5"])
    assert code == 2
    assert "c_q must be in (0, 1]" in capsys.readouterr().err
