"""Tests for the benchmark harness: metrics emitted, checks that fail.

    python3 -m pytest perfbench/tests -q

Every workload runs at its tiny size for a fraction of a second.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

assert run.pin_threads() is None

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from factorcluster import cli, portfolio  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name, trace=False, seed=0):
    return harness.run_workload(name, seed, 0.2, trace, "tiny")


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = tiny(name)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"]) and metric["value"] > 0
    assert len(result["detail"]["call_s"]) >= harness.MIN_CALLS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    result = tiny(name, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    m = result["all_metrics"]
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    # self times of all spans, the harness's own included, add up to the call time
    assert abs(result["detail"]["self_s_sum_minus_call_s"]) <= 1e-9
    assert m["clustering.scod_matrix.self_s"] > 0 and m["clustering.scod_matrix.triples"] > 0
    assert m["trace.errors"] == 0
    assert all(span[5] is not None for span in result["detail"]["spans"])


def test_layers_appear_only_on_their_workloads():
    calls = {name: tiny(name, trace=True)["all_metrics"] for name in run.WORKLOADS}
    assert calls["estimate_wide"]["panel.load_panel_csv.calls"] == 2
    assert calls["estimate_wide"]["panel.save_matrix_csv.mb_written"] > 0
    assert calls["backtest_long_only"]["portfolio.min_var_long_only.iters"] > 0
    assert calls["montecarlo"]["assembly.weighted_quadratic_norm.eigh_calls"] > 0
    for name in ("backtest_unconstrained", "backtest_long_only", "montecarlo"):
        assert calls[name]["panel.load_panel_csv.calls"] == 0
    for name in ("estimate_wide", "backtest_unconstrained", "backtest_long_only"):
        assert calls[name]["simulation.generate.calls"] == 0
    assert calls["backtest_unconstrained"]["portfolio.min_var_long_only.calls"] == 0


def test_tracer_restores_every_function():
    before = {
        (mod, attr): getattr(sys.modules[f"factorcluster.{mod}"], attr)
        for mod, attr in tracing.TARGETS
        if "." not in attr
    }
    eigh = np.linalg.eigh
    tracer = tracing.Tracer()
    tracer.install()
    assert portfolio.backtest is not before[("portfolio", "backtest")]
    tracer.uninstall()
    for (mod, attr), fn in before.items():
        assert getattr(sys.modules[f"factorcluster.{mod}"], attr) is fn
    assert portfolio.assemble is before[("assembly", "assemble")]
    assert np.linalg.eigh is eigh


def test_perturbed_weight_vector_counts_as_failed(monkeypatch):
    original = portfolio.backtest

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        weights = np.array(report.weights)
        weights[0] *= 1.01
        return dataclasses.replace(report, weights=weights)

    monkeypatch.setattr(portfolio, "backtest", perturbed)
    result = tiny("backtest_unconstrained")
    assert not result["correct"]
    assert result["failed"] >= len(result["detail"]["call_s"])
    assert "weights sum to" in " ".join(result["detail"]["problems"])


def test_perturbed_sigma_entry_counts_as_failed(monkeypatch):
    original = cli.main

    def perturbed(argv):
        rc = original(argv)
        path = os.path.join(argv[argv.index("--out") + 1], "sigma.csv")
        sigma = np.loadtxt(path, delimiter=",")
        sigma[0, 1] += 1e-3
        np.savetxt(path, sigma, fmt="%.17g", delimiter=",")
        return rc

    monkeypatch.setattr(cli, "main", perturbed)
    result = tiny("estimate_wide")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "sigma.csv differs" in " ".join(result["detail"]["problems"])


def test_command_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    argv = ["--workload", "montecarlo", "--seed", "0", "--seconds", "0.2", "--size", "tiny"]
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is True

    def fails(self, k, x, out):
        return ["recorded value differs"]

    monkeypatch.setattr(workloads.MonteCarlo, "check", fails)
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_golden_values_are_compared(monkeypatch):
    wl = workloads.MonteCarlo(0, "tiny", "")
    wl.setup()
    out = wl.call(wl.input(0))
    wl.golden = [wl.record(out)]
    assert wl.check(0, 0, out) == []
    wl.golden[0][2] *= 1.001
    assert wl.check(0, 0, out)


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "montecarlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    assert harness.tail([float(v) for v in range(1, 12)]) == (1.0, 100 / 11, 10)
    assert harness.tail([float(v) for v in range(20, 0, -1)]) == (10.0, 50.0, 10)


def test_failed_ops_counts_single_and_whole_call_problems():
    assert harness.failed_ops([], 30) == 0
    assert harness.failed_ops(["op 2: weights sum to 1.01", "op 5: negative weight"], 30) == 2
    assert harness.failed_ops(["op 2: x", "av = 1, recomputed 2"], 30) == 30
