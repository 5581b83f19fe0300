"""Closed-loop harness: repeated set-up, timed calls, output checks, metrics.

One process runs one workload with one caller. One set-up is
measured before the timed loop and ``SETUP_REPS - 1`` after it, so
that the median straddles the machine's slow and fast phases; a
set-up is a fresh interpreter importing the program, then input
generation, CSV writing and a warm-up call. The timed loop calls the
program until ``seconds`` of call time have passed and at least
``MIN_CALLS`` calls are done; each output is checked after its timer
stops.

A traced run alternates untraced and traced calls on the same inputs,
so it measures its own overhead, and reports per-layer metrics only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import tracing
import workloads
from factorcluster import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPS = 3
MIN_CALLS = 11  # call_s.tail needs at least ten calls beyond it
COUNT_CALLS = 5  # traced calls whose counts are reported; always reached
IMPORTS = "import numpy, scipy, factorcluster.cli, factorcluster.portfolio, factorcluster.simulation"

# (name, unit) of what the last output line carries; BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_s.p50", "s"),
    ("call_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
# Times only for layers every workload runs, so none of them reads 0;
# the other layers' times are in the detail file and the printed table.
PER_LAYER = (
    ("trace.call_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.errors", "count"),
    ("factors.fit_loadings.self_s", "s"),
    ("clustering.residual_cov.self_s", "s"),
    ("clustering.scod_matrix.self_s", "s"),
    ("clustering.select_threshold.self_s", "s"),
    ("clustering.cluster.self_s", "s"),
    ("assembly.assemble.self_s", "s"),
    ("clustering.scod_matrix.triples", "count"),
    ("clustering.scod_matrix.triples_per_s", "1/s"),
    ("clustering.scod_matrix.peak_alloc_mb", "MB"),
    ("clustering.cluster.merges", "count"),
    ("assembly.assemble.peak_alloc_mb", "MB"),
    ("assembly.weighted_quadratic_norm.eigh_calls", "count"),
    ("portfolio.min_var_long_only.iters", "count"),
    ("portfolio.min_var_long_only.support", "count"),
    ("portfolio.min_var_long_only.fastpath_ratio", "share"),
    ("panel.save_matrix_csv.mb_written", "MB"),
) + tuple((name + ".calls", "count") for name in tracing.SPAN_NAMES)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls beyond it: (value, percentile, beyond)."""
    ordered = sorted(durations)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def failed_ops(problems: list[str], n_ops: int) -> int:
    """Operations a check failed: ``op <j>:`` problems fail one, others fail all."""
    single = set()
    for problem in problems:
        head = problem.split(":", 1)[0].split()
        if len(head) == 2 and head[0] == "op" and head[1].isdigit():
            single.add(int(head[1]))
        else:
            return n_ops
    return min(len(single), n_ops)


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "factorcluster")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    """Where a result was measured: commit, machine and library builds."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in cli._THREAD_VARS},
    }


def set_up(wl) -> float:
    """Seconds from a fresh interpreter's start through imports, plus this
    process's input generation, CSV writing and one warm-up call."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, cwd=ROOT, check=True)
    wl.setup()
    try:
        wl.call(wl.input(0))
    except Exception:  # the timed calls count the failure
        pass
    return perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return its metrics, counts and details."""
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[name](seed, size, workdir)
        setups = [set_up(wl)]
        calls, tracer, problems = _timed_loop(wl, seconds, trace)
        alloc_record = _alloc_probe(wl) if trace else None
        setups += [set_up(wl) for _ in range(SETUP_REPS - 1)]
        return _result(wl, seconds, calls, tracer, problems, setups, alloc_record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _alloc_probe(wl) -> dict:
    """One untimed traced call on input 0 with tracemalloc around the allocation spans."""
    probe = tracing.Tracer(measure_alloc=True)
    x = wl.input(0)
    probe.install()
    try:
        probe.begin_call(-1, perf_counter())
        try:
            wl.call(x)
        except Exception:  # the timed calls count the failure
            pass
        return probe.end_call(perf_counter())
    finally:
        probe.uninstall()


def _timed_loop(wl, seconds, trace):
    tracer = tracing.Tracer() if trace else None
    calls = []  # (seconds, ops, failed ops, traced)
    problems_seen: list[str] = []
    timed = 0.0
    i = 0
    while timed < seconds or len(calls) < MIN_CALLS:
        traced = trace and i % 2 == 1
        k = (i // 2 if trace else i) % wl.inputs
        x = wl.input(k)
        if traced:
            tracer.install()
        start = perf_counter()
        if traced:
            tracer.begin_call(i, start)
        try:
            out, error = wl.call(x), None
        except Exception as exc:
            out, error = None, exc
        end = perf_counter()
        if traced:
            tracer.end_call(end)
            tracer.uninstall()
        timed += end - start
        n_ops = wl.ops
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                problems = wl.check(k, x, out)
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        bad = failed_ops(problems, n_ops)
        problems_seen += [f"call {i} (input {k}): {p}" for p in problems]
        calls.append((end - start, n_ops, bad, traced))
        i += 1
    return calls, tracer, problems_seen


def _result(wl, seconds, calls, tracer, problems_seen, setups, alloc_record) -> dict:
    trace = tracer is not None
    timed = sum(c[0] for c in calls)
    attempted = sum(c[1] for c in calls)
    failed = sum(c[2] for c in calls)
    durations = [c[0] for c in calls]
    value, pct, beyond = tail(durations)
    detail = {
        "environment": environment(),
        "workload": wl.name,
        "why": wl.why,
        "operation": wl.op,
        "loop": "closed, one caller",
        "seed": wl.seed,
        "size": wl.size,
        "seconds": seconds,
        "trace": bool(trace),
        "golden": "compared" if wl.golden is not None else "no record for this seed and size",
        "setup_runs_s": setups,
        "call_s": durations,
        "error_rate": failed / attempted,
        "call_s.tail_percentile": pct,
        "call_s.tail_beyond": beyond,
        "problems": problems_seen[:50],
    }
    if trace:
        metrics = tracing.summarize(tracer.records, COUNT_CALLS, alloc_record)

        def rate(flag):
            part = [c for c in calls if c[3] == flag]
            return sum(c[1] - c[2] for c in part) / sum(c[0] for c in part)

        traced_rate, untraced_rate = rate(True), rate(False)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        detail["self_s_sum_minus_call_s"] = self_sum - metrics["trace.call_s"]
        detail["spans"] = tracer.spans
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / timed,
            "call_s.p50": statistics.median(durations),
            "call_s.tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "all_metrics": metrics,
        "detail": detail,
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines for one result, every metric with its unit."""
    d = result["detail"]
    env = d["environment"]
    blas = env["blas"]
    lines = [
        f"workload {d['workload']}  seed {d['seed']}  size {d['size']}  "
        f"seconds {d['seconds']}  trace {int(d['trace'])}  loop {d['loop']}",
        f"  commit {env['commit']}  src sha256 {env['src_sha256'][:16]}  nproc {env['nproc']}  "
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"blas {blas.get('name')} {blas.get('version')}  blas threads 1",
        f"  operation: {d['operation']}",
        f"  golden values: {d['golden']}",
    ]
    m = result["all_metrics"]
    n = len(d["call_s"])
    if not d["trace"]:
        lines += [
            f"  setup_s      {m['setup_s']:.4f} s  (median of {len(d['setup_runs_s'])} set-ups)",
            f"  ops_per_s    {m['ops_per_s']:.4f} 1/s  ({result['attempted']} ops in {n} calls)",
            f"  call_s.min   {min(d['call_s']):.4f} s  (not gated; steadiest where every input costs the same)",
            f"  call_s.p50   {m['call_s.p50']:.4f} s  (n={n})",
            f"  call_s.tail  {m['call_s.tail']:.4f} s  (p{d['call_s.tail_percentile']:.1f}, "
            f"{d['call_s.tail_beyond']} calls beyond, n={n})",
            f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB",
            f"  error_rate   {d['error_rate']:.4g}  ({result['failed']}/{result['attempted']} ops)",
        ]
    else:
        call_s = m["trace.call_s"]
        lines.append(
            f"  traced call {call_s:.4f} s; self times sum to it within "
            f"{d['self_s_sum_minus_call_s']:.2e} s; ops/s traced {m['trace.ops_per_s']:.4f} "
            f"untraced {m['trace.untraced_ops_per_s']:.4f} (overhead {100 * m['trace.overhead_share']:.1f}%)"
        )
        lines.append(f"  {'span':44s} {'self_s/call':>11s} {'share':>7s} {'calls':>8s} {'errors':>6s}")
        for name in (tracing.ROOT_SPAN,) + tracing.SPAN_NAMES:
            calls = m.get(name + ".calls", 1.0)
            if name != tracing.ROOT_SPAN and not calls:
                continue
            self_s = m[name + ".self_s"]
            lines.append(
                f"  {name:44s} {self_s:11.5f} {100 * self_s / call_s:6.2f}% "
                f"{calls:8.1f} {int(m.get(name + '.errors', 0)):6d}"
            )
        lines.append("  counts per traced call (computed from shapes and file sizes; ignore cache misses):")
        for key in (
            "clustering.scod_matrix.triples",
            "clustering.scod_matrix.triples_per_s",
            "clustering.scod_matrix.peak_alloc_mb",
            "clustering.cluster.merges",
            "assembly.assemble.peak_alloc_mb",
            "assembly.weighted_quadratic_norm.eigh_calls",
            "portfolio.min_var_long_only.iters",
            "portfolio.min_var_long_only.iters_per_s",
            "portfolio.min_var_long_only.support",
            "portfolio.min_var_long_only.fastpath_ratio",
            "panel.save_matrix_csv.mb_written",
            "panel.save_matrix_csv.mb_per_s",
        ):
            lines.append(f"    {key:52s} {m[key]:.6g}")
    for problem in d["problems"][:5]:
        lines.append(f"  FAILED {problem}")
    return lines


def write_detail(result: dict) -> str:
    """Write the full result, spans included, under perfbench/out/."""
    d = result["detail"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{d['workload']}-seed{d['seed']}-trace{int(d['trace'])}-{d['size']}.json"
    )
    body = {k: result[k] for k in ("correct", "attempted", "failed", "all_metrics", "detail")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
    return path
