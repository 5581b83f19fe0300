"""Run a factorcluster benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload backtest_long_only --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

The BLAS pools are pinned to one thread before NumPy loads. Each line
before the last describes the run (environment, every metric with its
unit and sample count, any failed check); the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. The exit code is nonzero when an output check
failed, or when ``src/factorcluster`` is missing. ``--workload all``
runs every workload in its own process and prints one table.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("estimate_wide", "backtest_unconstrained", "backtest_long_only", "montecarlo")
CHILD_TIMEOUT_S = 900


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="call time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny inputs for the harness tests"
    )
    return parser


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every end-to-end metric."""
    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        rows.append((name, result))
    if not args.trace and rows:
        names = [m for m in rows[0][1]["metrics"]] + ["error_rate"]
        print("\n" + f"{'workload':24s}" + "".join(f"{m:>16s}" for m in names))
        for name, result in rows:
            metrics = result["metrics"]
            cells = [f"{metrics[m]['value']:.4f} {metrics[m]['unit']}" for m in names[:-1]]
            cells.append(f"{result['failed']}/{result['attempted']}")
            print(f"{name:24s}" + "".join(f"{c:>16s}" for c in cells))
    print(json.dumps({name: result for name, result in rows}))
    return 0 if ok else 1


def pin_threads() -> str | None:
    """Import factorcluster from this checkout and pin the BLAS pools to one thread.

    Must run before NumPy is imported. Returns an error message when
    ``src/factorcluster`` cannot be loaded from this checkout.
    """
    sys.path.insert(0, SRC)
    try:
        import factorcluster
        from factorcluster.cli import _THREAD_VARS
    except ImportError as exc:
        return f"cannot import factorcluster from {SRC}: {exc}"
    if not os.path.abspath(factorcluster.__file__).startswith(SRC + os.sep):
        return f"factorcluster loaded from {factorcluster.__file__}, not {SRC}"
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return None


def main(argv=None) -> int:
    error = pin_threads()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    import harness  # loads NumPy, after the pools are pinned

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("\n".join(harness.describe(result)))
    print(f"  detail: {os.path.relpath(harness.write_detail(result))}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
