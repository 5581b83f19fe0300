"""Record the values that the output checks compare against.

    python3 perfbench/record_golden.py 0-11 1009

For each seed, runs every input of the workloads that keep golden
values (the backtests and the Monte Carlo replication) once at full
size with one BLAS thread, checks it, and stores ``Workload.record``
of each output, to 10 significant digits, in ``perfbench/golden.json``.
Entries for other seeds are kept. Rerun only when a change is meant to
alter these values, and say so in the change.
"""

import json
import sys

import run


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def write_golden(golden: dict, path: str) -> None:
    entries = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


def main(argv: list[str]) -> int:
    error = run.pin_threads()
    if error:
        print(f"record_golden: {error}", file=sys.stderr)
        return 2
    import workloads

    golden = workloads.load_golden()
    for name, cls in workloads.WORKLOADS.items():
        if cls.record is workloads.Workload.record:
            continue
        for seed in parse_seeds(argv):
            wl = cls(seed, "full", workdir="")
            wl.golden = None
            wl.setup()
            values = []
            for k in range(wl.inputs):
                x = wl.input(k)
                out = wl.call(x)
                problems = wl.check(k, x, out)
                if problems:
                    print(f"{name} seed {seed} input {k}: {problems}", file=sys.stderr)
                    return 1
                values.append([float("%.10g" % v) for v in wl.record(out)])
            golden[workloads.golden_key(name, seed)] = values
            write_golden(golden, workloads.GOLDEN_PATH)
            print(f"{name} seed {seed}: {len(values)} inputs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
