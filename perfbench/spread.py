"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the BENCHMARK.json command once per seed and prints for each metric
the median and the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
bound BENCHMARK.json sets.  Use it to show that the benchmark is steady
before trusting a comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *bench["command"][1:]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*command, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
            return 1
        line = []
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.6g} spread {(q3 - q1) / med:.4f} "
              f"bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
