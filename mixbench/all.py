"""Run every workload once and print its metrics by name and unit.

    python3 mixbench/all.py [--seed N] [--trace 0|1]

Run from the repository root.  Each workload runs in a fresh interpreter
(``run.py``) for the ``run_seconds`` of ``BENCHMARK.json``; the table shows
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics, each
layer's share of self time and the three functions with the most self time,
plus ``error_rate`` (failed jobs over attempted jobs) for every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from jobs import WORKLOADS
from run import HERE, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run failed with exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload} (seed {args.seed}, {seconds} s, trace {args.trace})")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':42s} {rate:14.4f} fraction "
              f"({result['failed']}/{result['attempted']} jobs)")
        if args.trace:
            report_line = next(line for line in proc.stdout.splitlines()
                               if line.startswith("# report: "))
            report = json.loads((ROOT / report_line.removeprefix("# report: ")).read_text())
            total = sum(report["layer_self_ms"].values())
            for layer, ms in report["layer_self_ms"].items():
                print(f"  layer {layer:36s} {100 * ms / total:13.1f}% of traced self time")
            for span, ms in list(report["span_self_ms"].items())[:3]:
                print(f"  span  {span:36s} {100 * ms / total:13.1f}% of traced self time")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
