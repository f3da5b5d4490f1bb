"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --workloads eval

Runs `run.py` once per (seed, workload), one process at a time and
interleaving the workloads, then prints for every end-to-end metric the
median, the quartiles and the spread, which is (q3 - q1) / median as
`statistics.quantiles(values, n=4)` gives the quartiles. A spread is
marked `ok` when it is below a third of the metric's bound in
BENCHMARK.json; set-up time is reported but not held to that.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    all_correct = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            summary = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"seed={seed} {workload}: correct={result['correct']} ops={result['attempted']} {summary}", flush=True)

    print(f"\n{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    steady = True
    for workload in workloads:
        for spec in bench["end_to_end"]:
            series = values[workload][spec["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = spec["name"] == "setup_s" or spread < spec["bound"] / 3
            steady &= ok
            print(
                f"{workload:<13} {spec['name']:<12} {median:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                f"{spread:>7.3f} {spec['bound']:>6} {'ok' if ok else 'WIDE'}"
            )
    print(f"\nall runs correct: {all_correct}; all spreads below a third of their bound: {steady}")
    return 0 if all_correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
