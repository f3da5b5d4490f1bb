"""opslearn benchmark: one workload, measured as a closed loop.

    python3 perfbench/run.py --workload trial --seed 7 --seconds 50 --trace 0

Run from the root of a source checkout; opslearn is imported from its
`src/` directory, never from an installed copy. One caller sends the next
op only after the previous one completed, in one process and one thread.

With `--trace 0` the run prints the end-to-end metrics: set-up time (the
median over several fresh processes that each import opslearn, build the
inputs and run one untimed op), op latency median and tail, ops per
second, peak RSS and the share of ops that failed their checks. With
`--trace 1` it alternates untraced and traced blocks of ops and prints
per-layer calls and self time per op, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `metrics` holds the ones
that BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# BENCHMARK.json names the metrics the result line reports, with their
# units and bounds; this table only says what each end-to-end one means.
END_TO_END = {
    "setup_s": "median set-up, fresh process to the end of one untimed op",
    "op_ms_p50": "median host wall time of one op",
    "ops_per_s": "ops completed / wall time of the timed phase",
    "peak_rss_mb": "ru_maxrss of this process",
}


def import_opslearn() -> None:
    """Put the checkout's src/ first on the path and import opslearn from it."""
    if not os.path.isfile(os.path.join(SRC, "opslearn", "__init__.py")):
        raise SystemExit(f"error: no opslearn sources under {SRC}")
    sys.path.insert(0, SRC)
    import opslearn

    if not os.path.abspath(opslearn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: opslearn was imported from {opslearn.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Measurement


class Loop:
    """Closed-loop op timer. Ops are grouped in blocks, one workload unit
    each (see `Workload.at_boundary`); the run ends at the block boundary
    nearest to `seconds`. With a tracer, blocks alternate untraced and
    traced, so both halves see the same host drift, and the run ends after
    an equal number of each."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.seconds: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s = 0.0

    def run(self, seconds: float, max_ops: int | None = None) -> "Loop":
        workload, tracer = self.workload, self.tracer
        tracing = False
        blocks = 0
        started = block_started = time.perf_counter()
        while max_ops is None or len(self.seconds) < max_ops:
            workload.prepare()
            if tracing:
                tracer.begin_op(len(self.seconds))
            start = time.perf_counter()
            try:
                problems = workload.op()
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                where = traceback.extract_tb(exc.__traceback__)[-1]
                problems = [f"op raised {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"]
            elapsed = time.perf_counter() - start
            if tracing:
                tracer.end_op(elapsed)
            self.seconds.append(elapsed)
            self.traced.append(tracing)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
            if not workload.at_boundary:
                continue
            now = time.perf_counter()
            block, block_started = now - block_started, now
            blocks += 1
            balanced = tracer is None or blocks % 2 == 0
            if balanced and now - started + block / 2 >= seconds:
                break
            if tracer is not None:
                tracing = blocks % 2 == 1
                (tracer.install if tracing else tracer.uninstall)()
        if tracer is not None:
            tracer.uninstall()
        self.wall_s = time.perf_counter() - started
        return self

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) of the highest nearest-rank
    percentile that leaves at least 10 ops beyond it."""
    ordered = sorted(seconds)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def time_setup(workload: str, seed: int) -> tuple[float, list[str]]:
    """Seconds from starting a fresh process until its warm-up op is done,
    and the problems that op's checks found."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, json.loads(line)["problems"]


# ---------------------------------------------------------------------------
# Environment and fingerprints


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = os.path.join(ROOT, ".git", name)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def environment() -> dict:
    import yaml

    return {
        "commit": git_commit(),
        "src_lines": src_lines(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "libyaml": bool(yaml.__with_libyaml__),
    }


def seed7_fingerprints(work_dir: str) -> dict[str, str]:
    """sha256 prefixes of the seed-7 scripted trial's artifacts. history.log
    is recorded, not gated: its schema may change."""
    from opslearn import runner
    from workloads import read_bytes, sha_prefix

    with tempfile.TemporaryDirectory(dir=work_dir) as out:
        runner.run_trial(runner.TrialConfig(seed=7, out_dir=out))
        return {
            name: sha_prefix(read_bytes(os.path.join(out, name)))
            for name in ("history.log", "library.json", "report.json")
        }


# ---------------------------------------------------------------------------
# Entry points


def probe(args: argparse.Namespace) -> int:
    import_opslearn()
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        problems = workload.warm_up()
    print(json.dumps({"problems": problems}), flush=True)
    return 0


def measure(args: argparse.Namespace, work_dir: str) -> tuple[dict, dict[str, tuple[float, str]]]:
    """Set up, warm up and run the loop; returns the record and every
    metric the run measured, as name -> (value, unit)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    problems = workload.warm_up()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    loop = Loop(workload, tracer).run(args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 thread; next op sent when the previous completes",
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_ratio": loop.fail_ratio,
        "problems": (problems + loop.problems)[:10],
        "warm_up_ok": not problems,
    }
    if tracer is None:
        value, percentile, beyond = tail(loop.seconds)
        record["tail"] = {"percentile": round(percentile, 2), "ops_beyond": beyond, "ops": loop.attempted}
        deciles = statistics.quantiles(loop.seconds, n=10)
        record["op_ms_deciles"] = [round(q * 1000, 4) for q in deciles]
        metrics = {
            "op_ms_p50": (statistics.median(loop.seconds) * 1000, "ms"),
            "op_ms_tail": (value * 1000, "ms"),
            "ops_per_s": (loop.attempted / loop.wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = [s for s, t in zip(loop.seconds, loop.traced) if t]
        untraced = [s for s, t in zip(loop.seconds, loop.traced) if not t]
        record["traced_ops"] = len(traced)
        record["untraced_ops"] = len(untraced)
        record["waits"] = "none: one process, one thread, no queue between layers"
        layers = tracer.summary()
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = {name: (value, per_layer_unit(name)) for name, value in layers.items()}
    seed7 = seed7_fingerprints(work_dir)
    record["fingerprints"] = {**workload.fingerprints(), **{f"seed7.{k}": v for k, v in seed7.items()}}
    return record, metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("prompt_tokens"):
        return "tokens"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trial", "eval", "long_horizon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="internal: time one set-up in this process and exit")
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    import_opslearn()
    setups = [] if args.trace else [time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_problems = [p for _, problems in setups for p in problems]
    os.makedirs(WORK, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
            record, metrics = measure(args, work_dir)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    record["environment"] = environment()
    if setups:
        record["setup_runs_s"] = [s for s, _ in setups]
        record["problems"] = setup_problems[:3] + record["problems"]
        metrics = {"setup_s": (statistics.median(record["setup_runs_s"]), "s"), **metrics}

    print(f"opslearn benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key in ("environment", "fingerprints"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    print(f"loop: {record['loop']}; {record['attempted']} ops")
    for name, (value, unit) in metrics.items():
        note = END_TO_END.get(name, "")
        if name == "op_ms_tail":
            tail_of = record["tail"]
            note = f"p{tail_of['percentile']}, {tail_of['ops_beyond']} of {tail_of['ops']} ops beyond"
        print(f"  {name:<58} {value:>14.4f} {unit:<7} {note}")
    print(f"  {'fail_ratio':<58} {record['fail_ratio']:>14.4f} {'-':<7} ops that failed a check / ops attempted")
    if args.trace:
        print(f"  waits: {record['waits']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": record["failed"] == 0 and record["warm_up_ok"] and not setup_problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {spec["name"]: {"value": metrics[spec["name"]][0], "unit": spec["unit"]} for spec in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
