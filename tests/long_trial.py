"""Time a learning trial and its replay as the trial grows, and print its fingerprints.

Run it from the repository root as

    PYTHONPATH=src python tests/long_trial.py [k ...]

For each k (default 1, 4, 16 and 64) it writes the bundled golden script with its
records repeated k times, runs the seed-7 trial of 5k rounds (15k tasks) on it with
the budgets raised out of reach, and replays the trial's log. It prints the time per
task of the trial and of the replay in ms, each the best of 3 runs in this process,
and the sha256 prefixes of `history.log`, `library.json` and `report.json`. The
replayed library must equal the trial's byte for byte. The script is pure
Python, so it times any tree put first on PYTHONPATH; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time

import yaml

from opslearn.resources import fixture_path
from opslearn.runner import TrialConfig, replay_history, run_trial

RUNS = 3
ARTIFACTS = ("history.log", "library.json", "report.json")


def write_repeated_script(path: str, k: int) -> None:
    """The golden script with its records repeated k times. Each repeat is its own copy
    of each record: `yaml.safe_dump` writes an object met twice as an alias, and the
    script reader refuses aliases."""
    with open(fixture_path("scripts/golden_trial.yaml")) as fh:
        records = yaml.safe_load(fh)["records"]
    with open(path, "w") as fh:
        yaml.safe_dump({"records": [dict(record) for _ in range(k) for record in records]}, fh, sort_keys=False)


def repeated_config(script: str, k: int, out_dir: str) -> TrialConfig:
    return TrialConfig(seed=7, rounds=5 * k, script=script, budget_usd=1e9, time_budget_min=1e6, out_dir=out_dir)


def fingerprints(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return digests


def _best(call) -> float:
    """The shortest of RUNS wall times of `call()`, in seconds."""
    times = []
    for _ in range(RUNS):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return min(times)


def measure(k: int, scratch: str) -> str:
    script = os.path.join(scratch, f"golden_x{k}.yaml")
    out_dir = os.path.join(scratch, f"trial_x{k}")
    write_repeated_script(script, k)
    config = repeated_config(script, k, out_dir)
    trial_s = _best(lambda: run_trial(config))
    replayed: list = []
    replay_s = _best(lambda: replayed.append(replay_history(os.path.join(out_dir, "history.log"), config.fixture_file(), 7)))
    replayed_path = os.path.join(scratch, f"replayed_x{k}.json")
    replayed[-1][0].save(replayed_path)
    with open(replayed_path, "rb") as a, open(os.path.join(out_dir, "library.json"), "rb") as b:
        identical = a.read() == b.read()
    tasks = 15 * k
    digests = " ".join(f"{name} {digest}" for name, digest in fingerprints(out_dir).items())
    return (f"k={k:<3} tasks={tasks:<5} trial {1000 * trial_s / tasks:6.2f} ms/task  "
            f"replay {1000 * replay_s / tasks:6.2f} ms/task  {digests}  replay identical: {identical}")


def main(argv: list[str]) -> None:
    ks = [int(word) for word in argv] or [1, 4, 16, 64]
    with tempfile.TemporaryDirectory() as scratch:
        for k in ks:
            print(measure(k, scratch), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
