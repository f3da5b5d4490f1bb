"""The three benchmark workloads: set-up, one op, and the op's checks.

Every workload is built from a seed and a scratch directory; building it
is the set-up (fixture parsing, generated inputs). `op()` runs one
operation and returns the problems its checks found, an empty list when
every output is correct. The workloads call opslearn only through module
and class attributes (`runner.run_trial`, `cluster.tick`, ...), so the
tracer's wrappers see every call.

`at_boundary` is true between whole units of work: after every trial op,
after every pair of eval columns (one per library), and after a whole
simulated day. A run stops only at a boundary, so every run measures the
same mix of ops.
"""

from __future__ import annotations

import copy
import hashlib
import os
import tempfile
from typing import Any

import yaml

from opslearn import cluster, runner
from opslearn.datalayer import SkillLibrary
from opslearn.resources import fixture_path
from opslearn.shell import ShellGateway

# sha256 prefix of a scripted trial's library.json. The library does not
# depend on the seed (checked on seeds 1, 7, 8, 13 and 42).
LIBRARY_SHA_PREFIX = "03b15a663ed6eb34"
TRIAL_TASKS = 15

# The designed skill gap: this task needs a query that only enters the
# library after round 1, so the round-1 column fails it 0/3.
GAP_TASK = "front-end-p95-latency"
EVAL_REPEATS = 3

STEP_SECONDS = 30.0
STEPS_PER_DAY = int(86400 / STEP_SECONDS)
CLONE_EVERY_STEPS = int(3600 / STEP_SECONDS)  # one curator-style validation per simulated hour
READS_PER_STEP = 4


def sha_prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Checks, kept as plain functions so the benchmark's tests can feed them
# tampered outputs.


def check_trial(
    exit_code: int,
    report: dict[str, Any],
    artifacts: dict[str, bytes],
    replayed_library: bytes,
    reference: dict[str, str] | None,
) -> list[str]:
    """One trial op: completed, 15/15 tasks, the known library, a
    byte-identical replay, and the same history/report as the run's
    first op (`reference`, None for the first op itself)."""
    problems = []
    if exit_code != 0:
        problems.append(f"trial exit code {exit_code}, expected 0")
    statuses = [t["status"] for t in report.get("tasks", [])]
    succeeded = statuses.count("succeeded")
    if len(statuses) != TRIAL_TASKS or succeeded != TRIAL_TASKS:
        problems.append(f"trial tasks {succeeded}/{len(statuses)} succeeded, expected {TRIAL_TASKS}/{TRIAL_TASKS}")
    library_sha = sha_prefix(artifacts["library.json"])
    if library_sha != LIBRARY_SHA_PREFIX:
        problems.append(f"library.json sha256 {library_sha}, expected {LIBRARY_SHA_PREFIX}")
    if replayed_library != artifacts["library.json"]:
        problems.append("replayed library.json differs from the trial's")
    if reference is not None:
        for name in ("history.log", "report.json"):
            digest = sha_prefix(artifacts[name])
            if digest != reference[name]:
                problems.append(f"{name} sha256 {digest} differs from the run's first op ({reference[name]})")
    return problems


def check_column(label: str, column: dict[str, Any]) -> list[str]:
    """One eval column: every cell 3/3, except the designed gap in the
    round-1 column, which is 0/3."""
    problems = []
    for task_id in column["tasks"]:
        expected = 0 if (label == "library_round_1" and task_id == GAP_TASK) else EVAL_REPEATS
        cell = list(column["cells"][task_id])
        if cell != [expected, EVAL_REPEATS]:
            problems.append(f"{label}: {task_id} scored {cell[0]}/{cell[1]}, expected {expected}/{EVAL_REPEATS}")
    return problems


def check_command(expected_code: int, line: str, result: Any) -> list[str]:
    """One corpus read: the corpus's exit code, and no state change."""
    problems = []
    if result.exit_code != expected_code:
        problems.append(f"{line!r}: exit code {result.exit_code}, expected {expected_code}")
    if result.state_mutated:
        problems.append(f"{line!r}: a read command changed the state digest")
    return problems


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    at_boundary = True

    def prepare(self) -> None:
        """Untimed work before the next op."""

    def op(self) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> list[str]:
        self.prepare()
        return self.op()

    def fingerprints(self) -> dict[str, str]:
        return {}


class Trial(Workload):
    """One op: a scripted learning trial (5 rounds x 3 tasks, golden
    script) into a fresh out dir, then a replay of its history.log."""

    name = "trial"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.fixture = fixture_path("sock_shop.yaml")
        self.reference: dict[str, str] | None = None

    def op(self) -> list[str]:
        with tempfile.TemporaryDirectory(dir=self.work_dir) as out:
            result = runner.run_trial(runner.TrialConfig(seed=self.seed, out_dir=out))
            artifacts = {
                name: read_bytes(os.path.join(out, name))
                for name in ("history.log", "library.json", "report.json")
            }
            library, _ = runner.replay_history(os.path.join(out, "history.log"), self.fixture, self.seed)
            replayed = os.path.join(out, "replayed.json")
            library.save(replayed)
            problems = check_trial(
                result.exit_code, result.report, artifacts, read_bytes(replayed), self.reference
            )
        if self.reference is None:
            self.reference = {name: sha_prefix(data) for name, data in artifacts.items()}
        return problems

    def fingerprints(self) -> dict[str, str]:
        return dict(self.reference or {})


class Eval(Workload):
    """One op: one evaluation column (5 suite tasks x 3 repeats), taking
    turns between the round-1 and the final library of a trial that the
    set-up runs."""

    name = "eval"

    def __init__(self, seed: int, work_dir: str):
        with tempfile.TemporaryDirectory(dir=work_dir) as out:
            runner.run_trial(runner.TrialConfig(seed=seed, out_dir=out))
            self.libraries = [
                (label, SkillLibrary.load(os.path.join(out, f"{label}.json")))
                for label in ("library_round_1", "library")
            ]
        self.suite = runner.load_suite(fixture_path("eval_suite.yaml"))
        self.config = runner.TrialConfig(seed=seed)
        self.count = 0

    @property
    def at_boundary(self) -> bool:
        return self.count % len(self.libraries) == 0

    def op(self) -> list[str]:
        label, library = self.libraries[self.count % len(self.libraries)]
        self.count += 1
        column = runner.run_evaluation(library, self.suite, self.config, repeats=EVAL_REPEATS)
        return check_column(label, column)

    def warm_up(self) -> list[str]:
        problems = self.op()
        self.count = 0
        return problems


def load_corpus() -> list[tuple[int, str]]:
    """(expected exit code, command) for every read command of the corpus."""
    corpus = []
    with open(fixture_path("command_corpus.txt")) as fh:
        for raw in fh:
            code, _, line = raw.rstrip("\n").partition("\t")
            if line and not line.startswith("report_result("):
                corpus.append((int(code), line))
    return corpus


class LongHorizon(Workload):
    """One op: `tick(state, 30)` plus the next 4 corpus reads through the
    shell; once per simulated hour also a `clone` and one read on the
    clone. A day is 2,880 ops on a fresh state; runs are whole days."""

    name = "long_horizon"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        with open(fixture_path("sock_shop.yaml")) as fh:
            self.topology = yaml.safe_load(fh)
        self.corpus = load_corpus()
        self.step = 0
        self.day_digest: str | None = None

    @property
    def at_boundary(self) -> bool:
        return self.step == 0

    def prepare(self) -> None:
        if self.step != 0:
            return
        self.state = cluster.load_topology(copy.deepcopy(self.topology), seed=self.seed)
        self.shell = ShellGateway(self.state, components=runner.component_names(self.state))
        self.digest_at_start = cluster.state_digest(self.state)
        self.stdout_hash = hashlib.sha256()
        self.cursor = 0

    def op(self) -> list[str]:
        self.step += 1
        cluster.tick(self.state, STEP_SECONDS)
        problems = []
        for _ in range(READS_PER_STEP):
            expected, line = self.corpus[self.cursor % len(self.corpus)]
            self.cursor += 1
            result = self.shell.execute(line)
            problems += check_command(expected, line, result)
            self.stdout_hash.update(f"{result.exit_code}\n{result.stdout}\n{result.stderr}\n".encode())
        if self.step % CLONE_EVERY_STEPS == 0:
            shadow = ShellGateway(cluster.clone(self.state), components=self.shell.components)
            on_clone = shadow.execute(line)
            if (on_clone.exit_code, on_clone.stdout, on_clone.stderr) != (
                result.exit_code,
                result.stdout,
                result.stderr,
            ):
                problems.append(f"{line!r}: output on the clone differs from the live state")
        if self.step == STEPS_PER_DAY:
            problems += self._end_day()
        return problems

    def _end_day(self) -> list[str]:
        self.step = 0
        problems = []
        if cluster.state_digest(self.state) != self.digest_at_start:
            problems.append("state digest changed over a day of read commands")
        digest = self.stdout_hash.hexdigest()[:16]
        if self.day_digest is None:
            self.day_digest = digest
        elif digest != self.day_digest:
            problems.append(f"day stdout digest {digest} differs from the run's first day ({self.day_digest})")
        return problems

    def warm_up(self) -> list[str]:
        self.prepare()
        problems = self.op()
        self.step = 0
        return problems

    def fingerprints(self) -> dict[str, str]:
        return {"day_stdout": self.day_digest or ""}


WORKLOADS = {w.name: w for w in (Trial, Eval, LongHorizon)}
