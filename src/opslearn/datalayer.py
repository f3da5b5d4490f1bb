"""Shared state between the cluster and the management modules.

Three pieces: the append-only interaction history, in which a manager
task-close record ends each task; the running-state snapshot summarizing
the cluster for prompts; and the persistent skill library. History and
library are the replay backbone: a finished trial's history log plus the
bundled fixture is enough to rebuild the library byte for byte.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from . import promql
from .cluster import ClusterState, Deployment
from .resources import conform, finite_number, maybe, number, one_of, parse_json, parse_json_lines, read_input

OBSERVATION = "observation"
ACTION = "action"

SKILL_KINDS = ("Command", "Configuration", "Reflection")
PAYLOAD_KINDS = ("prompt", "completion", "command", "execution_result", "feedback", "report")
FEEDBACK_KINDS = ("environment", "peer", "hierarchical")

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_CLOSE_RE = re.compile(r"task=(\S+) status=(\S+) description=(.*)", re.S)
_CITE_RE = re.compile(r"#(\d+)")

# A record read from outside goes through one schema (`resources.conform`) whose
# keys are the record's fields: a reply block, whose values are all text, or a
# JSON line or entry, whose numbers must be JSON numbers (`"3"` is no id).


@dataclass
class Task:
    id: str
    round: int
    kind: str  # observation | action
    difficulty: int  # at least 1
    description: str
    status: str = "pending"  # pending | running | succeeded | failed
    stage: int = 1  # exploration stage tag, 1..4


_TASK_KIND = one_of(OBSERVATION, ACTION)
# A `Task <n>:` block of a curriculum reply.
TASK_BLOCK = {
    "description": str,
    "kind": lambda text: _TASK_KIND(text.lower()),
    "stage": number(int, 1, 4),
    "difficulty": number(int, 1),
}


@dataclass
class InteractionRecord:
    id: int
    task_id: str
    actor: str  # manager | agent name | environment
    payload: str
    payload_kind: str  # one of PAYLOAD_KINDS
    feedback_kind: str | None = None  # one of FEEDBACK_KINDS
    timestamp: float = 0.0

    def to_doc(self) -> dict[str, Any]:
        return dict(vars(self))  # every field is a scalar, so a shallow copy is a full one


def _finite(value: Any) -> float:
    return finite_number(float, conform(float, value))


HISTORY_SCHEMA = 1
_HEADER = {"history_schema": one_of(HISTORY_SCHEMA)}
# One `history.log` line after the header.
_RECORD = {
    "id": int,
    "task_id": str,
    "actor": str,
    "payload": str,
    "payload_kind": one_of(*PAYLOAD_KINDS),
    "feedback_kind": (maybe(one_of(*FEEDBACK_KINDS)), None),
    "timestamp": (_finite, 0.0),
}

_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)  # one encoder for every history line


class History:
    """Append-only, totally ordered interaction log, grouped by task.

    The history stamps each record itself: with the task opened by
    `open_task` (empty between tasks) and the simulation time `clock()`.
    `tasks` maps each task id to its records in log order, ids in the order
    of their first record (`""` between tasks); `add` and `load` fill it.
    """

    def __init__(self, clock: Callable[[], float] = lambda: 0.0) -> None:
        self.records: list[InteractionRecord] = []
        self.tasks: dict[str, list[InteractionRecord]] = {}
        self.clock = clock
        self.task_id = ""

    def _append(self, record: InteractionRecord) -> None:
        self.records.append(record)
        self.tasks.setdefault(record.task_id, []).append(record)

    def open_task(self, task_id: str) -> None:
        self.task_id = task_id

    def add(
        self, actor: str, payload: str, payload_kind: str, feedback_kind: str | None = None
    ) -> InteractionRecord:
        _check_feedback_kind(payload_kind, feedback_kind)
        record = InteractionRecord(
            id=len(self.records) + 1,
            task_id=self.task_id,
            actor=actor,
            payload=payload,
            payload_kind=payload_kind,
            feedback_kind=feedback_kind,
            timestamp=self.clock(),
        )
        self._append(record)
        return record

    def close_task(self, task: Task) -> InteractionRecord:
        """The manager's report that ends a task; read back by task_close."""
        payload = f"task={task.id} status={task.status} description={task.description}"
        self.task_id = task.id
        record = self.add("manager", payload, "report")
        self.task_id = ""
        return record

    def for_task(self, task_id: str) -> list[InteractionRecord]:
        """The task's records in log order, as a new list: changing it leaves the history alone."""
        return list(self.tasks.get(task_id, ()))

    def dump(self, path: str) -> None:
        lines = [json.dumps({"history_schema": HISTORY_SCHEMA})]
        lines.extend(_RECORD_ENCODER.encode(record.to_doc()) for record in self.records)
        lines.append("")  # the file ends with a newline
        with open(path, "w") as fh:
            fh.write("\n".join(lines))

    @classmethod
    def load(cls, path: str) -> "History":
        """The history a `dump` wrote; a refusal names the first line that is not JSON
        or does not fit its schema, as in `line 3.payload: expected str, got 5`."""
        history = cls()
        for doc in read_input("history", path, _history_lines, parse=parse_json_lines):
            history._append(InteractionRecord(**doc))
        return history


def _history_lines(lines: dict[int, Any]) -> list[dict[str, Any]]:
    """The record documents of a history's lines, once line 1 holds the header."""
    conform(_HEADER, lines.pop(1, None), "line 1")
    return [conform(_record, doc, f"line {number}") for number, doc in lines.items()]


def _record(doc: Any) -> dict[str, Any]:
    record = conform(_RECORD, doc)
    _check_feedback_kind(record["payload_kind"], record["feedback_kind"])
    return record


def _check_feedback_kind(payload_kind: str, feedback_kind: str | None) -> None:
    if (payload_kind == "feedback") != (feedback_kind is not None):
        raise ValueError("feedback_kind is present exactly when payload_kind is feedback")


def task_close(record: InteractionRecord) -> tuple[str, str, str] | None:
    """(task id, status, description) of a task-close record, else None."""
    if record.payload_kind != "report" or record.actor != "manager":
        return None
    match = _CLOSE_RE.match(record.payload)
    return match.groups() if match else None


def json_text(doc: Any) -> str:
    """The layout of every JSON artifact: keys sorted, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Skill library


@dataclass
class SkillEntry:
    id: int
    kind: str  # Command | Configuration | Reflection
    body: str
    description: str
    source_task: str
    validated: bool = False
    created_round: int = 0
    trial: int = 1
    subject: str | None = None  # Configuration conflict key, e.g. "catalogue/image"
    cites: list[int] = field(default_factory=list)  # trajectory record indexes
    conflict_group: str | None = None

    def to_doc(self) -> dict[str, Any]:
        return {**vars(self), "cites": list(self.cites)}  # the doc must not alias `cites`


_SKILL_KIND = one_of(*SKILL_KINDS)
# A `Skill <n>:` block of a curator reply; `cites` lists the `#<k>` records its text names.
# The grammar leaves no field empty, so a stripped body is never empty.
SKILL_BLOCK = {
    "kind": _SKILL_KIND,
    "body": str.strip,
    "description": (str, ""),
    "subject": (str, None),
    "cites": (lambda text: [int(k) for k in _CITE_RE.findall(text)], ""),
}
# One entry of `library.json`.
_SKILL_ENTRY = {
    "id": int,
    "kind": _SKILL_KIND,
    "body": str,
    "description": str,
    "source_task": str,
    "validated": (bool, False),
    "created_round": (int, 0),
    "trial": (int, 1),
    "subject": (maybe(str), None),
    "cites": ([int], []),
    "conflict_group": (maybe(str), None),
}
_LIBRARY = {"library_schema": one_of(1), "skills": [_SKILL_ENTRY]}


@functools.lru_cache(maxsize=1024)  # pure, and each query ranks the same entry texts again
def _tokens(text: str) -> frozenset[str]:
    return frozenset(_TOKEN_RE.findall(text.lower()))


_KIND_PRIORITY = {"Command": 0, "Configuration": 1, "Reflection": 2}


class SkillLibrary:
    def __init__(self) -> None:
        self.entries: list[SkillEntry] = []
        self._next_id = 1

    def store_skill(self, entry: SkillEntry) -> str:
        """Returns 'stored', 'merged' (exact duplicate), or 'conflicted'."""
        if not entry.validated:
            raise ValueError("only validated entries may enter the library")
        for existing in self.entries:
            if existing.kind == entry.kind and existing.body == entry.body:
                return "merged"
        if entry.id == 0:
            entry.id = self._next_id
        self._next_id = max(self._next_id, entry.id) + 1

        outcome = "stored"
        if entry.kind == "Configuration" and entry.subject:
            rivals = [
                e
                for e in self.entries
                if e.kind == "Configuration" and e.subject == entry.subject and e.body != entry.body
            ]
            if rivals:
                group = f"conflict:{entry.subject}"
                entry.conflict_group = group
                for rival in rivals:
                    rival.conflict_group = group
                outcome = "conflicted"
        self.entries.append(entry)
        return outcome

    def retrieve_skills(self, query: str, k: int) -> list[SkillEntry]:
        """Deterministic token-overlap ranking over validated entries."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query_tokens = _tokens(query)
        scored = []
        for entry in self.entries:
            if not entry.validated:
                continue
            score = len(query_tokens & _tokens(f"{entry.body} {entry.description}"))
            scored.append((-score, _KIND_PRIORITY[entry.kind], entry.id, entry))
        scored.sort(key=lambda item: item[:3])
        return [entry for _, _, _, entry in scored[:k]]

    # -- persistence ----------------------------------------------------------

    def export_json(self) -> str:
        return json_text({"library_schema": 1, "skills": [e.to_doc() for e in self.entries]})

    @classmethod
    def _from_doc(cls, doc: dict[str, Any]) -> "SkillLibrary":
        library = cls()
        library.entries = [SkillEntry(**entry) for entry in doc["skills"]]
        library._next_id = max([1] + [entry.id + 1 for entry in library.entries])
        return library

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.export_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SkillLibrary":
        """The library `save` wrote."""
        return read_input("library", path, _LIBRARY, cls._from_doc, parse=parse_json)

    def export_markdown(self) -> str:
        """Human-facing library view: one section per skill kind, plus the
        conflict section reserved for contradictory Configuration pairs."""
        lines = ["# Experience about Monitoring Kubernetes Components", ""]
        conflicted = [e for e in self.entries if e.conflict_group]
        for kind in ("Command", "Reflection", "Configuration"):
            lines.append(f"## {kind}")
            lines.append("")
            numbered = [e for e in self.entries if e.kind == kind and not e.conflict_group]
            if not numbered:
                lines.append("- None")
                lines.append("")
                continue
            for i, entry in enumerate(numbered, start=1):
                lines.append(f"- {kind} {i}: {entry.body}")
                if entry.description:
                    lines.append(f"  {entry.description}")
            lines.append("")
        lines.append("## Conflicted Experience Requiring Resolution")
        lines.append("")
        if not conflicted:
            lines.append("- None")
        else:
            groups: dict[str, list[SkillEntry]] = {}
            for entry in conflicted:
                groups.setdefault(entry.conflict_group or "", []).append(entry)
            for i, group in enumerate(sorted(groups), start=1):
                lines.append(f"- Conflict {i} ({group.removeprefix('conflict:')}):")
                for entry in groups[group]:
                    lines.append(f"  - {entry.kind}: {entry.body}")
        lines.append("")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Running-state snapshot


def _degradations(dep: Deployment) -> list[str]:
    """Why a deployment is degraded, each cause in its own words; none when it is not."""
    causes = {
        "scaled to 0": dep.replicas == 0,
        f"{dep.replicas - len(dep.pods)} pods missing": len(dep.pods) < dep.replicas,
        "memory near its limit": dep.usage_mem >= 0.9 * dep.resources.mem_limit,
        "CPU near its limit": dep.usage_cpu >= 0.9 * dep.resources.cpu_limit,
    }
    return [cause for cause, holds in causes.items() if holds]


def build_snapshot(state: ClusterState) -> str:
    """Prompt text derived purely from cluster + metrics; same state, same text."""
    rates = {
        e.labels.get("job", ""): e.value
        for e in promql.evaluate(
            state.metrics, "sum by (job)(rate(http_requests_total[5m]))", state.sim_time
        ).entries
    }
    deployments: list[tuple[str, str]] = []  # (job, line), listed by job
    anomalies: list[str] = []
    for dep in state.deployments:
        causes = _degradations(dep)
        rps = rates.get(dep.job, 0.0) if dep.scrape else 0.0
        deployments.append((dep.job, f"  - {dep.job}: {'degraded' if causes else 'ok'}, traffic {rps:.2f} req/s"))
        if causes:
            anomalies.append(f"{dep.job}: {len(dep.pods)}/{dep.replicas} ready, {', '.join(causes)}")
    lines = [f"Simulation time: {state.sim_time:.0f}s", "Deployments:"]
    lines.extend(line for _, line in sorted(deployments))
    if anomalies:
        lines.append("Open anomalies:")
        lines.extend(f"  - {a}" for a in anomalies)
    else:
        lines.append("Open anomalies: none")
    return "\n".join(lines)
