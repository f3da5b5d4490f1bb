"""Shared state between the cluster and the management modules.

Three pieces: the append-only interaction history, in which a manager
task-close record ends each task; running-state snapshots summarizing
the cluster for prompts; and the persistent skill library. History and
library are the replay backbone: a finished trial's history log plus the
bundled fixture is enough to rebuild the library byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, asdict
from typing import Any

from . import promql
from .cluster import ClusterState

OBSERVATION = "observation"
ACTION = "action"

SKILL_KINDS = ("Command", "Configuration", "Reflection")

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_CLOSE_RE = re.compile(r"task=(\S+) status=(\S+) description=(.*)", re.S)


@dataclass
class Task:
    id: str
    round: int
    kind: str  # observation | action
    difficulty: int
    description: str
    origin: str = "curriculum"  # curriculum | evaluation
    status: str = "pending"  # pending | running | succeeded | failed
    stage: int = 1  # exploration stage tag, 1..4

    def __post_init__(self) -> None:
        if self.kind not in (OBSERVATION, ACTION):
            raise ValueError(f"bad task kind {self.kind!r}")
        if self.difficulty < 1:
            raise ValueError("difficulty must be >= 1")


@dataclass
class InteractionRecord:
    id: int
    task_id: str
    actor: str  # manager | agent name | environment
    payload: str
    payload_kind: str  # prompt | completion | command | execution_result | feedback | report
    feedback_kind: str | None = None  # environment | peer | hierarchical
    timestamp: float = 0.0

    def to_doc(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "InteractionRecord":
        return cls(**doc)


HISTORY_SCHEMA = 1


class History:
    """Append-only, totally ordered interaction log."""

    def __init__(self) -> None:
        self.records: list[InteractionRecord] = []

    def add(
        self,
        task_id: str,
        actor: str,
        payload: str,
        payload_kind: str,
        feedback_kind: str | None = None,
        timestamp: float = 0.0,
    ) -> InteractionRecord:
        if (payload_kind == "feedback") != (feedback_kind is not None):
            raise ValueError("feedback_kind is present exactly when payload_kind is feedback")
        record = InteractionRecord(
            id=len(self.records) + 1,
            task_id=task_id,
            actor=actor,
            payload=payload,
            payload_kind=payload_kind,
            feedback_kind=feedback_kind,
            timestamp=timestamp,
        )
        self.records.append(record)
        return record

    def close_task(self, task: Task, timestamp: float) -> InteractionRecord:
        """The manager's report that ends a task; read back by task_close."""
        payload = f"task={task.id} status={task.status} description={task.description}"
        return self.add(task.id, "manager", payload, "report", timestamp=timestamp)

    def for_task(self, task_id: str) -> list[InteractionRecord]:
        return [r for r in self.records if r.task_id == task_id]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"history_schema": HISTORY_SCHEMA}) + "\n")
            for record in self.records:
                fh.write(json.dumps(record.to_doc(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "History":
        history = cls()
        with open(path) as fh:
            header = json.loads(fh.readline())
            if header.get("history_schema") != HISTORY_SCHEMA:
                raise ValueError(f"unsupported history schema: {header}")
            for line in fh:
                if line.strip():
                    history.records.append(InteractionRecord.from_doc(json.loads(line)))
        return history


def task_close(record: InteractionRecord) -> tuple[str, str, str] | None:
    """(task id, status, description) of a task-close record, else None."""
    if record.payload_kind != "report" or record.actor != "manager":
        return None
    match = _CLOSE_RE.match(record.payload)
    return match.groups() if match else None


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

    def __post_init__(self) -> None:
        if self.kind not in SKILL_KINDS:
            raise ValueError(f"bad skill kind {self.kind!r}")

    def to_doc(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "SkillEntry":
        return cls(**doc)


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


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
        return json.dumps(
            {"library_schema": 1, "skills": [e.to_doc() for e in self.entries]},
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def import_json(cls, text: str) -> "SkillLibrary":
        doc = json.loads(text)
        if doc.get("library_schema") != 1:
            raise ValueError("unsupported library schema")
        library = cls()
        for entry_doc in doc["skills"]:
            entry = SkillEntry.from_doc(entry_doc)
            library.entries.append(entry)
            library._next_id = max(library._next_id, entry.id + 1)
        return library

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.export_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SkillLibrary":
        with open(path) as fh:
            return cls.import_json(fh.read())

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
# Running-state snapshots


@dataclass
class RunningStateSnapshot:
    sim_time: float
    health: dict[str, str]  # "namespace/name" -> ok | degraded
    traffic: dict[str, float]  # job -> requests/sec
    anomalies: list[str]

    def to_text(self) -> str:
        lines = [f"Simulation time: {self.sim_time:.0f}s", "Deployments:"]
        for target in sorted(self.health):
            rps = self.traffic.get(target, 0.0)
            lines.append(f"  - {target}: {self.health[target]}, traffic {rps:.2f} req/s")
        if self.anomalies:
            lines.append("Open anomalies:")
            lines.extend(f"  - {a}" for a in self.anomalies)
        else:
            lines.append("Open anomalies: none")
        return "\n".join(lines)


def build_snapshot(state: ClusterState) -> RunningStateSnapshot:
    """Pure derivation from cluster + metrics; same state, same snapshot."""
    rates = {
        e.labels.get("job", ""): e.value
        for e in promql.evaluate(
            state.metrics, "sum by (job)(rate(http_requests_total[5m]))", state.sim_time
        ).entries
    }
    health: dict[str, str] = {}
    anomalies: list[str] = []
    for dep in sorted(state.deployments, key=lambda d: (d.namespace, d.name)):
        pods = state.deployment_pods(dep)
        ready = sum(1 for p in pods if p.phase == "Running")
        degraded = (
            dep.replicas == 0
            or ready < dep.replicas
            or dep.resources.current_mem >= 0.9 * dep.resources.mem_limit
            or dep.resources.current_cpu >= 0.9 * dep.resources.cpu_limit
        )
        health[dep.job] = "degraded" if degraded else "ok"
        if degraded:
            anomalies.append(f"{dep.job}: {ready}/{dep.replicas} ready, usage near limits")
    traffic = {dep.job: rates.get(dep.job, 0.0) for dep in state.deployments if dep.scrape}
    return RunningStateSnapshot(
        sim_time=state.sim_time, health=health, traffic=traffic, anomalies=anomalies
    )
