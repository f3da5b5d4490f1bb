"""Round-by-round exploration task generation.

Two principles govern the output and are enforced mechanically rather
than trusted: tasks progress from easy to hard within a theme, and
observation precedes action. The curriculum model proposes; the parser
and the progression check dispose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .datalayer import ACTION, OBSERVATION, InteractionRecord, RunningStateSnapshot, Task, task_close
from .llm import BaseGateway, ask_until_parsed
from .resources import prompt_template

CONTEXT_CHAR_BUDGET = 6000
NO_HISTORY_MARKER = "no prior interactions"
EXTRAS_HEADING = "other resources"


class RoundGenerationFailed(Exception):
    pass


@dataclass
class TaskSummary:
    task_id: str
    description: str
    outcome: str
    last_feedback: str | None


def summarize_history(records: list[InteractionRecord]) -> list[TaskSummary]:
    """Fold the raw log into one block per task, oldest first.

    The manager closes every task with a task-close record (see
    `datalayer.task_close`); feedback records in between supply the most
    recent refinement signal.
    """
    order: list[str] = []
    summaries: dict[str, TaskSummary] = {}
    for record in records:
        if record.task_id and record.task_id not in summaries:
            order.append(record.task_id)
            summaries[record.task_id] = TaskSummary(record.task_id, "", "unknown", None)
        if record.payload_kind == "feedback":
            summaries[record.task_id].last_feedback = record.payload
        closed = task_close(record)
        if closed and closed[0] == record.task_id:
            summary = summaries[record.task_id]
            summary.outcome, summary.description = closed[1], closed[2]
    return [summaries[tid] for tid in order]


def build_context(
    snapshot: RunningStateSnapshot,
    history: list[InteractionRecord],
    extras: str | None = None,
    char_budget: int = CONTEXT_CHAR_BUDGET,
) -> str:
    """Deterministic prompt context: state, then history, then extras."""
    sections = ["== running state ==", snapshot.to_text(), "", "== interaction history =="]
    summaries = summarize_history(history)
    if not summaries:
        sections.append(f"({NO_HISTORY_MARKER})")
    else:
        blocks = []
        for s in summaries:
            block = f"- {s.task_id}: {s.description or '(description unavailable)'}\n  outcome: {s.outcome}"
            if s.last_feedback:
                block += f"\n  last feedback: {s.last_feedback}"
            blocks.append(block)
        tail = []
        if extras:
            tail = ["", f"== {EXTRAS_HEADING} ==", extras]
        fixed = "\n".join(sections + tail)
        dropped = 0
        while blocks and len(fixed) + len("\n".join(blocks)) > char_budget:
            blocks.pop(0)  # oldest summaries go first
            dropped += 1
        if dropped:
            blocks.insert(0, f"({dropped} earlier tasks omitted)")
        sections.extend(blocks)
    if extras:
        sections.extend(["", f"== {EXTRAS_HEADING} ==", extras])
    return "\n".join(sections)


_TASK_BLOCK_RE = re.compile(r"^Task\s+\d+\s*:\s*$", re.M)
_FIELD_RE = re.compile(r"^(description|kind|stage|difficulty)\s*:\s*(.+)$")


def parse_round(completion: str, round_no: int, tasks_per_round: int) -> list[Task]:
    """Parse labeled task blocks; any deviation raises ValueError."""
    pieces = _TASK_BLOCK_RE.split(completion)
    blocks = [p for p in pieces[1:]]
    if len(blocks) != tasks_per_round:
        raise ValueError(f"expected {tasks_per_round} task blocks, found {len(blocks)}")
    tasks = []
    for i, block in enumerate(blocks, start=1):
        fields: dict[str, str] = {}
        for line in block.strip().splitlines():
            m = _FIELD_RE.match(line.strip())
            if m:
                fields[m.group(1)] = m.group(2).strip()
        missing = {"description", "kind", "stage", "difficulty"} - set(fields)
        if missing:
            raise ValueError(f"task block {i} missing {sorted(missing)}")
        kind = fields["kind"].lower()
        if kind not in (OBSERVATION, ACTION):
            raise ValueError(f"task block {i}: bad kind {fields['kind']!r}")
        stage = int(fields["stage"])
        if not 1 <= stage <= 4:
            raise ValueError(f"task block {i}: stage must be 1..4")
        difficulty = int(fields["difficulty"])
        if difficulty < 1:
            raise ValueError(f"task block {i}: difficulty must be >= 1")
        tasks.append(
            Task(
                id=f"r{round_no}t{i}",
                round=round_no,
                kind=kind,
                difficulty=difficulty,
                description=fields["description"],
                stage=stage,
            )
        )
    return tasks


def difficulty_progression_check(prev_round: list[Task], new_round: list[Task]) -> list[str]:
    """Empty list = ok; otherwise human-readable violations.

    Succeeded themes must not get easier; failed themes must get easier
    or be swapped for an alternative theme.
    """
    violations = []
    for stage in sorted({t.stage for t in prev_round}):
        prior = [t for t in prev_round if t.stage == stage]
        new = [t for t in new_round if t.stage == stage]
        succeeded = [t for t in prior if t.status == "succeeded"]
        failed = [t for t in prior if t.status == "failed"]
        if succeeded and new:
            floor = max(t.difficulty for t in succeeded)
            for t in new:
                if t.difficulty < floor:
                    violations.append(
                        f"stage {stage}: succeeded at difficulty {floor}, "
                        f"new task {t.id} regresses to {t.difficulty}"
                    )
        if failed and new:
            ceiling = min(t.difficulty for t in failed)
            for t in new:
                if t.difficulty > ceiling:
                    violations.append(
                        f"stage {stage}: failed at difficulty {ceiling}, "
                        f"new task {t.id} escalates to {t.difficulty}"
                    )
    return violations


class CurriculumBuilder:
    """Drives the curriculum-role model and polices its output."""

    def __init__(self, gateway: BaseGateway, mode: str = "full"):
        self.gateway = gateway
        self.mode = mode  # full | observation_only
        self.directive = prompt_template("curriculum")

    def _prompt(self, context: str, round_no: int, tasks_per_round: int, note: str) -> str:
        parts = [
            self.directive,
            "",
            context,
            "",
            f"Generate round {round_no}: exactly {tasks_per_round} tasks.",
            "Respond with one block per task, nothing else:",
            "Task <n>:",
            "description: <one line>",
            "kind: observation or action",
            "stage: <1-4>",
            "difficulty: <integer >= 1>",
        ]
        if self.mode == "observation_only":
            parts.append("Deployment mode restriction: only observation tasks are allowed.")
        if note:
            parts.append(f"Revision note: {note}")
        return "\n".join(parts)

    def generate_round(
        self,
        context: str,
        round_no: int,
        tasks_per_round: int = 3,
        prev_round: list[Task] | None = None,
    ) -> list[Task]:
        latest: list[Task] | None = None  # last parseable, mode-compliant candidate
        sent_note = ""

        def ask(note: str | None) -> str:
            nonlocal sent_note
            sent_note = note or ""
            prompt = self._prompt(context, round_no, tasks_per_round, sent_note)
            return self.gateway.complete(
                "curriculum", [{"speaker": "curriculum", "text": prompt}], actor="curriculum"
            )

        def parse(completion: str) -> list[Task]:
            nonlocal latest
            try:
                candidate = parse_round(completion, round_no, tasks_per_round)
            except ValueError as exc:
                raise ValueError(f"previous response was unusable ({exc}); follow the block format exactly") from None
            if self.mode == "observation_only" and any(t.kind == ACTION for t in candidate):
                raise ValueError(
                    "action tasks are not allowed in this deployment mode; "
                    "regenerate all blocks as observation tasks"
                )
            latest = candidate
            violations = difficulty_progression_check(prev_round, candidate) if prev_round else []
            # soft rule: a second progression violation in a row is accepted
            if violations and not sent_note.startswith("difficulty progression"):
                raise ValueError("difficulty progression violations: " + "; ".join(violations))
            return candidate

        # First ask plus two re-asks. An accepted candidate is also the latest
        # one; once the asks run out, the latest candidate stands.
        ask_until_parsed(ask, parse, 3)
        if latest is None:
            raise RoundGenerationFailed(f"round {round_no}: no usable completion after 2 re-asks")
        return latest
