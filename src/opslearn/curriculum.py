"""Round-by-round exploration task generation.

Two principles govern the output and are enforced mechanically rather
than trusted: tasks progress from easy to hard within a theme, and
observation precedes action. The curriculum model proposes; the parser
and the progression check dispose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datalayer import ACTION, TASK_BLOCK, InteractionRecord, Task, task_close
from .llm import BaseGateway, ask_until_parsed, parse_blocks
from .resources import conform, prompt_template

CONTEXT_CHAR_BUDGET = 6000
NO_HISTORY_MARKER = "no prior interactions"


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


def build_context(snapshot: str, history: list[InteractionRecord]) -> str:
    """Deterministic prompt context: the running-state snapshot text, then history."""
    sections = ["== running state ==", snapshot, "", "== interaction history =="]
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
        fixed = "\n".join(sections)
        dropped = 0
        while blocks and len(fixed) + len("\n".join(blocks)) > CONTEXT_CHAR_BUDGET:
            blocks.pop(0)  # oldest summaries go first
            dropped += 1
        if dropped:
            blocks.insert(0, f"({dropped} earlier tasks omitted)")
        sections.extend(blocks)
    return "\n".join(sections)


def parse_round(completion: str, round_no: int, tasks_per_round: int) -> list[Task]:
    """Parse labeled task blocks; any deviation raises ValueError."""
    blocks = parse_blocks(completion, "Task", tuple(TASK_BLOCK))
    if len(blocks) != tasks_per_round:
        raise ValueError(f"expected {tasks_per_round} task blocks, found {len(blocks)}")
    return [
        Task(id=f"r{round_no}t{i}", round=round_no, **conform(TASK_BLOCK, fields, f"task block {i}"))
        for i, (_, fields) in enumerate(blocks, start=1)
    ]


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
