"""Hierarchical task execution.

A manager decomposes each task into at most four subtasks for the
component agents (or itself), then the loop runs on feedback:

    environment — verbatim stderr/stdout from the shell, fed back to the
        proposing agent until its command runs clean or attempts run out;
    peer — a downstream agent checks the upstream result against the
        declared input expectation before consuming it; the upstream
        agent gets one revision, a second mismatch escalates;
    hierarchical — the manager re-decomposes on escalation or on a
        failed subtask, preserving partial results, at most twice.

Observation tasks run under a safety guard: any command that changes
the cluster digest aborts the task and records the violation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .datalayer import ACTION, OBSERVATION, History, SkillEntry, Task
from .llm import BaseGateway, ask_until_parsed
from .resources import prompt_template
from .shell import ShellGateway

EXPECTATIONS = ("none", "number", "integer", "json", "nonempty")


class PlanningFailed(Exception):
    pass


class ObservationViolation(Exception):
    """A command mutated state during an observation-kind task."""


@dataclass
class Subtask:
    id: int
    assignee: str
    description: str
    depends_on: int | None = None
    expects: str = "nonempty"
    attempts: int = 0
    status: str = "pending"  # pending | succeeded | failed
    result: str | None = None


@dataclass
class Plan:
    task_id: str
    subtasks: list[Subtask]
    revision: int = 1
    status: str = "active"

    def subtask(self, subtask_id: int) -> Subtask:
        for st in self.subtasks:
            if st.id == subtask_id:
                return st
        raise KeyError(subtask_id)


@dataclass
class Feedback:
    kind: str  # environment | peer | hierarchical
    source: str
    target_subtask: int
    content: str


@dataclass
class TaskOutcome:
    task: Task
    succeeded: bool
    solution: str | None
    feedbacks: list[Feedback] = field(default_factory=list)


def check_expectation(result: str, expects: str) -> str | None:
    """None when the result satisfies the declared format, else the gripe."""
    if expects == "none":
        return None
    if expects == "nonempty":
        return None if result.strip() else "expected a non-empty result"
    if expects == "number":
        try:
            float(result.strip())
            return None
        except ValueError:
            return "expected a plain number"
    if expects == "integer":
        try:
            int(result.strip())
            return None
        except ValueError:
            return "expected a plain integer"
    if expects == "json":
        try:
            json.loads(result)
            return None
        except json.JSONDecodeError:
            return "expected valid JSON"
    if expects.startswith("regex:"):
        pattern = expects[len("regex:"):]
        return None if re.search(pattern, result) else f"expected a match for /{pattern}/"
    return f"unknown expectation {expects!r}"


_SUBTASK_SPLIT_RE = re.compile(r"^Subtask\s+(\d+)\s*:\s*$", re.M)
_PLAN_FIELD_RE = re.compile(r"^(assignee|description|depends_on|expects)\s*:\s*(.+)$")


def parse_plan(completion: str, known_assignees: tuple[str, ...]) -> list[Subtask]:
    pieces = _SUBTASK_SPLIT_RE.split(completion)
    if len(pieces) < 3:
        raise ValueError("no subtask blocks found")
    blocks = [(int(pieces[i]), pieces[i + 1]) for i in range(1, len(pieces) - 1, 2)]
    if not 1 <= len(blocks) <= 4:
        raise ValueError(f"expected 1..4 subtasks, found {len(blocks)}")
    subtasks = []
    seen_ids = set()
    for number, block in blocks:
        fields: dict[str, str] = {}
        for line in block.strip().splitlines():
            m = _PLAN_FIELD_RE.match(line.strip())
            if m:
                fields[m.group(1)] = m.group(2).strip()
        if "assignee" not in fields or "description" not in fields:
            raise ValueError(f"subtask {number} missing assignee or description")
        assignee = fields["assignee"]
        if assignee not in known_assignees:
            raise ValueError(f"unknown assignee {assignee!r}")
        depends_text = fields.get("depends_on", "none").lower()
        depends_on: int | None = None
        if depends_text != "none":
            depends_on = int(depends_text)
            if depends_on not in seen_ids:
                raise ValueError(f"subtask {number} depends on unknown subtask {depends_on}")
        expects = fields.get("expects", "nonempty")
        if expects.startswith("regex:"):
            try:
                re.compile(expects[len("regex:"):])
            except re.error as exc:
                raise ValueError(f"subtask {number}: bad expectation {expects!r} ({exc})") from None
        elif expects not in EXPECTATIONS:
            raise ValueError(f"subtask {number}: bad expectation {expects!r}")
        seen_ids.add(number)
        subtasks.append(Subtask(number, assignee, fields["description"], depends_on, expects))
    return subtasks


class ExecutionPlanner:
    def __init__(
        self,
        gateway: BaseGateway,
        shell: ShellGateway,
        history: History,
        agents: tuple[str, ...] = ("catalogue", "front-end"),
        attempt_budget: int = 4,
        replan_budget: int = 2,
    ):
        self.gateway = gateway
        self.shell = shell
        self.history = history
        self.agents = agents
        self.attempt_budget = attempt_budget
        self.replan_budget = replan_budget
        self.manager_template = prompt_template("manager")
        self.agent_template = prompt_template("agent")
        self.current_task_id = ""

    # -- helpers ---------------------------------------------------------------

    def _now(self) -> float:
        return self.shell.state.sim_time

    def _skills_text(self, skills: list[SkillEntry]) -> str:
        if not skills:
            return "(no stored skills for this task; rely on general knowledge)"
        return "\n".join(f"- [{e.kind}] {e.body} :: {e.description}" for e in skills)

    def _complete(self, actor: str, messages: list[dict[str, str]]) -> str:
        self.gateway.task_id = self.current_task_id
        self.gateway.clock = self._now()
        return self.gateway.complete("planner", messages, actor=actor)

    def _feedback(self, fb: Feedback) -> Feedback:
        self.history.add(
            self.current_task_id,
            fb.source,
            fb.content,
            "feedback",
            feedback_kind=fb.kind,
            timestamp=self._now(),
        )
        return fb

    # -- decomposition -----------------------------------------------------------

    def decompose(self, task: Task, skills: list[SkillEntry]) -> Plan:
        base_prompt = (
            self.manager_template.replace("{task_description}", task.description)
            .replace("{task_kind}", task.kind)
            .replace("{agents}", ", ".join(self.agents))
            .replace("{skills}", self._skills_text(skills))
        )
        subtasks = self._ask_for_plan(base_prompt)
        if subtasks is None:
            raise PlanningFailed(f"task {task.id}: no usable plan after re-ask")
        return Plan(task.id, subtasks)

    def _ask_for_plan(self, base_prompt: str) -> list[Subtask] | None:
        """Ask the manager for subtask blocks; one re-ask on a rejected plan."""

        def ask(note: str | None) -> str:
            revision = "" if note is None else f"\n\nRevision note: previous plan was rejected ({note})."
            return self._complete("manager", [{"speaker": "manager", "text": base_prompt + revision}])

        return ask_until_parsed(ask, lambda completion: parse_plan(completion, self.agents + ("manager",)), 2)

    # -- subtask execution ---------------------------------------------------------

    def execute_subtask(
        self,
        subtask: Subtask,
        task: Task,
        skills_text: str,
        upstream_result: str | None,
    ) -> bool:
        prompt = (
            self.agent_template.replace("{agent}", subtask.assignee)
            .replace("{task_description}", task.description)
            .replace("{subtask_description}", subtask.description)
            .replace("{skills}", skills_text)
            .replace("{upstream}", upstream_result or "(none)")
        )
        messages = [{"speaker": "manager", "text": prompt}]
        completions_cap = 2 * self.attempt_budget + 2
        for _ in range(completions_cap):
            completion = self._complete(subtask.assignee, messages)
            stripped = completion.strip()
            if stripped.startswith("ok:"):
                subtask.result = stripped[len("ok:"):].strip()
                subtask.status = "succeeded"
                return True
            if not stripped.startswith("command:"):
                messages.append(
                    {
                        "speaker": "manager",
                        "text": "Respond with either `command: <line>` or `ok: <result>`.",
                    }
                )
                continue
            subtask.attempts += 1
            line = stripped[len("command:"):].strip()
            self.history.add(
                self.current_task_id, subtask.assignee, line, "command", timestamp=self._now()
            )
            result = self.shell.execute(line)
            self.history.add(
                self.current_task_id,
                "environment",
                json.dumps(
                    {
                        "exit_code": result.exit_code,
                        "stdout": result.stdout,
                        "stderr": result.stderr,
                        "state_mutated": result.state_mutated,
                        "duration_ms": result.duration_ms,
                    },
                    sort_keys=True,
                ),
                "execution_result",
                timestamp=self._now(),
            )
            if task.kind == OBSERVATION and result.state_mutated:
                self._feedback(
                    Feedback(
                        "environment",
                        "environment",
                        subtask.id,
                        f"observation-safety violation: command mutated cluster state: {line}",
                    )
                )
                raise ObservationViolation(f"task {task.id}: {line!r} mutated state")
            if result.exit_code != 0:
                self._feedback(
                    Feedback("environment", "environment", subtask.id, result.stderr)
                )
                if subtask.attempts >= self.attempt_budget:
                    subtask.status = "failed"
                    return False
                messages.append(
                    {
                        "speaker": "environment",
                        "text": f"command failed (exit {result.exit_code}):\n{result.stderr}\nRevise your approach.",
                    }
                )
            else:
                messages.append(
                    {
                        "speaker": "environment",
                        "text": f"command output:\n{result.stdout or '(empty)'}",
                    }
                )
        subtask.status = "failed"
        return False

    # -- peer handoff -----------------------------------------------------------------

    def peer_handoff(self, upstream: Subtask, downstream: Subtask, task: Task) -> tuple[bool, list[Feedback]]:
        """Returns (escalated, feedbacks). One upstream revision is allowed."""
        gripe = check_expectation(upstream.result or "", downstream.expects)
        if gripe is None:
            return False, []
        feedbacks = [
            self._feedback(
                Feedback(
                    "peer",
                    downstream.assignee,
                    upstream.id,
                    f"handoff rejected: {gripe}; received: {(upstream.result or '')[:120]!r}",
                )
            )
        ]
        revision_prompt = (
            f"Your result for subtask {upstream.id} was rejected by {downstream.assignee}: "
            f"{gripe}.\nPrevious result: {upstream.result!r}\n"
            f"Respond with `ok: <revised result>` only."
        )
        completion = self._complete(upstream.assignee, [{"speaker": downstream.assignee, "text": revision_prompt}])
        stripped = completion.strip()
        if stripped.startswith("ok:"):
            upstream.result = stripped[len("ok:"):].strip()
        gripe = check_expectation(upstream.result or "", downstream.expects)
        if gripe is None:
            return False, feedbacks
        feedbacks.append(
            self._feedback(
                Feedback(
                    "peer",
                    downstream.assignee,
                    upstream.id,
                    f"handoff rejected again: {gripe}; escalating to manager",
                )
            )
        )
        return True, feedbacks

    # -- hierarchical replanning ---------------------------------------------------------

    def hierarchical_replan(self, plan: Plan, task: Task, trigger: str, skills_text: str) -> Plan:
        state_lines = [
            f"Subtask {st.id} ({st.assignee}, {st.status}): {st.description}"
            + (f" -> result: {st.result}" if st.result else "")
            for st in plan.subtasks
        ]
        base_prompt = (
            f"Task: {task.description}\n"
            f"Current plan status:\n" + "\n".join(state_lines) + "\n"
            f"Trigger: {trigger}\n"
            f"Re-plan the remaining work. Reuse completed results where possible.\n"
            f"Known skills:\n{skills_text}\n"
            f"Respond with Subtask blocks (assignee, description, depends_on, expects). "
            f"Agents: {', '.join(self.agents)}, manager."
        )
        self._feedback(
            Feedback("hierarchical", "manager", 0, f"replan (revision {plan.revision + 1}): {trigger}")
        )
        subtasks = self._ask_for_plan(base_prompt)
        if subtasks is None:
            raise PlanningFailed(f"task {task.id}: replan produced no usable plan")
        new_plan = Plan(plan.task_id, subtasks, revision=plan.revision + 1)
        for st in new_plan.subtasks:
            prior = next((p for p in plan.subtasks if p.id == st.id and p.status == "succeeded"), None)
            if prior is not None:
                st.status, st.result, st.attempts = prior.status, prior.result, prior.attempts
        return new_plan

    # -- assembly ----------------------------------------------------------------------

    def assemble(self, plan: Plan, task: Task) -> tuple[str, bool]:
        if any(st.status != "succeeded" for st in plan.subtasks):
            raise RuntimeError("assemble called with unfinished subtasks")
        results = "\n".join(f"[{st.assignee}] {st.result}" for st in plan.subtasks)
        prompt = (
            f"Task: {task.description}\n"
            f"All subtasks finished. Results in order:\n{results}\n"
            f"Respond with two lines:\n"
            f"verdict: success or failure\n"
            f"solution: <the assembled answer>"
        )
        completion = self._complete("manager", [{"speaker": "manager", "text": prompt}])
        verdict_match = re.search(r"^verdict\s*:\s*(\w+)", completion, re.M)
        solution_match = re.search(r"^solution\s*:\s*(.*)$", completion, re.M | re.S)
        verdict = bool(verdict_match and verdict_match.group(1).lower() == "success")
        synthesis = solution_match.group(1).strip() if solution_match else completion.strip()
        solution = f"{results}\n{synthesis}"
        return solution, verdict

    # -- whole-task loop ------------------------------------------------------------------

    def run_task(self, task: Task, skills: list[SkillEntry]) -> TaskOutcome:
        self.current_task_id = task.id
        task.status = "running"
        skills_text = self._skills_text(skills)
        feedbacks: list[Feedback] = []
        try:
            plan = self.decompose(task, skills)
        except PlanningFailed:
            task.status = "failed"
            return TaskOutcome(task, False, None, feedbacks)

        replans = 0
        succeeded_at_last_replan = 0
        fruitless_replans = 0
        try:
            while True:
                trigger: str | None = None
                for st in plan.subtasks:
                    if st.status == "succeeded":
                        continue
                    upstream_result = None
                    if st.depends_on is not None:
                        upstream = plan.subtask(st.depends_on)
                        escalated, fbs = self.peer_handoff(upstream, st, task)
                        feedbacks.extend(fbs)
                        if escalated:
                            trigger = (
                                f"peer escalation: subtask {st.id} ({st.assignee}) rejected the "
                                f"result of subtask {upstream.id} ({upstream.assignee}) twice"
                            )
                            break
                        upstream_result = upstream.result
                    if not self.execute_subtask(st, task, skills_text, upstream_result):
                        trigger = (
                            f"subtask {st.id} ({st.assignee}) failed after "
                            f"{st.attempts} attempts: {st.description}"
                        )
                        break
                if trigger is None:
                    solution, verdict = self.assemble(plan, task)
                    task.status = "succeeded" if verdict else "failed"
                    return TaskOutcome(task, verdict, solution, feedbacks)
                succeeded_now = sum(1 for st in plan.subtasks if st.status == "succeeded")
                if succeeded_now > succeeded_at_last_replan:
                    fruitless_replans = 0
                else:
                    fruitless_replans += 1
                if replans >= self.replan_budget or fruitless_replans >= 2:
                    task.status = "failed"
                    return TaskOutcome(task, False, None, feedbacks)
                succeeded_at_last_replan = succeeded_now
                replans += 1
                plan = self.hierarchical_replan(plan, task, trigger, skills_text)
        except (ObservationViolation, PlanningFailed):
            task.status = "failed"
            return TaskOutcome(task, False, None, feedbacks)
