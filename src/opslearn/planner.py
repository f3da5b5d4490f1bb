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

import functools
import json
import re
from dataclasses import dataclass

from .datalayer import OBSERVATION, History, SkillEntry, Task
from .llm import BaseGateway, ask_until_parsed, parse_blocks
from .resources import compile_pattern, conform, one_of, prompt_template
from .shell import ShellGateway

EXPECTATIONS = ("none", "number", "integer", "json", "nonempty")
REPLAN_BUDGET = 2
ATTEMPT_BUDGET = 4  # commands a subtask may run that fail before it fails


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


def _dependency(text: str) -> int | None:
    return None if text.lower() == "none" else int(text)


def _expectation(text: str) -> str:
    """An expectation `check_expectation` knows; a `regex:` one must pass `compile_pattern`."""
    if not text.startswith("regex:"):
        if text not in EXPECTATIONS:
            raise ValueError(f"bad expectation {_clip(text)!r}")
        return text
    try:
        compile_pattern(text[len("regex:"):])
    except ValueError as exc:
        raise ValueError(f"bad expectation {_clip(text)!r} ({exc})") from None
    return text


@functools.lru_cache(maxsize=64)  # one schema per roster, compiled once; callers only read it
def _subtask_block(known_assignees: tuple[str, ...]) -> dict:
    """The schema of a `Subtask <n>:` block of a manager reply, for the agents that may take it."""
    return {
        "assignee": one_of(*known_assignees),
        "description": str,
        "depends_on": (_dependency, "none"),
        "expects": (_expectation, "nonempty"),
    }


@dataclass
class Plan:
    task_id: str
    subtasks: list[Subtask]
    revision: int = 1

    def subtask(self, subtask_id: int) -> Subtask:
        for st in self.subtasks:
            if st.id == subtask_id:
                return st
        raise KeyError(subtask_id)


@dataclass
class TaskOutcome:
    task: Task
    succeeded: bool
    solution: str | None


QUOTE_LIMIT = 80  # characters of an expectation quoted back in a gripe or revision note
# Longest result a `regex:` expectation searches. An accepted pattern can
# still backtrack quadratically in the subject: `a*a?a?a?a?b` and
# `.*(?:a|aa)(?:a|aa)(?:a|aa)(?:a|aa)b` take about 0.1 s over 640 `a`s.
REGEX_SUBJECT_LIMIT = 640


def _clip(text: str) -> str:
    """`text` cut to QUOTE_LIMIT characters, the last of them `…` when it was longer."""
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 1] + "…"


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
        except (ValueError, RecursionError):  # JSONDecodeError, an integer too long to convert, or too deep
            return "expected valid JSON"
    if expects.startswith("regex:"):
        pattern = expects[len("regex:"):]
        gripe = f"expected a match for /{_clip(pattern)}/"
        if len(result) > REGEX_SUBJECT_LIMIT:
            return f"{gripe} in at most {REGEX_SUBJECT_LIMIT} characters, got {len(result)}"
        return None if re.search(pattern, result) else gripe
    return f"unknown expectation {expects!r}"


def parse_plan(completion: str, known_assignees: tuple[str, ...]) -> list[Subtask]:
    schema = _subtask_block(known_assignees)
    blocks = [(int(number), fields) for number, fields in parse_blocks(completion, "Subtask", tuple(schema))]
    if not blocks:
        raise ValueError("no subtask blocks found")
    if len(blocks) > 4:
        raise ValueError(f"expected 1..4 subtasks, found {len(blocks)}")
    subtasks: list[Subtask] = []
    for number, fields in blocks:
        subtask = Subtask(number, **conform(schema, fields, f"subtask {number}"))
        if subtask.depends_on is not None and subtask.depends_on not in {st.id for st in subtasks}:
            raise ValueError(f"subtask {number} depends on unknown subtask {subtask.depends_on}")
        subtasks.append(subtask)
    return subtasks


def _labelled(completion: str, label: str) -> str | None:
    """The text after `label:` when the stripped reply starts with it, else None."""
    stripped = completion.strip()
    return stripped[len(label) + 1:].strip() if stripped.startswith(f"{label}:") else None


class ExecutionPlanner:
    def __init__(
        self,
        gateway: BaseGateway,
        shell: ShellGateway,
        history: History,
    ):
        self.gateway = gateway
        self.shell = shell
        self.history = history
        self.manager_template = prompt_template("manager")
        self.agent_template = prompt_template("agent")

    # -- helpers ---------------------------------------------------------------

    def _skills_text(self, skills: list[SkillEntry]) -> str:
        if not skills:
            return "(no stored skills for this task; rely on general knowledge)"
        return "\n".join(f"- [{e.kind}] {e.body} :: {e.description}" for e in skills)

    def _complete(self, actor: str, messages: list[dict[str, str]]) -> str:
        return self.gateway.complete("planner", messages, actor=actor)

    # -- decomposition -----------------------------------------------------------

    def decompose(self, task: Task, skills: list[SkillEntry]) -> Plan:
        base_prompt = (
            self.manager_template.replace("{task_description}", task.description)
            .replace("{task_kind}", task.kind)
            .replace("{agents}", ", ".join(self.shell.components))
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

        assignees = self.shell.components + ("manager",)
        return ask_until_parsed(ask, lambda completion: parse_plan(completion, assignees), 2)

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
        completions_cap = 2 * ATTEMPT_BUDGET + 2
        for _ in range(completions_cap):
            completion = self._complete(subtask.assignee, messages)
            answer = _labelled(completion, "ok")
            if answer is not None:
                subtask.result = answer
                subtask.status = "succeeded"
                return True
            line = _labelled(completion, "command")
            if line is None:
                messages.append(
                    {
                        "speaker": "manager",
                        "text": "Respond with either `command: <line>` or `ok: <result>`.",
                    }
                )
                continue
            subtask.attempts += 1
            self.history.add(subtask.assignee, line, "command")
            result = self.shell.execute(line)
            self.history.add("environment", json.dumps(vars(result), sort_keys=True), "execution_result")
            if task.kind == OBSERVATION and result.state_mutated:
                violation = f"observation-safety violation: command mutated cluster state: {line}"
                self.history.add("environment", violation, "feedback", "environment")
                raise ObservationViolation(f"task {task.id}: {line!r} mutated state")
            if result.exit_code != 0:
                self.history.add("environment", result.stderr, "feedback", "environment")
                if subtask.attempts >= ATTEMPT_BUDGET:
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

    def peer_handoff(self, upstream: Subtask, downstream: Subtask) -> bool:
        """True when the handoff escalates. One upstream revision is allowed."""
        gripe = check_expectation(upstream.result or "", downstream.expects)
        if gripe is None:
            return False
        rejection = f"handoff rejected: {gripe}; received: {(upstream.result or '')[:120]!r}"
        self.history.add(downstream.assignee, rejection, "feedback", "peer")
        revision_prompt = (
            f"Your result for subtask {upstream.id} was rejected by {downstream.assignee}: "
            f"{gripe}.\nPrevious result: {upstream.result!r}\n"
            f"Respond with `ok: <revised result>` only."
        )
        completion = self._complete(upstream.assignee, [{"speaker": downstream.assignee, "text": revision_prompt}])
        revised = _labelled(completion, "ok")
        if revised is not None:
            upstream.result = revised
        gripe = check_expectation(upstream.result or "", downstream.expects)
        if gripe is None:
            return False
        escalation = f"handoff rejected again: {gripe}; escalating to manager"
        self.history.add(downstream.assignee, escalation, "feedback", "peer")
        return True

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
            f"Agents: {', '.join(self.shell.components)}, manager."
        )
        replan = f"replan (revision {plan.revision + 1}): {trigger}"
        self.history.add("manager", replan, "feedback", "hierarchical")
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
        self.history.open_task(task.id)
        task.status = "running"
        skills_text = self._skills_text(skills)
        try:
            plan = self.decompose(task, skills)
        except PlanningFailed:
            task.status = "failed"
            return TaskOutcome(task, False, None)

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
                        if self.peer_handoff(upstream, st):
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
                    return TaskOutcome(task, verdict, solution)
                succeeded_now = sum(1 for st in plan.subtasks if st.status == "succeeded")
                if succeeded_now > succeeded_at_last_replan:
                    fruitless_replans = 0
                else:
                    fruitless_replans += 1
                if replans >= REPLAN_BUDGET or fruitless_replans >= 2:
                    task.status = "failed"
                    return TaskOutcome(task, False, None)
                succeeded_at_last_replan = succeeded_now
                replans += 1
                plan = self.hierarchical_replan(plan, task, trigger, skills_text)
        except (ObservationViolation, PlanningFailed):
            task.status = "failed"
            return TaskOutcome(task, False, None)
