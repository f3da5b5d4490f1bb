"""Hierarchical execution: plan parsing, the feedback loops, and the whole-task arc."""

from __future__ import annotations

import json

import pytest

from opslearn.cluster import load_topology, tick
from opslearn.datalayer import History, SkillEntry, Task
from opslearn.llm import GatewayConfig, ScriptRecord, ScriptedGateway
from opslearn.planner import (
    ExecutionPlanner,
    Feedback,
    ObservationViolation,
    Plan,
    PlanningFailed,
    Subtask,
    check_expectation,
    parse_plan,
)
from opslearn.resources import fixture_path
from opslearn.shell import ShellGateway

AGENTS = ("catalogue", "front-end")


def _shell() -> ShellGateway:
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    tick(state, 300.0)
    return ShellGateway(state, components=AGENTS)


def _planner(records: list[ScriptRecord], **kwargs) -> tuple[ExecutionPlanner, History, ShellGateway]:
    gateway = ScriptedGateway(GatewayConfig(mode="scripted"), records)
    history = History()
    gateway.history = history
    shell = _shell()
    planner = ExecutionPlanner(gateway, shell, history, agents=AGENTS, **kwargs)
    return planner, history, shell


def _task(description: str, kind: str = "action") -> Task:
    return Task(id="t1", round=1, kind=kind, difficulty=1, description=description)


def _feedback_records(history: History) -> list:
    return [r for r in history.records if r.payload_kind == "feedback"]


# -- result expectations -----------------------------------------------------------


@pytest.mark.parametrize(
    "expects,result,gripe",
    [
        ("none", "", None),
        ("none", "anything at all", None),
        ("nonempty", "ready", None),
        ("nonempty", "   ", "expected a non-empty result"),
        ("number", " 3.5 ", None),
        ("number", "9Mi", "expected a plain number"),
        ("integer", "42", None),
        ("integer", "4.2", "expected a plain integer"),
        ("json", '{"replicas": 2}', None),
        ("json", "{oops", "expected valid JSON"),
        (r"regex:^\d+m$", "250m", None),
        (r"regex:^\d+m$", "250", r"expected a match for /^\d+m$/"),
        ("maybe", "x", "unknown expectation 'maybe'"),
    ],
)
def test_check_expectation(expects, result, gripe):
    assert check_expectation(result, expects) == gripe


# -- plan parsing ------------------------------------------------------------------


PLAN_TEXT = """Subtask 1:
assignee: catalogue
description: read the memory gauge of the catalogue pod
expects: number

Subtask 2:
assignee: front-end
description: report the reading to the manager
depends_on: 1
"""


def test_parse_plan_happy_path():
    subtasks = parse_plan(PLAN_TEXT, AGENTS + ("manager",))
    assert [st.id for st in subtasks] == [1, 2]
    first, second = subtasks
    assert first.assignee == "catalogue"
    assert first.depends_on is None
    assert first.expects == "number"
    assert second.assignee == "front-end"
    assert second.depends_on == 1
    assert second.expects == "nonempty"  # default
    assert all(st.status == "pending" and st.attempts == 0 for st in subtasks)


def test_parse_plan_accepts_manager_assignee():
    text = "Subtask 1:\nassignee: manager\ndescription: summarize findings\n"
    (only,) = parse_plan(text, AGENTS + ("manager",))
    assert only.assignee == "manager"


def test_parse_plan_no_blocks():
    with pytest.raises(ValueError, match="no subtask blocks found"):
        parse_plan("I would rather chat about the weather.", AGENTS)


def test_parse_plan_too_many_blocks():
    blocks = "\n".join(
        f"Subtask {i}:\nassignee: catalogue\ndescription: step {i}\n" for i in range(1, 6)
    )
    with pytest.raises(ValueError, match=r"expected 1\.\.4 subtasks, found 5"):
        parse_plan(blocks, AGENTS)


def test_parse_plan_missing_fields():
    with pytest.raises(ValueError, match="subtask 1 missing assignee or description"):
        parse_plan("Subtask 1:\nassignee: catalogue\n", AGENTS)


def test_parse_plan_unknown_assignee():
    text = "Subtask 1:\nassignee: payments\ndescription: poke the queue\n"
    with pytest.raises(ValueError, match="unknown assignee 'payments'"):
        parse_plan(text, AGENTS + ("manager",))


def test_parse_plan_forward_dependency():
    text = (
        "Subtask 1:\nassignee: catalogue\ndescription: first\ndepends_on: 2\n\n"
        "Subtask 2:\nassignee: front-end\ndescription: second\n"
    )
    with pytest.raises(ValueError, match="subtask 1 depends on unknown subtask 2"):
        parse_plan(text, AGENTS)


def test_parse_plan_bad_expectation():
    text = "Subtask 1:\nassignee: catalogue\ndescription: look\nexpects: maybe\n"
    with pytest.raises(ValueError, match="bad expectation 'maybe'"):
        parse_plan(text, AGENTS)


def test_parse_plan_rejects_a_regex_expectation_that_does_not_compile():
    text = "Subtask 1:\nassignee: catalogue\ndescription: look\nexpects: regex:(\n"
    with pytest.raises(ValueError, match=r"subtask 1: bad expectation 'regex:\('"):
        parse_plan(text, AGENTS)
    good = text.replace("regex:(", r"regex:^\d+$")
    assert parse_plan(good, AGENTS)[0].expects == r"regex:^\d+$"


def test_plan_subtask_lookup():
    plan = Plan("t1", parse_plan(PLAN_TEXT, AGENTS))
    assert plan.subtask(2).assignee == "front-end"
    with pytest.raises(KeyError):
        plan.subtask(9)


# -- decomposition ------------------------------------------------------------------


def test_decompose_retries_once_after_rejected_plan():
    records = [
        ScriptRecord("planner", "no plan today", guard="Task: check catalogue memory"),
        ScriptRecord("planner", PLAN_TEXT, guard="Revision note: previous plan was rejected"),
    ]
    planner, history, _ = _planner(records)
    plan = planner.decompose(_task("check catalogue memory"), [])
    assert [st.id for st in plan.subtasks] == [1, 2]
    assert plan.revision == 1
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert len(prompts) == 2
    assert "previous plan was rejected (no subtask blocks found)" in prompts[1]


def test_decompose_reasks_after_a_broken_regex_expectation():
    broken = PLAN_TEXT.replace("expects: number", "expects: regex:(")
    assert broken != PLAN_TEXT
    records = [
        ScriptRecord("planner", broken, guard="Task: check catalogue memory"),
        ScriptRecord("planner", PLAN_TEXT, guard="Revision note: previous plan was rejected"),
    ]
    planner, history, _ = _planner(records)
    plan = planner.decompose(_task("check catalogue memory"), [])
    assert plan.subtasks[0].expects == "number"
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert len(prompts) == 2
    assert "previous plan was rejected (subtask 1: bad expectation 'regex:('" in prompts[1]


def test_decompose_fails_after_two_bad_plans():
    records = [ScriptRecord("planner", "still no plan", max_uses=-1)]
    planner, _, _ = _planner(records)
    with pytest.raises(PlanningFailed, match="no usable plan after re-ask"):
        planner.decompose(_task("check catalogue memory"), [])


def test_decompose_prompt_carries_skills_and_agents():
    records = [ScriptRecord("planner", PLAN_TEXT, max_uses=-1)]
    planner, history, _ = _planner(records)
    skills = [
        SkillEntry(
            id=1,
            kind="Command",
            body="kubectl top pod -n sock-shop",
            description="memory snapshot",
            source_task="t0",
        )
    ]
    planner.decompose(_task("check catalogue memory"), skills)
    prompt = next(r.payload for r in history.records if r.payload_kind == "prompt")
    assert "Component agents: catalogue, front-end" in prompt
    assert "- [Command] kubectl top pod -n sock-shop :: memory snapshot" in prompt
    planner.decompose(_task("check catalogue memory"), [])
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert "(no stored skills for this task; rely on general knowledge)" in prompts[-1]


# -- subtask execution ---------------------------------------------------------------


def test_execute_subtask_settles_on_ok():
    records = [ScriptRecord("planner", "ok: 9Mi", guard="Your subtask: read the gauge")]
    planner, _, _ = _planner(records)
    planner.current_task_id = "t1"
    st = Subtask(1, "catalogue", "read the gauge")
    assert planner.execute_subtask(st, _task("memory check"), "(none)", None) is True
    assert st.status == "succeeded"
    assert st.result == "9Mi"
    assert st.attempts == 0  # no command was issued


def test_execute_subtask_runs_command_and_logs_result():
    records = [
        ScriptRecord("planner", "command: kubectl get pods -n sock-shop", guard="Your subtask:"),
        ScriptRecord("planner", "ok: pods listed", guard="command output:"),
    ]
    planner, history, _ = _planner(records)
    planner.current_task_id = "t1"
    st = Subtask(1, "catalogue", "list the pods")
    assert planner.execute_subtask(st, _task("inventory"), "(none)", None) is True
    assert st.attempts == 1
    commands = [r for r in history.records if r.payload_kind == "command"]
    assert [r.payload for r in commands] == ["kubectl get pods -n sock-shop"]
    assert commands[0].actor == "catalogue"
    (result_record,) = [r for r in history.records if r.payload_kind == "execution_result"]
    doc = json.loads(result_record.payload)
    assert doc["exit_code"] == 0
    assert doc["state_mutated"] is False
    assert "catalogue-" in doc["stdout"]


def test_execute_subtask_nudges_on_unframed_reply():
    records = [
        ScriptRecord("planner", "Let me think about that.", guard="Your subtask:"),
        ScriptRecord("planner", "ok: fine", guard="Respond with either `command:"),
    ]
    planner, history, _ = _planner(records)
    st = Subtask(1, "catalogue", "anything")
    assert planner.execute_subtask(st, _task("nudge check"), "(none)", None) is True
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert "Respond with either `command: <line>` or `ok: <result>`." in prompts[-1]


def test_execute_subtask_feeds_back_failure_then_recovers():
    records = [
        ScriptRecord("planner", "command: kubectl get pods -n nope", guard="Your subtask:"),
        ScriptRecord("planner", "ok: recovered", guard="command failed (exit 1):"),
    ]
    planner, history, _ = _planner(records)
    planner.current_task_id = "t1"
    st = Subtask(1, "catalogue", "poke a namespace")
    assert planner.execute_subtask(st, _task("recovery"), "(none)", None) is True
    (fb,) = _feedback_records(history)
    assert fb.feedback_kind == "environment"
    assert fb.actor == "environment"
    assert fb.payload == 'Error from server (NotFound): namespaces "nope" not found'
    assert "Revise your approach." in [r.payload for r in history.records if r.payload_kind == "prompt"][-1]


def test_execute_subtask_fails_when_attempts_run_out():
    records = [ScriptRecord("planner", "command: kubectl get pods -n nope", max_uses=-1)]
    planner, history, _ = _planner(records, attempt_budget=2)
    st = Subtask(1, "catalogue", "doomed")
    assert planner.execute_subtask(st, _task("exhaustion"), "(none)", None) is False
    assert st.status == "failed"
    assert st.attempts == 2
    assert len(_feedback_records(history)) == 2


def test_execute_subtask_caps_total_completions():
    # A chatty agent that always issues the same clean read never settles;
    # the loop cuts it off rather than spinning forever.
    records = [ScriptRecord("planner", "command: kubectl get pods -n sock-shop", max_uses=-1)]
    planner, _, _ = _planner(records, attempt_budget=4)
    st = Subtask(1, "catalogue", "never settles")
    assert planner.execute_subtask(st, _task("cap check"), "(none)", None) is False
    assert st.status == "failed"
    assert st.attempts == 2 * 4 + 2
    assert len(planner.gateway.ledger.entries) == 2 * 4 + 2


def test_observation_task_aborts_on_mutating_command():
    records = [
        ScriptRecord(
            "planner",
            "command: kubectl scale deployment catalogue --replicas=2 -n sock-shop",
            max_uses=-1,
        )
    ]
    planner, history, shell = _planner(records)
    planner.current_task_id = "t1"
    st = Subtask(1, "catalogue", "just look around")
    with pytest.raises(ObservationViolation, match="mutated state"):
        planner.execute_subtask(st, _task("watch only", kind="observation"), "(none)", None)
    (fb,) = _feedback_records(history)
    assert fb.feedback_kind == "environment"
    assert fb.payload.startswith("observation-safety violation: command mutated cluster state:")
    # the scale itself landed before the guard tripped
    assert shell.state.find_deployment("sock-shop", "catalogue").replicas == 2


def test_action_task_allows_mutations():
    records = [
        ScriptRecord(
            "planner",
            "command: kubectl scale deployment catalogue --replicas=2 -n sock-shop",
            guard="Your subtask:",
        ),
        ScriptRecord("planner", "ok: scaled", guard="deployment.apps/catalogue scaled"),
    ]
    planner, _, _ = _planner(records)
    st = Subtask(1, "catalogue", "scale it up")
    assert planner.execute_subtask(st, _task("scale up", kind="action"), "(none)", None) is True


# -- peer handoff -------------------------------------------------------------------


def test_peer_handoff_passes_when_expectation_holds():
    planner, history, _ = _planner([])
    upstream = Subtask(1, "catalogue", "measure", status="succeeded", result="12")
    downstream = Subtask(2, "front-end", "consume", depends_on=1, expects="integer")
    escalated, feedbacks = planner.peer_handoff(upstream, downstream, _task("handoff"))
    assert escalated is False
    assert feedbacks == []
    assert _feedback_records(history) == []


def test_peer_handoff_accepts_one_revision():
    records = [
        ScriptRecord("planner", "ok: 12", guard="was rejected by front-end: expected a plain integer"),
    ]
    planner, history, _ = _planner(records)
    upstream = Subtask(1, "catalogue", "measure", status="succeeded", result="lots of memory")
    downstream = Subtask(2, "front-end", "consume", depends_on=1, expects="integer")
    escalated, feedbacks = planner.peer_handoff(upstream, downstream, _task("handoff"))
    assert escalated is False
    assert upstream.result == "12"
    (fb,) = feedbacks
    assert fb.kind == "peer"
    assert fb.source == "front-end"
    assert fb.target_subtask == 1
    assert fb.content == "handoff rejected: expected a plain integer; received: 'lots of memory'"
    (rec,) = _feedback_records(history)
    assert rec.feedback_kind == "peer"
    assert rec.actor == "front-end"


def test_peer_handoff_escalates_after_second_mismatch():
    records = [ScriptRecord("planner", "ok: still words", guard="was rejected by")]
    planner, history, _ = _planner(records)
    upstream = Subtask(1, "catalogue", "measure", status="succeeded", result="lots")
    downstream = Subtask(2, "front-end", "consume", depends_on=1, expects="integer")
    escalated, feedbacks = planner.peer_handoff(upstream, downstream, _task("handoff"))
    assert escalated is True
    assert [fb.kind for fb in feedbacks] == ["peer", "peer"]
    assert feedbacks[1].content == "handoff rejected again: expected a plain integer; escalating to manager"
    assert len(_feedback_records(history)) == 2


# -- hierarchical replanning ----------------------------------------------------------


REPLAN_TEXT = """Subtask 1:
assignee: catalogue
description: read the memory gauge of the catalogue pod
expects: number

Subtask 2:
assignee: front-end
description: try a simpler report instead
"""


def test_hierarchical_replan_preserves_finished_work():
    records = [ScriptRecord("planner", REPLAN_TEXT, guard="Trigger: subtask 2 (front-end) failed")]
    planner, history, _ = _planner(records)
    planner.current_task_id = "t1"
    old = Plan(
        "t1",
        [
            Subtask(1, "catalogue", "read the memory gauge", status="succeeded", result="9", attempts=1),
            Subtask(2, "front-end", "report upstream", status="failed", attempts=4),
        ],
    )
    trigger = "subtask 2 (front-end) failed after 4 attempts: report upstream"
    new_plan = planner.hierarchical_replan(old, _task("memory report"), trigger, "(none)")
    assert new_plan.revision == 2
    carried = new_plan.subtask(1)
    assert carried.status == "succeeded"
    assert carried.result == "9"
    assert carried.attempts == 1
    assert new_plan.subtask(2).status == "pending"
    (fb,) = _feedback_records(history)
    assert fb.feedback_kind == "hierarchical"
    assert fb.actor == "manager"
    assert fb.payload == f"replan (revision 2): {trigger}"


def test_hierarchical_replan_gives_up_after_two_bad_plans():
    records = [ScriptRecord("planner", "no more ideas", max_uses=-1)]
    planner, _, _ = _planner(records)
    old = Plan("t1", [Subtask(1, "catalogue", "anything", status="failed")])
    with pytest.raises(PlanningFailed, match="replan produced no usable plan"):
        planner.hierarchical_replan(old, _task("memory report"), "it broke", "(none)")


# -- assembly -----------------------------------------------------------------------


def test_assemble_requires_finished_subtasks():
    planner, _, _ = _planner([])
    plan = Plan("t1", [Subtask(1, "catalogue", "pending work")])
    with pytest.raises(RuntimeError, match="unfinished subtasks"):
        planner.assemble(plan, _task("incomplete"))


def test_assemble_combines_results_with_manager_synthesis():
    records = [
        ScriptRecord(
            "planner",
            "verdict: success\nsolution: memory sits at 9Mi",
            guard="All subtasks finished. Results in order:",
        )
    ]
    planner, _, _ = _planner(records)
    plan = Plan(
        "t1",
        [
            Subtask(1, "catalogue", "a", status="succeeded", result="9"),
            Subtask(2, "front-end", "b", status="succeeded", result="confirmed"),
        ],
    )
    solution, verdict = planner.assemble(plan, _task("memory report"))
    assert verdict is True
    assert solution == "[catalogue] 9\n[front-end] confirmed\nmemory sits at 9Mi"


def test_assemble_solution_spans_lines_and_failure_verdict():
    records = [
        ScriptRecord("planner", "verdict: failure\nsolution: line one\nline two", guard="Results in order"),
    ]
    planner, _, _ = _planner(records)
    plan = Plan("t1", [Subtask(1, "catalogue", "a", status="succeeded", result="x")])
    solution, verdict = planner.assemble(plan, _task("memory report"))
    assert verdict is False
    assert solution == "[catalogue] x\nline one\nline two"


def test_assemble_falls_back_to_whole_completion():
    records = [ScriptRecord("planner", "it went fine, honestly", guard="Results in order")]
    planner, _, _ = _planner(records)
    plan = Plan("t1", [Subtask(1, "catalogue", "a", status="succeeded", result="x")])
    solution, verdict = planner.assemble(plan, _task("memory report"))
    assert verdict is False  # no explicit verdict line means no success claim
    assert solution == "[catalogue] x\nit went fine, honestly"


# -- whole-task loop -------------------------------------------------------------------


def test_run_task_end_to_end_success():
    records = [
        ScriptRecord("planner", PLAN_TEXT, guard="Task: report catalogue memory"),
        ScriptRecord("planner", "ok: 9", guard="Your subtask: read the memory gauge"),
        ScriptRecord("planner", "ok: manager notified", guard="Your subtask: report the reading"),
        ScriptRecord("planner", "verdict: success\nsolution: memory is 9Mi", guard="Results in order"),
    ]
    planner, history, _ = _planner(records)
    task = _task("report catalogue memory")
    outcome = planner.run_task(task, [])
    assert outcome.succeeded is True
    assert task.status == "succeeded"
    assert outcome.solution == "[catalogue] 9\n[front-end] manager notified\nmemory is 9Mi"
    assert outcome.feedbacks == []  # clean run: no peer friction
    assert _feedback_records(history) == []


def test_run_task_hands_upstream_result_downstream():
    records = [
        ScriptRecord("planner", PLAN_TEXT, guard="Task:"),
        ScriptRecord("planner", "ok: 9", guard="read the memory gauge"),
        ScriptRecord("planner", "ok: saw it", guard="Result handed over from the upstream subtask: 9"),
        ScriptRecord("planner", "verdict: success\nsolution: done", guard="Results in order"),
    ]
    planner, _, _ = _planner(records)
    outcome = planner.run_task(_task("chained handoff"), [])
    assert outcome.succeeded is True


FRICTION_PLAN = """Subtask 1:
assignee: catalogue
description: read the memory gauge of the catalogue pod

Subtask 2:
assignee: front-end
description: report the reading to the manager
depends_on: 1
expects: integer
"""


def test_run_task_collects_peer_feedback_in_outcome():
    records = [
        ScriptRecord("planner", FRICTION_PLAN, guard="Task:"),
        ScriptRecord("planner", "ok: plenty", guard="read the memory gauge"),
        ScriptRecord("planner", "ok: 9", guard="was rejected by front-end"),
        ScriptRecord("planner", "ok: relayed", guard="report the reading"),
        ScriptRecord("planner", "verdict: success\nsolution: done", guard="Results in order"),
    ]
    planner, history, _ = _planner(records)
    outcome = planner.run_task(_task("peer friction"), [])
    assert outcome.succeeded is True
    # the one revision round-trip surfaces in the outcome and the log
    assert [fb.kind for fb in outcome.feedbacks] == ["peer"]
    kinds = [r.feedback_kind for r in _feedback_records(history)]
    assert kinds == ["peer"]


def test_run_task_replans_after_subtask_failure():
    single_plan = "Subtask 1:\nassignee: catalogue\ndescription: probe the broken namespace\n"
    records = [
        ScriptRecord("planner", single_plan, guard="Task: fix the probe"),
        ScriptRecord("planner", "command: kubectl get pods -n nope", guard="probe the broken namespace"),
        ScriptRecord(
            "planner",
            "Subtask 1:\nassignee: catalogue\ndescription: list pods in the right namespace\n",
            guard="Trigger: subtask 1 (catalogue) failed after 1 attempts",
        ),
        ScriptRecord("planner", "ok: pods healthy", guard="list pods in the right namespace"),
        ScriptRecord("planner", "verdict: success\nsolution: recovered", guard="Results in order"),
    ]
    planner, history, _ = _planner(records, attempt_budget=1)
    task = _task("fix the probe")
    outcome = planner.run_task(task, [])
    assert outcome.succeeded is True
    assert outcome.solution == "[catalogue] pods healthy\nrecovered"
    kinds = [r.feedback_kind for r in _feedback_records(history)]
    assert kinds == ["environment", "hierarchical"]


def test_run_task_peer_escalation_reaches_manager():
    records = [
        ScriptRecord("planner", FRICTION_PLAN, guard="Task: escalation arc"),
        ScriptRecord("planner", "ok: fuzzy", guard="read the memory gauge"),
        ScriptRecord("planner", "ok: still fuzzy", guard="was rejected by front-end"),
        ScriptRecord(
            "planner",
            "Subtask 1:\nassignee: manager\ndescription: settle it directly\nexpects: none\n",
            guard="Trigger: peer escalation: subtask 2 (front-end) rejected the result of subtask 1 (catalogue) twice",
        ),
        ScriptRecord("planner", "ok: settled", guard="settle it directly"),
        ScriptRecord("planner", "verdict: success\nsolution: done", guard="Results in order"),
    ]
    planner, history, _ = _planner(records)
    outcome = planner.run_task(_task("escalation arc"), [])
    assert outcome.succeeded is True
    assert [fb.kind for fb in outcome.feedbacks] == ["peer", "peer"]
    kinds = [r.feedback_kind for r in _feedback_records(history)]
    assert kinds == ["peer", "peer", "hierarchical"]


def test_run_task_fails_when_decomposition_never_lands():
    records = [ScriptRecord("planner", "not a plan", max_uses=-1)]
    planner, _, _ = _planner(records)
    task = _task("unplannable")
    outcome = planner.run_task(task, [])
    assert outcome.succeeded is False
    assert outcome.solution is None
    assert task.status == "failed"


def test_run_task_stops_after_fruitless_replans():
    single_plan = "Subtask 1:\nassignee: catalogue\ndescription: shout into the void\n"
    records = [
        ScriptRecord("planner", single_plan, guard="Task:", max_uses=1),
        ScriptRecord("planner", single_plan, guard="Trigger:", max_uses=-1),
        ScriptRecord("planner", "command: kubectl get pods -n nope", max_uses=-1),
    ]
    planner, history, _ = _planner(records, attempt_budget=1)
    task = _task("hopeless")
    outcome = planner.run_task(task, [])
    assert outcome.succeeded is False
    assert task.status == "failed"
    kinds = [r.feedback_kind for r in _feedback_records(history)]
    # one environment failure per plan, one replan fired before the loop cut off
    assert kinds == ["environment", "hierarchical", "environment"]


def test_run_task_observation_violation_fails_task():
    plan = "Subtask 1:\nassignee: catalogue\ndescription: peek at replicas\n"
    records = [
        ScriptRecord("planner", plan, guard="Task:"),
        ScriptRecord(
            "planner",
            "command: kubectl scale deployment catalogue --replicas=3 -n sock-shop",
            max_uses=-1,
        ),
    ]
    planner, history, _ = _planner(records)
    task = _task("look but do not touch", kind="observation")
    outcome = planner.run_task(task, [])
    assert outcome.succeeded is False
    assert outcome.solution is None
    assert task.status == "failed"
    (fb,) = _feedback_records(history)
    assert "observation-safety violation" in fb.payload
