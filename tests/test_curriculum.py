"""Curriculum builder: block parsing, difficulty progression policing,
re-asks, and the observation-only deployment restriction."""

from __future__ import annotations

import pytest

from opslearn import curriculum
from opslearn.curriculum import (
    NO_HISTORY_MARKER,
    CurriculumBuilder,
    RoundGenerationFailed,
    build_context,
    difficulty_progression_check,
    parse_round,
    summarize_history,
)
from opslearn.datalayer import History, Task
from opslearn.llm import GatewayConfig, ScriptRecord, ScriptedGateway


def _block(n: int, description: str, kind: str = "observation", stage: int = 1, difficulty: int = 1) -> str:
    return (
        f"Task {n}:\n"
        f"description: {description}\n"
        f"kind: {kind}\n"
        f"stage: {stage}\n"
        f"difficulty: {difficulty}\n"
    )


def test_parse_round_happy_path():
    completion = _block(1, "List the deployments.") + _block(
        2, "Scale the catalogue.", kind="action", stage=2, difficulty=3
    )
    tasks = parse_round(completion, round_no=2, tasks_per_round=2)
    assert [t.id for t in tasks] == ["r2t1", "r2t2"]
    assert tasks[0].kind == "observation"
    assert tasks[1].kind == "action"
    assert tasks[1].stage == 2
    assert tasks[1].difficulty == 3
    assert tasks[1].round == 2


@pytest.mark.parametrize(
    "completion",
    [
        _block(1, "only one block"),  # wrong count
        "Task 1:\nkind: observation\nstage: 1\ndifficulty: 1\n",  # missing description
        _block(1, "x", kind="meditation") + _block(2, "y"),  # bad kind
        _block(1, "x", stage=5) + _block(2, "y"),  # stage out of range
        _block(1, "x", difficulty=0) + _block(2, "y"),  # bad difficulty
        "free-form prose without any blocks",
    ],
)
def test_parse_round_rejects_malformed(completion):
    with pytest.raises(ValueError):
        parse_round(completion, round_no=1, tasks_per_round=2)


def _done(task: Task, status: str) -> Task:
    task.status = status
    return task


def _mk(task_id: str, stage: int, difficulty: int) -> Task:
    return Task(
        id=task_id,
        round=1,
        kind="observation",
        difficulty=difficulty,
        description=task_id,
        stage=stage,
    )


def test_progression_floor_after_success():
    prev = [_done(_mk("r1t1", 1, 3), "succeeded")]
    regress = [_mk("r2t1", 1, 2)]
    violations = difficulty_progression_check(prev, regress)
    assert violations and "regresses" in violations[0]
    assert difficulty_progression_check(prev, [_mk("r2t1", 1, 3)]) == []


def test_progression_ceiling_after_failure():
    prev = [_done(_mk("r1t1", 2, 3), "failed")]
    escalate = [_mk("r2t1", 2, 4)]
    violations = difficulty_progression_check(prev, escalate)
    assert violations and "escalates" in violations[0]
    assert difficulty_progression_check(prev, [_mk("r2t1", 2, 2)]) == []


def test_progression_is_stage_scoped():
    prev = [_done(_mk("r1t1", 1, 4), "succeeded")]
    other_stage = [_mk("r2t1", 2, 1)]
    assert difficulty_progression_check(prev, other_stage) == []


def _builder(responses: list[str], mode: str = "full") -> tuple[CurriculumBuilder, History]:
    records = [ScriptRecord(role="curriculum", response=text) for text in responses]
    gateway = ScriptedGateway(GatewayConfig(), records)
    history = History()
    gateway.history = history
    return CurriculumBuilder(gateway, mode=mode), history


def test_generate_round_retries_after_malformed_reply():
    good = _block(1, "Check the pods.") + _block(2, "Check the deployments.")
    builder, history = _builder(["not a task list", good])
    tasks = builder.generate_round("ctx", round_no=1, tasks_per_round=2)
    assert [t.id for t in tasks] == ["r1t1", "r1t2"]
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert len(prompts) == 2
    assert "previous response was unusable" in prompts[1]


def test_generate_round_gives_up_after_two_reasks():
    builder, _ = _builder(["junk", "more junk", "still junk"])
    with pytest.raises(RoundGenerationFailed):
        builder.generate_round("ctx", round_no=1, tasks_per_round=1)


def test_observation_only_mode_rejects_action_tasks():
    with_action = _block(1, "Scale something.", kind="action")
    clean = _block(1, "Look at the pods.")
    builder, history = _builder([with_action, clean], mode="observation_only")
    tasks = builder.generate_round("ctx", round_no=1, tasks_per_round=1)
    assert [t.kind for t in tasks] == ["observation"]
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert "only observation tasks are allowed" in prompts[0]
    assert "action tasks are not allowed" in prompts[1]


def test_generate_round_reasks_on_progression_violation():
    prev = [_done(_mk("r1t1", 1, 3), "succeeded")]
    regressing = _block(1, "Too easy.", stage=1, difficulty=1)
    conforming = _block(1, "Harder now.", stage=1, difficulty=3)
    builder, history = _builder([regressing, conforming])
    tasks = builder.generate_round("ctx", round_no=2, tasks_per_round=1, prev_round=prev)
    assert tasks[0].difficulty == 3
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert "difficulty progression violations" in prompts[1]


# Progression is a soft rule: a violation is sent back once, a second one in
# a row is accepted, and once the asks run out the latest parseable candidate
# stands. Each case: the replies in order, the reply expected back, and the
# revision note that opens each re-ask.
_V1 = _block(1, "First regression.", stage=1, difficulty=1)
_V2 = _block(1, "Second regression.", stage=1, difficulty=2)
_V3 = _block(1, "Third regression.", stage=1, difficulty=1)
_PROGRESSION = "Revision note: difficulty progression violations: stage 1: succeeded at difficulty 3"
_UNUSABLE = "Revision note: previous response was unusable (expected 1 task blocks, found 0)"


@pytest.mark.parametrize(
    "replies, expected, notes",
    [
        ([_V1, _V2], "Second regression.", [_PROGRESSION]),
        ([_V1, "junk", "junk"], "First regression.", [_PROGRESSION, _UNUSABLE]),
        ([_V1, "junk", _V3], "Third regression.", [_PROGRESSION, _UNUSABLE]),
        (["junk", "junk", _V3], "Third regression.", [_UNUSABLE, _UNUSABLE]),
    ],
    ids=["violation-violation", "violation-junk-junk", "violation-junk-violation", "junk-junk-violation"],
)
def test_generate_round_progression_reask_sequences(replies, expected, notes):
    prev = [_done(_mk("r1t1", 1, 3), "succeeded")]
    builder, history = _builder(replies)
    tasks = builder.generate_round("ctx", round_no=2, tasks_per_round=1, prev_round=prev)
    assert [t.description for t in tasks] == [expected]
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert len(prompts) == len(notes) + 1
    assert "Revision note:" not in prompts[0]
    for prompt, note in zip(prompts[1:], notes):
        assert prompt.split("\n")[-1].startswith(note)


_SNAPSHOT = "2 deployments, 2 pods"


def test_build_context_without_history():
    text = build_context(_SNAPSHOT, [])
    assert "== running state ==" in text
    assert "2 deployments, 2 pods" in text
    assert NO_HISTORY_MARKER in text


def test_build_context_summarizes_and_trims(monkeypatch):
    history = History()
    for i in range(1, 4):
        task = Task(id=f"r1t{i}", round=1, kind="observation", difficulty=1, description=f"step {i}")
        task.status = "succeeded"
        history.open_task(task.id)
        history.add("manager", f"prompt {i}", "prompt")
        if i == 2:
            history.add("environment", "command failed: exit 22", "feedback", feedback_kind="environment")
        history.close_task(task)
    summaries = summarize_history(history.records)
    assert [s.task_id for s in summaries] == ["r1t1", "r1t2", "r1t3"]
    assert summaries[1].last_feedback == "command failed: exit 22"
    assert summaries[0].outcome == "succeeded"

    text = build_context(_SNAPSHOT, history.records)
    assert "- r1t2: step 2" in text

    # A tight budget drops the oldest summaries first and says so.
    monkeypatch.setattr(curriculum, "CONTEXT_CHAR_BUDGET", 170)
    tight = build_context(_SNAPSHOT, history.records)
    assert "earlier tasks omitted" in tight
    assert "- r1t1" not in tight
    assert "- r1t3: step 3" in tight
