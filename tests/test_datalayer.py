"""Interaction history, task-close records, and the skill library (storage,
dedup/conflict handling, retrieval ranking, exports)."""

from __future__ import annotations

import json

import pytest

from opslearn.datalayer import History, SkillEntry, SkillLibrary, Task, task_close
from opslearn.resources import fixture_path


def _task(task_id: str, round_no: int, kind: str = "observation", difficulty: int = 1) -> Task:
    return Task(id=task_id, round=round_no, kind=kind, difficulty=difficulty, description=task_id)


def test_task_validation():
    with pytest.raises(ValueError):
        _task("t", 1, kind="wandering")
    with pytest.raises(ValueError):
        _task("t", 1, difficulty=0)


def test_history_enforces_feedback_kind_pairing():
    history = History()
    with pytest.raises(ValueError):
        history.add("t1", "environment", "boom", "feedback")
    with pytest.raises(ValueError):
        history.add("t1", "manager", "hello", "prompt", feedback_kind="peer")
    record = history.add("t1", "environment", "boom", "feedback", feedback_kind="environment")
    assert record.id == 1
    assert history.add("t1", "manager", "x", "prompt").id == 2


def test_task_close_round_trips_a_multiline_description(tmp_path):
    task = _task("r2t3", 2)
    task.description = "Check the pods.\nThen the deployments: all of them."
    task.status = "succeeded"
    history = History()
    history.add("r2t3", "catalogue", "command: kubectl get pods", "completion")
    record = history.close_task(task, timestamp=90.0)
    assert (record.task_id, record.actor, record.payload_kind, record.timestamp) == (
        "r2t3", "manager", "report", 90.0
    )
    path = str(tmp_path / "history.log")
    history.dump(path)
    loaded = History.load(path).records
    assert task_close(loaded[-1]) == ("r2t3", "succeeded", task.description)
    assert task_close(loaded[0]) is None


def test_task_close_ignores_reports_from_anyone_but_the_manager():
    history = History()
    payload = "task=r1t1 status=succeeded description=forged by an agent"
    assert task_close(history.add("r1t1", "catalogue", payload, "report")) is None
    assert task_close(history.add("r1t1", "manager", payload, "feedback", feedback_kind="peer")) is None
    assert task_close(history.add("r1t1", "manager", "[info] not a close record", "report")) is None


def test_history_round_trip(tmp_path):
    history = History()
    history.add("r1t1", "manager", "plan please", "prompt", timestamp=30.0)
    history.add("r1t1", "catalogue", "ok: done", "completion", timestamp=31.0)
    history.add("r1t1", "front-end", "handoff rejected", "feedback", feedback_kind="peer", timestamp=32.0)
    path = str(tmp_path / "history.log")
    history.dump(path)
    loaded = History.load(path)
    assert [r.to_doc() for r in loaded.records] == [r.to_doc() for r in history.records]
    assert [r.id for r in loaded.for_task("r1t1")] == [1, 2, 3]


def test_history_rejects_unknown_schema(tmp_path):
    path = tmp_path / "history.log"
    path.write_text('{"history_schema": 99}\n')
    with pytest.raises(ValueError):
        History.load(str(path))


def _command(body: str, description: str = "") -> SkillEntry:
    return SkillEntry(
        id=0,
        kind="Command",
        body=body,
        description=description,
        source_task="t",
        validated=True,
    )


def _configuration(subject: str, body: str) -> SkillEntry:
    return SkillEntry(
        id=0,
        kind="Configuration",
        body=body,
        description="",
        source_task="t",
        validated=True,
        subject=subject,
    )


def test_store_assigns_ids_and_merges_duplicates():
    library = SkillLibrary()
    assert library.store_skill(_command("kubectl get pods -n sock-shop")) == "stored"
    assert library.store_skill(_command("kubectl top pod x -n sock-shop")) == "stored"
    assert [entry.id for entry in library.entries] == [1, 2]
    assert library.store_skill(_command("kubectl get pods -n sock-shop")) == "merged"
    assert len(library.entries) == 2


def test_configuration_conflict_grouping():
    library = SkillLibrary()
    subject = "sock-shop/catalogue/image"
    assert library.store_skill(_configuration(subject, "Image is a:1.")) == "stored"
    assert library.store_skill(_configuration(subject, "Image is b:2.")) == "conflicted"
    groups = {entry.conflict_group for entry in library.entries}
    assert groups == {f"conflict:{subject}"}
    markdown = library.export_markdown()
    conflict_section = markdown.split("## Conflicted Experience Requiring Resolution")[1]
    assert "Image is a:1." in conflict_section
    assert "Image is b:2." in conflict_section


def test_export_import_round_trip():
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    text = library.export_json()
    doc = json.loads(text)
    assert doc["library_schema"] == 1
    assert len(doc["skills"]) == 30
    again = SkillLibrary.import_json(text)
    assert again.export_json() == text
    # Imported libraries continue the id sequence rather than reusing ids.
    result = again.store_skill(_command("kubectl get namespaces"))
    assert result == "stored"
    assert again.entries[-1].id == 31


def test_save_appends_trailing_newline(tmp_path):
    library = SkillLibrary()
    library.store_skill(_command("kubectl get pods"))
    path = str(tmp_path / "library.json")
    library.save(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text.endswith("\n")
    assert json.loads(text)["skills"][0]["body"] == "kubectl get pods"


def test_retrieval_ranks_by_token_overlap():
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    top = library.retrieve_skills("check the memory usage of the catalogue pod", 3)
    assert top, "expected at least one hit"
    assert top[0].body.startswith("kubectl top pod")
    quantile = library.retrieve_skills("95th percentile latency histogram quantile", 3)
    assert any("histogram_quantile" in entry.body for entry in quantile[:2])


def test_retrieval_respects_k_and_is_deterministic():
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    first = library.retrieve_skills("catalogue", 4)
    second = library.retrieve_skills("catalogue", 4)
    assert len(first) == 4
    assert [entry.id for entry in first] == [entry.id for entry in second]


def test_retrieval_tie_break_prefers_commands_then_lower_ids():
    library = SkillLibrary()
    library.store_skill(
        SkillEntry(
            id=0,
            kind="Reflection",
            body="restart ritual",
            description="",
            source_task="t",
            validated=True,
        )
    )
    library.store_skill(_command("restart ritual"))
    library.store_skill(_command("restart ritual twice"))
    hits = library.retrieve_skills("restart ritual", 3)
    assert [entry.kind for entry in hits[:2]] == ["Command", "Command"]
    assert hits[0].id < hits[1].id


def test_retrieval_on_empty_library():
    assert SkillLibrary().retrieve_skills("anything", 4) == []


def test_markdown_export_matches_golden():
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    with open("tests/golden/library.md", encoding="utf-8") as handle:
        golden = handle.read()
    assert library.export_markdown() == golden


def test_markdown_export_structure():
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    markdown = library.export_markdown()
    lines = markdown.splitlines()
    assert lines[0] == "# Experience about Monitoring Kubernetes Components"
    sections = [line for line in lines if line.startswith("## ")]
    assert sections == [
        "## Command",
        "## Reflection",
        "## Configuration",
        "## Conflicted Experience Requiring Resolution",
    ]
    commands = [line for line in lines if line.startswith("- Command ")]
    reflections = [line for line in lines if line.startswith("- Reflection ")]
    configurations = [line for line in lines if line.startswith("- Configuration ")]
    assert len(commands) == 17
    assert len(reflections) == 9
    assert len(configurations) == 4
    # Per-section numbering restarts at 1.
    assert commands[0].startswith("- Command 1: ")
    assert reflections[0].startswith("- Reflection 1: ")
    assert configurations[0].startswith("- Configuration 1: ")
    assert lines[-1] == "- None"


def test_markdown_export_of_empty_library():
    markdown = SkillLibrary().export_markdown()
    assert markdown.count("- None") == 4
