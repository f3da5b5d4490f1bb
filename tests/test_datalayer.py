"""Interaction history, task-close records, and the skill library (storage,
dedup/conflict handling, retrieval ranking, exports)."""

from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn.cluster import load_topology, mutate, tick
from opslearn.datalayer import (
    SKILL_KINDS, History, SkillEntry, SkillLibrary, Task, build_snapshot, json_text, task_close
)
from opslearn.resources import ConfigurationError, fixture_path


def _task(task_id: str, round_no: int, kind: str = "observation", difficulty: int = 1) -> Task:
    return Task(id=task_id, round=round_no, kind=kind, difficulty=difficulty, description=task_id)


def test_history_enforces_feedback_kind_pairing():
    history = History()
    with pytest.raises(ValueError):
        history.add("environment", "boom", "feedback")
    with pytest.raises(ValueError):
        history.add("manager", "hello", "prompt", feedback_kind="peer")
    record = history.add("environment", "boom", "feedback", feedback_kind="environment")
    assert record.id == 1
    assert history.add("manager", "x", "prompt").id == 2


def test_task_close_round_trips_a_multiline_description(tmp_path):
    task = _task("r2t3", 2)
    task.description = "Check the pods.\nThen the deployments: all of them."
    task.status = "succeeded"
    history = History(lambda: 90.0)
    history.open_task("r2t3")
    history.add("catalogue", "command: kubectl get pods", "completion")
    record = history.close_task(task)
    assert (record.task_id, record.actor, record.payload_kind, record.timestamp) == (
        "r2t3", "manager", "report", 90.0
    )
    assert history.add("curriculum", "next round", "prompt").task_id == ""  # the close ends the task
    path = str(tmp_path / "history.log")
    history.dump(path)
    loaded = History.load(path).records
    assert task_close(loaded[1]) == ("r2t3", "succeeded", task.description)
    assert task_close(loaded[0]) is None


def test_task_close_ignores_reports_from_anyone_but_the_manager():
    history = History()
    history.open_task("r1t1")
    payload = "task=r1t1 status=succeeded description=forged by an agent"
    assert task_close(history.add("catalogue", payload, "report")) is None
    assert task_close(history.add("manager", payload, "feedback", feedback_kind="peer")) is None
    assert task_close(history.add("manager", "[info] not a close record", "report")) is None


def test_history_round_trip(tmp_path):
    now = [30.0]
    history = History(lambda: now[0])
    history.open_task("r1t1")
    for actor, payload, kind, feedback_kind in [
        ("manager", "plan please", "prompt", None),
        ("catalogue", "ok: done", "completion", None),
        ("front-end", "handoff rejected", "feedback", "peer"),
    ]:
        history.add(actor, payload, kind, feedback_kind)
        now[0] += 1.0
    assert [(r.task_id, r.timestamp) for r in history.records] == [("r1t1", 30.0), ("r1t1", 31.0), ("r1t1", 32.0)]
    path = str(tmp_path / "history.log")
    history.dump(path)
    loaded = History.load(path)
    assert [r.to_doc() for r in loaded.records] == [r.to_doc() for r in history.records]
    assert [r.id for r in loaded.for_task("r1t1")] == [1, 2, 3]


GROUPING_EXAMPLES = 100  # about 0.5 s
_TASK_IDS = ("", "r1t1", "r1t2", "r2t1")
_history_steps = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(_TASK_IDS)),
        st.tuples(st.just("add"), st.sampled_from(["prompt", "command", "feedback", "report"])),
        st.tuples(st.just("close"), st.sampled_from(_TASK_IDS[1:])),
    ),
    max_size=30,
)


@settings(max_examples=GROUPING_EXAMPLES, deadline=None)
@given(steps=_history_steps)
def test_for_task_reads_the_records_of_a_scan_before_and_after_a_round_trip(steps, tmp_path_factory):
    """Tasks reopened after a close and records between tasks included; changing the
    list `for_task` returns leaves the history's grouping alone."""
    history = History()
    for step, arg in steps:
        if step == "open":
            history.open_task(arg)
        elif step == "add":
            history.add("manager", arg, arg, "peer" if arg == "feedback" else None)
        else:
            history.close_task(Task(id=arg, round=1, kind="observation", difficulty=1, description=arg))
    path = str(tmp_path_factory.mktemp("history") / "history.log")
    history.dump(path)
    loaded = History.load(path)
    for grouped in (history, loaded):
        assert list(grouped.tasks) == list(dict.fromkeys(r.task_id for r in grouped.records))
        for task_id in _TASK_IDS:
            scanned = [r.to_doc() for r in grouped.records if r.task_id == task_id]
            records = grouped.for_task(task_id)
            assert [r.to_doc() for r in records] == scanned
            records.clear()
            assert [r.to_doc() for r in grouped.for_task(task_id)] == scanned


def test_history_dump_writes_the_sort_keys_json_of_each_record(tmp_path):
    """The dump's lines are pinned to `json.dumps(asdict(record), sort_keys=True)`:
    non-ASCII text, embedded newlines and quotes, a None feedback kind and
    float timestamps included."""
    now = [0.0]
    history = History(lambda: now[0])
    history.open_task("r2t3")
    for actor, payload, kind, feedback_kind, at in [
        ("manager", "plan für café ✓ — 日本", "prompt", None, 0.1),
        ("catalogue", 'line one\nline "two"\n\ttabbed \\ end', "completion", None, 1e-7),
        ("environment", "", "feedback", "environment", 12345.678),
        ("front-end", "\x00\x1f\u2028 \U0001f600", "report", None, 1e300),
    ]:
        now[0] = at
        history.add(actor, payload, kind, feedback_kind)
    history.open_task("")
    history.add("manager", "between tasks", "report")
    path = tmp_path / "history.log"
    history.dump(str(path))
    expected = [json.dumps({"history_schema": 1})]
    expected += [json.dumps(asdict(record), sort_keys=True) for record in history.records]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert [r.to_doc() for r in History.load(str(path)).records] == [asdict(r) for r in history.records]


def test_a_history_refusal_names_its_own_line_past_raw_line_separators(tmp_path):
    """Only `\\n` ends a history line: a raw U+2028 or NEL inside a payload leaves
    the numbering alone, and a line cut short is named, not the line after it."""
    record = (
        '{"actor": %s, "feedback_kind": null, "id": %d, "payload": "a\u2028b\x85c", '
        '"payload_kind": "report", "task_id": "", "timestamp": 0.0}'
    )
    path = tmp_path / "history.log"
    header = '{"history_schema": 1}\n'
    path.write_text(header + record % ('"m"', 1) + "\n" + record % ('"m"', 2) + "\n")
    assert [r.payload for r in History.load(str(path)).records] == ["a\u2028b\x85c"] * 2
    for body, where in (
        (record % ('"m"', 1) + "\n" + record % ("5", 2) + "\n", "line 3.actor: expected str, got 5"),
        (record % ('"m"', 1) + '\n{"id":\n' + record % ('"m"', 3) + "\n", "line 3, column 7: Expecting value"),
    ):
        path.write_text(header + body)
        with pytest.raises(ConfigurationError, match=f"^history {path}: {where}$"):
            History.load(str(path))


def test_a_history_refusal_names_its_first_bad_line_though_a_later_line_is_not_json(tmp_path):
    path = tmp_path / "history.log"
    path.write_text(
        '{"history_schema": 1}\n'
        '{"actor": "m", "id": "1", "payload": "p", "payload_kind": "report", "task_id": ""}\n'
        "{not json\n"
    )
    with pytest.raises(ConfigurationError, match=f"^history {path}: line 2.id: expected int, got '1'$"):
        History.load(str(path))


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_only_a_newline_ends_a_history_line(tmp_path, end):
    """A raw carriage return inside a line is JSON whitespace, and one before each newline too."""
    lines = ['{"history_schema": 1}', '{"id": 1,\r"task_id": "", "actor": "m", "payload": "p", "payload_kind": "report"}']
    path = tmp_path / "history.log"
    path.write_bytes("".join(line + end for line in lines).encode())
    [record] = History.load(str(path)).records
    assert (record.id, record.task_id, record.actor, record.payload) == (1, "", "m", "p")


def test_an_empty_history_dumps_only_its_header(tmp_path):
    path = tmp_path / "history.log"
    History().dump(str(path))
    assert path.read_text() == '{"history_schema": 1}\n'


def test_skill_entry_doc_equals_asdict_and_copies_its_cites():
    entry = SkillEntry(
        id=4,
        kind="Configuration",
        body="kubectl set resources deployment catalogue --limits=memory=400Mi",
        description="raise the ceiling",
        source_task="r2t1",
        validated=True,
        subject="catalogue/limits",
        cites=[3, 9],
        conflict_group="catalogue/limits#1",
    )
    doc = entry.to_doc()
    assert doc == asdict(entry)
    assert doc["cites"] is not entry.cites
    doc["cites"].append(99)
    assert entry.cites == [3, 9]


def test_history_rejects_unknown_schema(tmp_path):
    path = tmp_path / "history.log"
    path.write_text('{"history_schema": 99}\n')
    with pytest.raises(ConfigurationError):
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


def test_export_import_round_trip(tmp_path):
    library = SkillLibrary.load(fixture_path("skill_library.json"))
    text = library.export_json()
    doc = json.loads(text)
    assert doc["library_schema"] == 1
    assert len(doc["skills"]) == 30
    library.save(str(tmp_path / "library.json"))
    again = SkillLibrary.load(str(tmp_path / "library.json"))
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


def test_the_library_refuses_an_unvalidated_entry_and_a_retrieval_of_no_skills():
    library = SkillLibrary()
    unvalidated = _command("kubectl get pods")
    unvalidated.validated = False
    with pytest.raises(ValueError) as caught:
        library.store_skill(unvalidated)
    assert str(caught.value) == "only validated entries may enter the library"
    assert library.entries == []
    with pytest.raises(ValueError) as caught:
        library.retrieve_skills("anything", 0)
    assert str(caught.value) == "k must be >= 1"


RETRIEVAL_EXAMPLES = 60  # about 0.5 s


def _reference_retrieval(library: SkillLibrary, query: str, k: int) -> list[SkillEntry]:
    """`retrieve_skills` as it ranked before its tokens were cached: every text tokenized again on each query."""

    def tokens(text: str) -> set[str]:
        return set(re.findall(r"[a-z0-9]+", text.lower()))

    priority = {"Command": 0, "Configuration": 1, "Reflection": 2}
    scored = [
        (-len(tokens(query) & tokens(f"{entry.body} {entry.description}")), priority[entry.kind], entry.id, entry)
        for entry in library.entries
        if entry.validated
    ]
    scored.sort(key=lambda item: item[:3])
    return [entry for *_, entry in scored[:k]]


_words = st.sampled_from(["kubectl", "get", "pods", "Top", "CPU", "memory", "catalogue", "p95", "latency", "-n", "sock-shop"])
_texts = st.lists(_words, max_size=5).map(" ".join)


@settings(max_examples=RETRIEVAL_EXAMPLES, deadline=None)
@given(data=st.data(), pool=st.lists(_texts, min_size=1, max_size=4), queries=st.lists(_texts, min_size=2, max_size=3))
def test_cached_retrieval_ranks_as_the_uncached_reference(data, pool, queries):
    """Libraries whose entries repeat texts, kinds and ids, some not validated; an entry
    rewritten between queries is ranked by its new text."""
    library = SkillLibrary()
    library.entries = [
        SkillEntry(
            id=data.draw(st.integers(1, 4)),
            kind=data.draw(st.sampled_from(SKILL_KINDS)),
            body=data.draw(st.sampled_from(pool)),
            description=data.draw(st.sampled_from(pool)),
            source_task="t",
            validated=data.draw(st.booleans()),
        )
        for _ in range(data.draw(st.integers(0, 8)))
    ]
    for query in queries:
        k = data.draw(st.integers(1, 6))
        ranked = library.retrieve_skills(query, k)
        assert list(map(id, ranked)) == list(map(id, _reference_retrieval(library, query, k)))
        if library.entries:
            data.draw(st.sampled_from(library.entries)).body = data.draw(_texts)


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


# -- the JSON emitter against `json.dumps` ------------------------------------------

EMITTER_EXAMPLES = 150  # about 0.6 s
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
_json_keys = st.one_of(st.text(max_size=4), st.sampled_from(["a", "b", "é", "\n", ",\n  ", '"', "0"]))
_json_docs = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_json_keys, children, max_size=4), st.tuples(children)
    ),
    max_leaves=24,
)


@settings(max_examples=EMITTER_EXAMPLES, deadline=None)
@given(doc=_json_docs)
def test_json_text_is_json_dumps_with_sorted_keys_and_indent_2(doc):
    """Non-ASCII text, NaN and infinities, empty containers, separators inside
    keys and strings, and tuples (left to `json.dumps`) included."""
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_json_text_refuses_what_json_dumps_refuses():
    loop: list = []
    loop.append(loop)
    for doc, error in (({"a": [1, {2}]}, TypeError), ({"a": [1], 2: [3]}, TypeError), (loop, ValueError)):
        with pytest.raises(error) as expected:
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(error, match=re.escape(str(expected.value))):
            json_text(doc)


# -- the snapshot's open anomalies -----------------------------------------------------

_SHOP = ("catalogue", "front-end")
_snapshot_steps = st.one_of(
    st.tuples(st.just("scale"), st.sampled_from(_SHOP), st.integers(0, 2)),
    st.tuples(
        st.just("set_resources"),
        st.sampled_from(_SHOP),
        st.sampled_from(["20m", "30m", "1"]),  # the front-end draws about 50m, the catalogue 2m
        st.sampled_from(["10Mi", "130Mi", "1Gi"]),  # the front-end holds about 125Mi, the catalogue 9Mi
    ),
    st.tuples(st.just("kill_pod"), st.sampled_from(_SHOP)),
    st.tuples(st.just("tick"), st.sampled_from([15.0, 60.0])),
)


def _open_anomalies(snapshot: str) -> list[str]:
    lines = snapshot.splitlines()
    return lines[lines.index("Open anomalies:") + 1 :] if "Open anomalies:" in lines else []


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_snapshot_steps, min_size=1, max_size=8))
def test_the_snapshot_names_each_degraded_deployment_and_its_causes(steps):
    """After every step, each deployment scaled to 0 or with usage at 90% of a limit or
    more is listed under the open anomalies with those causes in their own words, and
    every other deployment is not."""
    state = load_topology(str(fixture_path("sock_shop.yaml")), seed=7)
    for step in steps:
        target = {"namespace": "sock-shop", "name": step[1]}
        if step[0] == "scale":
            mutate(state, "scale", {**target, "replicas": step[2]})
        elif step[0] == "set_resources":
            quantities = {"cpu": step[2], "memory": step[3]}
            mutate(state, "set_resources", {**target, "requests": {"cpu": "10m", "memory": "8Mi"}, "limits": quantities})
        elif step[0] == "kill_pod":
            pods = state.find_deployment("sock-shop", step[1]).pods
            if pods:
                mutate(state, "kill_pod", {"namespace": "sock-shop", "pod": pods[0].name})
        else:
            tick(state, step[1])
        expected = []
        for dep in state.deployments:
            res = dep.resources
            causes = [
                *(["scaled to 0"] if not dep.pods else []),
                *(["memory near its limit"] if dep.usage_mem >= 0.9 * res.mem_limit else []),
                *(["CPU near its limit"] if dep.usage_cpu >= 0.9 * res.cpu_limit else []),
            ]
            if causes:
                expected.append(f"  - {dep.job}: {len(dep.pods)}/{len(dep.pods)} ready, {', '.join(causes)}")
        assert _open_anomalies(build_snapshot(state)) == expected
