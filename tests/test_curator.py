"""Skill extraction, validation against the live cluster, and consolidation."""

from __future__ import annotations

from unittest import mock

import pytest

from opslearn import curator as curator_module
from opslearn.cluster import clone, load_topology, state_digest, tick
from opslearn.curator import KnowledgeCurator, parse_skills, render_trajectory
from opslearn.datalayer import History, InteractionRecord, SkillEntry, SkillLibrary, Task
from opslearn.llm import GatewayConfig, ScriptRecord, ScriptedGateway
from opslearn.resources import fixture_path

def _state():
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    tick(state, 300.0)
    return state


def _curator(records: list[ScriptRecord]) -> tuple[KnowledgeCurator, History]:
    gateway = ScriptedGateway(GatewayConfig(), records)
    history = History()
    gateway.history = history
    return KnowledgeCurator(gateway), history


def _task(description: str = "check catalogue memory") -> Task:
    return Task(id="t1", round=1, kind="observation", difficulty=1, description=description)


def _record(k: int, actor: str, payload: str, payload_kind: str, feedback_kind: str | None = None):
    return InteractionRecord(
        id=k, task_id="t1", actor=actor, payload=payload, payload_kind=payload_kind,
        feedback_kind=feedback_kind,
    )


TRAJECTORY = [
    _record(1, "manager", "decompose the task", "prompt"),
    _record(2, "catalogue", "kubectl get pods -n sock-shop", "command"),
    _record(3, "environment", '{"exit_code": 0}', "execution_result"),
    _record(4, "environment", "command failed once", "feedback", "environment"),
    _record(5, "catalogue", "ok: done", "completion"),
]


# -- trajectory rendering ------------------------------------------------------------


def test_render_trajectory_numbers_and_tags():
    text = render_trajectory(TRAJECTORY)
    lines = text.splitlines()
    assert lines[0] == "#1 [manager/prompt] decompose the task"
    assert lines[1] == "#2 [catalogue/command] kubectl get pods -n sock-shop"
    assert lines[3] == "#4 [environment/environment feedback] command failed once"


def test_render_trajectory_truncates_long_payloads():
    long = _record(1, "manager", "x" * 700, "prompt")
    text = render_trajectory([long])
    assert text == "#1 [manager/prompt] " + "x" * 600 + "…"


# -- skill block parsing --------------------------------------------------------------


SKILLS_TEXT = """Skill 1:
kind: Command
body: kubectl get pods -n sock-shop
description: list pods in the shop namespace

Skill 2:
kind: Configuration
body: catalogue runs image weaveworksdemos/catalogue:0.3.5
description: pinned catalogue image
subject: sock-shop/catalogue/image

Skill 3:
kind: Reflection
body: always encode PromQL before curling the API
description: avoids bad request errors
cites: #2 #4
"""


def test_parse_skills_happy_path():
    entries = parse_skills(SKILLS_TEXT, "t1")
    assert [e.kind for e in entries] == ["Command", "Configuration", "Reflection"]
    command, config, reflection = entries
    assert command.body == "kubectl get pods -n sock-shop"
    assert command.source_task == "t1"
    assert config.subject == "sock-shop/catalogue/image"
    assert reflection.cites == [2, 4]
    assert all(e.validated is False for e in entries)


def test_parse_skills_multiline_body():
    text = (
        "Skill 1:\nkind: Reflection\nbody: first line\nsecond line of the lesson\n"
        "description: spans lines\ncites: #1\n"
    )
    (entry,) = parse_skills(text, "t1")
    assert entry.body == "first line\nsecond line of the lesson"
    assert entry.description == "spans lines"


def test_parse_skills_rejects_prose():
    with pytest.raises(ValueError, match="no skill blocks found"):
        parse_skills("nothing worth keeping here.", "t1")


@pytest.mark.parametrize("answer", ["no skills.", "  no skills.\n"])
def test_parse_skills_accepts_the_documented_empty_answer(answer):
    assert parse_skills(answer, "t1") == []


def test_parse_skills_rejects_bad_kind():
    text = "Skill 1:\nkind: Trick\nbody: whatever\n"
    with pytest.raises(ValueError, match="skill 1.kind: 'Trick' is not one of 'Command', 'Configuration', 'Reflection'"):
        parse_skills(text, "t1")


def test_parse_skills_rejects_empty_body():
    text = "Skill 1:\nkind: Command\ndescription: body missing\n"
    with pytest.raises(ValueError, match="skill 1.body: missing"):
        parse_skills(text, "t1")


# -- extraction ----------------------------------------------------------------------


def test_extract_returns_parsed_entries():
    curator, _ = _curator([ScriptRecord("curator", SKILLS_TEXT, guard="Trajectory:")])
    entries = curator.extract(_task(), TRAJECTORY, "memory is 9Mi")
    assert len(entries) == 3
    assert entries[0].body == "kubectl get pods -n sock-shop"


def test_extract_reasks_after_unparseable_answer():
    records = [
        ScriptRecord("curator", "let me describe what happened instead"),
        ScriptRecord("curator", SKILLS_TEXT, guard="previous answer was rejected (no skill blocks found)"),
    ]
    curator, history = _curator(records)
    entries = curator.extract(_task(), TRAJECTORY, "solution")
    assert len(entries) == 3
    prompts = [r.payload for r in history.records if r.payload_kind == "prompt"]
    assert len(prompts) == 2


def test_extract_reasks_when_command_not_verbatim():
    loose = "Skill 1:\nkind: Command\nbody: kubectl get pods --all-namespaces\ndescription: made up\n"
    records = [
        ScriptRecord("curator", loose, guard="Trajectory:"),
        ScriptRecord(
            "curator",
            SKILLS_TEXT,
            guard="Command bodies must quote an executed command verbatim; these do not: "
            "'kubectl get pods --all-namespaces'.",
        ),
    ]
    curator, _ = _curator(records)
    entries = curator.extract(_task(), TRAJECTORY, "solution")
    assert [e.kind for e in entries] == ["Command", "Configuration", "Reflection"]


def test_extract_drops_commands_still_loose_after_reask():
    loose = (
        "Skill 1:\nkind: Command\nbody: kubectl get pods --all-namespaces\ndescription: made up\n\n"
        "Skill 2:\nkind: Reflection\nbody: keep queries encoded\ndescription: lesson\ncites: #2\n"
    )
    records = [ScriptRecord("curator", loose, max_uses=-1)]
    curator, _ = _curator(records)
    entries = curator.extract(_task(), TRAJECTORY, "solution")
    assert [e.kind for e in entries] == ["Reflection"]


def test_extract_accepts_empty_harvest():
    records = [ScriptRecord("curator", "no skills.", max_uses=-1)]
    curator, _ = _curator(records)
    entries = curator.extract(_task(), TRAJECTORY, "solution")
    assert entries == []
    assert curator.gateway.ledger.calls == 1  # the documented empty answer needs no re-ask


# -- validation ----------------------------------------------------------------------


def _entry(kind: str, body: str, **kwargs) -> SkillEntry:
    return SkillEntry(
        id=0, kind=kind, body=body, description=kwargs.pop("description", ""),
        source_task="t1", **kwargs,
    )


def test_validate_command_rejects_failing_line():
    curator, _ = _curator([])
    entry = _entry("Command", "kubectl get pods -n nope")
    assert curator.validate(entry, _state(), TRAJECTORY) == "rejected"
    assert curator.gateway.ledger.calls == 0  # no judge call for a broken command


def test_validate_command_judge_decides():
    match_records = [
        ScriptRecord("curator", "match", guard="Judge whether the command output matches"),
    ]
    curator, _ = _curator(match_records)
    entry = _entry("Command", "kubectl get pods -n sock-shop", description="lists the pods")
    assert curator.validate(entry, _state(), TRAJECTORY) == "validated"
    assert entry.validated is True

    curator2, _ = _curator([ScriptRecord("curator", "mismatch")])
    entry2 = _entry("Command", "kubectl get pods -n sock-shop", description="shows CPU load")
    assert curator2.validate(entry2, _state(), TRAJECTORY) == "rejected"


def test_validate_command_judge_is_case_tolerant():
    curator, _ = _curator([ScriptRecord("curator", "  Match — output agrees.")])
    entry = _entry("Command", "kubectl get pods -n sock-shop")
    assert curator.validate(entry, _state(), TRAJECTORY) == "validated"


def test_validate_command_runs_on_a_clone():
    curator, _ = _curator([ScriptRecord("curator", "match")])
    state = _state()
    entry = _entry("Command", "kubectl scale deployment catalogue --replicas=5 -n sock-shop")
    assert curator.validate(entry, state, TRAJECTORY) == "validated"
    assert len(state.find_deployment("sock-shop", "catalogue").pods) == 1


@pytest.mark.parametrize(
    "subject",
    [None, "catalogue/image", "sock-shop/ghost/image"],
)
def test_validate_configuration_needs_resolvable_subject(subject):
    curator, _ = _curator([])
    entry = _entry("Configuration", "some claim", subject=subject)
    assert curator.validate(entry, _state(), TRAJECTORY) == "rejected"


@pytest.mark.parametrize(
    "facet,good_body,bad_body",
    [
        (
            "image",
            "the catalogue deployment pins image weaveworksdemos/catalogue:0.3.5",
            "the catalogue deployment pins image weaveworksdemos/catalogue:0.4.0",
        ),
        (
            "resources",
            "catalogue requests 100m cpu / 100Mi memory and limits 200m / 200Mi",
            "catalogue requests 100m cpu and limits 200m",  # memory quantities missing
        ),
        (
            "command",
            "container starts /app with -port=80",
            "container starts /app on the default port",
        ),
        (
            "probes",
            "both probes hit /health after a 10 second delay",
            "both probes hit /status after a 10 second delay",
        ),
        (
            "replicas",
            "catalogue runs 1 replica",
            "catalogue runs two replicas",
        ),
    ],
)
def test_validate_configuration_known_facets(facet, good_body, bad_body):
    curator, _ = _curator([])
    subject = f"sock-shop/catalogue/{facet}"
    good = _entry("Configuration", good_body, subject=subject)
    bad = _entry("Configuration", bad_body, subject=subject)
    state = _state()
    assert curator.validate(good, state, TRAJECTORY) == "validated"
    assert curator.validate(bad, state, TRAJECTORY) == "rejected"


def test_a_probes_skill_for_a_deployment_without_probes_is_rejected():
    """A claim about probes that a deployment does not have checks nothing, so it is refused
    without a judge call; metrics-server has no probes."""
    curator, _ = _curator([])
    entry = _entry("Configuration", "metrics-server has no probes", subject="kube-system/metrics-server/probes")
    assert curator.validate(entry, _state(), TRAJECTORY) == "rejected"
    assert curator.gateway.ledger.calls == 0


def test_validate_configuration_replicas_tracks_current_state():
    from opslearn.cluster import mutate

    curator, _ = _curator([])
    state = _state()
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 3})
    entry = _entry("Configuration", "catalogue runs 3 replicas", subject="sock-shop/catalogue/replicas")
    assert curator.validate(entry, state, TRAJECTORY) == "validated"
    stale = _entry("Configuration", "catalogue runs 1 replica", subject="sock-shop/catalogue/replicas")
    assert curator.validate(stale, state, TRAJECTORY) == "rejected"


def test_validate_configuration_unknown_facet_uses_judge():
    """The judge reads a `kubectl describe` of the live state: no clone, and the state's
    digest and samples stay as they were."""
    records = [
        ScriptRecord("curator", "match", guard="agrees with the deployment description"),
    ]
    curator, _ = _curator(records)
    entry = _entry(
        "Configuration",
        "the catalogue deployment carries label app=catalogue",
        subject="sock-shop/catalogue/labels",
    )
    state = _state()
    digest, samples = state_digest(state), {sid: state.metrics.samples(sid) for sid in state.metrics.series_ids()}
    with mock.patch.object(curator_module, "clone", wraps=clone) as clones:
        assert curator.validate(entry, state, TRAJECTORY) == "validated"
    assert clones.call_count == 0
    assert state_digest(state) == digest
    assert {sid: state.metrics.samples(sid) for sid in state.metrics.series_ids()} == samples


def test_validate_reflection_citation_rules():
    curator, _ = _curator([])
    no_cites = _entry("Reflection", "lesson without backing")
    assert curator.validate(no_cites, _state(), TRAJECTORY) == "rejected"
    out_of_range = _entry("Reflection", "lesson", cites=[2, 99])
    assert curator.validate(out_of_range, _state(), TRAJECTORY) == "rejected"
    assert curator.gateway.ledger.calls == 0  # neither reached the judge


def test_validate_reflection_judge_decides():
    records = [ScriptRecord("curator", "match", guard="Judge whether the lesson is supported")]
    curator, _ = _curator(records)
    entry = _entry("Reflection", "feedback loops recover failed commands", cites=[2, 4])
    assert curator.validate(entry, _state(), TRAJECTORY) == "validated"

    curator2, _ = _curator([ScriptRecord("curator", "mismatch")])
    entry2 = _entry("Reflection", "the cluster has nine nodes", cites=[2])
    assert curator2.validate(entry2, _state(), TRAJECTORY) == "rejected"


# -- consolidation --------------------------------------------------------------------


def test_consolidate_stores_only_validated_entries():
    curator, _ = _curator([])
    library = SkillLibrary()
    kept = _entry("Command", "kubectl get pods -n sock-shop")
    kept.validated = True
    skipped = _entry("Command", "kubectl get svc -n sock-shop")
    counts = curator.consolidate(library, [kept, skipped])
    assert counts == {"stored": 1, "merged": 0, "conflicted": 0}
    assert len(library.entries) == 1


def test_consolidate_counts_merges_and_conflicts():
    curator, _ = _curator([])
    library = SkillLibrary()
    a = _entry("Command", "kubectl get pods -n sock-shop")
    b = _entry("Command", "kubectl get pods -n sock-shop")
    c = _entry("Configuration", "image is 0.3.5", subject="sock-shop/catalogue/image")
    d = _entry("Configuration", "image is 0.4.0", subject="sock-shop/catalogue/image")
    for e in (a, b, c, d):
        e.validated = True
    counts = curator.consolidate(library, [a, b, c, d])
    assert counts == {"stored": 2, "merged": 1, "conflicted": 1}


# -- whole pipeline --------------------------------------------------------------------


def test_curate_pipeline_extracts_validates_and_stores():
    records = [
        ScriptRecord("curator", SKILLS_TEXT, guard="Trajectory:"),
        ScriptRecord("curator", "match", guard="Judge whether the command output matches"),
        ScriptRecord("curator", "match", guard="Judge whether the lesson is supported"),
    ]
    curator, _ = _curator(records)
    library = SkillLibrary()
    counts = curator.curate(
        _task(), TRAJECTORY, "memory is 9Mi", _state(), library, round_no=2,
    )
    assert counts == {
        "stored": 3, "merged": 0, "conflicted": 0, "extracted": 3, "validated": 3,
    }
    assert [e.kind for e in library.entries] == ["Command", "Configuration", "Reflection"]
    assert all(e.created_round == 2 and e.trial == 1 for e in library.entries)
    assert all(e.validated for e in library.entries)


def test_curate_pipeline_drops_rejected_candidates():
    text = (
        "Skill 1:\nkind: Command\nbody: kubectl get pods -n sock-shop\ndescription: fine\n\n"
        "Skill 2:\nkind: Configuration\nbody: catalogue image is 0.4.0\n"
        "subject: sock-shop/catalogue/image\ndescription: stale claim\n"
    )
    records = [
        ScriptRecord("curator", text, guard="Trajectory:"),
        ScriptRecord("curator", "match", guard="Judge whether the command output matches"),
    ]
    curator, _ = _curator(records)
    library = SkillLibrary()
    counts = curator.curate(_task(), TRAJECTORY, "solution", _state(), library)
    assert counts["extracted"] == 2
    assert counts["validated"] == 1
    assert [e.kind for e in library.entries] == ["Command"]
