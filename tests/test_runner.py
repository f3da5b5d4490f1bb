"""Trial orchestration: knowledge tracking, evaluation, replay, and reports."""

from __future__ import annotations

import gc
import hashlib
import json
import os

import pytest

from opslearn.cluster import load_topology
from opslearn.datalayer import SkillEntry, SkillLibrary
from opslearn.resources import fixture_path
from opslearn.runner import (
    ConfigurationError,
    KnowledgePoint,
    KnowledgeTracker,
    TrialConfig,
    assemble_grid,
    check_post_conditions,
    component_names,
    default_knowledge_points,
    emit_report,
    load_suite,
    replay_history,
    run_evaluation,
    run_trial,
)


@pytest.fixture(scope="module")
def golden_trial(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trial")
    result = run_trial(TrialConfig(seed=7, out_dir=str(out_dir)))
    return result, out_dir


def _skill(kind: str, body: str, validated: bool = True) -> SkillEntry:
    entry = SkillEntry(id=0, kind=kind, body=body, description="", source_task="t1")
    entry.validated = validated
    return entry


def _library(*entries: SkillEntry) -> SkillLibrary:
    library = SkillLibrary()
    for entry in entries:
        library.store_skill(entry)
    return library


# -- configuration ---------------------------------------------------------------


def test_trial_config_document():
    doc = TrialConfig(seed=7).to_doc()
    assert doc == {
        "seed": 7,
        "rounds": 5,
        "tasks_per_round": 3,
        "mode": "full",
        "budget_usd": 10.0,
        "time_budget_min": 30.0,
        "llm": "scripted",
    }


def test_trial_config_default_fixture():
    assert TrialConfig().fixture_file() == str(fixture_path("sock_shop.yaml"))
    assert TrialConfig(fixture="/tmp/other.yaml").fixture_file() == "/tmp/other.yaml"


def test_component_names_skip_system_namespace():
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    assert component_names(state) == ("catalogue", "front-end")


# -- knowledge points --------------------------------------------------------------


def test_default_knowledge_points_cover_both_categories():
    points = default_knowledge_points()
    assert [p.label for p in points] == [
        "kubectl-command-construction",
        "kubectl-resource-usage",
        "prometheus-config",
        "prometheus-query-encoding",
        "prometheus-metric-query",
    ]
    assert [p.category for p in points] == ["kubectl", "kubectl", "prometheus", "prometheus", "prometheus"]
    assert all(p.acquired_round is None for p in points)


@pytest.mark.parametrize(
    "label,kind,body",
    [
        ("kubectl-command-construction", "Command", "kubectl get pods -n sock-shop"),
        ("kubectl-resource-usage", "Command", "kubectl top pod -n sock-shop"),
        ("prometheus-config", "Command", "curl http://prometheus:9090/api/v1/label/__name__/values"),
        ("prometheus-query-encoding", "Reflection", "always URL-encode the query, %5B500s%5D style"),
        ("prometheus-query-encoding", "Reflection", "queries must be encoded before sending"),
        ("prometheus-metric-query", "Command", "curl .../query?query=histogram_quantile%280.95..."),
    ],
)
def test_knowledge_points_fire_on_matching_skills(label, kind, body):
    tracker = KnowledgeTracker()
    newly = tracker.update(_library(_skill(kind, body)), round_no=2, task_id="r2t1")
    assert label in newly
    point = next(p for p in tracker.points if p.label == label)
    assert point.acquired_round == 2
    assert point.acquired_task == "r2t1"


def test_knowledge_points_ignore_unvalidated_skills():
    tracker = KnowledgeTracker()
    library = SkillLibrary()
    # the store refuses unvalidated entries, but the tracker re-checks the
    # flag anyway so imported or hand-built lists cannot fire milestones
    library.entries.append(_skill("Command", "kubectl get pods", validated=False))
    assert tracker.update(library, 1, "r1t1") == []
    assert all(p.acquired_round is None for p in tracker.points)


def test_knowledge_point_first_hit_wins():
    tracker = KnowledgeTracker(
        [KnowledgePoint(1, "kubectl-command-construction", "kubectl")]
    )
    library = _library(_skill("Command", "kubectl get pods -n sock-shop"))
    assert tracker.update(library, 1, "r1t1") == ["kubectl-command-construction"]
    library.store_skill(_skill("Command", "kubectl get svc -n sock-shop"))
    assert tracker.update(library, 3, "r3t2") == []
    assert tracker.points[0].acquired_round == 1
    assert tracker.order == ["kubectl-command-construction"]


# -- evaluation suite loading --------------------------------------------------------


def test_load_suite_bundled_fixture():
    tasks = load_suite(str(fixture_path("eval_suite.yaml")))
    assert [t["id"] for t in tasks] == [
        "scale-front-end",
        "raise-catalogue-memory",
        "label-front-end",
        "front-end-p95-latency",
        "repair-catalogue-probe",
    ]


def test_load_suite_rejects_other_documents(tmp_path):
    bad = tmp_path / "other.yaml"
    bad.write_text("just: prose\n")
    with pytest.raises(ConfigurationError, match="not an evaluation suite"):
        load_suite(str(bad))


def test_load_suite_rejects_incomplete_tasks(tmp_path):
    bad = tmp_path / "suite.yaml"
    bad.write_text("suite_schema: 1\ntasks:\n  - id: nameless\n")
    with pytest.raises(ConfigurationError, match="task 0 missing description"):
        load_suite(str(bad))


# -- post-conditions -----------------------------------------------------------------


@pytest.fixture()
def fixture_state():
    return load_topology(fixture_path("sock_shop.yaml"), seed=7)


@pytest.mark.parametrize(
    "field,expected",
    [
        ("replicas", "1"),
        ("image", "weaveworksdemos/catalogue:0.3.5"),
        ("labels.name", "catalogue"),
        ("labels.missing", ""),
        ("resources.cpu_request", "100m"),
        ("resources.mem_limit", "200Mi"),
        ("probes.liveness.http_path", "/health"),
        ("probes.liveness.initial_delay", "10"),
        ("probes.startup.http_path", ""),  # no such probe on the deployment
    ],
)
def test_post_condition_deployment_fields(fixture_state, field, expected):
    cond = {"deployment": "sock-shop/catalogue", "field": field, "equals": expected}
    assert check_post_conditions(fixture_state, None, [cond]) is True


def test_post_condition_mismatch_and_missing_deployment(fixture_state):
    wrong = {"deployment": "sock-shop/catalogue", "field": "replicas", "equals": "4"}
    assert check_post_conditions(fixture_state, None, [wrong]) is False
    ghost = {"deployment": "sock-shop/ghost", "field": "replicas", "equals": "1"}
    assert check_post_conditions(fixture_state, None, [ghost]) is False


def test_post_condition_solution_regex(fixture_state):
    cond = {"solution_matches": r"0\.00\d+ seconds"}
    assert check_post_conditions(fixture_state, "p95 is 0.0032 seconds", [cond]) is True
    assert check_post_conditions(fixture_state, "p95 is around 3ms", [cond]) is False
    assert check_post_conditions(fixture_state, None, [cond]) is False


def test_post_condition_conjunction(fixture_state):
    conds = [
        {"solution_matches": "scaled"},
        {"deployment": "sock-shop/catalogue", "field": "replicas", "equals": "1"},
    ]
    assert check_post_conditions(fixture_state, "deployment scaled", conds) is True
    conds[1]["equals"] = "2"
    assert check_post_conditions(fixture_state, "deployment scaled", conds) is False


def test_post_condition_field_errors(fixture_state):
    for field in ("resources.gpu", "probes.liveness.port", "annotations"):
        cond = {"deployment": "sock-shop/catalogue", "field": field, "equals": "x"}
        with pytest.raises(ConfigurationError):
            check_post_conditions(fixture_state, None, [cond])
    with pytest.raises(ConfigurationError, match="unusable post-condition"):
        check_post_conditions(fixture_state, None, [{"neither": "shape"}])


# -- trial loop ---------------------------------------------------------------------


def test_golden_trial_completes_all_rounds(golden_trial):
    result, out_dir = golden_trial
    assert result.exit_code == 0
    report = result.report
    assert report["report_schema"] == 1
    assert report["completed_rounds"] == 5
    assert report["truncated"] is False
    assert report["truncation_reason"] is None
    assert len(report["tasks"]) == 15
    assert {t["round"] for t in report["tasks"]} == {1, 2, 3, 4, 5}
    assert report["library_size"] == sum(report["skill_counts"].values())
    assert report["usage"]["calls"] > 0
    assert report["mutation_count"] > 0


def test_golden_trial_acquires_kubectl_before_prometheus(golden_trial):
    result, _ = golden_trial
    order = result.report["acquisition_order"]
    assert len(order) == 5
    categories = {p["label"]: p["category"] for p in result.report["knowledge_points"]}
    first_prometheus = next(i for i, label in enumerate(order) if categories[label] == "prometheus")
    assert all(categories[label] == "kubectl" for label in order[:first_prometheus])
    assert all(p["acquired_round"] is not None for p in result.report["knowledge_points"])


def test_golden_trial_writes_artifacts(golden_trial):
    _, out_dir = golden_trial
    for name in ("history.log", "library.json", "library.md", "report.json"):
        assert (out_dir / name).exists()
    for round_no in range(1, 6):
        assert (out_dir / f"library_round_{round_no}.json").exists()
    report_doc = json.loads((out_dir / "report.json").read_text())
    assert report_doc["completed_rounds"] == 5


def test_observation_only_trial_leaves_no_mutations(tmp_path):
    result = run_trial(
        TrialConfig(
            seed=7,
            rounds=1,
            tasks_per_round=1,
            mode="observation_only",
            script=str(fixture_path("scripts/observation_only.yaml")),
            out_dir=str(tmp_path),
        )
    )
    assert result.exit_code == 0
    assert result.report["mutation_count"] == 0
    (task,) = result.report["tasks"]
    assert task["kind"] == "observation"
    assert task["status"] == "succeeded"


def test_run_trial_leaves_no_reference_cycles(tmp_path):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_trial(TrialConfig(seed=7, out_dir=str(tmp_path)))
        gc.collect()
        leaked = {type(obj).__qualname__ for obj in gc.garbage if type(obj).__module__.startswith("opslearn")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == set()


def test_run_trial_rejects_bad_mode():
    with pytest.raises(ConfigurationError, match="unknown trial mode"):
        run_trial(TrialConfig(mode="chaotic"))


def test_run_trial_rejects_missing_fixture(tmp_path):
    config = TrialConfig(fixture=str(tmp_path / "absent.yaml"), out_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match="fixture"):
        run_trial(config)


# -- evaluation ---------------------------------------------------------------------


def test_run_evaluation_requires_scripted_gateway():
    with pytest.raises(ConfigurationError, match="scripted gateway only"):
        run_evaluation(SkillLibrary(), [], TrialConfig(llm="live"))


def test_run_evaluation_scores_suite_tasks(golden_trial, tmp_path):
    _, out_dir = golden_trial
    library = SkillLibrary.load(str(out_dir / "library.json"))
    suite = [
        t for t in load_suite(str(fixture_path("eval_suite.yaml")))
        if t["id"] in ("scale-front-end", "repair-catalogue-probe")
    ]
    column = run_evaluation(library, suite, TrialConfig(seed=7, out_dir=str(tmp_path)))
    assert column["tasks"] == ["scale-front-end", "repair-catalogue-probe"]
    assert column["cells"]["scale-front-end"] == [3, 3]
    # the probe task's setup mutation breaks the path first; the trained
    # library carries the patch command that restores it
    assert column["cells"]["repair-catalogue-probe"] == [3, 3]


def test_assemble_grid_shapes_rows_and_columns():
    column_a = {"tasks": ["t1", "t2"], "cells": {"t1": [0, 3], "t2": [3, 3]}, "repeats": 3}
    column_b = {"tasks": ["t1", "t2"], "cells": {"t1": [3, 3], "t2": [3, 3]}, "repeats": 3}
    grid = assemble_grid([("round1", column_a), ("final", column_b)])
    assert grid == {
        "grid_schema": 1,
        "tasks": ["t1", "t2"],
        "columns": ["round1", "final"],
        "cells": [["0/3", "3/3"], ["3/3", "3/3"]],
    }


def test_assemble_grid_needs_columns():
    with pytest.raises(ConfigurationError, match="at least one evaluation column"):
        assemble_grid([])


# -- replay -------------------------------------------------------------------------


# The seed-7 scripted trial is byte-stable; a change that moves one of these
# prefixes changes observable behaviour and must say why.
SEED_7_FINGERPRINTS = {
    "history.log": "3a7224d399c1fac5",
    "library.json": "03b15a663ed6eb34",
    "report.json": "1087b165bc4dbf29",
}


def test_seed_7_fingerprints_and_byte_identical_replay(golden_trial, tmp_path):
    _, out_dir = golden_trial
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
        for name in SEED_7_FINGERPRINTS
    }
    assert digests == SEED_7_FINGERPRINTS
    library, _ = replay_history(
        str(out_dir / "history.log"), str(fixture_path("sock_shop.yaml")), seed=7
    )
    library.save(str(tmp_path / "library.json"))
    assert (tmp_path / "library.json").read_bytes() == (out_dir / "library.json").read_bytes()


def test_replay_rebuilds_identical_library(golden_trial):
    result, out_dir = golden_trial
    library, state = replay_history(
        str(out_dir / "history.log"), str(fixture_path("sock_shop.yaml")), seed=7
    )
    assert library.export_json() == (out_dir / "library.json").read_text().rstrip("\n")
    assert state.sim_time > 0


# -- report emission -----------------------------------------------------------------


def test_emit_trial_report_formats(golden_trial, tmp_path):
    result, _ = golden_trial
    written = emit_report(result.report, str(tmp_path), ("csv", "json", "svg"))
    assert sorted(os.path.basename(p) for p in written) == ["report.csv", "report.json", "report.svg"]
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "task_id,round,kind,stage,difficulty,status"
    assert len(csv_lines) == 1 + len(result.report["tasks"])
    assert json.loads((tmp_path / "report.json").read_text()) == result.report
    svg = (tmp_path / "report.svg").read_text()
    assert svg.startswith("<svg ") and "Knowledge points by round" in svg


def test_emit_grid_report_formats(tmp_path):
    grid = {
        "grid_schema": 1,
        "tasks": ["t1"],
        "columns": ["round1", "final"],
        "cells": [["0/3", "3/3"]],
    }
    emit_report(grid, str(tmp_path), ("csv", "svg"))
    assert (tmp_path / "grid.csv").read_text() == "task,round1,final\nt1,0/3,3/3\n"
    svg = (tmp_path / "grid.svg").read_text()
    assert "Evaluation grid" in svg and svg.count("<rect") >= 2


def test_emit_report_rejects_unknown_shapes(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown report format"):
        emit_report({"report_schema": 1}, str(tmp_path), ("pdf",))
    with pytest.raises(ConfigurationError, match="unrecognized report payload"):
        emit_report({"something": "else"}, str(tmp_path), ("json",))
