"""Trial orchestration: knowledge tracking, evaluation, replay, and reports."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
import yaml

import long_trial
from opslearn import cluster, curriculum, runner
from opslearn.cli import main
from opslearn.cluster import load_topology, tick
from opslearn.datalayer import History, SkillEntry, SkillLibrary, task_close
from opslearn.llm import LiveGateway, ScriptedGateway
from opslearn.resources import fixture_path, parse_yaml
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
from opslearn.shell import ShellGateway


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
    with pytest.raises(ConfigurationError, match=r"tasks\[0\]\.description: missing"):
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
    for field in ("resources.gpu", "probes.liveness.port", "probes.startup.http_path", "probes.livenes.http_path",
                  "annotations", "labels", "resources", "probes.liveness"):
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


def _records(script):
    with open(fixture_path("scripts", script)) as fh:
        return parse_yaml(fh.read())["records"]


def test_a_script_that_runs_dry_truncates_the_trial_and_keeps_the_evidence(tmp_path):
    records = _records("golden_trial.yaml")
    script = tmp_path / "cut.yaml"
    script.write_text(yaml.safe_dump({"records": records[:50]}))
    out_dir = tmp_path / "out"
    result = run_trial(TrialConfig(seed=7, script=str(script), out_dir=str(out_dir)))
    assert result.exit_code == 2
    for name in ("history.log", "library.json", "library.md", "report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report == result.report
    assert report["truncated"] is True
    assert report["truncation_reason"].startswith("script: no scripted response left for role")
    assert 0 < len(report["tasks"]) < 15


@pytest.mark.parametrize("calls_in_time", [1, 7], ids=["at-a-round", "at-a-task"])
def test_a_trial_over_its_time_budget_stops_and_keeps_the_evidence(tmp_path, monkeypatch, calls_in_time):
    """The clock is read once at the start, then before each round and each task; it reads 0
    for `calls_in_time` reads, then past the budget: before round 1, or before round 2's second task."""
    reads = itertools.count()
    monkeypatch.setattr(runner, "time", SimpleNamespace(monotonic=lambda: 0.0 if next(reads) < calls_in_time else 61.0))
    out_dir = tmp_path / "out"
    result = run_trial(TrialConfig(seed=7, time_budget_min=1.0, out_dir=str(out_dir)))
    assert result.exit_code == 2
    for name in ("history.log", "library.json", "report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report == result.report
    assert (report["truncated"], report["truncation_reason"]) == (True, "time")
    assert (report["completed_rounds"], len(report["tasks"])) == ((0, 0) if calls_in_time == 1 else (1, 4))


@pytest.mark.parametrize("kind, reason", [
    (RuntimeError, "internal: RuntimeError: completion failed"),
    (KeyboardInterrupt, "interrupted: KeyboardInterrupt"),
])
@pytest.mark.parametrize("stop_at", ["first", 40, "last"])
def test_a_trial_stopped_by_any_exception_keeps_its_evidence_and_lets_it_through(
    golden_trial, tmp_path, kind, reason, stop_at
):
    """The k-th scripted completion raises: the exception leaves `run_trial` unchanged, the log
    is a byte prefix of the full seed-7 log that `History.load` reads, and the report names it."""
    golden, golden_dir = golden_trial
    stop_at = {"first": 1, "last": golden.report["usage"]["calls"]}.get(stop_at, stop_at)
    calls = itertools.count(1)
    complete = ScriptedGateway._complete
    raised = kind("completion failed")

    def failing(self, route, prompt):
        if next(calls) == stop_at:
            raise raised
        return complete(self, route, prompt)

    out_dir = tmp_path / "out"
    with mock.patch.object(ScriptedGateway, "_complete", failing), pytest.raises(kind) as caught:
        run_trial(TrialConfig(seed=7, out_dir=str(out_dir)))
    assert caught.value is raised and next(calls) == stop_at + 1
    log = (out_dir / "history.log").read_bytes()
    assert (golden_dir / "history.log").read_bytes().startswith(log)
    assert len(History.load(str(out_dir / "history.log")).records) == log.count(b"\n") - 1
    assert (out_dir / "library.json").exists() and (out_dir / "library.md").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert (report["truncated"], report["truncation_reason"]) == (True, reason)


@pytest.mark.parametrize("pattern", ["a{99999999999}", "(" * 2000], ids=["huge-repeat", "deep-nesting"])
def test_a_plan_regex_that_does_not_compile_is_rejected_and_the_trial_keeps_its_evidence(tmp_path, pattern):
    records = _records("observation_only.yaml")
    assert "expects: nonempty" in records[1]["response"]
    records[1]["response"] = records[1]["response"].replace("expects: nonempty", f"expects: regex:{pattern}")
    script = tmp_path / "plan.yaml"
    script.write_text(yaml.safe_dump({"records": records}))
    out_dir = tmp_path / "out"
    config = TrialConfig(
        seed=7, rounds=1, tasks_per_round=1, mode="observation_only", script=str(script), out_dir=str(out_dir)
    )
    result = run_trial(config)
    assert result.exit_code in (0, 2)
    for name in ("history.log", "library.json", "report.json"):
        assert (out_dir / name).exists()
    assert [task["status"] for task in result.report["tasks"]] == ["failed"]


def test_run_trial_rejects_bad_mode():
    with pytest.raises(ConfigurationError, match="unknown trial mode"):
        run_trial(TrialConfig(mode="chaotic"))


def test_trial_config_rejects_an_unknown_backend():
    with pytest.raises(ConfigurationError, match="unknown llm backend 'dream'"):
        TrialConfig(llm="dream")


def test_the_trial_backend_comes_from_the_llm_setting(tmp_path):
    assert isinstance(runner._build_gateway(TrialConfig(llm="scripted")), ScriptedGateway)
    with_endpoint = tmp_path / "live.yaml"
    with_endpoint.write_text("endpoint: http://127.0.0.1:9/v1/chat/completions\n")
    live = runner._build_gateway(TrialConfig(llm="live", budget_usd=0.5, llm_config=str(with_endpoint)))
    assert isinstance(live, LiveGateway)
    assert live.config.budget_usd == 0.5
    without_endpoint = tmp_path / "routes.yaml"
    without_endpoint.write_text("routes:\n  planner:\n    model: gpt-4o\n")
    with pytest.raises(ConfigurationError, match="needs an endpoint"):
        runner._build_gateway(TrialConfig(llm="live", llm_config=str(without_endpoint)))
    with pytest.raises(ConfigurationError, match="needs an endpoint"):
        runner._build_gateway(TrialConfig(llm="live"))


def test_run_trial_rejects_missing_fixture(tmp_path):
    config = TrialConfig(fixture=str(tmp_path / "absent.yaml"), out_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match="fixture"):
        run_trial(config)


# -- evaluation ---------------------------------------------------------------------


def test_run_evaluation_requires_scripted_gateway():
    with pytest.raises(ConfigurationError, match="scripted gateway only"):
        run_evaluation(SkillLibrary(), [], TrialConfig(llm="live"))


@pytest.mark.parametrize(
    "setup",
    [{"action": "warp"}, {"action": "scale", "args": {"namespace": "sock-shop", "name": "ghost", "replicas": 1}}],
    ids=["unknown-action", "unknown-deployment"],
)
def test_run_evaluation_rejects_a_setup_the_cluster_refuses(setup):
    suite = [{"id": "bad-setup", "description": "anything", "setup": [setup]}]
    with pytest.raises(ConfigurationError, match="suite task bad-setup: setup: "):
        run_evaluation(SkillLibrary(), suite, TrialConfig(seed=7), repeats=1)


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


def test_an_eval_column_scores_the_bundled_suite_with_no_spend_cap(golden_trial):
    """The oracle's spend is an estimate at list prices, so a cap could only crash a column."""
    _, out_dir = golden_trial
    library = SkillLibrary.load(str(out_dir / "library.json"))
    suite = load_suite(str(fixture_path("eval_suite.yaml")))
    column = run_evaluation(library, suite, TrialConfig(seed=7, budget_usd=0.0))
    assert column == run_evaluation(library, suite, TrialConfig(seed=7))
    assert column["cells"] == {task["id"]: [3, 3] for task in suite}


def test_an_eval_column_digests_nothing_asks_once_per_task_and_repeats_no_scrape_run(golden_trial):
    """On seed 7 a column's setup mutations report without digesting, the library is asked once
    per suite task, not once per repeat, and a second column computes no scrape run: it takes
    each from the memo, so the memo's misses stay where the first column left them."""
    _, out_dir = golden_trial
    library = SkillLibrary.load(str(out_dir / "library.json"))
    suite = load_suite(str(fixture_path("eval_suite.yaml")))
    with mock.patch.object(cluster, "state_digest", wraps=cluster.state_digest) as digests, \
            mock.patch.object(SkillLibrary, "retrieve_skills", autospec=True,
                              side_effect=SkillLibrary.retrieve_skills) as retrievals:
        first = run_evaluation(library, suite, TrialConfig(seed=7))
    assert (digests.call_count, retrievals.call_count) == (0, len(suite)) == (0, 5)
    misses = cluster._run_values.cache_info().misses
    assert run_evaluation(library, suite, TrialConfig(seed=7)) == first
    assert cluster._run_values.cache_info().misses == misses


def test_scrape_runs_repeat_across_the_cells_of_an_eval_column_and_never_within_a_trial(golden_trial, tmp_path):
    """From a cleared memo a seed-7 column computes 4 scrape runs and takes the other 56 from the
    memo, as its cells share one warm-up; a seed-7 trial computes each of its 42 runs once."""
    _, out_dir = golden_trial
    library = SkillLibrary.load(str(out_dir / "library.json"))
    suite = load_suite(str(fixture_path("eval_suite.yaml")))
    cluster._run_values.cache_clear()
    run_evaluation(library, suite, TrialConfig(seed=7))
    assert cluster._run_values.cache_info()[:2] == (56, 4)  # (hits, misses)
    cluster._run_values.cache_clear()
    run_trial(TrialConfig(seed=7, out_dir=str(tmp_path)))
    assert cluster._run_values.cache_info()[:2] == (0, 42)


def test_a_seed_7_trial_clones_only_to_validate_its_command_skills(tmp_path, monkeypatch):
    """Each of the trial's 10 clones comes from the curator's Command validation."""
    callers = []

    def counted(state):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(state)

    original = cluster.clone
    for module in [m for name, m in sys.modules.items() if name.startswith("opslearn")]:
        if getattr(module, "clone", None) is original:
            monkeypatch.setattr(module, "clone", counted)
    run_trial(TrialConfig(seed=7, out_dir=str(tmp_path)))
    assert callers == ["_validate_command"] * 10


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


# The same trial on the held-out seed 1009: its history moves with the seed, its library does not.
SEED_1009_FINGERPRINTS = {
    "history.log": "0a963fbd12a086d3",
    "library.json": "03b15a663ed6eb34",
    "report.json": "cce342abd097bb71",
}
# The same trial on seed 3, and one-task runs of the two other trial scripts, each
# as `opslearn run` with these flags writes it.
SCRIPTED_RUN_FINGERPRINTS = {
    "--seed 3": {
        "history.log": "fd35bccfa025ed90",
        "library.json": "03b15a663ed6eb34",
        "report.json": "7cbbb0486466ce19",
    },
    "--seed 7 --rounds 1 --tasks-per-round 1 --mode observation_only --script scripts/observation_only.yaml": {
        "history.log": "46a4a765703401d0",
        "library.json": "f0c59f8773161222",
        "report.json": "0f12ca03439c8fa2",
    },
    "--seed 7 --rounds 1 --tasks-per-round 1 --script scripts/adversarial.yaml": {
        "history.log": "838ce2ddeb22b1b8",
        "library.json": "f0c59f8773161222",
        "report.json": "1c589bd46b3c9e4d",
    },
}
# `opslearn report` of the seed-7 trial.
SEED_7_REPORT_FINGERPRINTS = {
    "report.csv": "eed8094ad5e06528",
    "report.svg": "a6176ee3cc2155ba",
}


def _fingerprints(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16] for name in names}


def test_seed_1009_trial_fingerprints(tmp_path):
    run_trial(TrialConfig(seed=1009, out_dir=str(tmp_path)))
    assert _fingerprints(tmp_path, SEED_1009_FINGERPRINTS) == SEED_1009_FINGERPRINTS


@pytest.mark.parametrize("flags", SCRIPTED_RUN_FINGERPRINTS)
def test_scripted_run_fingerprints(flags, tmp_path, capsys):
    """Each run writes its pinned artifacts, and a replay of its own log rebuilds its library
    byte for byte and ends at its report's clock and mutation count."""
    argv = [fixture_path(word) if word.startswith("scripts/") else word for word in flags.split()]
    assert main(["run", *argv, "--out-dir", str(tmp_path)]) == 0
    assert _fingerprints(tmp_path, SCRIPTED_RUN_FINGERPRINTS[flags]) == SCRIPTED_RUN_FINGERPRINTS[flags]
    seed = int(argv[argv.index("--seed") + 1])
    library, state = replay_history(str(tmp_path / "history.log"), str(fixture_path("sock_shop.yaml")), seed=seed)
    library.save(str(tmp_path / "replayed.json"))
    assert (tmp_path / "replayed.json").read_bytes() == (tmp_path / "library.json").read_bytes()
    report = json.loads((tmp_path / "report.json").read_text())
    assert (state.sim_time, state.mutation_count) == (report["final_sim_time"], report["mutation_count"])


def test_seed_7_report_fingerprints(golden_trial, tmp_path, capsys):
    _, out_dir = golden_trial
    (tmp_path / "report.json").write_bytes((out_dir / "report.json").read_bytes())
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    assert _fingerprints(tmp_path, SEED_7_REPORT_FINGERPRINTS) == SEED_7_REPORT_FINGERPRINTS


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


# The seed-7 trial on the golden script repeated 4 times: 20 rounds, 60 tasks.
REPEATED_GOLDEN_FINGERPRINTS = {
    "history.log": "b55ec74c661db145",
    "library.json": "03b15a663ed6eb34",
    "report.json": "c6f20f8f5fa3d77d",
}


def _repeated_golden_trial(tmp_path, k):
    script = str(tmp_path / f"golden_x{k}.yaml")
    long_trial.write_repeated_script(script, k)
    out_dir = tmp_path / f"trial_x{k}"
    assert run_trial(long_trial.repeated_config(script, k, str(out_dir))).exit_code == 0
    return out_dir


def test_repeated_golden_trial_fingerprints_and_byte_identical_replay(tmp_path):
    out_dir = _repeated_golden_trial(tmp_path, 4)
    assert _fingerprints(out_dir, REPEATED_GOLDEN_FINGERPRINTS) == REPEATED_GOLDEN_FINGERPRINTS
    library, _ = replay_history(str(out_dir / "history.log"), str(fixture_path("sock_shop.yaml")), seed=7)
    assert library.export_json() + "\n" == (out_dir / "library.json").read_text()


def test_the_records_a_round_context_reads_per_task_stay_flat_as_the_trial_grows(tmp_path, monkeypatch):
    """A count of work, not a time: the context reads each record of the tasks whose blocks
    it renders once, and renders only the newest blocks that fit its budget."""
    reads = [0]

    def counted(record):
        reads[0] += 1
        return task_close(record)

    monkeypatch.setattr(curriculum, "task_close", counted)
    per_task = {}
    for k in (8, 16):
        reads[0] = 0
        _repeated_golden_trial(tmp_path, k)
        per_task[k] = reads[0] / (15 * k)
    assert per_task[16] <= 1.25 * per_task[8], per_task


# The seed-7 evaluation grid, one column for the round-1 library of the
# seed-7 trial and one for its final library, as `eval` and `report` write it.
SEED_7_GRID_FINGERPRINTS = {
    "grid.json": "929f8804b41ffd0c",
    "grid.csv": "3736316562d8f637",
    "grid.svg": "2f1efc3e1aa886fc",
}


def test_seed_7_two_column_eval_grid_fingerprints(golden_trial, tmp_path, capsys):
    _, out_dir = golden_trial
    libraries = [arg for name in ("library_round_1", "library") for arg in ("--library", str(out_dir / f"{name}.json"))]
    assert main(["eval", *libraries, "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] for name in SEED_7_GRID_FINGERPRINTS
    }
    assert digests == SEED_7_GRID_FINGERPRINTS


def test_replay_rebuilds_identical_library(golden_trial, monkeypatch):
    result, out_dir = golden_trial
    # Replay reads its clock from the log, not from the trial's tick schedule.
    monkeypatch.setattr(runner, "ROUND_TICK_SECONDS", 1.0)
    monkeypatch.setattr(runner, "TASK_TICK_SECONDS", 7.0)
    library, state = replay_history(
        str(out_dir / "history.log"), str(fixture_path("sock_shop.yaml")), seed=7
    )
    assert library.export_json() == (out_dir / "library.json").read_text().rstrip("\n")
    assert state.sim_time == result.report["final_sim_time"]


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


def test_a_simulated_day_of_read_commands_prints_the_pinned_output():
    """A day on the bundled topology: 2,880 ticks of 30 s, each followed by the next 4 read
    lines of the command corpus, which repeats (its `report_result` lines are skipped). The
    sha256 of every result's exit code, stdout and stderr is pinned."""
    with open(fixture_path("command_corpus.txt")) as fh:
        entries = [raw.rstrip("\n").partition("\t")[2] for raw in fh]
    reads = itertools.cycle([line for line in entries if line and not line.startswith("report_result(")])
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    shell = ShellGateway(state, component_names(state))
    digest = hashlib.sha256()
    for _ in range(2880):
        tick(state, 30.0)
        for line in itertools.islice(reads, 4):
            result = shell.execute(line)
            digest.update(f"{result.exit_code}\n{result.stdout}\n{result.stderr}\n".encode())
    assert digest.hexdigest()[:16] == "819d5d9a900dd6fe"


def test_a_curriculum_that_never_parses_truncates_at_round_generation_and_keeps_the_evidence(tmp_path):
    script = tmp_path / "script.yaml"
    script.write_text("records:\n  - role: curriculum\n    response: no tasks here\n    max_uses: -1\n")
    out_dir = tmp_path / "out"
    result = run_trial(TrialConfig(seed=7, script=str(script), out_dir=str(out_dir)))
    assert result.exit_code == 2
    assert result.report["truncation_reason"] == "round-generation: round 1: no usable completion after 2 re-asks"
    for name in ("history.log", "library.json", "library.md", "report.json"):
        assert (out_dir / name).exists(), f"{name} missing"
    records = History.load(str(out_dir / "history.log")).records
    assert [(r.actor, r.payload_kind) for r in records] == [("curriculum", "prompt"), ("curriculum", "completion")] * 3
