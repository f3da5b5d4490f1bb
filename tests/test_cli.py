"""Command-line verbs end to end: run, eval, report, replay."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import opslearn
from opslearn.cli import build_parser, main, trial_config
from opslearn.datalayer import SkillLibrary
from opslearn.resources import fixture_path
from opslearn.runner import MAX_ROUNDS, TrialConfig


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    code = main(["run", "--seed", "7", "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


def test_run_prints_summary_and_exits_zero(tmp_path, capsys):
    code = main(["run", "--seed", "7", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial finished: rounds=5/5 tasks=15 succeeded=")
    assert "truncated=False" in lines[0]
    assert f"artifacts in {tmp_path}/" in lines[1]
    assert (tmp_path / "history.log").exists()


def test_run_reports_missing_fixture(tmp_path, capsys):
    code = main(["run", "--fixture", str(tmp_path / "absent.yaml"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: fixture {tmp_path / 'absent.yaml'}: ")


def test_run_reports_missing_script(tmp_path, capsys):
    code = main(["run", "--script", str(tmp_path / "absent.yaml"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--fixture"],
        ["run", "--script"],
        ["run", "--llm-config"],
        ["eval", "--library", "unused.json", "--suite"],
    ],
    ids=["fixture", "script", "llm-config", "suite"],
)
def test_malformed_yaml_fails_with_one_error_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.yaml"
    bad.write_text("namespaces: [sock-shop\n")
    _assert_one_error_line(main(argv + [str(bad), "--out-dir", str(tmp_path)]), capsys, bad)


def _assert_one_error_line(code, capsys, bad):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(bad) in err
    assert "Traceback" not in err
    return err


_SUITE_TASK = (
    "suite_schema: 1\ntasks:\n  - id: scale-front-end\n"
    "    description: Scale the front-end deployment in sock-shop to 2 replicas.\n"
)
_BUCKETS = "      latency_buckets:\n        - [0.001, 20]\n        - [0.0025, 30]\n        - [0.005, 46]\n        - [0.01, 4]"


def _topology(old: str, new: str) -> str:
    """The bundled topology with the first `old` replaced by `new`."""
    with open(fixture_path("sock_shop.yaml")) as fh:
        text = fh.read()
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["run", "--script"], "records:\n  - a string\n"),
        (["run", "--script"], "mode: scripted\n"),
        (["run", "--llm-config"], "routes:\n  planner: 5\n"),
        (["run", "--llm-config"], "- mode: live\n"),
        (["eval", "--library", "empty.json", "--suite"], "suite_schema: 1\ntasks:\n  - the id and the description\n"),
        (["run", "--script"], "records:\n  - role: planner\n    response: ok\n    max_uses: many\n"),
        (["run", "--llm-config"], "budget_usd: lots\n"),
        (["run", "--llm-config"], "budget_usd: .nan\n"),
        (["run", "--llm-config"], "routes:\n  planner:\n    max_tokens: plenty\n"),
        (["run", "--llm-config"], "cost_table:\n  o1:\n    prompt_per_1k: cheap\n"),
        (["run", "--llm-config"], "mode: live\n"),
        (["run", "--llm-config"], "script_path: x.yaml\n"),
        (["run", "--llm-config"], "endpiont: http://x\n"),
        (["run", "--llm-config"], "endpoint: http://127.0.0.1:9/v1/chat/completions\napi_key_env: 5\n"),
        (["run", "--llm-config"], "endpoint: [http://x]\n"),
        (["run", "--llm-config"], "routes:\n  planner:\n    model: 4\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    setup: [scale]\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    post_conditions: replicas\n"),
        (["run", "--fixture"], _topology("replicas: 1", "replicas: many")),
        (["run", "--fixture"], _topology("replicas: 1", "replicas: .inf")),
        (["run", "--fixture"], _topology("port: 80", "port: eighty")),
        (["run", "--fixture"], _topology("timeout: 1", "timeout: .nan")),
        (["run", "--fixture"], _topology("cpu: 100m", "cpu: 1e400")),
        (["run", "--fixture"], _topology("[0.001, 20]", "[fast, 20]")),
        (["eval", "--library", "empty.json", "--fixture"], _topology("replicas: 1", "replicas: many")),
        (["run", "--fixture"], _topology(_BUCKETS, "      latency_buckets: 5")),
        (["run", "--fixture"], _topology("    scrape: false", "    scrape: false\n    probes: 7")),
        (["run", "--fixture"], _topology("    pod_suffixes:\n      - q8f2n", "    pod_suffixes: 5")),
        (["run", "--fixture"], _topology("    labels:\n      k8s-app: metrics-server", "    labels: [a]")),
        (["run", "--fixture"], _topology(_BUCKETS, "      latency_buckets:\n        - [0.001, 0]\n        - [0.01, 0]")),
        (["run", "--fixture"], _topology("  - name: metrics-server", "  - name: [x]")),
        (["run", "--fixture"], _topology("    image: registry.k8s.io/metrics-server/metrics-server:v0.6.3", "    image: 5")),
        (["run", "--fixture"], _topology("        http_path: /health", "        http_path: 5")),
        (["run", "--fixture"], _topology("active_requests_metric: nodejs_active_requests_total", "active_requests_metric: 5")),
        (
            ["run", "--fixture"],
            _topology("active_requests_metric: nodejs_active_requests_total", "active_requests_metric: process_cpu_seconds_total"),
        ),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    difficulty: hard\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    difficulty: 0\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    kind: foo\n"),
        (["eval", "--library", "empty.json", "--suite"], "suite_schema: 1\ntasks:\n  - id: [x]\n    description: scale it\n"),
        (["eval", "--library", "empty.json", "--suite"], "suite_schema: 1\ntasks: 5\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    post_conditions:\n      - solution_matches: '('\n"),
        (["run", "--fixture"], _topology("    traffic_profile:", "    traffic:")),
        (["run", "--fixture"], _topology("metrics_available: true", "metrics_avialable: true")),
        (["run", "--fixture"], _topology("      limits:", "      limts:")),
        (["run", "--fixture"], _topology("metrics_available: true", 'metrics_available: "no"')),
        (["run", "--fixture"], _topology("    scrape: false", '    scrape: "no"')),
        (["run", "--fixture"], _topology("error_5xx_share: 0.02", "error_5xx_share: 1.5")),
        (["run", "--fixture"], _topology("error_4xx_share: 0.05", "error_4xx_share: -0.05")),
        (["run", "--fixture"], _topology("error_5xx_share: 0.02", "error_5xx_share: 0.96")),
        (["run", "--fixture"], _topology("cpu_millicores_per_rps: 3", "cpu_millicores_per_rps: -3")),
        (["run", "--script"], "records:\n  - role: planner\n    guard: 5\n    response: ok\n"),
        (["run", "--script"], "records:\n  - role: planner\n    response: ok\n    max_uses: -7\n"),
        (["run", "--script"], "records:\n  - role: planner\n    response: ok\n    max_uses: 0\n"),
        (["run", "--script"], "records:\n  - role: planner\n    respones: ok\n"),
        (["run", "--script"], "records:\n  - role: planner\n    response: ok\n    max_use: 2\n"),
        (["run", "--llm-config"], "cost_table:\n  o1:\n    prompt_per_1k: -10\n"),
        (["run", "--llm-config"], "cost_table:\n  o1:\n    completion_per_1k: -10\n"),
        (["run", "--llm-config"], "routes:\n  planner:\n    max_tokens: 0\n"),
        (["run", "--llm-config"], "routes:\n  planner:\n    temperature: -0.5\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    postconditions:\n      - solution_matches: x\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    setup:\n      - action: warp\n"),
        (["eval", "--library", "empty.json", "--suite"], _SUITE_TASK + "    post_conditions:\n      - neither: shape\n"),
        (
            ["eval", "--library", "empty.json", "--suite"],
            _SUITE_TASK + "    post_conditions:\n      - deployment: sock-shop/front-end\n        field: replicas\n",
        ),
        (
            ["eval", "--library", "empty.json", "--suite"],
            _SUITE_TASK + "    post_conditions:\n      - deployment: sock-shop/front-end\n        field: annotations\n"
            "        equals: x\n",
        ),
    ],
    ids=[
        "script-string-record",
        "script-without-records",
        "llm-config-scalar-route",
        "llm-config-list",
        "suite-string-task",
        "script-word-max-uses",
        "llm-config-word-budget",
        "llm-config-nan-budget",
        "llm-config-word-max-tokens",
        "llm-config-word-price",
        "llm-config-mode",
        "llm-config-script-path",
        "llm-config-misspelt-endpoint",
        "llm-config-number-api-key-env",
        "llm-config-list-endpoint",
        "llm-config-number-model",
        "suite-string-setup",
        "suite-scalar-post-conditions",
        "fixture-word-replicas",
        "fixture-infinite-replicas",
        "fixture-word-port",
        "fixture-nan-probe-timeout",
        "fixture-overflowing-cpu",
        "fixture-word-bucket-bound",
        "eval-fixture-word-replicas",
        "fixture-scalar-latency-buckets",
        "fixture-scalar-probes",
        "fixture-scalar-pod-suffixes",
        "fixture-list-labels",
        "fixture-zero-bucket-weights",
        "fixture-list-name",
        "fixture-number-image",
        "fixture-number-probe-path",
        "fixture-number-active-requests-metric",
        "fixture-scraped-active-requests-metric",
        "suite-word-difficulty",
        "suite-zero-difficulty",
        "suite-unknown-kind",
        "suite-list-id",
        "suite-scalar-tasks",
        "suite-broken-solution-pattern",
        "fixture-misspelt-traffic-profile",
        "fixture-misspelt-metrics-available",
        "fixture-misspelt-limits",
        "fixture-word-metrics-available",
        "fixture-word-scrape",
        "fixture-share-above-one",
        "fixture-negative-share",
        "fixture-shares-sum-above-one",
        "fixture-negative-cpu-per-rps",
        "script-number-guard",
        "script-negative-max-uses",
        "script-zero-max-uses",
        "script-misspelt-response",
        "script-misspelt-max-uses",
        "llm-config-negative-prompt-price",
        "llm-config-negative-completion-price",
        "llm-config-zero-max-tokens",
        "llm-config-negative-temperature",
        "suite-misspelt-post-conditions",
        "suite-unknown-setup-action",
        "suite-shapeless-post-condition",
        "suite-post-condition-without-equals",
        "suite-unreadable-post-condition-field",
    ],
)
def test_misshapen_yaml_fails_with_one_error_line(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    _assert_one_error_line(main(argv + [str(bad), "--out-dir", str(tmp_path)]), capsys, bad)


@pytest.mark.parametrize(
    "args, message",
    [("{namespace: sock-shop, name: front-end}", "replicas: missing"),
     ("{namespace: sock-shop, name: front-end, replicas: many}", "replicas: invalid literal for int() with base 10: 'many'")],
    ids=["missing", "word"],
)
def test_a_suite_setup_scale_without_usable_replicas_fails_with_one_error_line(
    tmp_path, monkeypatch, capsys, args, message
):
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    suite = tmp_path / "suite.yaml"
    suite.write_text(_SUITE_TASK + f"    setup:\n      - action: scale\n        args: {args}\n")
    code = main(["eval", "--library", "empty.json", "--suite", str(suite), "--out-dir", str(tmp_path)])
    _assert_one_error_line(code, capsys, f"{suite}: tasks[0].setup[0].args.{message}")


def test_eval_takes_no_budget_flag(capsys):
    """`eval` runs only the scripted oracle, whose spend is an estimate, so it has no cap to set."""
    with pytest.raises(SystemExit) as exited:
        main(["eval", "--library", "empty.json", "--budget-usd", "0.0001"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --budget-usd 0.0001" in capsys.readouterr().err


def test_eval_rejects_a_repeated_suite_task_id(tmp_path, monkeypatch, capsys):
    """Grid rows are keyed by task id: a repeat would print one task's score twice."""
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    suite = tmp_path / "suite.yaml"
    suite.write_text(
        _SUITE_TASK + "  - id: other\n    description: x\n  - id: scale-front-end\n    description: Scale it to 9.\n"
    )
    code = main(["eval", "--library", "empty.json", "--suite", str(suite), "--out-dir", str(tmp_path)])
    _assert_one_error_line(code, capsys, f"{suite}: task 2 repeats the id 'scale-front-end' of task 0")
    assert not (tmp_path / "grid.json").exists()


def _history_closing(task_id: str, timestamp, *before: dict, **changes) -> str:
    """A history of the `before` records (each a change to the close record), then one task-close record."""
    record = {
        "id": 1, "task_id": task_id, "actor": "manager", "payload": f"task={task_id} status=failed description=x",
        "payload_kind": "report", "feedback_kind": None, "timestamp": timestamp,
    }
    lines = [{"history_schema": 1}] + [{**record, **change} for change in before] + [{**record, **changes}]
    return "".join(json.dumps(line) + "\n" for line in lines)


def _library_of(**changes) -> str:
    """The bundled library with `changes` made to its first entry."""
    with open(fixture_path("skill_library.json")) as fh:
        doc = json.load(fh)
    doc["skills"][0].update(changes)
    return json.dumps(doc)


_SUCCEEDED = "task=r1t1 status=succeeded description=x"
_DEEP_JSON = "[" * 100_000 + "]" * 100_000 + "\n"
_INT_COMMAND = {"actor": "catalogue", "payload_kind": "command", "payload": 5}
_INT_COMPLETION = {"actor": "curator", "payload_kind": "completion", "payload": 5}


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (["eval", "--library"], "not json\n", "Expecting value"),
        (["eval", "--library"], '{"library_schema": 1, "skills": [{"id": 1, "kind": "Command", "bogus": 2}]}\n',
         "skills[0]: unknown keys ['bogus']"),
        (["eval", "--library"], _library_of(validated="no"), "skills[0].validated: expected bool, got 'no'"),
        (["eval", "--library"], _library_of(cites=5), "skills[0].cites: expected a list, got 5"),
        (["eval", "--library"], _library_of(body=5), "skills[0].body: expected str, got 5"),
        (["eval", "--library"], _library_of(id=True), "skills[0].id: expected int, got True"),
        (["eval", "--library"], _library_of(subject=5), "skills[0].subject: expected str, got 5"),
        (["replay", "--history"], "not json\n", "Expecting value"),
        (["replay", "--history"], '{"history_schema": 1}\n{"id": 1, "bogus": 2}\n', "line 2: unknown keys ['bogus']"),
        (["replay", "--history"], _history_closing("t1", 30.0), "task id 't1' names no round"),
        (["replay", "--history"], _history_closing("r1t1", float("inf")), "line 2.timestamp: inf is not finite"),
        (["replay", "--history"], _history_closing("r1t1", 1e12), "closes at 1000000000000.0, not a time in reach"),
        (["replay", "--history"], _history_closing("r1t1", "30"), "line 2.timestamp: expected float, got '30'"),
        (["replay", "--history"], _history_closing("r1t1", "1e3"), "line 2.timestamp: expected float, got '1e3'"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, id="3"), "line 2.id: expected int, got '3'"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, _INT_COMMAND), "line 2.payload: expected str, got 5"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, _INT_COMPLETION, payload=_SUCCEEDED),
         "line 2.payload: expected str, got 5"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, payload=5), "line 2.payload: expected str, got 5"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, payload=_SUCCEEDED),
         "no scripted response left for role 'curator'"),
        (["eval", "--library"], _DEEP_JSON, "nests too deeply"),
        (["replay", "--history"], '{"history_schema": 1}\n' + _DEEP_JSON, "nests too deeply"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, payload_kind="feedback"),
         "line 2: feedback_kind is present exactly when payload_kind is feedback"),
        (["replay", "--history"], _history_closing("r1t1", 30.0, {"payload_kind": "command", "feedback_kind": "peer"}),
         "line 2: feedback_kind is present exactly when payload_kind is feedback"),
    ],
    ids=[
        "library-not-json",
        "library-unknown-key",
        "library-string-validated",
        "library-int-cites",
        "library-int-body",
        "library-bool-id",
        "library-int-subject",
        "history-not-json",
        "history-unknown-key",
        "history-close-without-round",
        "history-infinite-close-time",
        "history-far-close-time",
        "history-string-close-time",
        "history-exponent-string-close-time",
        "history-string-id",
        "history-int-command",
        "history-int-curator-completion",
        "history-int-close",
        "history-without-curator-completion",
        "library-deep",
        "history-deep",
        "history-feedback-without-kind",
        "history-command-with-feedback-kind",
    ],
)
def test_malformed_json_input_fails_with_one_error_line(tmp_path, capsys, argv, text, where):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert where in _assert_one_error_line(main(argv + [str(bad), "--out-dir", str(tmp_path)]), capsys, bad)


@pytest.mark.parametrize(
    "name, text",
    [
        ("report.json", "not json\n"),
        ("report.json", '{"report_schema": 1, "tasks": [{"id": "r1t1", "kind": "action", "stage": 1, "difficulty": 1, '
                        '"status": "failed"}]}\n'),
        ("grid.json", '{"grid_schema": 1, "tasks": ["a"], "columns": ["library"], "cells": [["x/y"]]}\n'),
        ("report.json", _DEEP_JSON),
        ("grid.json", _DEEP_JSON),
    ],
    ids=["report-not-json", "report-task-without-round", "grid-word-cell", "report-deep", "grid-deep"],
)
def test_malformed_report_input_fails_with_one_error_line(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    _assert_one_error_line(main(["report", "--out-dir", str(tmp_path)]), capsys, bad)


@pytest.mark.parametrize(
    "text, owner",
    [("mode: live\n", "mode is set by --llm"), ("budget_usd: 0.001\n", "budget_usd is set by --budget-usd"),
     ("script_path: x.yaml\n", "script_path is set by --script")],
    ids=["mode", "budget", "script"],
)
def test_an_llm_config_key_a_flag_owns_names_the_flag(tmp_path, capsys, text, owner):
    config = tmp_path / "llm.yaml"
    config.write_text(text)
    code = main(["run", "--seed", "7", "--llm-config", str(config), "--out-dir", str(tmp_path)])
    assert owner in _assert_one_error_line(code, capsys, f"llm config {config}: unknown keys")
    assert not (tmp_path / "history.log").exists()


def test_the_bundled_llm_config_still_runs(tmp_path):
    code = main(["run", "--seed", "7", "--llm-config", str(fixture_path("llm_default.yaml")), "--out-dir", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("flag", ["--budget-usd", "--time-budget-min"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_budget_flag_fails_with_one_error_line(tmp_path, capsys, flag, value):
    code = main(["run", "--seed", "7", flag, value, "--out-dir", str(tmp_path)])
    _assert_one_error_line(code, capsys, "must be a finite number")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--rounds", "-3"], "rounds must be at least 1, got -3"),
        (["run", "--tasks-per-round", "0"], "tasks_per_round must be at least 1, got 0"),
        (["eval", "--library", "empty.json", "--repeats", "-1"], "repeats must be at least 1, got -1"),
    ],
    ids=["rounds", "tasks-per-round", "repeats"],
)
def test_a_run_count_below_one_fails_with_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    code = main(argv + ["--seed", "7", "--out-dir", str(tmp_path / "out")])
    _assert_one_error_line(code, capsys, message)
    assert not (tmp_path / "out").exists()


def test_run_flags_left_out_give_the_trial_defaults():
    assert trial_config(build_parser().parse_args(["run"])) == TrialConfig()


def test_run_rejects_unknown_llm_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--llm", "telepathy", "--out-dir", str(tmp_path)])


def test_eval_prints_grid_rows(finished_run, tmp_path, capsys):
    code = main(
        [
            "eval",
            "--library", str(finished_run / "library.json"),
            "--seed", "7",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # five suite tasks plus the trailing pointer
    assert lines[0] == "scale-front-end: 3/3 (library)"
    assert lines[-1] == f"grid written to {tmp_path}/grid.json"
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["grid_schema"] == 1
    assert grid["columns"] == ["library"]
    assert len(grid["cells"]) == 5


def test_eval_columns_follow_library_basenames(finished_run, tmp_path, capsys):
    code = main(
        [
            "eval",
            "--library", str(finished_run / "library_round_1.json"),
            "--library", str(finished_run / "library.json"),
            "--seed", "7",
            "--repeats", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["columns"] == ["library_round_1", "library"]
    assert all(len(row) == 2 for row in grid["cells"])
    assert capsys.readouterr().out.count("(library_round_1)") == 5


def test_report_emits_requested_formats(finished_run, capsys):
    code = main(["report", "--out-dir", str(finished_run), "--formats", "csv,svg"])
    out = capsys.readouterr().out
    assert code == 0
    assert (finished_run / "report.csv").exists()
    assert (finished_run / "report.svg").exists()
    assert out.count("wrote ") == 2


def test_report_needs_some_payload(tmp_path, capsys):
    code = main(["report", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "no report.json or grid.json" in capsys.readouterr().err


def test_report_rejects_unknown_format(finished_run, capsys):
    code = main(["report", "--out-dir", str(finished_run), "--formats", "pdf"])
    assert code == 1
    assert "unknown report format" in capsys.readouterr().err


def test_report_with_no_format_named_replies_exactly(finished_run, capsys):
    assert main(["report", "--out-dir", str(finished_run), "--formats", ","]) == 1
    assert capsys.readouterr().err == "error: no report formats requested\n"


def test_replay_restores_library(finished_run, tmp_path, capsys):
    code = main(
        [
            "replay",
            "--history", str(finished_run / "history.log"),
            "--seed", "7",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "library.json").read_text() == (finished_run / "library.json").read_text()
    assert (tmp_path / "library.md").exists()
    skills = json.loads((tmp_path / "library.json").read_text())["skills"]
    assert out.strip() == f"replayed library: {len(skills)} skills -> {tmp_path}/library.json"


def test_replay_missing_history_is_a_config_error(tmp_path, capsys):
    code = main(["replay", "--history", str(tmp_path / "gone.log"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# The six input files: (the input's word in an error, the argv that reads the file,
# the file's suffix, malformed text, text that does not fit the schema, deep text).
_DEEP_YAML = "[" * 30_000 + "]" * 30_000 + "\n"  # libyaml's composer crashes the process at about 25,000
_INPUTS = {
    "fixture": ("fixture", ["run", "--fixture"], ".yaml",
                "namespaces: [sock-shop\n", "deployments: 5\n", _DEEP_YAML),
    "suite": ("suite", ["eval", "--library", "empty.json", "--suite"], ".yaml",
              "tasks: [\n", "suite_schema: 1\ntasks: 5\n", "- " * 30_000 + "x\n"),
    "script": ("script", ["run", "--script"], ".yaml",
               "records: [\n", "records: 5\n", _DEEP_YAML),
    "llm-config": ("llm config", ["run", "--llm-config"], ".yaml",
                   "routes: [\n", "routes: 5\n", _DEEP_YAML),
    "library": ("library", ["eval", "--library"], ".json",
                "not json\n", '{"library_schema": 1, "skills": 5}\n', _DEEP_JSON),
    "history": ("history", ["replay", "--history"], ".log",
                "not json\n", '{"history_schema": 1}\n{"id": "x"}\n', '{"history_schema": 1}\n' + _DEEP_JSON),
}


@pytest.mark.parametrize("case", ["missing", "directory", "malformed", "misfit", "deep"])
@pytest.mark.parametrize("name", _INPUTS)
def test_every_unusable_input_file_fails_with_one_line_naming_it_once(tmp_path, monkeypatch, capsys, name, case):
    """Deep text is read in a child process, so a crash fails this row instead of killing the test run."""
    what, argv, suffix, malformed, misfit, deep = _INPUTS[name]
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    bad = tmp_path / f"bad{suffix}"
    if case == "directory":
        bad.mkdir()
    elif case != "missing":
        bad.write_text({"malformed": malformed, "misfit": misfit, "deep": deep}[case])
    argv = argv + [str(bad), "--out-dir", str(tmp_path / "out")]
    if case == "deep":
        src = os.path.dirname(os.path.dirname(opslearn.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run([sys.executable, "-m", "opslearn.cli", *argv], capture_output=True, text=True, env=env)
        code, err = child.returncode, child.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1  # a child killed by a signal returns its negative number
    assert err.startswith(f"error: {what} {bad}: ")
    assert err.count("\n") == 1
    assert err.count(str(bad)) == 1
    assert "Traceback" not in err


def test_a_bad_fixture_reads_the_same_from_every_verb(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    with open("history.log", "w") as fh:
        fh.write('{"history_schema": 1}\n')
    bad = tmp_path / "bad.yaml"
    bad.write_text(_topology("    traffic_profile:", "    traffic:"))
    errors = []
    for argv in (["run"], ["eval", "--library", "empty.json"], ["replay", "--history", "history.log"]):
        assert main(argv + ["--fixture", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: fixture {bad}: deployments[1]: unknown keys ['traffic']\n"] * 3


def test_a_round_count_above_the_bound_is_refused_at_once(tmp_path, capsys):
    assert TrialConfig(rounds=MAX_ROUNDS).rounds == MAX_ROUNDS
    started = time.monotonic()
    code = main(["run", "--seed", "7", "--rounds", str(MAX_ROUNDS + 1), "--out-dir", str(tmp_path / "out")])
    assert time.monotonic() - started < 1.0
    _assert_one_error_line(code, capsys, f"rounds must be at most {MAX_ROUNDS}, got {MAX_ROUNDS + 1}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rounds", [MAX_ROUNDS + 1, 1_000_000_000, 0, "5", 2.5, True])
def test_report_refuses_a_round_count_the_timeline_cannot_draw(finished_run, tmp_path, capsys, rounds):
    report = json.loads((finished_run / "report.json").read_text())
    report["config"]["rounds"] = rounds
    (tmp_path / "report.json").write_text(json.dumps(report))
    started = time.monotonic()
    code = main(["report", "--out-dir", str(tmp_path), "--formats", "svg"])
    assert time.monotonic() - started < 1.0
    assert "config.rounds: " in _assert_one_error_line(code, capsys, tmp_path / "report.json")
    assert not (tmp_path / "report.svg").exists()


def test_report_draws_the_largest_round_count(finished_run, tmp_path):
    report = json.loads((finished_run / "report.json").read_text())
    report["config"]["rounds"] = MAX_ROUNDS
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert main(["report", "--out-dir", str(tmp_path), "--formats", "svg"]) == 0
    assert (tmp_path / "report.svg").read_text().count("</text>") >= MAX_ROUNDS
