"""Acceptance gate: the nine shipping criteria, one test (and one
pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v` — each criterion shows up
as its own PASSED/FAILED line; `-s` additionally prints a one-line
summary with the measured numbers.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import promql_cases
from opslearn.cluster import load_topology, state_digest, tick
from opslearn.datalayer import History, SkillLibrary
from opslearn.metrics import MetricStore
from opslearn.promql import evaluate
from opslearn.resources import fixture_path
from opslearn.runner import (
    EVAL_WARMUP_SECONDS,
    ROUND_TICK_SECONDS,
    TASK_TICK_SECONDS,
    TrialConfig,
    load_suite,
    replay_history,
    run_evaluation,
    run_trial,
)
from opslearn.shell import ShellGateway

AGENTS = ("catalogue", "front-end")

_ORACLE_SEEDS = {
    "selector": 11,
    "rate": 22,
    "sum": 33,
    "count": 44,
    "histogram_quantile": 55,
    "division": 66,
}


def _warmed_shell(seconds: float = 300.0) -> ShellGateway:
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    tick(state, seconds)
    return ShellGateway(state, components=AGENTS)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Two consecutive scripted seed-7 trials, timed, for criteria 4-8."""
    dirs = [tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")]
    started = time.monotonic()
    results = [run_trial(TrialConfig(seed=7, out_dir=str(d))) for d in dirs]
    elapsed = time.monotonic() - started
    return results, dirs, elapsed


def test_criterion_1_golden_corpus_execution():
    started = time.monotonic()
    shell = _warmed_shell()
    with open(fixture_path("command_corpus.txt")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 19  # 15 success forms + 2 raw/encoded curl pairs
    succeeded = failed = 0
    for line in lines:
        expected, _, command = line.partition("\t")
        result = shell.execute(command)
        if expected == "0":
            assert result.exit_code == 0, f"{command!r}: {result.stderr}"
            succeeded += 1
        else:
            assert result.exit_code != 0, f"{command!r} unexpectedly passed"
            assert 'invalid parameter "query"' in result.stderr, result.stderr
            assert command.startswith("curl ") and "{" in command  # raw unencoded form
            failed += 1
    elapsed = time.monotonic() - started
    assert succeeded == 17 and failed == 2
    assert elapsed < 5.0
    print(f"criterion 1: PASS — 17 commands exit 0, 2 raw curls rejected, {elapsed:.2f}s")


def test_criterion_2_fixture_ground_truth():
    shell = _warmed_shell()
    describe = shell.execute("kubectl describe deployment catalogue -n sock-shop")
    assert describe.exit_code == 0
    assert describe.stdout == "\n".join(
        [
            "Name:                   catalogue",
            "Namespace:              sock-shop",
            "Labels:                 name=catalogue",
            "Selector:               name=catalogue",
            "Replicas:               1 desired | 1 updated | 1 total | 1 available | 0 unavailable",
            "Pod Template:",
            "  Labels:  name=catalogue",
            "  Containers:",
            "   catalogue:",
            "    Image:      weaveworksdemos/catalogue:0.3.5",
            "    Port:       80/TCP",
            "    Command:",
            "      /app",
            "    Args:",
            "      -port=80",
            "    Limits:",
            "      cpu:     200m",
            "      memory:  200Mi",
            "    Requests:",
            "      cpu:     100m",
            "      memory:  100Mi",
            "    Liveness:   http-get http://:80/health delay=10s timeout=1s period=3s #success=1 #failure=3",
            "    Readiness:  http-get http://:80/health delay=10s timeout=1s period=3s #success=1 #failure=3",
        ]
    )
    top = shell.execute("kubectl top pod catalogue-5b877d88b4-g9tc4 -n sock-shop")
    assert top.exit_code == 0
    assert top.stdout == (
        "NAME                         CPU(cores)   MEMORY(bytes)\n"
        "catalogue-5b877d88b4-g9tc4   2m           9Mi"
    )
    print("criterion 2: PASS — describe and top match the golden fixture strings")


def test_criterion_3_promql_oracle_equivalence():
    started = time.monotonic()
    for production in promql_cases.PRODUCTIONS:
        stats = promql_cases.run_cases(production, 1000, seed=_ORACLE_SEEDS[production])
        assert stats.cases == 1000
        assert stats.nonempty >= 100  # comparison must not be vacuous

    # Hand-derived cases, exact.
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "j"}, 0.0, 0.0)
    store.ingest_value("http_requests_total", {"job": "j"}, 60.0, 120.0)
    rate = evaluate(store, 'rate(http_requests_total{job="j"}[1m])', 60.0)
    assert [(e.labels, e.value) for e in rate.entries] == [({"job": "j"}, 2.0)]

    hist = MetricStore()
    for le, cumulative in [("0.005", 90.0), ("0.01", 100.0), ("+Inf", 100.0)]:
        hist.ingest_value("request_duration_seconds_bucket", {"job": "j", "le": le}, 0.0, cumulative)
    quantile = evaluate(
        hist, 'histogram_quantile(0.95, request_duration_seconds_bucket{job="j"})', 0.0
    )
    assert [(e.labels, e.value) for e in quantile.entries] == [({"job": "j"}, 0.0075)]
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 3: PASS — 6×1000 randomized cases + hand cases, {elapsed:.2f}s")


def test_criterion_4_scripted_trial_determinism(golden_runs):
    results, dirs, elapsed = golden_runs
    for result in results:
        assert result.exit_code == 0
        report = result.report
        assert report["completed_rounds"] == 5
        assert len(report["tasks"]) == 15
        rounds = [t["round"] for t in report["tasks"]]
        assert all(rounds.count(r) == 3 for r in range(1, 6))

    for name in ("history.log", "report.json", "library.json"):
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, f"{name} differs between consecutive runs"

    report = results[0].report
    categories = {p["label"]: p["category"] for p in report["knowledge_points"]}
    order = report["acquisition_order"]
    assert sorted(categories.values()) == ["kubectl", "kubectl", "prometheus", "prometheus", "prometheus"]
    assert len(order) == 5
    assert [categories[label] for label in order] == [
        "kubectl", "kubectl", "prometheus", "prometheus", "prometheus",
    ]
    assert elapsed < 60.0
    print(f"criterion 4: PASS — byte-stable twin runs, kubectl→prometheus order, {elapsed:.1f}s")


def test_criterion_5_evaluation_grid_monotonicity(golden_runs, tmp_path):
    _, dirs, _ = golden_runs
    suite = load_suite(str(fixture_path("eval_suite.yaml")))
    config = TrialConfig(seed=7, out_dir=str(tmp_path))
    early = run_evaluation(SkillLibrary.load(str(dirs[0] / "library_round_1.json")), suite, config)
    final = run_evaluation(SkillLibrary.load(str(dirs[0] / "library.json")), suite, config)
    for task in suite:
        task_id = task["id"]
        assert final["cells"][task_id][0] >= early["cells"][task_id][0], task_id
    assert early["cells"]["front-end-p95-latency"] == [0, 3]
    assert final["cells"]["front-end-p95-latency"] == [3, 3]
    print("criterion 5: PASS — final library ≥ round-1 on all tasks; skill-gap task 0/3 → 3/3")


def test_criterion_6_feedback_taxonomy_audit(golden_runs):
    _, dirs, _ = golden_runs
    history = History.load(str(dirs[0] / "history.log"))
    by_kind: dict[str, list] = {"environment": [], "peer": [], "hierarchical": []}
    for record in history.records:
        if record.payload_kind == "feedback":
            by_kind[record.feedback_kind].append(record)
    assert all(by_kind[kind] for kind in by_kind), {k: len(v) for k, v in by_kind.items()}
    assert all(r.actor == "environment" for r in by_kind["environment"])
    assert all(r.actor in AGENTS for r in by_kind["peer"])
    assert all(r.actor == "manager" for r in by_kind["hierarchical"])
    counts = {kind: len(records) for kind, records in by_kind.items()}
    print(f"criterion 6: PASS — feedback kinds present with correct origins: {counts}")


def test_criterion_7_observation_safety_guard(golden_runs, tmp_path):
    results, dirs, _ = golden_runs
    kinds = {t["id"]: t["kind"] for t in results[0].report["tasks"]}
    history = History.load(str(dirs[0] / "history.log"))

    # Walk the golden run on its original tick schedule; every
    # observation task must leave the configuration digest untouched.
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    shell = ShellGateway(state, components=AGENTS)
    observed = 0
    current_round = 0
    for record in history.records:
        if record.payload_kind != "report" or record.actor != "manager":
            continue
        task_id = record.payload.split()[0].removeprefix("task=")
        round_no = int(task_id[1])
        if round_no != current_round:
            tick(state, ROUND_TICK_SECONDS)
            current_round = round_no
        tick(state, TASK_TICK_SECONDS)
        commands = [r.payload for r in history.for_task(task_id) if r.payload_kind == "command"]
        before = state_digest(state)
        for command in commands:
            shell.execute(command)
        if kinds[task_id] == "observation":
            assert state_digest(state) == before, f"{task_id} mutated the cluster"
            observed += 1
    assert observed > 0

    # An adversary that answers an observation task with a mutating
    # command must trip the violation abort.
    adversarial = run_trial(
        TrialConfig(
            seed=7,
            rounds=1,
            tasks_per_round=1,
            script=str(fixture_path("scripts/adversarial.yaml")),
            out_dir=str(tmp_path),
        )
    )
    assert adversarial.report["tasks"][0]["kind"] == "observation"
    assert adversarial.report["tasks"][0]["status"] == "failed"
    violation_log = History.load(str(tmp_path / "history.log"))
    violations = [
        r
        for r in violation_log.records
        if r.payload_kind == "feedback"
        and r.payload.startswith("observation-safety violation: command mutated cluster state:")
    ]
    assert violations, "no violation feedback recorded"
    print(f"criterion 7: PASS — {observed} observation tasks digest-stable; adversarial run aborted")


def test_criterion_8_library_integrity(golden_runs):
    _, dirs, _ = golden_runs
    replayed, _state = replay_history(
        str(dirs[0] / "history.log"), str(fixture_path("sock_shop.yaml")), seed=7
    )
    saved = (dirs[0] / "library.json").read_text()
    assert replayed.export_json() + "\n" == saved

    library = SkillLibrary.load(str(dirs[0] / "library.json"))
    shell = _warmed_shell(EVAL_WARMUP_SECONDS)
    commands = [e for e in library.entries if e.kind == "Command"]
    assert commands
    for entry in commands:
        result = shell.execute(entry.body)
        assert result.exit_code == 0, f"{entry.body!r}: {result.stderr}"

    fixture_library = SkillLibrary.load(str(fixture_path("skill_library.json")))
    golden_md = fixture_library.export_markdown()
    with open("tests/golden/library.md") as fh:
        assert golden_md == fh.read()
    print(
        f"criterion 8: PASS — replay identical, {len(commands)} stored commands re-run clean, "
        "markdown layout byte-stable"
    )


class _OverrunHandler(BaseHTTPRequestHandler):
    """Stub chat endpoint whose usage figures blow straight past the budget."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        reply = {
            "choices": [{"message": {"role": "assistant", "content": "over budget"}}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 200_000},
        }
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_criterion_9_budget_guard(tmp_path):
    server = HTTPServer(("127.0.0.1", 0), _OverrunHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config_file = tmp_path / "live.yaml"
        config_file.write_text(
            f"endpoint: http://127.0.0.1:{server.server_port}/v1/chat/completions\n"
        )
        out_dir = tmp_path / "out"
        result = run_trial(
            TrialConfig(
                seed=7,
                llm="live",
                budget_usd=10.0,
                llm_config=str(config_file),
                out_dir=str(out_dir),
            )
        )
    finally:
        server.shutdown()
        thread.join()
    assert result.exit_code == 2
    assert result.report["truncated"] is True
    assert result.report["truncation_reason"] == "budget"
    assert result.report["usage"]["cost_usd"] > 10.0
    for name in ("history.log", "report.json", "library.json", "library.md"):
        assert (out_dir / name).exists(), f"partial artifact {name} missing"
    persisted = History.load(str(out_dir / "history.log"))
    assert persisted.records, "history should keep the calls made before the abort"
    print(
        "criterion 9: PASS — live run aborted at "
        f"{result.report['usage']['cost_usd']:.2f} USD > 10, exit 2, artifacts persisted"
    )
