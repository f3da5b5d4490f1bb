"""Model gateway: config loading, scripted matching, budget accounting,
and the live HTTP backend against a local stub server."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from opslearn.llm import (
    BudgetExhausted,
    GatewayConfig,
    GatewayConfigError,
    LiveGateway,
    ScriptExhausted,
    ScriptRecord,
    ScriptedGateway,
    ask_until_parsed,
    build_gateway,
    estimate_tokens,
    load_config,
    load_script,
)


def _messages(text: str) -> list[dict[str, str]]:
    return [{"speaker": "user", "text": text}]


def test_load_config_overrides_and_defaults(tmp_path):
    path = tmp_path / "llm.yaml"
    path.write_text(
        "\n".join(
            [
                "mode: live",
                "endpoint: http://127.0.0.1:9/v1/chat/completions",
                "budget_usd: 2.5",
                "routes:",
                "  planner:",
                "    model: gpt-4o-mini",
                "    max_tokens: 256",
                "cost_table:",
                "  gpt-4o-mini:",
                "    prompt_per_1k: 0.001",
                "    completion_per_1k: 0.002",
            ]
        )
    )
    config = load_config(str(path))
    assert config.mode == "live"
    assert config.budget_usd == 2.5
    assert config.routes["planner"].model_id == "gpt-4o-mini"
    assert config.routes["planner"].max_tokens == 256
    # Untouched roles keep their defaults.
    assert config.routes["curriculum"].model_id == "o1"
    assert config.routes["curriculum"].profile == "reasoning"
    assert config.cost_table["gpt-4o-mini"]["completion_per_1k"] == 0.002


def test_load_config_rejects_unknown_mode_and_role(tmp_path):
    bad_mode = tmp_path / "mode.yaml"
    bad_mode.write_text("mode: dream\n")
    with pytest.raises(GatewayConfigError):
        load_config(str(bad_mode))
    bad_role = tmp_path / "role.yaml"
    bad_role.write_text("routes:\n  poet:\n    model: gpt-4o\n")
    with pytest.raises(GatewayConfigError):
        load_config(str(bad_role))


def test_load_script_validates_records(tmp_path):
    good = tmp_path / "good.yaml"
    good.write_text(
        "records:\n"
        "  - role: planner\n"
        "    response: first\n"
        "  - role: planner\n"
        "    guard: magic word\n"
        "    max_uses: -1\n"
        "    response: guarded\n"
    )
    records = load_script(str(good))
    assert [r.response for r in records] == ["first", "guarded"]
    assert records[0].max_uses == 1
    assert records[1].max_uses == -1

    bad_role = tmp_path / "bad_role.yaml"
    bad_role.write_text("- role: wizard\n  response: hi\n")
    with pytest.raises(GatewayConfigError):
        load_script(str(bad_role))

    missing = tmp_path / "missing.yaml"
    missing.write_text("- role: planner\n")
    with pytest.raises(GatewayConfigError):
        load_script(str(missing))


# Misshapen documents beyond the ones tests/test_cli.py runs end to end.
@pytest.mark.parametrize(
    "loader, text",
    [
        (load_script, "a bare string\n"),
        (load_script, "- role: planner\n  response: hi\n- [a, list]\n"),
        (load_config, "routes: [planner]\n"),
        (load_config, "cost_table:\n  gpt-4o: cheap\n"),
    ],
    ids=["script-scalar", "script-list-record", "config-list-of-routes", "config-scalar-prices"],
)
def test_loaders_reject_misshapen_documents(tmp_path, loader, text):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    with pytest.raises(GatewayConfigError, match=re.escape(str(path))):
        loader(str(path))


def _reject_short(completion: str) -> str:
    if len(completion) < 5:
        raise ValueError(f"too short: {completion!r}")
    return completion.upper()


def test_ask_until_parsed_passes_each_rejection_back_as_the_next_note():
    notes = []
    replies = iter(["no", "nope", "finally"])

    def ask(note):
        notes.append(note)
        return next(replies)

    # A budget of five: asking again after the parse would exhaust `replies`.
    assert ask_until_parsed(ask, _reject_short, 5) == "FINALLY"
    assert notes == [None, "too short: 'no'", "too short: 'nope'"]


def test_ask_until_parsed_returns_none_once_the_budget_is_spent():
    notes = []

    def ask(note):
        notes.append(note)
        return "no"

    assert ask_until_parsed(ask, _reject_short, 2) is None
    assert notes == [None, "too short: 'no'"]  # exactly two completions spent


def test_ask_until_parsed_lets_a_failing_ask_propagate():
    def ask(note):
        raise ValueError("transport error")

    with pytest.raises(ValueError, match="transport error"):
        ask_until_parsed(ask, _reject_short, 3)


def _scripted(records: list[ScriptRecord], budget: float = 10.0) -> ScriptedGateway:
    return ScriptedGateway(GatewayConfig(mode="scripted", budget_usd=budget), records)


def test_scripted_records_are_fifo_per_role():
    gateway = _scripted(
        [
            ScriptRecord(role="planner", response="one"),
            ScriptRecord(role="curator", response="aside"),
            ScriptRecord(role="planner", response="two"),
        ]
    )
    assert gateway.complete("planner", _messages("a")) == "one"
    assert gateway.complete("planner", _messages("b")) == "two"
    assert gateway.complete("curator", _messages("c")) == "aside"


def test_scripted_guard_matches_prompt_substring():
    gateway = _scripted(
        [
            ScriptRecord(role="planner", response="special", guard="magic word", max_uses=-1),
            ScriptRecord(role="planner", response="fallback", max_uses=-1),
        ]
    )
    assert gateway.complete("planner", _messages("no trigger here")) == "fallback"
    assert gateway.complete("planner", _messages("say the magic word")) == "special"
    # Unlimited records never run out.
    assert gateway.complete("planner", _messages("more magic word uses")) == "special"
    assert gateway.complete("planner", _messages("plain again")) == "fallback"


def test_scripted_exhaustion_raises():
    gateway = _scripted([ScriptRecord(role="planner", response="only")])
    assert gateway.complete("planner", _messages("x")) == "only"
    with pytest.raises(ScriptExhausted):
        gateway.complete("planner", _messages("y"))


def test_unknown_role_raises_config_error():
    gateway = _scripted([])
    with pytest.raises(GatewayConfigError):
        gateway.complete("poet", _messages("x"))


def test_ledger_and_history_capture():
    from opslearn.datalayer import History

    gateway = _scripted([ScriptRecord(role="planner", response="done")])
    history = History()
    gateway.history = history
    gateway.task_id = "r1t1"
    gateway.clock = 42.0
    prompt_text = "please do the thing"
    gateway.complete("planner", _messages(prompt_text), actor="manager")

    assert len(gateway.ledger.entries) == 1
    entry = gateway.ledger.entries[0]
    assert entry.role == "planner"
    prices = gateway.config.cost_table["gpt-4o"]
    expected_cost = (
        entry.prompt_tokens / 1000 * prices["prompt_per_1k"]
        + entry.completion_tokens / 1000 * prices["completion_per_1k"]
    )
    assert entry.cost_estimate == pytest.approx(expected_cost)
    doc = gateway.ledger.to_doc()
    assert doc["calls"] == 1
    assert doc["cost_usd"] == pytest.approx(expected_cost, abs=1e-6)

    kinds = [(r.actor, r.payload_kind, r.timestamp) for r in history.records]
    assert kinds == [("manager", "prompt", 42.0), ("manager", "completion", 42.0)]
    assert prompt_text in history.records[0].payload
    assert history.records[1].payload == "done"


def test_budget_precheck_blocks_oversized_first_call():
    # curriculum routes to o1: estimate alone exceeds a tiny budget, so the
    # call must be refused before any spend is recorded.
    gateway = _scripted([ScriptRecord(role="curriculum", response="x")], budget=0.01)
    with pytest.raises(BudgetExhausted):
        gateway.complete("curriculum", _messages("hello"))
    assert gateway.ledger.entries == []


class _PricyGateway(ScriptedGateway):
    """Reports an enormous completion so one call eats most of the budget."""

    def _complete(self, route, prompt):
        response, prompt_tokens, _ = super()._complete(route, prompt)
        return response, prompt_tokens, 200_000


def test_budget_crossing_aborts_next_call():
    records = [
        ScriptRecord(role="curriculum", response="big", max_uses=-1),
    ]
    gateway = _PricyGateway(GatewayConfig(mode="scripted", budget_usd=10.0), records)
    # The first call looks cheap up front (the estimate uses max_tokens),
    # so it is allowed through ...
    first = gateway.complete("curriculum", _messages("hello"))
    assert first == "big"
    # ... but the server-reported 200k completion tokens at o1 prices cost
    # 12 USD, blowing the 10 USD budget, so the next call must be refused.
    assert gateway.ledger.total_cost > 10.0
    with pytest.raises(BudgetExhausted):
        gateway.complete("curriculum", _messages("hello again"))
    assert len(gateway.ledger.entries) == 1


def test_build_gateway_picks_backend():
    config = GatewayConfig(mode="scripted")
    assert isinstance(build_gateway(config, []), ScriptedGateway)
    live = GatewayConfig(mode="live", endpoint="http://127.0.0.1:9/")
    assert isinstance(build_gateway(live), LiveGateway)


class _StubHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"body": body, "authorization": self.headers.get("Authorization")}
        )
        reply = {
            "choices": [{"message": {"role": "assistant", "content": "stub says hi"}}],
            "usage": {"prompt_tokens": 100, "completion_tokens": 20},
        }
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join()


def test_live_gateway_round_trip(stub_server, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-123")
    config = GatewayConfig(mode="live", endpoint=stub_server)
    gateway = LiveGateway(config)
    reply = gateway.complete("planner", _messages("ping"))
    assert reply == "stub says hi"

    call = _StubHandler.seen[0]
    assert call["authorization"] == "Bearer sk-test-123"
    assert call["body"]["model"] == "gpt-4o"
    assert call["body"]["max_tokens"] == 1024

    entry = gateway.ledger.entries[0]
    # Costs come from the usage block the server reported.
    assert entry.prompt_tokens == 100
    assert entry.completion_tokens == 20
    prices = config.cost_table["gpt-4o"]
    assert entry.cost_estimate == pytest.approx(
        100 / 1000 * prices["prompt_per_1k"] + 20 / 1000 * prices["completion_per_1k"]
    )


def test_live_gateway_works_without_api_key(stub_server, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    gateway = LiveGateway(GatewayConfig(mode="live", endpoint=stub_server))
    assert gateway.complete("planner", _messages("ping")) == "stub says hi"
    assert _StubHandler.seen[0]["authorization"] is None


def test_estimate_tokens_floor():
    assert estimate_tokens("") == 1
    assert estimate_tokens("abcd" * 10) == 10
