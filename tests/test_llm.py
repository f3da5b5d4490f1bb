"""Model gateway: config loading, scripted matching, budget accounting,
and the live HTTP backend against a local stub server."""

from __future__ import annotations

import functools
import json
import operator
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn.llm import (
    ROLES,
    BudgetExhausted,
    GatewayConfig,
    LiveGateway,
    ModelRoute,
    ScriptExhausted,
    ScriptRecord,
    ScriptedGateway,
    UsageLedger,
    ask_until_parsed,
    estimate_tokens,
    load_config,
    load_script,
)
from opslearn.resources import ConfigurationError


def _messages(text: str) -> list[dict[str, str]]:
    return [{"speaker": "user", "text": text}]


def test_load_config_overrides_and_defaults(tmp_path):
    path = tmp_path / "llm.yaml"
    path.write_text(
        "\n".join(
            [
                "endpoint: http://127.0.0.1:9/v1/chat/completions",
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
    assert config.routes["planner"].model_id == "gpt-4o-mini"
    assert config.routes["planner"].max_tokens == 256
    # Untouched roles keep their defaults.
    assert config.routes["curriculum"].model_id == "o1"
    assert config.routes["curriculum"].temperature == 1.0
    assert config.cost_table["gpt-4o-mini"]["completion_per_1k"] == 0.002


def test_load_config_rejects_unknown_mode_and_role(tmp_path):
    bad_mode = tmp_path / "mode.yaml"
    bad_mode.write_text("mode: dream\n")
    with pytest.raises(ConfigurationError):
        load_config(str(bad_mode))
    bad_role = tmp_path / "role.yaml"
    bad_role.write_text("routes:\n  poet:\n    model: gpt-4o\n")
    with pytest.raises(ConfigurationError):
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
    with pytest.raises(ConfigurationError):
        load_script(str(bad_role))

    missing = tmp_path / "missing.yaml"
    missing.write_text("- role: planner\n")
    with pytest.raises(ConfigurationError):
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
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
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
    return ScriptedGateway(GatewayConfig(budget_usd=budget), records)


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


class _LinearScanGateway(ScriptedGateway):
    """`_complete` as it was: every record scanned from the top on each call."""

    def _complete(self, route, prompt):
        for i, record in enumerate(self.records):
            if record.role != route.role or 0 <= record.max_uses <= self.uses[i]:
                continue
            if record.guard is not None and record.guard not in prompt:
                continue
            self.uses[i] += 1
            return record.response, estimate_tokens(prompt), estimate_tokens(record.response)
        raise ScriptExhausted(f"no scripted response left for role {route.role!r} (prompt head: {prompt[:120]!r})")


SCAN_EXAMPLES = 120  # about 0.4 s
_ROLES = st.sampled_from(ROLES[:2])
_GUARDS = st.one_of(st.none(), st.text(alphabet="ab", max_size=2))
_records = st.lists(st.tuples(_ROLES, _GUARDS, st.sampled_from([-1, -2, 0, 1, 1, 2])), max_size=8).map(
    lambda rows: [ScriptRecord(role, f"reply {i}", guard, uses) for i, (role, guard, uses) in enumerate(rows)]
)


@settings(max_examples=SCAN_EXAMPLES, deadline=None)
@given(records=_records, calls=st.lists(st.tuples(_ROLES, st.text(alphabet="ab", max_size=4)), max_size=12))
def test_the_role_index_picks_as_the_linear_scan_does(records, calls):
    """The first record in script order with the caller's role, uses left and its guard in the prompt."""
    indexed, scanned = (gateway(GatewayConfig(), records) for gateway in (ScriptedGateway, _LinearScanGateway))
    for role, prompt in calls:
        picks = []
        for gateway in (indexed, scanned):
            try:
                picks.append(gateway._complete(ModelRoute(role, "m"), prompt))
            except ScriptExhausted as exc:
                picks.append(str(exc))
        assert picks[0] == picks[1]
    assert indexed.uses == scanned.uses


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
    records = [ScriptRecord(role="planner", response="only")]
    gateway = _scripted(records)
    assert gateway.complete("planner", _messages("x")) == "only"
    with pytest.raises(ScriptExhausted):
        gateway.complete("planner", _messages("y"))
    # Each gateway counts its own uses, so gateways can share one record list.
    assert _scripted(records).complete("planner", _messages("z")) == "only"


def test_unknown_role_raises_config_error():
    gateway = _scripted([])
    with pytest.raises(ConfigurationError):
        gateway.complete("poet", _messages("x"))


def test_ledger_and_history_capture():
    from opslearn.datalayer import History

    gateway = _scripted([ScriptRecord(role="planner", response="done")])
    history = History(lambda: 42.0)
    gateway.history = history
    history.open_task("r1t1")
    prompt_text = "please do the thing"
    gateway.complete("planner", _messages(prompt_text), actor="manager")

    ledger = gateway.ledger
    assert ledger.calls == 1
    prices = gateway.config.cost_table["gpt-4o"]  # the planner's model
    expected_cost = (
        ledger.total_prompt_tokens / 1000 * prices["prompt_per_1k"]
        + ledger.total_completion_tokens / 1000 * prices["completion_per_1k"]
    )
    assert ledger.total_cost == pytest.approx(expected_cost)
    doc = ledger.to_doc()
    assert doc["calls"] == 1
    assert doc["cost_usd"] == pytest.approx(expected_cost, abs=1e-6)

    kinds = [(r.task_id, r.actor, r.payload_kind, r.timestamp) for r in history.records]
    assert kinds == [("r1t1", "manager", "prompt", 42.0), ("r1t1", "manager", "completion", 42.0)]
    assert prompt_text in history.records[0].payload
    assert history.records[1].payload == "done"


@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.floats(0.0, 1e3, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_ledger_running_totals_equal_a_fresh_sum(calls):
    """The totals a budget check reads in O(1) are the left-to-right sums of
    the calls' figures from the integer 0 (what `sum` gives on Python 3.11),
    so `to_doc`, and with it report.json, keeps its bytes."""
    ledger = UsageLedger()
    for n, (prompt_tokens, completion_tokens, cost) in enumerate(calls, 1):
        ledger.record(prompt_tokens, completion_tokens, cost)
        seen = calls[:n]
        assert ledger.calls == n
        assert ledger.total_cost == functools.reduce(operator.add, (c[2] for c in seen), 0)
        assert ledger.total_prompt_tokens == sum(c[0] for c in seen)
        assert ledger.total_completion_tokens == sum(c[1] for c in seen)
    doc = json.dumps(ledger.to_doc())
    assert doc == json.dumps(
        {
            "calls": len(calls),
            "prompt_tokens": sum(c[0] for c in calls),
            "completion_tokens": sum(c[1] for c in calls),
            "cost_usd": round(functools.reduce(operator.add, (c[2] for c in calls), 0), 6),
        }
    )


def test_budget_precheck_blocks_oversized_first_call():
    # curriculum routes to o1: estimate alone exceeds a tiny budget, so the
    # call must be refused before any spend is recorded.
    gateway = _scripted([ScriptRecord(role="curriculum", response="x")], budget=0.01)
    with pytest.raises(BudgetExhausted):
        gateway.complete("curriculum", _messages("hello"))
    assert gateway.ledger.calls == 0


class _PricyGateway(ScriptedGateway):
    """Reports an enormous completion so one call eats most of the budget."""

    def _complete(self, route, prompt):
        response, prompt_tokens, _ = super()._complete(route, prompt)
        return response, prompt_tokens, 200_000


def test_budget_crossing_aborts_next_call():
    records = [
        ScriptRecord(role="curriculum", response="big", max_uses=-1),
    ]
    gateway = _PricyGateway(GatewayConfig(budget_usd=10.0), records)
    # The first call looks cheap up front (the estimate uses max_tokens),
    # so it is allowed through ...
    first = gateway.complete("curriculum", _messages("hello"))
    assert first == "big"
    # ... but the server-reported 200k completion tokens at o1 prices cost
    # 12 USD, blowing the 10 USD budget, so the next call must be refused.
    assert gateway.ledger.total_cost > 10.0
    with pytest.raises(BudgetExhausted):
        gateway.complete("curriculum", _messages("hello again"))
    assert gateway.ledger.calls == 1


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
    config = GatewayConfig(endpoint=stub_server)
    gateway = LiveGateway(config)
    reply = gateway.complete("planner", _messages("ping"))
    assert reply == "stub says hi"

    call = _StubHandler.seen[0]
    assert call["authorization"] == "Bearer sk-test-123"
    assert call["body"]["model"] == "gpt-4o"
    assert call["body"]["max_tokens"] == 1024

    ledger = gateway.ledger
    # Costs come from the usage block the server reported.
    assert ledger.total_prompt_tokens == 100
    assert ledger.total_completion_tokens == 20
    prices = config.cost_table["gpt-4o"]
    assert ledger.total_cost == pytest.approx(
        100 / 1000 * prices["prompt_per_1k"] + 20 / 1000 * prices["completion_per_1k"]
    )


def test_live_gateway_works_without_api_key(stub_server, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    gateway = LiveGateway(GatewayConfig(endpoint=stub_server))
    assert gateway.complete("planner", _messages("ping")) == "stub says hi"
    assert _StubHandler.seen[0]["authorization"] is None


def test_estimate_tokens_floor():
    assert estimate_tokens("") == 1
    assert estimate_tokens("abcd" * 10) == 10
