"""Model-agnostic completion gateway.

Three roles (curriculum, planner, curator) each route to one configured
model. Two backends share the contract: a live HTTP client speaking an
OpenAI-style chat shape, and a scripted oracle that replays fixture
responses so whole trials are deterministic and offline.

Script records are selected, not blindly popped: for each call the
oracle takes the first unconsumed record of the calling role whose
guard (if any) appears verbatim in the prompt. Guards let one script
serve branching refinement loops — the same code path asks, and the
transcript decides which way the conversation goes.

All network activity in this package lives in LiveGateway.complete;
nothing else touches a socket.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

import yaml

from .resources import load_yaml

ROLES = ("curriculum", "planner", "curator")
T = TypeVar("T")


class BudgetExhausted(Exception):
    """The next call would push spend past the configured hard budget."""


class ScriptExhausted(Exception):
    """No scripted record matches; the fixture and the code disagree."""


class GatewayConfigError(Exception):
    pass


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate used for budgeting."""
    return max(1, len(text) // 4)


@dataclass
class ModelRoute:
    role: str
    model_id: str
    max_tokens: int = 1024
    temperature: float = 0.2
    profile: str = "low-latency"  # low-latency | reasoning


@dataclass
class UsageEntry:
    role: str
    prompt_tokens: int
    completion_tokens: int
    cost_estimate: float


@dataclass
class UsageLedger:
    entries: list[UsageEntry] = field(default_factory=list)

    def record(self, role: str, prompt_tokens: int, completion_tokens: int, cost: float) -> None:
        self.entries.append(UsageEntry(role, prompt_tokens, completion_tokens, cost))

    @property
    def total_cost(self) -> float:
        return sum(e.cost_estimate for e in self.entries)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(e.prompt_tokens for e in self.entries)

    @property
    def total_completion_tokens(self) -> int:
        return sum(e.completion_tokens for e in self.entries)

    def to_doc(self) -> dict[str, Any]:
        return {
            "calls": len(self.entries),
            "prompt_tokens": self.total_prompt_tokens,
            "completion_tokens": self.total_completion_tokens,
            "cost_usd": round(self.total_cost, 6),
        }


# default per-1k-token prices; placeholders for budgeting, not ground truth
DEFAULT_COST_TABLE = {
    "gpt-4o": {"prompt_per_1k": 0.0025, "completion_per_1k": 0.01},
    "o1": {"prompt_per_1k": 0.015, "completion_per_1k": 0.06},
}

DEFAULT_ROUTES = {
    "curriculum": ModelRoute("curriculum", "o1", max_tokens=2048, temperature=1.0, profile="reasoning"),
    "planner": ModelRoute("planner", "gpt-4o", max_tokens=1024, temperature=0.2, profile="low-latency"),
    "curator": ModelRoute("curator", "o1", max_tokens=2048, temperature=1.0, profile="reasoning"),
}


@dataclass
class GatewayConfig:
    mode: str = "scripted"  # scripted | live
    endpoint: str = ""
    api_key_env: str = "OPENAI_API_KEY"
    budget_usd: float = 10.0
    script_path: str | None = None
    routes: dict[str, ModelRoute] = field(default_factory=lambda: dict(DEFAULT_ROUTES))
    cost_table: dict[str, dict[str, float]] = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_COST_TABLE)))


def _mapping(value: Any, what: str) -> dict[str, Any]:
    if value is not None and not isinstance(value, dict):
        raise GatewayConfigError(f"{what} must be a mapping")
    return value or {}


def load_config(path: str) -> GatewayConfig:
    try:
        doc = _mapping(load_yaml(path) or None, f"llm config {path}")
    except yaml.YAMLError as exc:
        raise GatewayConfigError(f"llm config: {exc}") from None
    config = GatewayConfig()
    config.mode = doc.get("mode", config.mode)
    if config.mode not in ("scripted", "live"):
        raise GatewayConfigError(f"unknown llm mode {config.mode!r}")
    config.endpoint = doc.get("endpoint", config.endpoint)
    config.api_key_env = doc.get("api_key_env", config.api_key_env)
    config.budget_usd = float(doc.get("budget_usd", config.budget_usd))
    config.script_path = doc.get("script_path", config.script_path)
    for role, route_doc in _mapping(doc.get("routes"), f"llm config {path}: routes").items():
        if role not in ROLES:
            raise GatewayConfigError(f"unknown route role {role!r}")
        route_doc = _mapping(route_doc, f"llm config {path}: route {role!r}")
        base = config.routes[role]
        config.routes[role] = ModelRoute(
            role=role,
            model_id=route_doc.get("model", base.model_id),
            max_tokens=int(route_doc.get("max_tokens", base.max_tokens)),
            temperature=float(route_doc.get("temperature", base.temperature)),
            profile=route_doc.get("profile", base.profile),
        )
    for model, prices in _mapping(doc.get("cost_table"), f"llm config {path}: cost_table").items():
        prices = _mapping(prices, f"llm config {path}: cost_table {model!r}")
        config.cost_table[model] = {
            "prompt_per_1k": float(prices.get("prompt_per_1k", 0.0)),
            "completion_per_1k": float(prices.get("completion_per_1k", 0.0)),
        }
    return config


def ask_until_parsed(ask: Callable[[str | None], str], parse: Callable[[str], T], asks: int) -> T | None:
    """The role models propose, mechanical parsers dispose.

    `ask(None)` makes the first request; each later ask gets the message of
    the ValueError the parser raised on the previous completion, to send
    back as a revision note. Returns the first parsed completion, or None
    once `asks` completions have all been rejected.
    """
    note = None
    for _ in range(asks):
        completion = ask(note)  # outside the try: a failing ask is not a rejection
        try:
            return parse(completion)
        except ValueError as exc:
            note = str(exc)
    return None


def render_prompt(messages: list[dict[str, str]]) -> str:
    return "\n\n".join(f"[{m['speaker']}]\n{m['text']}" for m in messages)


class BaseGateway:
    """Budget accounting and history capture shared by both backends."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.ledger = UsageLedger()
        self.history = None  # optional datalayer.History
        self.task_id = ""  # context set by the calling module
        self.clock = 0.0

    def _route(self, role: str) -> ModelRoute:
        route = self.config.routes.get(role)
        if route is None:
            raise GatewayConfigError(f"no route for role {role!r}")
        return route

    def _prices(self, model_id: str) -> dict[str, float]:
        return self.config.cost_table.get(model_id, {"prompt_per_1k": 0.0, "completion_per_1k": 0.0})

    def _check_budget(self, route: ModelRoute, prompt: str) -> None:
        prices = self._prices(route.model_id)
        estimate = (
            estimate_tokens(prompt) / 1000 * prices["prompt_per_1k"]
            + route.max_tokens / 1000 * prices["completion_per_1k"]
        )
        if self.ledger.total_cost + estimate > self.config.budget_usd:
            raise BudgetExhausted(
                f"estimated spend {self.ledger.total_cost + estimate:.4f} USD "
                f"exceeds budget {self.config.budget_usd:.2f} USD"
            )

    def _note(self, actor: str, payload: str, payload_kind: str) -> None:
        if self.history is not None:
            self.history.add(self.task_id, actor, payload, payload_kind, timestamp=self.clock)

    def complete(self, role: str, messages: list[dict[str, str]], actor: str | None = None) -> str:
        route = self._route(role)
        prompt = render_prompt(messages)
        self._check_budget(route, prompt)
        self._note(actor or role, prompt, "prompt")
        completion, prompt_tokens, completion_tokens = self._complete(route, prompt)
        prices = self._prices(route.model_id)
        cost = (
            prompt_tokens / 1000 * prices["prompt_per_1k"]
            + completion_tokens / 1000 * prices["completion_per_1k"]
        )
        self.ledger.record(role, prompt_tokens, completion_tokens, cost)
        self._note(actor or role, completion, "completion")
        return completion

    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        raise NotImplementedError


@dataclass
class ScriptRecord:
    role: str
    response: str
    guard: str | None = None
    max_uses: int = 1  # -1 = unlimited
    uses: int = 0

    @property
    def available(self) -> bool:
        return self.max_uses < 0 or self.uses < self.max_uses


def load_script(path: str) -> list[ScriptRecord]:
    try:
        doc = load_yaml(path)
    except yaml.YAMLError as exc:
        raise GatewayConfigError(f"script: {exc}") from None
    records_doc = doc.get("records", doc) if isinstance(doc, dict) else doc
    if records_doc is not None and not isinstance(records_doc, list):
        raise GatewayConfigError(f"script {path}: expected a records list, bare or under `records:`")
    records = []
    for i, rec in enumerate(records_doc or []):
        rec = _mapping(rec, f"script {path}: record {i}")
        role = rec.get("role")
        if role not in ROLES:
            raise GatewayConfigError(f"script record {i}: unknown role {role!r}")
        if "response" not in rec:
            raise GatewayConfigError(f"script record {i}: missing response")
        records.append(
            ScriptRecord(
                role=role,
                response=str(rec["response"]),
                guard=rec.get("guard"),
                max_uses=int(rec.get("max_uses", 1)),
            )
        )
    return records


class ScriptedGateway(BaseGateway):
    def __init__(self, config: GatewayConfig, records: list[ScriptRecord]):
        super().__init__(config)
        self.records = records

    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        for record in self.records:
            if record.role != route.role or not record.available:
                continue
            if record.guard is not None and record.guard not in prompt:
                continue
            record.uses += 1
            return record.response, estimate_tokens(prompt), estimate_tokens(record.response)
        raise ScriptExhausted(
            f"no scripted response left for role {route.role!r} "
            f"(prompt head: {prompt[:120]!r})"
        )


class LiveGateway(BaseGateway):
    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": route.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": route.max_tokens,
            "temperature": route.temperature,
        }
        response = requests.post(self.config.endpoint, json=payload, headers=headers, timeout=120)
        response.raise_for_status()
        doc = response.json()
        text = doc["choices"][0]["message"]["content"]
        usage = doc.get("usage", {})
        return (
            text,
            int(usage.get("prompt_tokens", estimate_tokens(prompt))),
            int(usage.get("completion_tokens", estimate_tokens(text))),
        )


def build_gateway(config: GatewayConfig, records: list[ScriptRecord] | None = None) -> BaseGateway:
    if config.mode == "scripted":
        if records is None:
            if not config.script_path:
                raise GatewayConfigError("scripted mode needs a script")
            records = load_script(config.script_path)
        return ScriptedGateway(config, records)
    if not config.endpoint:
        raise GatewayConfigError("live mode needs an endpoint")
    return LiveGateway(config)
