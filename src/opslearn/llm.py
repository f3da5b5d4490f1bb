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

All network activity in this package lives in LiveGateway._complete;
nothing else touches a socket.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from .resources import ConfigurationError, conform, finite_number, number, one_of, read_input

ROLES = ("curriculum", "planner", "curator")
T = TypeVar("T")


class BudgetExhausted(Exception):
    """The next call would push spend past the configured hard budget."""


class ScriptExhausted(Exception):
    """No scripted record matches; the fixture and the code disagree."""


class EndpointFailed(Exception):
    """A live call got no usable reply; the message is one line."""


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate used for budgeting."""
    return max(1, len(text) // 4)


@dataclass
class ModelRoute:
    role: str
    model_id: str
    max_tokens: int = 1024
    temperature: float = 0.2


@dataclass
class UsageLedger:
    """Running totals of every call's usage.

    `record` adds to each total in call order, starting from the integer
    0, so a total is the left-to-right sum of the calls' figures (what
    `sum` gives on Python 3.11), and a budget check reads it in O(1).
    """

    calls: int = field(default=0, init=False)
    total_cost: float = field(default=0, init=False)
    total_prompt_tokens: int = field(default=0, init=False)
    total_completion_tokens: int = field(default=0, init=False)

    def record(self, prompt_tokens: int, completion_tokens: int, cost: float) -> None:
        self.calls += 1
        self.total_cost += cost
        self.total_prompt_tokens += prompt_tokens
        self.total_completion_tokens += completion_tokens

    def to_doc(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
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
    "curriculum": ModelRoute("curriculum", "o1", max_tokens=2048, temperature=1.0),
    "planner": ModelRoute("planner", "gpt-4o", max_tokens=1024, temperature=0.2),
    "curator": ModelRoute("curator", "o1", max_tokens=2048, temperature=1.0),
}


@dataclass
class GatewayConfig:
    """Gateway settings: an `--llm-config` file sets every field but `budget_usd`, which the run sets."""

    endpoint: str = ""
    api_key_env: str = "OPENAI_API_KEY"
    budget_usd: float = 10.0
    routes: dict[str, ModelRoute] = field(default_factory=lambda: dict(DEFAULT_ROUTES))
    cost_table: dict[str, dict[str, float]] = field(
        default_factory=lambda: {model: dict(prices) for model, prices in DEFAULT_COST_TABLE.items()}
    )


# An `--llm-config` file holds only the keys of _CONFIG. The backend, the budget
# and the script are run settings: each has one flag, and the file may not carry a copy.
FLAG_OWNED_KEYS = {"mode": "--llm", "budget_usd": "--budget-usd", "script_path": "--script"}
_NOT_NEGATIVE = number(float, 0)
_ROUTES = {
    role: (
        {
            "model": (str, route.model_id),
            "max_tokens": (number(int, 1), route.max_tokens),
            "temperature": (_NOT_NEGATIVE, route.temperature),
        },
        {},
    )
    for role, route in DEFAULT_ROUTES.items()
}
_PRICES = {"prompt_per_1k": (_NOT_NEGATIVE, 0.0), "completion_per_1k": (_NOT_NEGATIVE, 0.0)}
_CONFIG = {
    "endpoint": (str, GatewayConfig.endpoint),
    "api_key_env": (str, GatewayConfig.api_key_env),
    "routes": (_ROUTES, {}),
    "cost_table": ({str: _PRICES}, {}),
}


def _settings(doc: Any) -> dict[str, Any]:
    """The settings of a config document; a key a flag owns is refused with the flag's name."""
    owned = sorted(key for key in FLAG_OWNED_KEYS if isinstance(doc, dict) and key in doc)
    if owned:
        raise ValueError(f"unknown keys {owned}" + "".join(f"; {key} is set by {FLAG_OWNED_KEYS[key]}" for key in owned))
    return conform(_CONFIG, {} if doc is None else doc)


def load_config(path: str) -> GatewayConfig:
    settings = read_input("llm config", path, _settings)
    config = GatewayConfig(endpoint=settings["endpoint"], api_key_env=settings["api_key_env"])
    for role, r in settings["routes"].items():
        config.routes[role] = ModelRoute(role, r["model"], r["max_tokens"], r["temperature"])
    config.cost_table.update(settings["cost_table"])
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


def parse_blocks(
    text: str, header: str, fields: tuple[str, ...], multiline: str | None = None
) -> list[tuple[str, dict[str, str]]]:
    """The reply grammar every role shares: `<header> <n>:` lines open blocks of `field: value` lines.

    Returns (number text, {field: value}) per block, in order. Text before the
    first header and lines naming none of `fields` are ignored; lines are
    stripped; a field's last non-empty value wins, and an empty one leaves it
    absent. Unlabelled lines after a `multiline` field's line continue it.
    """
    pieces = re.split(rf"^{header}\s+(\d+)\s*:\s*$", text, flags=re.M)
    field_line = re.compile(rf"^({'|'.join(fields)})\s*:\s*(.*)$")
    blocks = []
    for number, block in zip(pieces[1::2], pieces[2::2]):
        values: dict[str, str] = {}
        continuing = False
        for line in block.splitlines():
            line = line.strip()
            match = field_line.match(line)
            if match:
                name, value = match.groups()
                continuing = name == multiline
                if value:
                    values[name] = value
            elif line and continuing:
                values[name] = values.get(name, "") + "\n" + line
        blocks.append((number, values))
    return blocks


def render_prompt(messages: list[dict[str, str]]) -> str:
    return "\n\n".join(f"[{m['speaker']}]\n{m['text']}" for m in messages)


class BaseGateway:
    """Budget accounting and history capture shared by both backends."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.ledger = UsageLedger()
        self.history = None  # optional datalayer.History

    def _route(self, role: str) -> ModelRoute:
        route = self.config.routes.get(role)
        if route is None:
            raise ConfigurationError(f"no route for role {role!r}")
        return route

    def _cost(self, route: ModelRoute, prompt_tokens: int, completion_tokens: int) -> float:
        prices = self.config.cost_table.get(route.model_id, {"prompt_per_1k": 0.0, "completion_per_1k": 0.0})
        return prompt_tokens / 1000 * prices["prompt_per_1k"] + completion_tokens / 1000 * prices["completion_per_1k"]

    def _check_budget(self, route: ModelRoute, prompt: str) -> None:
        estimate = self._cost(route, estimate_tokens(prompt), route.max_tokens)
        if self.ledger.total_cost + estimate > self.config.budget_usd:
            raise BudgetExhausted(
                f"estimated spend {self.ledger.total_cost + estimate:.4f} USD "
                f"exceeds budget {self.config.budget_usd:.2f} USD"
            )

    def _note(self, actor: str, payload: str, payload_kind: str) -> None:
        if self.history is not None:
            self.history.add(actor, payload, payload_kind)

    def complete(self, role: str, messages: list[dict[str, str]], actor: str | None = None) -> str:
        route = self._route(role)
        prompt = render_prompt(messages)
        self._check_budget(route, prompt)
        self._note(actor or role, prompt, "prompt")
        completion, prompt_tokens, completion_tokens = self._complete(route, prompt)
        self.ledger.record(prompt_tokens, completion_tokens, self._cost(route, prompt_tokens, completion_tokens))
        self._note(actor or role, completion, "completion")
        return completion

    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptRecord:
    role: str
    response: str
    guard: str | None = None
    max_uses: int = 1  # -1 = unlimited


def _uses(value: Any) -> int:
    uses = finite_number(int, value)
    if uses != -1 and uses < 1:
        raise ValueError(f"{value!r} is neither -1 (unlimited) nor at least 1")
    return uses


_SCRIPT = {"records": [{"role": one_of(*ROLES), "response": str, "guard": (str, None), "max_uses": (_uses, 1)}]}


def _records(doc: Any) -> list[dict[str, Any]]:
    return conform(_SCRIPT, {"records": doc} if isinstance(doc, list) else doc)["records"]


def _script_records(records: list[dict[str, Any]]) -> tuple[ScriptRecord, ...]:
    return tuple(ScriptRecord(**record) for record in records)


def load_script(path: str) -> list[ScriptRecord]:
    """The records of a script file: a list, bare or under `records:`. A file's text is
    checked once per process; each call gets a new list of the same frozen records."""
    return list(read_input("script", path, _records, _script_records, shared=True))


class ScriptedGateway(BaseGateway):
    """Replays `records`; the gateway counts their uses, so gateways can share one list.
    It keeps, per role, the indexes of the records with uses left, in script order."""

    def __init__(self, config: GatewayConfig, records: list[ScriptRecord]):
        super().__init__(config)
        self.records = records
        self.uses = [0] * len(records)
        self._live: dict[str, list[int]] = {}
        for i, record in enumerate(records):
            if record.max_uses != 0:  # -1 is unlimited
                self._live.setdefault(record.role, []).append(i)

    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        live = self._live.get(route.role, [])
        for position, i in enumerate(live):
            record = self.records[i]
            if record.guard is not None and record.guard not in prompt:
                continue
            self.uses[i] += 1
            if self.uses[i] == record.max_uses:
                del live[position]
            return record.response, estimate_tokens(prompt), estimate_tokens(record.response)
        raise ScriptExhausted(
            f"no scripted response left for role {route.role!r} "
            f"(prompt head: {prompt[:120]!r})"
        )


class LiveGateway(BaseGateway):
    """Posts each call to an OpenAI-style chat endpoint with the standard library. HTTPS
    verifies against the platform's CA store, and a 307 or 308 redirect ends the call."""

    def _complete(self, route: ModelRoute, prompt: str) -> tuple[str, int, int]:
        from http.client import HTTPException
        from urllib.request import Request, urlopen  # here: importing it costs every process tens of ms

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
        try:  # transport errors and HTTP error statuses are OSErrors; a body nested too deep is a RecursionError
            with urlopen(Request(self.config.endpoint, json.dumps(payload).encode(), headers), timeout=120) as response:
                doc = json.loads(response.read())
        except (OSError, HTTPException, ValueError, RecursionError) as exc:
            raise EndpointFailed(" ".join(f"{type(exc).__name__}: {exc}".split())) from None
        try:  # only the fields read are checked, since replies carry more; a count left out is estimated
            text, usage = doc["choices"][0]["message"]["content"], doc.get("usage") or {}
        except (LookupError, TypeError):
            text = usage = None
        if not isinstance(text, str) or not isinstance(usage, dict):
            raise EndpointFailed("the reply has no text at choices[0].message.content, or a usage that is no mapping")
        counts = usage.get("prompt_tokens", estimate_tokens(prompt)), usage.get("completion_tokens", estimate_tokens(text))
        if any(type(count) is not int or not 0 <= count < 2**53 for count in counts):  # bools out; floats hold these
            raise EndpointFailed(f"the reply's usage counts {counts!r} are not whole numbers from 0 to 2**53")
        return text, *counts
