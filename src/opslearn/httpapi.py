"""Prometheus-shaped HTTP surface over the metric store.

The simulated cluster exposes two read endpoints:

    GET /api/v1/query?query=<expr>
    GET /api/v1/label/<name>/values

Requests arrive as raw path-and-query strings (the shell's curl hands
them over verbatim), so this module owns the one place percent-decoding
happens. Decoding runs exactly once; a query value still containing the
reserved characters {}[] after extraction is rejected before decoding,
mirroring how a real server chokes on an unencoded PromQL expression.
"""

from __future__ import annotations

import json
import math
import re
import urllib.parse
from dataclasses import dataclass

from . import promql
from .metrics import MetricStore, QueryResult

_RESERVED_RAW = set("{}[] \"|")


@dataclass
class HttpResponse:
    status_code: int
    body: str

    @property
    def ok(self) -> bool:
        return 200 <= self.status_code < 300


def _error(status_code: int, error_type: str, message: str) -> HttpResponse:
    return HttpResponse(
        status_code,
        json.dumps({"status": "error", "errorType": error_type, "error": message}),
    )


def format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _success(result: QueryResult, at: float) -> HttpResponse:
    payload = {
        "status": "success",
        "data": {
            "resultType": result.result_type,
            "result": [
                {"metric": entry.labels, "value": [at, format_value(entry.value)]}
                for entry in result.entries
            ],
        },
    }
    return HttpResponse(200, json.dumps(payload))


def encode_query(expr: str) -> str:
    """Build the properly encoded query path for an expression."""
    return "/api/v1/query?query=" + urllib.parse.quote(expr, safe="")


_LABEL_VALUES_RE = re.compile(r"^/api/v1/label/([A-Za-z_][A-Za-z0-9_]*)/values$")


def handle_request(store: MetricStore, path_and_query: str, at: float) -> HttpResponse:
    """Serve one GET request given the raw path plus query string."""
    path, _, raw_query = path_and_query.partition("?")

    m = _LABEL_VALUES_RE.match(path)
    if m:
        values = store.label_values(m.group(1))
        return HttpResponse(200, json.dumps({"status": "success", "data": values}))

    if path != "/api/v1/query":
        return _error(404, "not_found", f"unknown path {path!r}")

    raw_expr = None
    for part in raw_query.split("&"):
        key, _, value = part.partition("=")
        if key == "query":
            raw_expr = value
            break
    if raw_expr is None or raw_expr == "":
        return _error(400, "bad_data", 'invalid parameter "query": query is required')
    if any(c in _RESERVED_RAW for c in raw_expr):
        return _error(
            400,
            "bad_data",
            'invalid parameter "query": unencoded reserved character in query string',
        )

    expr = urllib.parse.unquote_plus(raw_expr)
    try:
        result = promql.evaluate(store, expr, at)
    except (promql.ParseError, promql.RangeError) as exc:
        return _error(400, "bad_data", f'invalid parameter "query": {exc}')
    return _success(result, at)
