"""Evaluator for the PromQL subset the management agents actually emit.

Supported constructs, frozen by the command corpus this project ships:

    m{k="v", k2=~"regex"}            instant selector (metric name optional)
    rate(m{...}[5m])                 per-second rate over a range window
    sum by (l)(expr) / sum(expr) by (l)
    count by (l)(expr)
    histogram_quantile(q, expr)
    expr / expr                      vector division, label-matched

Everything else is a ParseError. Semantics intentionally simpler than
production Prometheus and documented where they diverge:

- instant selectors return the latest sample within a 5m staleness window;
- rate() is (last - first) / (t_last - t_first) over in-window samples,
  with counter resets compensated by adding the pre-reset value; fewer
  than two samples yield no entry (never an error);
- rate() does not extrapolate to the window boundaries;
- vector division matches on the full label set minus __name__ and drops
  left entries with no match or a zero denominator.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

from .metrics import MetricStore, QueryEntry, QueryResult, SeriesId
from .resources import compile_pattern

LOOKBACK_SECONDS = 300.0
MAX_NESTING = 50  # sub-expression depth, divisions included; the bundled commands nest 5

_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


class ParseError(Exception):
    """Grammar violation; carries the character offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"parse error at char {offset}: {message}")
        self.offset = offset


class RangeError(Exception):
    """Quantile argument outside [0, 1]."""


# ---------------------------------------------------------------------------
# AST: immutable, so `parse` can hand one tree to every caller of a text


@dataclass(frozen=True)
class Matcher:
    label: str
    op: str  # "=" | "=~"
    value: str

    def matches(self, labels: dict[str, str]) -> bool:
        actual = labels.get(self.label, "")
        if self.op == "=":
            return actual == self.value
        return re.fullmatch(self.value, actual) is not None


@dataclass(frozen=True)
class Selector:
    metric_name: str | None
    matchers: tuple[Matcher, ...]


@dataclass(frozen=True)
class RangeSelector:
    selector: Selector
    window_seconds: float


@dataclass(frozen=True)
class Rate:
    arg: RangeSelector


@dataclass(frozen=True)
class Aggregation:
    op: str  # "sum" | "count"
    by_labels: tuple[str, ...] | None
    arg: "Expr"


@dataclass(frozen=True)
class HistogramQuantile:
    quantile: float
    arg: "Expr"


@dataclass(frozen=True)
class Division:
    left: "Expr"
    right: "Expr"


Expr = Selector | Rate | Aggregation | HistogramQuantile | Division


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass
class _Token:
    kind: str  # ident | string | number | punct
    text: str
    pos: int

    def is_punct(self, *texts: str) -> bool:
        """A quoted string never stands for punctuation, even when its text is `(` or `=`."""
        return self.kind == "punct" and self.text in texts

    @property
    def shown(self) -> str:
        """The token as an error names it: a string in quotes, so it never reads as a name."""
        return json.dumps(self.text, ensure_ascii=False) if self.kind == "string" else self.text


# One alternative per token kind, tried in this order at each position; blanks
# have no group and make no token, and any other character is `bad`. A string
# runs to its first unescaped quote; a backslash in it stands for the next character.
_TOKEN_RE = re.compile(
    r'\s+|"(?P<string>(?:\\.|[^"\\])*)"|(?P<punct>[(){}\[\],/]|=~?)'
    r"|(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_:][A-Za-z0-9_:]*)|(?P<bad>.)",
    re.S,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value, pos = m.group(kind), m.start()
        if kind == "bad":
            raise ParseError("unterminated string" if value == '"' else f"unexpected character {value!r}", pos)
        if kind == "string":
            value = re.sub(r"\\(.)", r"\1", value, flags=re.S)
        tokens.append(_Token(kind, value, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)

_FUNCTIONS = {"rate", "histogram_quantile"}
_AGGREGATORS = {"sum", "count"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, got {tok.shown!r}", tok.pos)
        return tok

    def parse(self) -> Expr:
        expr = self._parse_expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.shown!r}", tok.pos)
        return expr

    def _nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", pos)

    def _parse_expr(self) -> Expr:
        outer = self.depth
        tok = self._peek()
        self._nest(tok.pos if tok else len(self.text))
        left = self._parse_atom()
        while True:
            tok = self._peek()
            if tok is None or not tok.is_punct("/"):
                self.depth = outer
                return left
            self._next()
            self._nest(tok.pos)  # evaluation recurses once per division of a chain
            left = Division(left, self._parse_atom())

    def _parse_atom(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ParseError("empty expression", len(self.text))
        if tok.kind == "ident":
            if tok.text in _AGGREGATORS:
                return self._parse_aggregation()
            if tok.text in _FUNCTIONS:
                return self._parse_function()
            nxt = self.tokens[self.i + 1] if self.i + 1 < len(self.tokens) else None
            if nxt is not None and nxt.is_punct("("):
                raise ParseError(f"unknown function {tok.text!r}", tok.pos)
            return self._parse_selector()
        if tok.is_punct("{"):
            return self._parse_selector()
        if tok.is_punct("("):
            self._next()
            inner = self._parse_expr()
            self._expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.shown!r}", tok.pos)

    def _parse_selector(self) -> Selector:
        tok = self._peek()
        name: str | None = None
        if tok is not None and tok.kind == "ident":
            name = self._next().text
        matchers: list[Matcher] = []
        tok = self._peek()
        if tok is not None and tok.is_punct("{"):
            self._next()
            while True:
                tok = self._peek()
                if tok is None:
                    raise ParseError("unterminated matcher list", len(self.text))
                if tok.is_punct("}"):
                    self._next()
                    break
                label_tok = self._next()
                if label_tok.kind != "ident":
                    raise ParseError(f"expected label name, got {label_tok.shown!r}", label_tok.pos)
                op_tok = self._next()
                if not op_tok.is_punct("=", "=~"):
                    raise ParseError(f"expected = or =~, got {op_tok.shown!r}", op_tok.pos)
                value_tok = self._next()
                if value_tok.kind != "string":
                    raise ParseError("matcher value must be a quoted string", value_tok.pos)
                if op_tok.text == "=~":
                    try:
                        compile_pattern(value_tok.text)
                    except ValueError as exc:
                        raise ParseError(f"bad regex: {exc}", value_tok.pos) from None
                matchers.append(Matcher(label_tok.text, op_tok.text, value_tok.text))
                tok = self._peek()
                if tok is not None and tok.is_punct(","):
                    self._next()
        if name is None and not matchers:
            raise ParseError("selector needs a metric name or at least one matcher", tok.pos if tok else 0)
        return Selector(name, tuple(matchers))

    def _parse_duration(self) -> float:
        tok = self._next()
        if tok.kind != "number":
            raise ParseError(f"expected duration, got {tok.shown!r}", tok.pos)
        unit_tok = self._next()
        if unit_tok.kind != "ident" or unit_tok.text not in _DURATION_UNITS:
            raise ParseError(f"bad duration unit {unit_tok.shown!r}", unit_tok.pos)
        return float(tok.text) * _DURATION_UNITS[unit_tok.text]

    def _parse_function(self) -> Expr:
        name_tok = self._next()
        self._expect("(")
        if name_tok.text == "rate":
            selector = self._parse_selector()
            self._expect("[")
            window = self._parse_duration()
            self._expect("]")
            self._expect(")")
            return Rate(RangeSelector(selector, window))
        # histogram_quantile
        q_tok = self._next()
        if q_tok.kind != "number":
            raise ParseError(f"quantile must be a number, got {q_tok.shown!r}", q_tok.pos)
        self._expect(",")
        arg = self._parse_expr()
        self._expect(")")
        return HistogramQuantile(float(q_tok.text), arg)

    def _parse_aggregation(self) -> Expr:
        op_tok = self._next()
        by_labels: tuple[str, ...] | None = None
        tok = self._peek()
        if tok is not None and tok.kind == "ident" and tok.text == "by":
            self._next()
            by_labels = self._parse_label_list()
        self._expect("(")
        arg = self._parse_expr()
        self._expect(")")
        tok = self._peek()
        if by_labels is None and tok is not None and tok.kind == "ident" and tok.text == "by":
            self._next()
            by_labels = self._parse_label_list()
        return Aggregation(op_tok.text, by_labels, arg)

    def _parse_label_list(self) -> tuple[str, ...]:
        self._expect("(")
        labels: list[str] = []
        while True:
            tok = self._next()
            if tok.is_punct(")"):
                break
            if tok.kind != "ident":
                raise ParseError(f"expected label name, got {tok.shown!r}", tok.pos)
            labels.append(tok.text)
            tok = self._peek()
            if tok is not None and tok.is_punct(","):
                self._next()
        return tuple(labels)


@functools.lru_cache(maxsize=256)  # pure, and agents send the same few queries again and again
def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _strip_name(labels: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in labels.items() if k != "__name__"}


def _select_series(store: MetricStore, selector: Selector) -> list[SeriesId]:
    out = []
    for sid in store.series_ids():
        if selector.metric_name is not None and sid.metric_name != selector.metric_name:
            continue
        full = sid.full_labels()
        if all(m.matches(full) for m in selector.matchers):
            out.append(sid)
    return out


def _eval_selector(store: MetricStore, selector: Selector, at: float) -> list[QueryEntry]:
    entries = []
    for sid in _select_series(store, selector):
        latest = store.latest_at(sid, at, LOOKBACK_SECONDS)
        if latest is None:
            continue
        entries.append(QueryEntry(sid.full_labels(), latest[1]))
    return entries


def counter_increase(points: list[tuple[float, float]]) -> float:
    """Total increase across ordered samples, compensating resets.

    A value drop is a counter reset: the pre-reset value is added back so
    the increase stays monotone.
    """
    acc = 0.0
    prev = None
    for _, v in points:
        if prev is not None and v < prev:
            acc += prev
        prev = v
    return points[-1][1] + acc - points[0][1]


def _eval_rate(store: MetricStore, node: Rate, at: float) -> list[QueryEntry]:
    entries = []
    for sid in _select_series(store, node.arg.selector):
        points = store.samples_in_window(sid, at - node.arg.window_seconds, at)
        if len(points) < 2:
            continue
        span = points[-1][0] - points[0][0]
        entries.append(QueryEntry(_strip_name(sid.full_labels()), counter_increase(points) / span))
    return entries


def _group_key(labels: dict[str, str], by_labels: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((l, labels[l]) for l in sorted(by_labels) if l in labels)


def _eval_aggregation(store: MetricStore, node: Aggregation, at: float) -> list[QueryEntry]:
    inner = _eval_node(store, node.arg, at)
    by = node.by_labels or ()
    groups: dict[tuple[tuple[str, str], ...], list[QueryEntry]] = {}
    for entry in inner:
        groups.setdefault(_group_key(entry.labels, by), []).append(entry)
    out = []
    for key in sorted(groups):
        members = groups[key]
        if node.op == "sum":
            value = sum(e.value for e in members)
        else:
            value = float(len(members))
        out.append(QueryEntry(dict(key), value))
    return out


def bucket_quantile(q: float, buckets: list[tuple[float, float]]) -> float | None:
    """Linear-interpolation quantile over cumulative (le, count) buckets.

    Expects an ascending le ordering ending in +Inf. Returns None when the
    buckets cannot support an estimate (missing +Inf, fewer than two
    buckets, or zero observations). q=1 caps at the highest finite le;
    q=0 grounds at the lowest bucket's lower edge.
    """
    if len(buckets) < 2 or buckets[-1][0] != float("inf"):
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    cumulative_prev = 0.0
    for idx, (le, cum) in enumerate(buckets):
        if cum >= rank:
            if idx == len(buckets) - 1:
                return buckets[-2][0]
            if le <= 0 and idx == 0:
                return le
            start = buckets[idx - 1][0] if idx > 0 else 0.0
            in_bucket = cum - cumulative_prev
            if in_bucket <= 0:
                return start
            return start + (le - start) * (rank - cumulative_prev) / in_bucket
        cumulative_prev = cum
    return buckets[-2][0]


def _eval_histogram_quantile(store: MetricStore, node: HistogramQuantile, at: float) -> list[QueryEntry]:
    if not 0.0 <= node.quantile <= 1.0:
        raise RangeError(f"quantile {node.quantile} outside [0, 1]")
    inner = _eval_node(store, node.arg, at)
    groups: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
    for entry in inner:
        if "le" not in entry.labels:
            continue
        try:
            le = float(entry.labels["le"])
        except ValueError:
            continue  # a bucket whose bound is not a number is skipped, as Prometheus does
        key = tuple(sorted((k, v) for k, v in entry.labels.items() if k not in ("le", "__name__")))
        groups.setdefault(key, []).append((le, entry.value))
    out = []
    for key in sorted(groups):
        buckets = sorted(groups[key])
        value = bucket_quantile(node.quantile, buckets)
        if value is None:
            continue
        out.append(QueryEntry(dict(key), value))
    return out


def _eval_division(store: MetricStore, node: Division, at: float) -> list[QueryEntry]:
    left = _eval_node(store, node.left, at)
    right = _eval_node(store, node.right, at)
    right_by_key: dict[tuple[tuple[str, str], ...], float] = {}
    for entry in right:
        right_by_key[tuple(sorted(_strip_name(entry.labels).items()))] = entry.value
    out = []
    for entry in left:
        labels = _strip_name(entry.labels)
        key = tuple(sorted(labels.items()))
        if key not in right_by_key or right_by_key[key] == 0:
            continue
        out.append(QueryEntry(labels, entry.value / right_by_key[key]))
    return out


def _eval_node(store: MetricStore, node: Expr, at: float) -> list[QueryEntry]:
    if isinstance(node, Selector):
        return _eval_selector(store, node, at)
    if isinstance(node, Rate):
        return _eval_rate(store, node, at)
    if isinstance(node, Aggregation):
        return _eval_aggregation(store, node, at)
    if isinstance(node, HistogramQuantile):
        return _eval_histogram_quantile(store, node, at)
    if isinstance(node, Division):
        return _eval_division(store, node, at)
    raise TypeError(f"unknown node {node!r}")


def evaluate(store: MetricStore, text: str, at: float) -> QueryResult:
    """Parse and evaluate an expression at one instant.

    A selector matching no series is a success with empty entries.
    Raises ParseError for grammar violations and RangeError for an
    out-of-range quantile.
    """
    node = parse(text)
    entries = _eval_node(store, node, at)
    entries.sort(key=lambda e: tuple(sorted(e.labels.items())))
    return QueryResult("vector", entries)
