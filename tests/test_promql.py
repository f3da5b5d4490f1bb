"""Query engine tests: randomized equivalence against the brute-force
reference, frozen hand-computed cases, and grammar/edge behavior."""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_promql as oracle
import promql_cases
from opslearn.cluster import load_topology, tick
from opslearn.metrics import MetricStore
from opslearn.promql import Aggregation, Matcher, ParseError, RangeError, Rate, _tokenize, evaluate, parse
from opslearn.resources import fixture_path

# Fixed per-production seeds keep the randomized suite reproducible.
_SEEDS = {
    "selector": 11,
    "rate": 22,
    "sum": 33,
    "count": 44,
    "histogram_quantile": 55,
    "division": 66,
}


def _entries(result) -> list[tuple[dict[str, str], float]]:
    return [(entry.labels, entry.value) for entry in result.entries]


def _single_value(result) -> float:
    assert len(result.entries) == 1, result.entries
    return result.entries[0].value


@pytest.mark.parametrize("production", promql_cases.PRODUCTIONS)
def test_randomized_equivalence_with_reference(production):
    stats = promql_cases.run_cases(production, 1000, seed=_SEEDS[production])
    assert stats.cases == 1000
    # Guard against a generator drift that would make the comparison
    # vacuous (empty result compared against empty result).
    assert stats.nonempty >= 100


def test_rate_hand_case_exact():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "j"}, 0.0, 0.0)
    store.ingest_value("http_requests_total", {"job": "j"}, 60.0, 120.0)
    result = evaluate(store, 'rate(http_requests_total{job="j"}[1m])', 60.0)
    assert _entries(result) == [({"job": "j"}, 2.0)]


def test_histogram_quantile_hand_case_exact():
    # 0.005 + (0.01 - 0.005) * (95 - 90) / (100 - 90) = 0.0075
    store = MetricStore()
    for le, cumulative in [("0.005", 90.0), ("0.01", 100.0), ("+Inf", 100.0)]:
        store.ingest_value("request_duration_seconds_bucket", {"job": "j", "le": le}, 0.0, cumulative)
    result = evaluate(store, 'histogram_quantile(0.95, request_duration_seconds_bucket{job="j"})', 0.0)
    assert _entries(result) == [({"job": "j"}, 0.0075)]


def test_rate_compensates_counter_reset():
    store = MetricStore()
    for t, v in [(0.0, 0.0), (30.0, 100.0), (60.0, 10.0), (90.0, 40.0)]:
        store.ingest_value("http_requests_total", {"job": "j"}, t, v)
    result = evaluate(store, 'rate(http_requests_total{job="j"}[2m])', 90.0)
    # Increase: (100 - 0) + 10 (full post-reset value) + (40 - 10) = 140.
    assert _single_value(result) == 140.0 / 90.0


def test_rate_with_fewer_than_two_samples_is_empty_success():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "j"}, 0.0, 5.0)
    result = evaluate(store, 'rate(http_requests_total{job="j"}[1m])', 0.0)
    assert result.result_type == "vector"
    assert result.entries == []


def _quantile_store(cumulatives: list[tuple[str, float]]) -> MetricStore:
    store = MetricStore()
    for le, cumulative in cumulatives:
        store.ingest_value("request_duration_seconds_bucket", {"le": le}, 0.0, cumulative)
    return store


def test_histogram_quantile_skips_buckets_with_non_numeric_le():
    store = _quantile_store([("0.1", 5.0), ("abc", 7.0), ("1", 10.0), ("+Inf", 10.0)])
    assert _single_value(evaluate(store, "histogram_quantile(0.5, request_duration_seconds_bucket)", 0.0)) == 0.1
    only_bad = _quantile_store([("abc", 7.0)])
    assert evaluate(only_bad, "histogram_quantile(0.9, request_duration_seconds_bucket)", 0.0).entries == []
    no_le = MetricStore()  # a series without an `le` label is no bucket either
    no_le.ingest_value("request_duration_seconds_bucket", {"job": "j"}, 0.0, 7.0)
    assert evaluate(no_le, "histogram_quantile(0.5, request_duration_seconds_bucket)", 0.0).entries == []


def test_histogram_quantile_monotone_in_q():
    rng = random.Random(7)
    for _ in range(50):
        bounds = sorted(rng.sample([0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5], rng.randint(2, 4)))
        cumulative = 0.0
        buckets = []
        for bound in bounds:
            cumulative += rng.uniform(0.5, 20.0)
            buckets.append((str(bound), cumulative))
        buckets.append(("+Inf", cumulative + rng.choice([0.0, rng.uniform(0.5, 5.0)])))
        store = _quantile_store(buckets)
        previous = None
        for q in ["0", "0.1", "0.25", "0.5", "0.75", "0.9", "0.99", "1"]:
            value = _single_value(evaluate(store, f"histogram_quantile({q}, request_duration_seconds_bucket)", 0.0))
            if previous is not None:
                assert value >= previous, (buckets, q)
            previous = value


def test_histogram_quantile_q0_returns_lowest_bucket_bound():
    store = _quantile_store([("0.005", 90.0), ("0.01", 100.0), ("+Inf", 100.0)])
    value = _single_value(evaluate(store, "histogram_quantile(0, request_duration_seconds_bucket)", 0.0))
    assert value == 0.0


def test_histogram_quantile_q1_returns_highest_finite_le():
    # Whether or not the +Inf bucket holds extra observations, q=1 lands
    # on the largest finite upper bound.
    for inf_count in (100.0, 120.0):
        store = _quantile_store([("0.005", 90.0), ("0.01", 100.0), ("+Inf", inf_count)])
        value = _single_value(evaluate(store, "histogram_quantile(1, request_duration_seconds_bucket)", 0.0))
        assert value == 0.01


def test_histogram_quantile_out_of_range_q_raises():
    store = _quantile_store([("0.005", 90.0), ("+Inf", 100.0)])
    with pytest.raises(RangeError):
        evaluate(store, "histogram_quantile(1.5, request_duration_seconds_bucket)", 0.0)
    with pytest.raises(RangeError):
        evaluate(store, "histogram_quantile(2, request_duration_seconds_bucket)", 0.0)


def test_histogram_quantile_requires_inf_bucket():
    store = _quantile_store([("0.005", 90.0), ("0.01", 100.0)])
    result = evaluate(store, "histogram_quantile(0.5, request_duration_seconds_bucket)", 0.0)
    assert result.entries == []


def test_selector_lookback_boundary():
    store = MetricStore()
    store.ingest_value("queue_depth_total", {"job": "j"}, 0.0, 4.0)
    assert _entries(evaluate(store, "queue_depth_total", 300.0)) == [
        ({"__name__": "queue_depth_total", "job": "j"}, 4.0)
    ]
    assert evaluate(store, "queue_depth_total", 301.0).entries == []


def test_selector_with_no_match_is_empty_success():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "a"}, 0.0, 1.0)
    result = evaluate(store, "nodejs_active_requests_total", 0.0)
    assert result.result_type == "vector"
    assert result.entries == []


def test_selector_regex_is_fully_anchored():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "catalogue"}, 0.0, 1.0)
    assert evaluate(store, 'http_requests_total{job=~"cat"}', 0.0).entries == []
    assert len(evaluate(store, 'http_requests_total{job=~"cat.*"}', 0.0).entries) == 1


def test_selector_missing_label_matches_empty_string():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "a"}, 0.0, 1.0)
    assert len(evaluate(store, 'http_requests_total{instance=""}', 0.0).entries) == 1
    assert len(evaluate(store, 'http_requests_total{instance=~".*"}', 0.0).entries) == 1
    assert evaluate(store, 'http_requests_total{instance=~".+"}', 0.0).entries == []


def test_count_by_name_over_anonymous_selector():
    store = MetricStore()
    store.ingest_value("http_requests_total", {"job": "sock-shop/catalogue"}, 0.0, 1.0)
    store.ingest_value("process_cpu_seconds_total", {"job": "sock-shop/catalogue"}, 0.0, 2.0)
    store.ingest_value("http_requests_total", {"job": "other"}, 0.0, 3.0)
    result = evaluate(store, 'count by (__name__)({job="sock-shop/catalogue"})', 0.0)
    assert _entries(result) == [
        ({"__name__": "http_requests_total"}, 1.0),
        ({"__name__": "process_cpu_seconds_total"}, 1.0),
    ]


def test_sum_without_by_collapses_to_single_entry():
    store = MetricStore()
    store.ingest_value("queue_depth_total", {"job": "a"}, 0.0, 3.0)
    store.ingest_value("queue_depth_total", {"job": "b"}, 0.0, 4.0)
    assert _entries(evaluate(store, "sum(queue_depth_total)", 0.0)) == [({}, 7.0)]


def test_by_clause_position_is_equivalent():
    store = MetricStore()
    store.ingest_value("queue_depth_total", {"job": "a", "status": "200"}, 0.0, 3.0)
    store.ingest_value("queue_depth_total", {"job": "a", "status": "500"}, 0.0, 4.0)
    prefix = evaluate(store, "sum by (job)(queue_depth_total)", 0.0)
    postfix = evaluate(store, "sum(queue_depth_total) by (job)", 0.0)
    assert _entries(prefix) == _entries(postfix) == [({"job": "a"}, 7.0)]


def test_division_matches_labels_and_drops_leftovers():
    store = MetricStore()
    store.ingest_value("hits_total", {"job": "a"}, 0.0, 8.0)
    store.ingest_value("hits_total", {"job": "b"}, 0.0, 5.0)
    store.ingest_value("reqs_total", {"job": "a"}, 0.0, 2.0)
    result = evaluate(store, "hits_total / reqs_total", 0.0)
    assert _entries(result) == [({"job": "a"}, 4.0)]


def test_division_drops_zero_denominator():
    store = MetricStore()
    store.ingest_value("hits_total", {"job": "a"}, 0.0, 8.0)
    store.ingest_value("reqs_total", {"job": "a"}, 0.0, 0.0)
    assert evaluate(store, "hits_total / reqs_total", 0.0).entries == []


def test_parse_error_reports_offset():
    store = MetricStore()
    with pytest.raises(ParseError) as excinfo:
        evaluate(store, "sum by (job)(", 0.0)
    assert "parse error at char" in str(excinfo.value)
    assert isinstance(excinfo.value.offset, int)


def test_unknown_function_is_parse_error():
    store = MetricStore()
    with pytest.raises(ParseError) as excinfo:
        evaluate(store, "avg(http_requests_total)", 0.0)
    assert "unknown function" in str(excinfo.value)


@pytest.mark.parametrize(
    "text",
    [
        "{}",  # selector needs a name or at least one matcher
        "rate(http_requests_total[5x])",  # unknown range unit
        'http_requests_total{job=~"["}',  # invalid regex rejected at parse
        "http_requests_total extra",  # trailing garbage
        "rate(http_requests_total)",  # rate requires a range
    ],
)
def test_grammar_violations_raise_parse_error(text):
    store = MetricStore()
    with pytest.raises(ParseError):
        evaluate(store, text, 0.0)


# One row for each of the parser's refusals that the rows above do not reach, with its reply as it is.
@pytest.mark.parametrize(
    "text, reply",
    [
        ("sum by (job", "parse error at char 11: unexpected end of expression"),
        (")", "parse error at char 0: unexpected token ')'"),
        ('up{job="a"', "parse error at char 10: unterminated matcher list"),
        ('up{"a"="b"}', """parse error at char 3: expected label name, got '"a"'"""),
        ('up{job "a"}', """parse error at char 7: expected = or =~, got '"a"'"""),
        ("up{job=a}", "parse error at char 7: matcher value must be a quoted string"),
        ("rate(up[m])", "parse error at char 8: expected duration, got 'm'"),
        ("histogram_quantile(x, up)", "parse error at char 19: quantile must be a number, got 'x'"),
        ("sum by (1)(up)", "parse error at char 8: expected label name, got '1'"),
        # a quoted string never stands for punctuation, as Prometheus refuses each of these
        ('sum "(" up)', """parse error at char 4: expected '(', got '"("'"""),
        ('up{job "=" "a"}', """parse error at char 7: expected = or =~, got '"="'"""),
        ('rate(up"["5m])', """parse error at char 7: expected '[', got '"["'"""),
        ('up "/" up', """parse error at char 3: trailing input '"/"'"""),
        ('up{job="a" "}"', """parse error at char 11: expected label name, got '"}"'"""),
    ],
)
def test_each_parse_error_replies_exactly(text, reply):
    with pytest.raises(ParseError) as excinfo:
        evaluate(MetricStore(), text, 0.0)
    assert str(excinfo.value) == reply


@functools.cache
def _fixture_store() -> MetricStore:
    return tick(load_topology(fixture_path("sock_shop.yaml"), seed=7), 300.0).metrics


_PIECES = [
    "(", ")", "{", "}", "[", "]", ",", "/", "=", "=~", '"', " ", "5m", "0s", "0.5", "1e400",
    "sum", "count", "by", "rate", "histogram_quantile", "avg", "up", "le",
    "http_requests_total", "request_duration_seconds_bucket", 'job="sock-shop/catalogue"',
    'job=~"(a|b)+"', 'le="+Inf"', 'le="x"',
]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60), st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)))
@example(text="(" * 600 + "up" + ")" * 600)  # used to overflow the parser's recursion
@example(text=" / ".join(["up"] * 2000))  # used to overflow the evaluator's recursion
@example(text='up{job=~"a{99999999999}"}')  # the regex compiler raised OverflowError
@example(text='up{job=~"' + "(" * 2000 + '"}')  # ... and RecursionError
def test_evaluate_raises_only_parse_or_range_errors(text):
    try:
        evaluate(_fixture_store(), text, 300.0)
    except (ParseError, RangeError):
        pass


def _tokenize_by_loop(text: str) -> list[tuple[str, str, int]]:
    """The character loop the regex scanner replaced, kept as its reference."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == '"':
            j, buf = i + 1, []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", i)
            tokens.append(("string", "".join(buf), i))
            i = j + 1
        elif c in "(){}[],/":
            tokens.append(("punct", c, i))
            i += 1
        elif c == "=":
            op = "=~" if text[i + 1:i + 2] == "~" else "="
            tokens.append(("punct", op, i))
            i += len(op)
        elif (m := re.match(r"\d+(\.\d+)?", text[i:])) and c.isdigit():
            tokens.append(("number", m.group(0), i))
            i += m.end()
        elif m := re.match(r"[A-Za-z_:][A-Za-z0-9_:]*", text[i:]):
            tokens.append(("ident", m.group(0), i))
            i += m.end()
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


def _tokens_or_error(tokenize, text: str):
    try:
        return [tuple(vars(tok).values()) if not isinstance(tok, tuple) else tok for tok in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.offset


@settings(max_examples=600, deadline=None)
@given(
    text=st.one_of(
        st.text(max_size=30),
        st.lists(st.sampled_from(_PIECES + ["\\", '\\"', "~", "\x1c", "\u3000", "\u0663", "\u00b2", "."]), max_size=12)
        .map("".join),
    )
)
@example(text='x{a="b\\"c\\\\" , d=~"e\\')  # escapes, and an unterminated string ending in a backslash
@example(text="\u0663\u00b2")  # a decimal digit outside ASCII is a number; a superscript two is not
@example(text='"a\\\nb"')  # an escaped line break
def test_the_token_scanner_agrees_with_the_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_tokenize_by_loop, text)


def test_result_entries_are_sorted_by_labels():
    store = MetricStore()
    store.ingest_value("queue_depth_total", {"job": "b"}, 0.0, 1.0)
    store.ingest_value("queue_depth_total", {"job": "a"}, 0.0, 2.0)
    result = evaluate(store, "sum by (job)(queue_depth_total)", 0.0)
    assert [entry.labels["job"] for entry in result.entries] == ["a", "b"]


def test_reference_evaluator_rejects_ambiguous_division():
    # The reference refuses stores where two denominators collapse onto
    # the same label set once __name__ is stripped; this keeps generator
    # regressions loud instead of silently comparing garbage.
    series = [
        oracle.RawSeries("a_total", {"job": "x"}, [(0.0, 1.0)]),
        oracle.RawSeries("b_total", {"job": "x"}, [(0.0, 2.0)]),
    ]
    tree = oracle.DivNode(
        oracle.SelectorNode("a_total", []),
        oracle.SelectorNode(None, [("job", "=", "x")]),
    )
    with pytest.raises(ValueError):
        oracle.eval_tree(series, tree, 0.0)


def test_reference_quantile_matches_closed_form():
    buckets = [(0.005, 90.0), (0.01, 100.0), (math.inf, 100.0)]
    assert oracle._quantile_from_buckets(0.95, buckets) == 0.0075
    assert oracle._quantile_from_buckets(0.0, buckets) == 0.0
    assert oracle._quantile_from_buckets(1.0, buckets) == 0.01


def test_a_text_parses_once_into_one_immutable_tree():
    text = 'sum by (job)(rate(http_requests_total{job=~"sock-shop/.*"}[5m]))'
    tree = parse(text)
    assert parse(text) is tree
    assert isinstance(tree, Aggregation) and tree.by_labels == ("job",) and isinstance(tree.arg, Rate)
    assert tree.arg.arg.selector.matchers == (Matcher("job", "=~", "sock-shop/.*"),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.op = "count"
    with pytest.raises(ParseError):
        parse("sum(")  # a refused text is not cached
    with pytest.raises(ParseError):
        parse("sum(")
