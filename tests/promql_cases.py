"""Randomized store/expression generation for the query-engine equivalence suite.

Each case builds a small random store (at most 5 series, at most 50
samples), a random expression tree for one grammar production, renders
the tree to query text for the production engine, and checks the result
against the brute-force reference in ``oracle_promql``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import oracle_promql as oracle
from opslearn.metrics import MetricStore
from opslearn.promql import evaluate

PRODUCTIONS = ("selector", "rate", "sum", "count", "histogram_quantile", "division")
REL_TOL = 1e-9
ABS_TOL = 1e-12

_NAMES = ["http_requests_total", "cpu_seconds_total", "queue_depth_total"]
_BUCKET_NAME = "request_duration_seconds_bucket"
_LABEL_VALUES = {
    "job": ["sock-shop/catalogue", "sock-shop/front-end", "worker"],
    "status": ["200", "500"],
    "instance": ["a", "b"],
}
_RANGES = [("30s", 30.0), ("1m", 60.0), ("2m", 120.0), ("5m", 300.0), ("1h", 3600.0)]
_QUANTILES = ["0", "0.25", "0.5", "0.9", "0.95", "0.99", "1"]


@dataclass
class CaseStats:
    cases: int = 0
    nonempty: int = 0


def _random_series(rng: random.Random) -> list[oracle.RawSeries]:
    """Counter-style series: values climb over time with occasional resets.

    Label combinations are drawn from a small shared pool so that
    different metric names frequently carry identical label sets, which
    keeps label-matched division and grouping non-vacuous.
    """
    combos: list[dict[str, str]] = []
    for _ in range(rng.randint(1, 3)):
        labels: dict[str, str] = {}
        for key, values in _LABEL_VALUES.items():
            if rng.random() < 0.6:
                labels[key] = rng.choice(values)
        combos.append(labels)
    series: list[oracle.RawSeries] = []
    seen: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
    for _ in range(rng.randint(1, 5)):
        name = rng.choice(_NAMES)
        labels = dict(rng.choice(combos))
        ident = (name, tuple(sorted(labels.items())))
        if ident in seen:
            continue
        seen.add(ident)
        t = rng.uniform(0.0, 120.0)
        value = rng.uniform(0.0, 50.0)
        samples: list[tuple[float, float]] = []
        for _ in range(rng.randint(1, 10)):
            samples.append((t, value))
            t += rng.uniform(5.0, 90.0)
            if rng.random() < 0.1:
                value = rng.uniform(0.0, 5.0)
            else:
                value += rng.uniform(0.0, 30.0)
        series.append(oracle.RawSeries(name, labels, samples))
    return series


def _random_histogram_series(rng: random.Random) -> list[oracle.RawSeries]:
    """Cumulative bucket counters for one or two label groups.

    Some histograms reach the edge cases of a quantile: a first bound at or
    below 0, buckets that never fill (an empty first bucket under q=0), and
    no observations at all (a zero total)."""
    series: list[oracle.RawSeries] = []
    bounds = rng.choice([[0.005, 0.01], [0.1, 0.5, 1.0], [0.25, 2.5], [0.0, 0.5], [-0.5, 0.25]])
    for group in range(rng.randint(1, 2)):
        base_labels = {"job": _LABEL_VALUES["job"][group]}
        raw = [0.0] * (len(bounds) + 1)
        empty = set(range(len(raw))) if rng.random() < 0.1 else {i for i in range(len(raw)) if rng.random() < 0.2}
        t = rng.uniform(0.0, 60.0)
        history: list[tuple[float, list[float]]] = []
        for _ in range(rng.randint(2, 6)):
            for i in range(len(raw)):
                if i not in empty:
                    raw[i] += rng.uniform(0.0, 20.0)
            cumulative: list[float] = []
            acc = 0.0
            for count in raw:
                acc += count
                cumulative.append(acc)
            history.append((t, cumulative))
            t += rng.uniform(10.0, 60.0)
        les = [str(b) for b in bounds] + ["+Inf"]
        for i, le in enumerate(les):
            samples = [(ts, cums[i]) for ts, cums in history]
            series.append(oracle.RawSeries(_BUCKET_NAME, {**base_labels, "le": le}, samples))
    return series


def _random_matchers(rng: random.Random) -> list[tuple[str, str, str]]:
    matchers: list[tuple[str, str, str]] = []
    for _ in range(rng.randint(0, 2)):
        label = rng.choice(list(_LABEL_VALUES))
        pool = _LABEL_VALUES[label]
        if rng.random() < 0.5:
            matchers.append((label, "=", rng.choice(pool + [""])))
        else:
            pattern = rng.choice(
                [
                    re.escape(rng.choice(pool)),
                    re.escape(pool[0]) + "|" + re.escape(pool[1]),
                    ".*",
                    ".+",
                    "sock-shop/.*" if label == "job" else "[0-9]+",
                ]
            )
            matchers.append((label, "=~", pattern))
    if rng.random() < 0.15:
        if rng.random() < 0.5:
            matchers.append(("__name__", "=", rng.choice(_NAMES)))
        else:
            matchers.append(("__name__", "=~", ".*_total"))
    return matchers


def _pick_name(rng: random.Random, present: list[str]) -> str:
    """Mostly a metric that exists in the store, sometimes an absent one."""
    if present and rng.random() < 0.75:
        return rng.choice(present)
    return rng.choice(_NAMES)


def _random_selector(
    rng: random.Random, present: list[str], allow_anonymous: bool = True
) -> oracle.SelectorNode:
    matchers = _random_matchers(rng)
    if allow_anonymous and matchers and rng.random() < 0.15:
        return oracle.SelectorNode(None, matchers)
    return oracle.SelectorNode(_pick_name(rng, present), matchers)


def _random_rate(
    rng: random.Random, present: list[str], allow_anonymous: bool = True
) -> oracle.RateNode:
    selector = _random_selector(rng, present, allow_anonymous=allow_anonymous and rng.random() < 0.3)
    range_text, range_seconds = rng.choices(_RANGES, weights=[1, 2, 3, 3, 2])[0]
    return oracle.RateNode(selector, range_text, range_seconds)


def _random_agg(rng: random.Random, present: list[str], op: str) -> oracle.AggNode:
    child: oracle.ExprNode
    if rng.random() < 0.3:
        child = _random_rate(rng, present)
    else:
        child = _random_selector(rng, present)
    if rng.random() < 0.2:
        by = None
    else:
        pool = ["job", "status", "instance", "__name__"]
        by = rng.sample(pool, rng.randint(1, 2))
    return oracle.AggNode(op, by, child)


def _random_quantile(rng: random.Random) -> oracle.QuantileNode:
    q_text = rng.choice(_QUANTILES)
    kind = rng.random()
    child: oracle.ExprNode
    if kind < 0.4:
        matchers: list[tuple[str, str, str]] = []
        if rng.random() < 0.5:
            matchers.append(("job", "=", rng.choice(_LABEL_VALUES["job"][:2])))
        child = oracle.SelectorNode(_BUCKET_NAME, matchers)
    else:
        rate = oracle.RateNode(
            oracle.SelectorNode(_BUCKET_NAME, []), *rng.choice([("5m", 300.0), ("2m", 120.0)])
        )
        by = ["le"] if kind < 0.8 else rng.sample(["le", "job"], 2)
        child = oracle.AggNode("sum", by, rate)
    return oracle.QuantileNode(q_text, float(q_text), child)


def _random_division(rng: random.Random, present: list[str]) -> oracle.DivNode:
    kind = rng.random()
    left: oracle.ExprNode
    if kind < 0.5:
        left = _random_selector(rng, present)
    elif kind < 0.8:
        left = _random_rate(rng, present)
    else:
        left = _random_agg(rng, present, rng.choice(["sum", "count"]))
    # The right side always names a single metric so that stripping
    # __name__ cannot collapse two denominators onto the same label set.
    # It is also lightly filtered, so the label-matching path stays busy.
    right: oracle.ExprNode
    right_matchers = _random_matchers(rng) if rng.random() < 0.3 else []
    right = oracle.SelectorNode(_pick_name(rng, present), right_matchers)
    if rng.random() < 0.2:
        right = oracle.AggNode("sum", rng.sample(["job", "status", "instance"], rng.randint(1, 2)), right)
    if rng.random() < 0.1:
        inner_right = oracle.SelectorNode(_pick_name(rng, present), [])
        return oracle.DivNode(oracle.DivNode(left, inner_right), right)
    return oracle.DivNode(left, right)


def _generate(production: str, rng: random.Random) -> tuple[list[oracle.RawSeries], oracle.ExprNode, float]:
    if production == "histogram_quantile":
        series = _random_histogram_series(rng)
        last_t = max(t for s in series for t, _ in s.samples)
        return series, _random_quantile(rng), rng.uniform(0.0, last_t + 100.0)
    series = _random_series(rng)
    present = sorted({s.name for s in series})
    times = [t for s in series for t, _ in s.samples]
    if rng.random() < 0.8:
        at = rng.uniform(min(times), max(times) + 250.0)
    else:
        at = rng.uniform(0.0, 1000.0)
    if production == "selector":
        return series, _random_selector(rng, present), at
    if production == "rate":
        return series, _random_rate(rng, present), at
    if production in ("sum", "count"):
        return series, _random_agg(rng, present, production), at
    if production == "division":
        return series, _random_division(rng, present), at
    raise ValueError(f"unknown production {production!r}")


def build_store(series_list: list[oracle.RawSeries]) -> MetricStore:
    store = MetricStore()
    events = [
        (t, series.name, series.labels, v) for series in series_list for t, v in series.samples
    ]
    events.sort(key=lambda event: event[0])
    for t, name, labels, value in events:
        store.ingest_value(name, labels, t, value)
    return store


def _canon(pairs: list[tuple[dict[str, str], float]]) -> list[tuple[tuple[tuple[str, str], ...], float]]:
    return sorted((tuple(sorted(labels.items())), value) for labels, value in pairs)


def check_case(
    series_list: list[oracle.RawSeries],
    tree: oracle.ExprNode,
    at: float,
    rng: random.Random,
) -> bool:
    """Engine vs reference for one case; returns True when entries were produced."""
    text = oracle.render(tree, rng)
    store = build_store(series_list)
    got = _canon([(entry.labels, entry.value) for entry in evaluate(store, text, at).entries])
    want = _canon(oracle.eval_tree(series_list, tree, at))
    assert len(got) == len(want), (text, at, got, want)
    for (got_labels, got_value), (want_labels, want_value) in zip(got, want):
        assert got_labels == want_labels, (text, at, got_labels, want_labels)
        if got_value != want_value:
            scale = max(abs(got_value), abs(want_value))
            assert abs(got_value - want_value) <= max(REL_TOL * scale, ABS_TOL), (
                text,
                at,
                got_labels,
                got_value,
                want_value,
            )
    return bool(want)


def run_cases(production: str, count: int, seed: int) -> CaseStats:
    rng = random.Random(seed)
    stats = CaseStats()
    for _ in range(count):
        series_list, tree, at = _generate(production, rng)
        if check_case(series_list, tree, at, rng):
            stats.nonempty += 1
        stats.cases += 1
    return stats
