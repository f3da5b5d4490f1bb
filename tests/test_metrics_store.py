"""Metric store behavior: ingestion ordering, windows, lookback, labels."""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opslearn.cluster import MI, TrafficProfile
from opslearn.metrics import MetricStore, OrderViolation, SeriesId


def test_series_id_is_canonical():
    a = SeriesId.make("m", {"b": "2", "a": "1"})
    b = SeriesId.make("m", {"a": "1", "b": "2"})
    assert a == b
    assert a.full_labels() == {"__name__": "m", "a": "1", "b": "2"}


def test_series_id_hash_is_kept_and_eq_and_repr_are_unchanged():
    a = SeriesId.make("m", {"b": "2", "a": "1"})
    b = SeriesId("m", (("a", "1"), ("b", "2")))
    assert a == b and a is not b and hash(a) == hash(b) == hash(("m", (("a", "1"), ("b", "2"))))
    assert repr(a) == "SeriesId(metric_name='m', labels=(('a', '1'), ('b', '2')))"
    assert a != SeriesId.make("m", {"a": "1"}) and a != SeriesId.make("n", {"a": "1", "b": "2"})
    assert {a: 1}[b] == 1 and copy.deepcopy(a) == a and hash(copy.deepcopy(a)) == hash(a)


def test_traffic_profile_hash_is_kept_and_eq_and_repr_are_unchanged():
    a = TrafficProfile(2.0, 0.1, latency_buckets=((0.1, 3.0), (0.5, 1.0)), active_requests_metric="m")
    b = TrafficProfile(2.0, 0.1, 0.0, ((0.1, 3.0), (0.5, 1.0)), 2, 9 * MI, 0.0, "m")
    fields = (2.0, 0.1, 0.0, ((0.1, 3.0), (0.5, 1.0)), 2, 9 * MI, 0.0, "m")
    assert a == b and a is not b and hash(a) == hash(b) == hash(fields)  # the hash a frozen dataclass makes
    assert repr(a) == (
        "TrafficProfile(requests_per_second=2.0, error_4xx_share=0.1, error_5xx_share=0.0, "
        "latency_buckets=((0.1, 3.0), (0.5, 1.0)), base_cpu_millicores=2, base_mem_bytes=9437184, "
        "cpu_millicores_per_rps=0.0, active_requests_metric='m')"
    )
    assert a != TrafficProfile(2.0, 0.1, latency_buckets=((0.1, 3.0),), active_requests_metric="m")
    assert {a: 1}[b] == 1 and copy.deepcopy(a) == a and hash(copy.deepcopy(a)) == hash(a)
    assert replace(a, requests_per_second=3.0) == TrafficProfile(3.0, 0.1, 0.0, a.latency_buckets, 2, 9 * MI, 0.0, "m")


def test_first_sample_creates_series():
    store = MetricStore()
    store.ingest_value("m", {"job": "j"}, 0.0, 1.0)
    assert store.label_values("__name__") == ["m"]
    assert store.label_values("job") == ["j"]


def test_range_window_sees_both_samples():
    store = MetricStore()
    sid = SeriesId.make("m", {})
    store.ingest_value("m", {}, 0.0, 1.0)
    store.ingest_value("m", {}, 15.0, 2.0)
    assert store.samples_in_window(sid, -45.0, 15.0) == [(0.0, 1.0), (15.0, 2.0)]


def test_window_bounds_are_inclusive():
    store = MetricStore()
    sid = SeriesId.make("m", {})
    for t in (0.0, 30.0, 60.0):
        store.ingest_value("m", {}, t, t)
    assert store.samples_in_window(sid, 0.0, 60.0) == [(0.0, 0.0), (30.0, 30.0), (60.0, 60.0)]
    assert store.samples_in_window(sid, 0.1, 59.9) == [(30.0, 30.0)]


def test_out_of_order_sample_rejected():
    store = MetricStore()
    store.ingest_value("m", {}, 20.0, 1.0)
    with pytest.raises(OrderViolation):
        store.ingest_value("m", {}, 10.0, 2.0)
    # Per-series timestamps are strictly increasing, so a duplicate
    # timestamp is also out of order.
    with pytest.raises(OrderViolation):
        store.ingest_value("m", {}, 20.0, 3.0)
    with pytest.raises(OrderViolation):  # reads bisect, so no NaN may break the order
        store.ingest_value("m", {}, float("nan"), 4.0)
    # Other series keep their own clocks.
    store.ingest_value("m", {"job": "x"}, 0.0, 1.0)


def test_latest_at_applies_lookback():
    store = MetricStore()
    sid = SeriesId.make("m", {})
    store.ingest_value("m", {}, 100.0, 5.0)
    assert store.latest_at(sid, 400.0, 300.0) == (100.0, 5.0)
    assert store.latest_at(sid, 401.0, 300.0) is None
    assert store.latest_at(sid, 99.0, 300.0) is None


def test_latest_at_picks_newest_sample():
    store = MetricStore()
    sid = SeriesId.make("m", {})
    store.ingest_value("m", {}, 0.0, 1.0)
    store.ingest_value("m", {}, 50.0, 2.0)
    assert store.latest_at(sid, 60.0, 300.0) == (50.0, 2.0)
    assert store.latest_at(sid, 49.0, 300.0) == (0.0, 1.0)


def test_label_values_sorted_distinct():
    store = MetricStore()
    store.ingest_value("b_total", {"job": "z"}, 0.0, 1.0)
    store.ingest_value("a_total", {"job": "y"}, 0.0, 1.0)
    store.ingest_value("a_total", {"job": "z"}, 1.0, 1.0)
    assert store.label_values("__name__") == ["a_total", "b_total"]
    assert store.label_values("job") == ["y", "z"]
    assert store.label_values("missing") == []


_SERIES = [SeriesId.make("m", {"job": job}) for job in ("a", "b", "c")]
_values = st.floats(allow_nan=False, allow_infinity=False)


@given(
    ingests=st.lists(st.tuples(st.integers(0, 2), st.floats(0.001, 100.0), _values), max_size=40),
    behind=st.floats(0.0, 100.0),
)
def test_last_value_tracks_ordered_ingests(ingests, behind):
    store = MetricStore()
    assert store.last_value(_SERIES[0]) == 0.0
    latest: dict[SeriesId, float] = {}
    for index, step, value in ingests:
        sid = _SERIES[index]
        timestamp = latest.get(sid, 0.0) + step
        store.ingest(sid, (timestamp,), (value,))
        latest[sid] = timestamp
        for other in _SERIES:
            points = store.samples(other)
            assert store.last_value(other) == (points[-1][1] if points else 0.0)
    for sid, timestamp in latest.items():
        before = store.last_value(sid)
        with pytest.raises(OrderViolation):
            store.ingest(sid, (timestamp - behind,), (before + 1.0,))
        assert store.last_value(sid) == before


_times = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    times=st.lists(_times, max_size=30, unique=True).map(sorted),  # empty included
    lookback=st.floats(0.0, 1e6),
    data=st.data(),
)
def test_bisected_reads_equal_a_linear_scan(times, lookback, data):
    """`latest_at` and `samples_in_window` bisect; a brute-force scan is the oracle.

    Query times are often drawn from the sample times themselves, so `at == t`
    and windows that open or shut on a sample come up; `start > end` comes up
    in about half the windows."""
    moments = st.one_of(_times, st.sampled_from(times)) if times else _times
    at, start, end = data.draw(moments), data.draw(moments), data.draw(moments)
    store = MetricStore()
    sid = SeriesId.make("m", {})
    points = [(t, float(i)) for i, t in enumerate(times)]
    store.ingest(sid, times, [value for _, value in points])  # one run

    before = [p for p in points if p[0] <= at]
    assert store.latest_at(sid, at, lookback) == (before[-1] if before and at - before[-1][0] <= lookback else None)
    assert store.samples_in_window(sid, start, end) == [p for p in points if start <= p[0] <= end]


def _add_by_two_lookups(store: MetricStore, sid: SeriesId, timestamp: float, increment: float) -> None:
    """The counter path `add` replaces: read the latest value, then ingest a run of one."""
    store.ingest(sid, (timestamp,), (store.last_value(sid) + increment,))


def _gauge_by_runs_of_one(store: MetricStore, sid: SeriesId, timestamp: float, value: float) -> None:
    store.ingest(sid, (timestamp,), (value,))


_runs = st.lists(st.tuples(st.floats(-1.0, 100.0), _values), max_size=4)  # (step after the sample before, value)


@given(
    moves=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 2), _runs),
            st.tuples(st.just("gauge"), st.integers(0, 3), st.integers(0, 2), _runs),
            st.tuples(st.just("fork"), st.integers(0, 3)),
        ),
        max_size=40,
    )
)
def test_add_equals_last_value_plus_ingest_on_forked_and_unforked_stores(moves):
    """A run through `add` or `ingest` against the per-sample path it replaces,
    move by move, on a family of stores forked from each other with `fork()`,
    which copies each sample list: the same samples, and an OrderViolation
    that changes nothing for a run with a sample that is not after the one
    before it (the latest, for the first). Plain lists, copied on every fork,
    say what each store must hold, so an append on one side of a fork must
    never show on the other; and no two stores of the family hold the same
    list object."""
    family = [(MetricStore(), MetricStore(), {})]  # (store under test, per-sample store, expected lists)
    for move in moves:
        store, oracle, expected = family[move[1] % len(family)]
        if move[0] == "fork":
            family.append((store.fork(), oracle.fork(), copy.deepcopy(expected)))
            continue
        _, _, index, run = move
        sid = _SERIES[index]
        points = expected.get(sid, [])
        times, samples, at, total = [], [], (points[-1][0] if points else 0.0), (points[-1][1] if points else 0.0)
        for step, value in run:
            at += step
            total += value
            times.append(at)
            samples.append((at, total if move[0] == "add" else value))
        if move[0] == "add":
            write, write_oracle = store.add, functools.partial(_add_by_two_lookups, oracle)
        else:
            write, write_oracle = store.ingest, functools.partial(_gauge_by_runs_of_one, oracle)
        values = [value for _, value in run]
        chain = points[-1:] + samples
        if not all(before[0] < after[0] for before, after in zip(chain, chain[1:])):
            with pytest.raises(OrderViolation):
                write(sid, times, values)
        else:
            write(sid, times, values)
            for timestamp, value in zip(times, values):
                write_oracle(sid, timestamp, value)
            if run:
                expected[sid] = points + samples
        for tested, two_lookups, lists in family:
            assert tested.series_ids() == two_lookups.series_ids()  # an empty run makes no series
            for other in _SERIES:
                assert tested.samples(other) == two_lookups.samples(other) == lists.get(other, [])
        held = [id(points) for tested, _, _ in family for points in tested._samples.values()]
        assert len(held) == len(set(held))


@given(
    latest=st.lists(st.one_of(st.none(), st.floats(0.0, 10.0)), min_size=3, max_size=3),
    times=st.lists(st.floats(0.0, 20.0), max_size=4),  # ascending or not
    order=st.permutations(range(3)),
    data=st.data(),
)
def test_a_batch_writes_its_runs_in_order_and_refuses_as_one_call_per_series_did(latest, times, order, data):
    """`append` against plain lists: each run lands in turn, a counter's as running totals
    from the series' latest value, and the first run whose samples are not each after the
    one before (the series' latest, for the first) is refused with the OrderViolation text
    of a one-series call; neither it nor any run after it is written."""
    store, expected = MetricStore(), {}
    for sid, at in zip(_SERIES, latest):
        if at is not None:
            store.ingest(sid, (at,), (1.0,))
            expected[sid] = [(at, 1.0)]
    runs = [(_SERIES[i], data.draw(st.lists(_values, min_size=len(times), max_size=len(times))), data.draw(st.booleans()))
            for i in order[: data.draw(st.integers(0, 3))]]
    refusal = None
    for sid, values, counter in runs:
        points = expected.get(sid, [])
        chain = [points[-1][0] if points else -math.inf, *times]
        bad = next(((before, t) for before, t in zip(chain, chain[1:]) if not before < t), None)
        if times and bad:
            refusal = f"sample for {sid.metric_name} at t={bad[1]} is not after latest t={bad[0]}"
            break
        total = points[-1][1] if points else 0.0
        for t, value in zip(times, values):
            total = total + value if counter else value
            points.append((t, total))
        if points:
            expected[sid] = points
    if refusal is None:
        store.append(times, runs)
    else:
        with pytest.raises(OrderViolation) as refused:
            store.append(times, runs)
        assert str(refused.value) == refusal
    assert store.series_ids() == list(expected)
    assert all(store.samples(sid) == expected.get(sid, []) for sid in _SERIES)
