"""In-memory time-series store with Prometheus-shaped series identity.

Series are keyed by metric name plus a sorted label set. Ingestion is
single-writer and strictly ordered per series; queries are pure reads
that bisect on the timestamps. A writer hands the store a run of samples
per series: the times it crossed, in order, and a value for each. A gauge
stores the values given; a counter stores a running total, the series'
latest value plus each increment in turn. `append` takes one run for each
of several series at the same times, as a scrape writes them, and checks
that the times ascend once; `ingest` (a gauge) and `add` (a counter) are
its one-series calls. Each run costs one lookup, one check of the
series' latest time and at most one list copy (the copy-on-first-append
rule below), however many samples it holds.

Sharing contract: `fork()` (which `cluster.clone` calls for a state's
store) copies a store in O(series). The fork and its source share every
per-series sample list, and neither side owns a shared list any more.
`append` copies a series' list the first time its side
appends to it after a fork, so an append on one side never shows through
on the other.
A side that only reads, as a curator's validation clone does, copies no
samples at all. Samples are immutable tuples, so a shallow list copy is a
full copy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter, lt


_time = itemgetter(0)  # a sample's timestamp
_NO_SAMPLE = (-math.inf, 0.0)  # the time and value of a series with none


class OrderViolation(Exception):
    """Raised when a sample is ingested behind its series' latest timestamp."""


@dataclass(frozen=True)
class SeriesId:
    """Identity of one series: metric name + canonically ordered labels."""

    metric_name: str
    labels: tuple[tuple[str, str], ...]
    _hash: int = field(init=False, repr=False, compare=False)  # every store write hashes its series

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.metric_name, self.labels)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, metric_name: str, labels: dict[str, str]) -> "SeriesId":
        return cls(metric_name, tuple(sorted(labels.items())))

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def full_labels(self) -> dict[str, str]:
        """Labels including the reserved __name__ entry."""
        d = {"__name__": self.metric_name}
        d.update(self.labels)
        return d


@dataclass
class QueryEntry:
    labels: dict[str, str]
    value: float


@dataclass
class QueryResult:
    """Evaluation output. Empty `entries` is a successful result, not an error."""

    result_type: str  # "vector" | "scalar"
    entries: list[QueryEntry] = field(default_factory=list)


class MetricStore:
    """Append-only sample store.

    Per-series timestamps are strictly increasing; ingesting at or behind
    the latest timestamp raises OrderViolation. Counter semantics
    (non-decreasing except across resets) are a producer contract, not
    enforced here: rate() handles resets at read time.
    """

    def __init__(self) -> None:
        self._samples: dict[SeriesId, list[tuple[float, float]]] = {}
        self._owned: set[SeriesId] = set()  # series whose list no fork shares

    def fork(self) -> "MetricStore":
        """A store with the same samples, sharing every sample list with this one."""
        fork = MetricStore()
        fork._samples = dict(self._samples)
        self._owned = set()  # every list is shared now
        return fork

    def append(self, times: Sequence[float], runs: Iterable[tuple[SeriesId, Sequence[float], bool]]) -> None:
        """Write a run at `times` to each series of `runs`, in order: `(series, values, counter)`, a value
        per time, a counter's values being increments on its latest value (0.0 when it has none). `times`
        ascend, the first after each series' latest; a refused run changes nothing, nor do those after it."""
        if not times:  # an empty run changes nothing
            return
        samples, owned, first = self._samples, self._owned, times[0]
        ascending, one = all(map(lt, times, times[1:])), len(times) == 1
        for series, values, counter in runs:
            points = samples.get(series)
            latest, last = points[-1] if points else _NO_SAMPLE
            if not (ascending and latest < first):  # a NaN is not after anything either
                t, latest = next((t, before) for before, t in zip((latest, *times), times) if not before < t)
                raise OrderViolation(f"sample for {series.metric_name} at t={t} is not after latest t={latest}")
            if series not in owned:  # new, or shared with a fork: append to a private copy
                points = samples[series] = list(points or ())
                owned.add(series)
            if one:  # a tick of one sample, as each step of a long horizon takes, builds no iterators
                points.append((first, last + values[0] if counter else values[0]))
                continue
            if counter:
                values = accumulate(values, initial=last)  # adds in the same order
                next(values)  # the starting value, already stored
            points.extend(zip(times, values))

    def ingest(self, series: SeriesId, times: Sequence[float], values: Sequence[float]) -> None:
        """Append `(times[i], values[i])` for each i; `times` ascend, the first after the series' latest."""
        self.append(times, ((series, values, False),))

    def add(self, series: SeriesId, times: Sequence[float], increments: Sequence[float]) -> None:
        """As `ingest`, with each value the series' latest value (0.0 when it has none) plus the increments so far."""
        self.append(times, ((series, increments, True),))

    def ingest_value(self, metric_name: str, labels: dict[str, str], timestamp: float, value: float) -> None:
        self.ingest(SeriesId.make(metric_name, labels), (timestamp,), (value,))

    def series_ids(self) -> list[SeriesId]:
        return list(self._samples)

    def last_value(self, series: SeriesId) -> float:
        """Value of the series' latest sample, 0.0 when it has none; copies nothing."""
        points = self._samples.get(series)
        return points[-1][1] if points else 0.0

    def samples(self, series: SeriesId) -> list[tuple[float, float]]:
        return list(self._samples.get(series, ()))

    def samples_in_window(self, series: SeriesId, start: float, end: float) -> list[tuple[float, float]]:
        """Samples with start <= t <= end, in timestamp order."""
        points = self._samples.get(series, [])
        return points[bisect_left(points, start, key=_time) : bisect_right(points, end, key=_time)]

    def latest_at(self, series: SeriesId, at: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample at or before `at`, no older than the lookback window."""
        points = self._samples.get(series, [])
        i = bisect_right(points, at, key=_time)
        if i and at - points[i - 1][0] <= lookback:
            return points[i - 1]
        return None

    def label_values(self, label: str) -> list[str]:
        """Sorted distinct values of a label across all series; __name__ maps to metric names."""
        values: set[str] = set()
        for sid in self._samples:
            if label == "__name__":
                values.add(sid.metric_name)
            else:
                d = sid.label_dict()
                if label in d:
                    values.add(d[label])
        return sorted(values)
