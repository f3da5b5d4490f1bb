"""In-memory time-series store with Prometheus-shaped series identity.

Series are keyed by metric name plus a sorted label set. Ingestion is
single-writer and strictly ordered per series; queries are pure reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OrderViolation(Exception):
    """Raised when a sample is ingested behind its series' latest timestamp."""


@dataclass(frozen=True)
class SeriesId:
    """Identity of one series: metric name + canonically ordered labels."""

    metric_name: str
    labels: tuple[tuple[str, str], ...]

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
    timestamp: float


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

    def ingest(self, series: SeriesId, timestamp: float, value: float) -> None:
        points = self._samples.setdefault(series, [])
        if points and timestamp <= points[-1][0]:
            raise OrderViolation(
                f"sample for {series.metric_name} at t={timestamp} is not after latest t={points[-1][0]}"
            )
        points.append((timestamp, value))

    def ingest_value(self, metric_name: str, labels: dict[str, str], timestamp: float, value: float) -> None:
        self.ingest(SeriesId.make(metric_name, labels), timestamp, value)

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
        return [(t, v) for (t, v) in self._samples.get(series, ()) if start <= t <= end]

    def latest_at(self, series: SeriesId, at: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample at or before `at`, no older than the lookback window."""
        best = None
        for t, v in self._samples.get(series, ()):
            if t > at:
                break
            best = (t, v)
        if best is not None and at - best[0] <= lookback:
            return best
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
