"""Deterministic in-memory model of a namespaced container cluster.

The simulation carries just enough Kubernetes shape for the management
agents to observe and act on: namespaces, deployments with resource
specs and probes, pods with pinned names, a simulation clock, and a
traffic generator that feeds the metric store every 15 seconds of
simulated time.

Determinism rules the design. Traffic randomness is derived by hashing
(seed, deployment, sample index), never from shared RNG state, so reads
can interleave with ticks freely and clones stay independent.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter, is_, itemgetter
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence, TypeVar

from .metrics import MetricStore, SeriesId
from .resources import Misfit, conform, finite_number, number, one_of, read_input

T = TypeVar("T")

SAMPLE_INTERVAL = 15.0
PROBE_KINDS = ("liveness", "readiness")
MAX_REPLICAS = 100  # each pod costs memory and every later read walks all pods
MAX_RATE = 1e6  # requests/s, and millicores per request/s: a scrape's products stay finite

KI = 1024
MI = 1024 * 1024
GI = 1024 * 1024 * 1024

# k8s-style random-suffix alphabet (no vowels, no ambiguous glyphs)
_SUFFIX_ALPHABET = "bcdfghjklmnpqrstvwxz2456789"


class NotFound(Exception):
    """Mutation target does not exist."""


class InvalidArgument(Exception):
    """Mutation arguments fail validation."""


# ---------------------------------------------------------------------------
# Quantity helpers


def _not_negative(quantity: T, given: Any) -> T:
    if quantity < 0:
        raise ValueError(f"{given!r} is negative")
    return quantity


def parse_cpu(text: str | int | float) -> int:
    """CPU quantity to millicores: '100m' -> 100, '1' -> 1000."""
    t = str(text).strip()
    if t.endswith("m"):
        return _not_negative(int(t[:-1]), text)
    return _not_negative(int(round(float(t) * 1000)), text)


def format_cpu(millicores: int) -> str:
    if millicores >= 1000 and millicores % 1000 == 0:
        return str(millicores // 1000)
    return f"{millicores}m"


def parse_mem(text: str | int) -> int:
    """Memory quantity to bytes: '100Mi' -> 104857600."""
    t = str(text).strip()
    for suffix, factor in (("Ki", KI), ("Mi", MI), ("Gi", GI)):
        if t.endswith(suffix):
            return _not_negative(int(round(float(t[: -len(suffix)]) * factor)), text)
    return _not_negative(int(t), text)


def format_mem(size: int) -> str:
    for suffix, factor in (("Gi", GI), ("Mi", MI), ("Ki", KI)):
        if size >= factor and size % factor == 0:
            return f"{size // factor}{suffix}"
    return str(size)


def format_mem_mi(size: int) -> str:
    """Memory rounded to whole Mi, the `top` display convention."""
    return f"{round(size / MI)}Mi"


def format_age(seconds: float) -> str:
    """kubectl-style human duration (90s, 5m, 67m, 3h20m, 2d)."""
    s = int(seconds)
    if s < 0:
        return "0s"
    if s < 120:
        return f"{s}s"
    m, rs = divmod(s, 60)
    if m < 10:
        return f"{m}m{rs}s" if rs else f"{m}m"
    if m < 180:
        return f"{m}m"
    h, rm = divmod(m, 60)
    if h < 8:
        return f"{h}h{rm}m" if rm else f"{h}h"
    if h < 48:
        return f"{h}h"
    d, rh = divmod(h, 24)
    if d < 8:
        return f"{d}d{rh}h" if rh else f"{d}d"
    return f"{d}d"


# ---------------------------------------------------------------------------
# Domain types
#
# Every value a ClusterState holds is a scalar or immutable, and a change
# replaces a value whole; so a shallow copy of a deployment is a full copy.


@dataclass(frozen=True)
class ResourceSpec:
    cpu_request: int  # millicores
    cpu_limit: int
    mem_request: int  # bytes
    mem_limit: int


@dataclass(frozen=True)
class ProbeSpec:
    kind: str  # liveness | readiness
    http_path: str
    initial_delay: float = 10.0
    timeout: float = 1.0
    period: float = 3.0
    success_threshold: int = 1
    failure_threshold: int = 3


@dataclass(frozen=True)
class TrafficProfile:
    """What a deployment's scrape emits; fixed once loaded."""

    requests_per_second: float = 0.0
    error_4xx_share: float = 0.0
    error_5xx_share: float = 0.0
    # (upper bound in seconds, relative weight) per latency bucket
    latency_buckets: tuple[tuple[float, float], ...] = ()
    base_cpu_millicores: int = 2
    base_mem_bytes: int = 9 * MI
    cpu_millicores_per_rps: float = 0.0
    active_requests_metric: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)  # the scrape's cached helpers key on it

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))  # every field but `_hash`, set here

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Pod:
    """A running pod; it is always Running, ready and never restarted, and shows its deployment's usage."""

    name: str
    namespace: str
    deployment: str
    start_time: float = 0.0


@dataclass
class Deployment:
    name: str
    namespace: str
    labels: Mapping[str, str]  # read-only; a change replaces it
    image: str
    command: str
    args: tuple[str, ...]
    resources: ResourceSpec
    probes: tuple[ProbeSpec, ...]
    replicas: int
    port: int
    pod_template_hash: str
    series: ScrapeSeries  # what its scrape writes; its job and traffic never change after loading
    pod_suffixes: tuple[str, ...] = ()
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    scrape: bool = True
    next_ordinal: int = 0
    pods: tuple[Pod, ...] = ()  # in spawn order
    usage_cpu: int = 0  # millicores, at the last scrape
    usage_mem: int = 0  # bytes

    @property
    def job(self) -> str:
        return f"{self.namespace}/{self.name}"


@dataclass(frozen=True)
class ScrapeSeries:
    """Every series one deployment's scrape writes, named once instead of once per sample."""

    cpu: SeriesId
    mem: SeriesId
    requests: tuple[SeriesId, ...]  # status 200, 404, 500
    buckets: tuple[SeriesId, ...]  # one per latency bucket, then le="+Inf"
    duration_sum: SeriesId
    duration_count: SeriesId
    http_duration_sum: SeriesId
    http_duration_count: SeriesId
    active_requests: SeriesId | None
    written: tuple[SeriesId, ...]  # all of the above in the order a scrape writes them
    counters: tuple[bool, ...]  # whether each series written is a counter
    # the metric names written: CPU, memory, requests by status, latency buckets, then two sum and count pairs
    METRICS = ("process_cpu_seconds_total", "process_resident_memory_bytes", "http_requests_total",
               "request_duration_seconds_bucket", "request_duration_seconds_sum", "request_duration_seconds_count",
               "http_request_duration_seconds_sum", "http_request_duration_seconds_count")

    @classmethod
    def of(cls, job: str, traffic: TrafficProfile) -> "ScrapeSeries":
        labels = {"job": job}

        def sid(name: str, **extra: str) -> SeriesId:
            return SeriesId.make(name, {**labels, **extra})

        les = [_format_le(le) for le, _ in traffic.latency_buckets] + ["+Inf"]
        metric = traffic.active_requests_metric
        cpu_name, mem_name, requests_name, buckets_name, *duration_names = cls.METRICS
        cpu, mem = sid(cpu_name), sid(mem_name)
        requests = tuple(sid(requests_name, status=status) for status in ("200", "404", "500"))
        buckets = tuple(sid(buckets_name, le=le) for le in les)
        durations = [sid(name) for name in duration_names]
        active = sid(metric) if metric else None
        written = (cpu, mem, *requests, *buckets, *durations, *([active] if active else []))
        counters = tuple(series not in (mem, active) for series in written)
        return cls(cpu, mem, requests, buckets, *durations, active, written, counters)


@dataclass
class ClusterState:
    namespaces: frozenset[str]
    deployments: list[Deployment]  # in (namespace, name) order; none is added or removed after load
    sim_time: float = 0.0
    rng_seed: int = 0
    metrics: MetricStore = field(default_factory=MetricStore)
    metrics_available: bool = True
    last_sample_time: float = 0.0
    mutation_count: int = 0  # successful mutate() calls

    def find_deployment(self, namespace: str, name: str) -> Deployment | None:
        for dep in self.deployments:
            if dep.namespace == namespace and dep.name == name:
                return dep
        return None

    def find_pod(self, namespace: str, name: str) -> tuple[Deployment, Pod] | None:
        for dep in self.deployments:
            if dep.namespace == namespace:
                for pod in dep.pods:
                    if pod.name == name:
                        return dep, pod
        return None

    def all_pods(self) -> list[Pod]:
        """Every pod, in (namespace, name) order."""
        return sorted((pod for dep in self.deployments for pod in dep.pods), key=attrgetter("namespace", "name"))


def component_names(state: ClusterState) -> tuple[str, ...]:
    """The agent roster: one component agent per deployment outside kube-system."""
    return tuple(sorted(d.name for d in state.deployments if d.namespace != "kube-system"))


# The deployment fields read as text, by a suite post-condition's `field` and
# by the curator checking a Configuration skill: a path here, `labels.<key>`,
# or `probes.<kind>.<field>` for a kind in PROBE_KINDS and a field in
# PROBE_READS. An absent label or probe reads as "".
FIELD_READS: dict[str, Callable[[Deployment], str]] = {
    "replicas": lambda dep: str(dep.replicas),
    "image": attrgetter("image"),
    "resources.cpu_request": lambda dep: format_cpu(dep.resources.cpu_request),
    "resources.cpu_limit": lambda dep: format_cpu(dep.resources.cpu_limit),
    "resources.mem_request": lambda dep: format_mem(dep.resources.mem_request),
    "resources.mem_limit": lambda dep: format_mem(dep.resources.mem_limit),
}
PROBE_READS: dict[str, Callable[[ProbeSpec], str]] = {
    "http_path": attrgetter("http_path"),
    "initial_delay": lambda probe: f"{probe.initial_delay:g}",
}


def field_reader(path: str) -> Callable[[Deployment], str] | None:
    """What reads field `path` off a deployment, or None when nothing does."""
    if path in FIELD_READS:
        return FIELD_READS[path]
    group, _, rest = path.partition(".")
    if group == "labels" and rest:
        return lambda dep: dep.labels.get(rest, "")
    kind, _, probe_field = rest.partition(".")
    if group == "probes" and kind in PROBE_KINDS and probe_field in PROBE_READS:
        read = PROBE_READS[probe_field]
        return lambda dep: next((read(probe) for probe in dep.probes if probe.kind == kind), "")
    return None


# ---------------------------------------------------------------------------
# Topology loading


def _bucket(item: Any) -> tuple[float, float]:
    if not isinstance(item, list) or len(item) != 2:
        raise ValueError(f"expected [upper_bound, weight], got {item!r}")
    return finite_number(float, item[0]), _not_negative(finite_number(float, item[1]), item[1])


def _seconds(value: Any) -> float:
    return _not_negative(finite_number(float, value), value)


_QUANTITIES = {"cpu": parse_cpu, "memory": parse_mem}
_PROBE = {
    "kind": one_of(*PROBE_KINDS),
    "http_path": str,
    "initial_delay": (_seconds, ProbeSpec.initial_delay),
    "timeout": (_seconds, ProbeSpec.timeout),
    "period": (_seconds, ProbeSpec.period),
    "success_threshold": (number(int, 1), ProbeSpec.success_threshold),
    "failure_threshold": (number(int, 1), ProbeSpec.failure_threshold),
}
_RATE = number(float, 0, MAX_RATE)
_SHARE = number(float, 0, 1)
_TRAFFIC = {
    "requests_per_second": (_RATE, 0.0),
    "error_4xx_share": (_SHARE, 0.0),
    "error_5xx_share": (_SHARE, 0.0),
    "latency_buckets": ([_bucket], []),
    "base_cpu": (parse_cpu, "2m"),
    "base_mem": (parse_mem, "9Mi"),
    "cpu_millicores_per_rps": (_RATE, 0.0),
    "active_requests_metric": (str, None),
}
_DEPLOYMENT = {
    "name": str,
    "namespace": str,
    "labels": ({str: str}, {}),
    "image": str,
    "command": (str, ""),
    "args": ([str], []),
    "resources": {"requests": _QUANTITIES, "limits": _QUANTITIES},
    "probes": ([_PROBE], []),
    "replicas": (number(int, 0, MAX_REPLICAS), 1),
    "port": (number(int), 80),
    "pod_template_hash": (str, None),
    "pod_suffixes": ([str], []),
    "traffic_profile": (_TRAFFIC, {}),
    "scrape": (bool, True),
}
TOPOLOGY = {"namespaces": ([str], []), "metrics_available": (bool, True), "deployments": ([_DEPLOYMENT], [])}


def _resources(doc: dict[str, Any], path: str) -> ResourceSpec:
    requests, limits = doc["requests"], doc["limits"]
    for key in ("cpu", "memory"):
        if requests[key] > limits[key]:
            raise Misfit(f"{path}.requests.{key}".lstrip("."), "request exceeds limit")  # mutate's path is ""
    return ResourceSpec(requests["cpu"], limits["cpu"], requests["memory"], limits["memory"])


def _probe(doc: dict[str, Any], path: str) -> ProbeSpec:
    probe = ProbeSpec(**doc)
    if probe.timeout >= probe.period:
        raise Misfit(f"{path}.timeout", "timeout must be below period")
    return probe


def _traffic(doc: dict[str, Any], path: str) -> TrafficProfile:
    buckets = doc["latency_buckets"]
    if any(lower >= upper for (lower, _), (upper, _) in zip(buckets, buckets[1:])):  # each bound names a series
        raise Misfit(f"{path}.latency_buckets", "bucket bounds must ascend")
    if buckets and sum(w for _, w in buckets) <= 0:
        raise Misfit(f"{path}.latency_buckets", "weights must have a positive sum")
    if doc["requests_per_second"] > 0 and not buckets:
        raise Misfit(f"{path}.latency_buckets", "required when traffic flows")
    if doc["error_4xx_share"] + doc["error_5xx_share"] > 1:
        raise Misfit(f"{path}.error_5xx_share", "error shares sum above 1")
    if doc["active_requests_metric"] in ScrapeSeries.METRICS:  # a second writer of a series, or a gauge among counters
        raise Misfit(f"{path}.active_requests_metric", "names a metric the scrape already writes")
    return TrafficProfile(
        latency_buckets=tuple(doc.pop("latency_buckets")),
        base_cpu_millicores=doc.pop("base_cpu"),
        base_mem_bytes=doc.pop("base_mem"),
        **doc,
    )


class Topology(NamedTuple):
    """A checked topology document, as immutable values; `instantiate` builds states from it."""

    namespaces: frozenset[str]
    metrics_available: bool
    deployments: tuple[tuple[tuple[str, Any], ...], ...]  # each one's `Deployment` fields, in (namespace, name) order


def load_topology(source: str | dict, seed: int = 0) -> ClusterState:
    """Build a ClusterState from a topology document or a path to one. A file's text is
    read through TOPOLOGY and checked once per process; every call builds a fresh state."""
    return instantiate(read_input("fixture", source, TOPOLOGY, compile_topology, shared=True), seed)


def compile_topology(doc: dict[str, Any]) -> Topology:
    """Check a document read through TOPOLOGY; a Misfit names the first field refused."""
    namespaces, deployments = frozenset(doc["namespaces"]), {}
    for i, dep_doc in enumerate(doc["deployments"]):
        path = f"deployments[{i}]"
        name, namespace, suffixes = dep_doc["name"], dep_doc["namespace"], dep_doc["pod_suffixes"]
        if namespace not in namespaces:
            raise Misfit(f"{path}.namespace", f"undeclared namespace {namespace!r}")
        if (namespace, name) in deployments:
            raise Misfit(f"{path}.name", f"duplicate deployment {namespace}/{name}")
        if len(set(suffixes)) != len(suffixes):
            raise Misfit(f"{path}.pod_suffixes", "suffixes must be unique")
        if dep_doc["pod_template_hash"] is None:
            dep_doc["pod_template_hash"] = hashlib.sha256(f"template:{name}".encode()).hexdigest()[:10]
        resources = _resources(dep_doc["resources"], f"{path}.resources")
        probes = tuple(_probe(p, f"{path}.probes[{j}]") for j, p in enumerate(dep_doc["probes"]))
        traffic = _traffic(dep_doc.pop("traffic_profile"), f"{path}.traffic_profile")
        dep_doc.update(
            labels=MappingProxyType(dep_doc["labels"]), args=tuple(dep_doc["args"]), pod_suffixes=tuple(suffixes),
            resources=resources, probes=probes, traffic=traffic, series=ScrapeSeries.of(f"{namespace}/{name}", traffic),
            usage_cpu=min(traffic.base_cpu_millicores, resources.cpu_limit),
            usage_mem=min(traffic.base_mem_bytes, resources.mem_limit),
        )
        deployments[namespace, name] = tuple(dep_doc.items())
    return Topology(namespaces, doc["metrics_available"], tuple(deployments[key] for key in sorted(deployments)))


def instantiate(topology: Topology, seed: int) -> ClusterState:
    """A new state of `topology`, its pods and its first scrape; it shares the topology's values, all immutable."""
    deployments = [Deployment(**dict(fields)) for fields in topology.deployments]
    state = ClusterState(topology.namespaces, deployments, rng_seed=seed, metrics_available=topology.metrics_available)
    for dep in deployments:
        for _ in range(dep.replicas):
            _spawn_pod(state, dep)
    _scrape(state, (state.sim_time,))
    return state


# ---------------------------------------------------------------------------
# Clock and traffic


def _pod_suffix(dep: Deployment, ordinal: int) -> str:
    if ordinal < len(dep.pod_suffixes):
        return dep.pod_suffixes[ordinal]
    digest = hashlib.sha256(f"{dep.name}-{dep.pod_template_hash}-{ordinal}".encode()).digest()
    return "".join(_SUFFIX_ALPHABET[b % len(_SUFFIX_ALPHABET)] for b in digest[:5])


def _spawn_pod(state: ClusterState, dep: Deployment) -> None:
    name = f"{dep.name}-{dep.pod_template_hash}-{_pod_suffix(dep, dep.next_ordinal)}"
    dep.next_ordinal += 1
    dep.pods += (Pod(name, dep.namespace, dep.name, state.sim_time),)


def _substep_floats(seed: int, dep_name: str, step_index: int) -> tuple[float, float]:
    digest = hashlib.sha256(f"{seed}:{dep_name}:{step_index}".encode()).digest()
    return int.from_bytes(digest[0:4], "big") / 2**32, int.from_bytes(digest[4:8], "big") / 2**32


def _bucket_counts(total: int, buckets: tuple[tuple[float, float], ...]) -> list[int]:
    # largest-remainder apportionment keeps the sum exact
    weight_sum = sum(w for _, w in buckets)
    raw = [total * w / weight_sum for _, w in buckets]
    counts = [int(x) for x in raw]
    leftovers = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in leftovers[: total - sum(counts)]:
        counts[i] += 1
    return counts


@functools.lru_cache(maxsize=256)  # pure, and a profile's request counts repeat
def _request_increments(profile: TrafficProfile, n_req: int) -> tuple[float, ...]:
    """What one sample of `n_req` requests adds to each request counter, in the order of
    `ScrapeSeries`: each status (200, 404, 500), each bucket ("+Inf" last), then the `_sum`."""
    n_5xx = int(n_req * profile.error_5xx_share + 0.5)
    n_4xx = min(int(n_req * profile.error_4xx_share + 0.5), n_req - n_5xx)  # both round up at most
    counts = _bucket_counts(n_req, profile.latency_buckets)
    duration_sum = 0.0
    lower = 0.0
    for (le, _), count in zip(profile.latency_buckets, counts):
        duration_sum += count * (lower + le) / 2
        lower = le
    return tuple(map(float, (n_req - n_4xx - n_5xx, n_4xx, n_5xx, *accumulate(counts), n_req, duration_sum)))


@functools.lru_cache(maxsize=64)  # every fresh state of one topology and seed takes the same first runs
def _run_values(
    seed: int, name: str, profile: TrafficProfile, cpu_limit: int, mem_limit: int, times: tuple[float, ...]
) -> tuple[int, int, tuple[int, ...], tuple[tuple[float, ...], ...]]:
    """What the scrape of deployment `name` at `times` writes: the last sample's CPU and memory usage,
    the index of each status' first request (none when no traffic flows), and a run of one value per
    time for each series of `ScrapeSeries.written` in turn (CPU and memory only when no traffic flows)."""
    flowing = profile.requests_per_second > 0
    draws, cpus, mems, requests = [], [], [], []
    for t in times:
        u = _substep_floats(seed, name, int(t // SAMPLE_INTERVAL)) if flowing else (0.0, 0.0)
        rps_eff = profile.requests_per_second * (0.85 + 0.3 * u[0])
        cpu = profile.base_cpu_millicores + round(profile.cpu_millicores_per_rps * rps_eff)
        mem = profile.base_mem_bytes + int(u[1] * 4) * MI
        draws.append(u[0])
        cpus.append(max(0, min(cpu, cpu_limit)))
        mems.append(max(0, min(mem, mem_limit)))
        requests.append(round(rps_eff * SAMPLE_INTERVAL))

    runs = [tuple(cpu / 1000 * SAMPLE_INTERVAL for cpu in cpus), tuple(map(float, mems))]
    if not flowing:
        return cpus[-1], mems[-1], (), tuple(runs)
    *by_status_and_bucket, duration_sums = zip(*(_request_increments(profile, n_req) for n_req in requests))
    requests_seen = by_status_and_bucket[-1]  # le="+Inf" counts every request
    runs += [*by_status_and_bucket, duration_sums, requests_seen, duration_sums, requests_seen]
    if profile.active_requests_metric:
        runs.append(tuple(float(round(u0 * 4)) for u0 in draws))
    firsts = tuple(next((i for i, c in enumerate(counts) if c > 0), len(counts)) for counts in by_status_and_bucket[:3])
    return cpus[-1], mems[-1], firsts, tuple(runs)


def _scrape(state: ClusterState, times: Sequence[float]) -> None:
    """Take the samples at `times`, one batch of runs per deployment, and leave the usage of the last."""
    store = state.metrics
    times = tuple(times)
    # A status series whose first sample is not the run's first joins the store after every
    # series of the samples before its own, as one scrape per sample would add it.
    born_late = []
    for dep in state.deployments:
        if not (dep.scrape and dep.pods):  # as Prometheus drops a target with no endpoints
            continue
        res, series = dep.resources, dep.series
        dep.usage_cpu, dep.usage_mem, firsts, values = _run_values(
            state.rng_seed, dep.name, dep.traffic, res.cpu_limit, res.mem_limit, times)
        runs = list(zip(series.written, values, series.counters))
        for i, first in enumerate(firsts, 2):  # runs[2:5] are the statuses
            # a status series starts at its first request, then takes every sample
            if first and not store.last_value(series.written[i]) > 0:
                born_late.append((first, series.written[i], values[i][first:]))
                runs[i] = None
        store.append(times, filter(None, runs))

    for first, sid, counts in sorted(born_late, key=itemgetter(0)):
        store.add(sid, times[first:], counts)


def _format_le(le: float) -> str:
    return str(int(le)) if le == int(le) else repr(le)


def tick(state: ClusterState, dt: float) -> ClusterState:
    """Advance the clock, emitting samples at every 15s boundary crossed."""
    if dt <= 0:
        raise InvalidArgument("dt must be positive")
    target = state.sim_time + dt
    times: list[float] = []
    while state.last_sample_time + SAMPLE_INTERVAL <= target:
        state.last_sample_time += SAMPLE_INTERVAL
        times.append(state.last_sample_time)
    if times:
        _scrape(state, times)
    state.sim_time = target
    return state


# ---------------------------------------------------------------------------
# Mutation API
#
# Each action declares the schema of its arguments next to its handler, and
# `mutate` reads the arguments through it; a handler checks only what a
# schema cannot say. An optional field reads as None when it is not given.


def _nonempty(value: Any) -> str:
    if not conform(str, value):
        raise ValueError("must not be empty")
    return value


def _optional(schema: dict[str, Any]) -> dict[str, Any]:
    return {key: (field[0] if type(field) is tuple else field, None) for key, field in schema.items()}


def _given(fields: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in fields.items() if value is not None}


_TARGET = {"namespace": str, "name": str}


def target_deployment(state: ClusterState, args: dict) -> Deployment:
    namespace, name = args["namespace"], args["name"]
    dep = state.find_deployment(namespace, name)
    if dep is None:
        raise NotFound(f'deployments.apps "{name}" not found in namespace "{namespace}"')
    return dep


_SCALE = {**_TARGET, "replicas": number(int, 0, MAX_REPLICAS)}


def _apply_scale(state: ClusterState, args: dict) -> None:
    replicas = args["replicas"]
    dep = target_deployment(state, args)
    dep.pods = dep.pods[:replicas]  # scaling down stops the newest pods
    for _ in range(replicas - len(dep.pods)):
        _spawn_pod(state, dep)
    dep.replicas = replicas


_QUANTITY_CHANGES = _optional(_QUANTITIES)
_SET_RESOURCES = {**_TARGET, "requests": (_QUANTITY_CHANGES, {}), "limits": (_QUANTITY_CHANGES, {})}


def _apply_set_resources(state: ClusterState, args: dict) -> None:
    dep = target_deployment(state, args)
    old = dep.resources
    requests = {"cpu": old.cpu_request, "memory": old.mem_request, **_given(args["requests"])}
    limits = {"cpu": old.cpu_limit, "memory": old.mem_limit, **_given(args["limits"])}
    dep.resources = res = _resources({"requests": requests, "limits": limits}, "")
    dep.usage_cpu = min(dep.usage_cpu, res.cpu_limit)  # `kubectl top` shows no pod above its new limit
    dep.usage_mem = min(dep.usage_mem, res.mem_limit)


_KILL_POD = {"namespace": str, "pod": str}


def _apply_kill_pod(state: ClusterState, args: dict) -> None:
    namespace, pod_name = args["namespace"], args["pod"]
    found = state.find_pod(namespace, pod_name)
    if found is None:
        raise NotFound(f'pods "{pod_name}" not found in namespace "{namespace}"')
    dep, pod = found
    dep.pods = tuple(p for p in dep.pods if p is not pod)
    _spawn_pod(state, dep)


_SET_LABEL = {**_TARGET, "key": _nonempty, "value": (str, "")}


def _apply_set_label(state: ClusterState, args: dict) -> None:
    dep = target_deployment(state, args)
    dep.labels = MappingProxyType({**dep.labels, args["key"]: args["value"]})


_PROBE_PATCH = {key: field for key, field in _optional(_PROBE).items() if key != "kind"}
_PATCH = {
    **_TARGET,
    "patch": {
        "image": (_nonempty, None),
        "command": (str, None),
        "args": ([str], None),
        "probes": ({kind: (_PROBE_PATCH, None) for kind in PROBE_KINDS}, {}),
    },
}


def _apply_patch(state: ClusterState, args: dict) -> None:
    """Build every patched probe before assigning anything: a rejected patch changes nothing."""
    dep = target_deployment(state, args)
    patch = args["patch"]
    probes = list(dep.probes)
    for kind, fields in _given(patch.pop("probes")).items():
        path = f"patch.probes.{kind}"
        i = next((i for i, p in enumerate(probes) if p.kind == kind), len(probes))
        doc = {**(vars(probes[i]) if i < len(probes) else {"kind": kind}), **_given(fields)}
        if "http_path" not in doc:
            raise Misfit(f"{path}.http_path", "required for a new probe")
        probes[i : i + 1] = [_probe(doc, path)]  # replaces the probe of this kind, or appends one
    for key, value in _given(patch).items():
        setattr(dep, key, tuple(value) if key == "args" else value)  # args read as a list
    dep.probes = tuple(probes)


ACTIONS = {
    "scale": (_SCALE, _apply_scale),
    "set_resources": (_SET_RESOURCES, _apply_set_resources),
    "kill_pod": (_KILL_POD, _apply_kill_pod),
    "set_label": (_SET_LABEL, _apply_set_label),
    "patch": (_PATCH, _apply_patch),
}


def mutate(state: ClusterState, action: str, args: dict[str, Any]) -> bool:
    """Apply one named mutation and say whether it moved the state's digest (a `scale`
    to the current count does not); a rejected one changes nothing and is not counted."""
    if action not in ACTIONS:
        raise InvalidArgument(f"unknown mutation action {action!r}")
    schema, handler = ACTIONS[action]
    try:
        args = conform(schema, args)
        before = list(map(_copied, state.deployments))
        handler(state, args)
    except Misfit as exc:
        raise InvalidArgument(str(exc)) from None
    state.mutation_count += 1
    return any(map(_digest_moved, before, state.deployments))


# ---------------------------------------------------------------------------
# Digest and cloning


_PROBE_CONFIG = attrgetter(
    "kind", "http_path", "initial_delay", "timeout", "period", "success_threshold", "failure_threshold"
)
_POD_IDENTITY = attrgetter("name", "namespace", "deployment", "start_time")


def _canonical(dep: Deployment) -> tuple:
    """What the digest takes from a deployment: its 15 configuration fields, labels as sorted
    items and probes as tuples, then its pods' identities in name order."""
    res = dep.resources
    return (dep.name, dep.namespace, sorted(dep.labels.items()), dep.image, dep.command, dep.args,
            res.cpu_request, res.mem_request, res.cpu_limit, res.mem_limit, list(map(_PROBE_CONFIG, dep.probes)),
            dep.replicas, dep.port, dep.pod_template_hash, dep.next_ordinal,
            list(map(_POD_IDENTITY, sorted(dep.pods, key=attrgetter("name")))))


def _digest_moved(old: Deployment, new: Deployment) -> bool:
    """Whether one deployment's part of the digest differs. A change replaces a value whole, so a
    record whose fields are all still the same objects is unchanged; otherwise the canonical forms
    are compared as the digest reads them, by `repr`, which tells a `-0.0` from a `0`."""
    if all(map(is_, vars(old).values(), vars(new).values())):
        return False
    return repr(_canonical(old)) != repr(_canonical(new))


def state_digest(state: ClusterState) -> str:
    """Canonical hash of configuration state.

    Usage gauges and the clock stay out: the digest answers "did an agent
    change the system", and ticking time must not look like a mutation.
    The hash is the sha256 of the `repr` of one sequence: the sorted
    namespaces, `metrics_available`, then each deployment's `_canonical`
    form in (namespace, name) order. Each form is one tuple of the same
    shape, so two states digest alike exactly when those fields are
    equal. Nothing stores the value; callers only compare digests.
    """
    canon = [sorted(state.namespaces), state.metrics_available, *map(_canonical, state.deployments)]
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def _copied(record: T, **fields: Any) -> T:
    """A shallow copy of a dataclass record, with `fields` replaced."""
    twin = object.__new__(type(record))
    twin.__dict__.update(vars(record), **fields)
    return twin


def clone(state: ClusterState) -> ClusterState:
    """An independent copy, metric history included: every value a state holds is immutable,
    so a shallow copy of the state and of each deployment shares them all, and the store
    is forked (`MetricStore.fork`)."""
    return _copied(state, deployments=list(map(_copied, state.deployments)), metrics=state.metrics.fork())
