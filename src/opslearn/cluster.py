"""Deterministic in-memory model of a namespaced container cluster.

The simulation carries just enough Kubernetes shape for the management
agents to observe and act on: namespaces, deployments with resource
specs and probes, pods with pinned names, a simulation clock, and a
traffic generator that feeds the metric store every 15 seconds of
simulated time.

Determinism rules the design. Traffic randomness is derived by hashing
(seed, deployment, sample index), never from shared RNG state, so reads
can interleave with ticks freely, clones stay independent, and replaying
a mutation log onto a fresh fixture reproduces the exact final digest.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import yaml

from .metrics import MetricStore, SeriesId
from .resources import load_yaml

SAMPLE_INTERVAL = 15.0

KI = 1024
MI = 1024 * 1024
GI = 1024 * 1024 * 1024

# k8s-style random-suffix alphabet (no vowels, no ambiguous glyphs)
_SUFFIX_ALPHABET = "bcdfghjklmnpqrstvwxz2456789"


class LoadError(Exception):
    """Topology document rejected; message names the offending path."""


class NotFound(Exception):
    """Mutation target does not exist."""


class InvalidArgument(Exception):
    """Mutation arguments fail validation."""


# ---------------------------------------------------------------------------
# Quantity helpers


def parse_cpu(text: str | int | float) -> int:
    """CPU quantity to millicores: '100m' -> 100, '1' -> 1000."""
    t = str(text).strip()
    if t.endswith("m"):
        return int(t[:-1])
    return int(round(float(t) * 1000))


def format_cpu(millicores: int) -> str:
    if millicores >= 1000 and millicores % 1000 == 0:
        return str(millicores // 1000)
    return f"{millicores}m"


def parse_mem(text: str | int) -> int:
    """Memory quantity to bytes: '100Mi' -> 104857600."""
    t = str(text).strip()
    for suffix, factor in (("Ki", KI), ("Mi", MI), ("Gi", GI)):
        if t.endswith(suffix):
            return int(round(float(t[: -len(suffix)]) * factor))
    return int(t)


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


@dataclass
class ResourceSpec:
    cpu_request: int  # millicores
    cpu_limit: int
    mem_request: int  # bytes
    mem_limit: int
    current_cpu: int = 0
    current_mem: int = 0


@dataclass
class ProbeSpec:
    kind: str  # liveness | readiness
    http_path: str
    initial_delay: float = 10.0
    timeout: float = 1.0
    period: float = 3.0
    success_threshold: int = 1
    failure_threshold: int = 3


@dataclass
class TrafficProfile:
    requests_per_second: float = 0.0
    error_4xx_share: float = 0.0
    error_5xx_share: float = 0.0
    # (upper bound in seconds, relative weight) per latency bucket
    latency_buckets: list[tuple[float, float]] = field(default_factory=list)
    base_cpu_millicores: int = 2
    base_mem_bytes: int = 9 * MI
    cpu_millicores_per_rps: float = 0.0
    active_requests_metric: str | None = None


@dataclass
class Pod:
    name: str
    namespace: str
    deployment: str
    phase: str = "Running"
    restarts: int = 0
    start_time: float = 0.0
    usage_cpu_millicores: int = 0
    usage_mem_bytes: int = 0


@dataclass
class Deployment:
    name: str
    namespace: str
    labels: dict[str, str]
    image: str
    command: str
    args: list[str]
    resources: ResourceSpec
    probes: list[ProbeSpec]
    replicas: int
    port: int
    pod_template_hash: str
    pod_suffixes: list[str] = field(default_factory=list)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    scrape: bool = True
    next_ordinal: int = 0

    @property
    def job(self) -> str:
        return f"{self.namespace}/{self.name}"


@dataclass
class MutationRecord:
    seq: int
    sim_time: float
    action: str
    args: dict[str, Any]
    digest_after: str


@dataclass
class ClusterState:
    namespaces: set[str]
    deployments: list[Deployment]
    pods: list[Pod]
    sim_time: float = 0.0
    rng_seed: int = 0
    metrics: MetricStore = field(default_factory=MetricStore)
    metrics_available: bool = True
    last_sample_time: float = 0.0
    mutations: list[MutationRecord] = field(default_factory=list)

    def find_deployment(self, namespace: str, name: str) -> Deployment | None:
        for dep in self.deployments:
            if dep.namespace == namespace and dep.name == name:
                return dep
        return None

    def find_pod(self, namespace: str, name: str) -> Pod | None:
        for pod in self.pods:
            if pod.namespace == namespace and pod.name == name:
                return pod
        return None

    def deployment_pods(self, dep: Deployment) -> list[Pod]:
        return [p for p in self.pods if p.namespace == dep.namespace and p.deployment == dep.name]


# ---------------------------------------------------------------------------
# Topology loading


def _fail(path: str, message: str) -> LoadError:
    return LoadError(f"topology error at {path}: {message}")


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise _fail(f"{path}.{key}", "missing required field")
    return doc[key]


def _parse_resources(doc: Any, path: str) -> ResourceSpec:
    if not isinstance(doc, dict):
        raise _fail(path, "expected a mapping with requests/limits")
    requests = _require(doc, "requests", path)
    limits = _require(doc, "limits", path)
    try:
        spec = ResourceSpec(
            cpu_request=parse_cpu(_require(requests, "cpu", f"{path}.requests")),
            cpu_limit=parse_cpu(_require(limits, "cpu", f"{path}.limits")),
            mem_request=parse_mem(_require(requests, "memory", f"{path}.requests")),
            mem_limit=parse_mem(_require(limits, "memory", f"{path}.limits")),
        )
    except (ValueError, TypeError) as exc:
        raise _fail(path, f"bad quantity: {exc}") from None
    if spec.cpu_request > spec.cpu_limit:
        raise _fail(f"{path}.requests.cpu", "request exceeds limit")
    if spec.mem_request > spec.mem_limit:
        raise _fail(f"{path}.requests.memory", "request exceeds limit")
    return spec


def _parse_probe(doc: Any, path: str) -> ProbeSpec:
    if not isinstance(doc, dict):
        raise _fail(path, "expected a probe mapping")
    kind = _require(doc, "kind", path)
    if kind not in ("liveness", "readiness"):
        raise _fail(f"{path}.kind", f"unknown probe kind {kind!r}")
    probe = ProbeSpec(
        kind=kind,
        http_path=_require(doc, "http_path", path),
        initial_delay=float(doc.get("initial_delay", 10)),
        timeout=float(doc.get("timeout", 1)),
        period=float(doc.get("period", 3)),
        success_threshold=int(doc.get("success_threshold", 1)),
        failure_threshold=int(doc.get("failure_threshold", 3)),
    )
    if probe.success_threshold < 1 or probe.failure_threshold < 1:
        raise _fail(f"{path}.success_threshold", "thresholds must be >= 1")
    if probe.timeout >= probe.period:
        raise _fail(f"{path}.timeout", "timeout must be below period")
    return probe


def _parse_traffic(doc: Any, path: str) -> TrafficProfile:
    if doc is None:
        return TrafficProfile()
    if not isinstance(doc, dict):
        raise _fail(path, "expected a traffic profile mapping")
    buckets: list[tuple[float, float]] = []
    for i, item in enumerate(doc.get("latency_buckets", [])):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise _fail(f"{path}.latency_buckets[{i}]", "expected [upper_bound, weight]")
        buckets.append((float(item[0]), float(item[1])))
    if buckets != sorted(buckets):
        raise _fail(f"{path}.latency_buckets", "bucket bounds must ascend")
    profile = TrafficProfile(
        requests_per_second=float(doc.get("requests_per_second", 0)),
        error_4xx_share=float(doc.get("error_4xx_share", 0)),
        error_5xx_share=float(doc.get("error_5xx_share", 0)),
        latency_buckets=buckets,
        base_cpu_millicores=parse_cpu(doc.get("base_cpu", "2m")),
        base_mem_bytes=parse_mem(doc.get("base_mem", "9Mi")),
        cpu_millicores_per_rps=float(doc.get("cpu_millicores_per_rps", 0)),
        active_requests_metric=doc.get("active_requests_metric"),
    )
    if profile.requests_per_second < 0:
        raise _fail(f"{path}.requests_per_second", "must be >= 0")
    if profile.requests_per_second > 0 and not buckets:
        raise _fail(f"{path}.latency_buckets", "required when traffic flows")
    return profile


def _default_template_hash(name: str) -> str:
    return hashlib.sha256(f"template:{name}".encode()).hexdigest()[:10]


def load_topology(source: str | dict, seed: int = 0) -> ClusterState:
    """Build a ClusterState from a topology document or a path to one."""
    if isinstance(source, str):
        try:
            doc = load_yaml(source)
        except (OSError, yaml.YAMLError) as exc:
            raise LoadError(f"cannot read topology: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise _fail("$", "topology must be a mapping")

    namespaces = doc.get("namespaces", [])
    if not isinstance(namespaces, list) or not all(isinstance(n, str) for n in namespaces):
        raise _fail("namespaces", "expected a list of names")

    state = ClusterState(
        namespaces=set(namespaces),
        deployments=[],
        pods=[],
        rng_seed=seed,
        metrics_available=bool(doc.get("metrics_available", True)),
    )

    deployments = doc.get("deployments", [])
    if not isinstance(deployments, list):
        raise _fail("deployments", "expected a list")
    for i, dep_doc in enumerate(deployments):
        path = f"deployments[{i}]"
        if not isinstance(dep_doc, dict):
            raise _fail(path, "expected a deployment mapping")
        name = _require(dep_doc, "name", path)
        namespace = _require(dep_doc, "namespace", path)
        if namespace not in state.namespaces:
            raise _fail(f"{path}.namespace", f"undeclared namespace {namespace!r}")
        if state.find_deployment(namespace, name) is not None:
            raise _fail(f"{path}.name", f"duplicate deployment {namespace}/{name}")
        replicas = int(dep_doc.get("replicas", 1))
        if replicas < 0:
            raise _fail(f"{path}.replicas", "must be >= 0")
        args = dep_doc.get("args", [])
        if not isinstance(args, list):
            raise _fail(f"{path}.args", "expected a list")
        suffixes = dep_doc.get("pod_suffixes", [])
        if len(set(suffixes)) != len(suffixes):
            raise _fail(f"{path}.pod_suffixes", "suffixes must be unique")
        dep = Deployment(
            name=name,
            namespace=namespace,
            labels=dict(dep_doc.get("labels", {})),
            image=_require(dep_doc, "image", path),
            command=dep_doc.get("command", ""),
            args=[str(a) for a in args],
            resources=_parse_resources(_require(dep_doc, "resources", path), f"{path}.resources"),
            probes=[_parse_probe(p, f"{path}.probes[{j}]") for j, p in enumerate(dep_doc.get("probes", []))],
            replicas=replicas,
            port=int(dep_doc.get("port", 80)),
            pod_template_hash=dep_doc.get("pod_template_hash", _default_template_hash(name)),
            pod_suffixes=list(suffixes),
            traffic=_parse_traffic(dep_doc.get("traffic_profile"), f"{path}.traffic_profile"),
            scrape=bool(dep_doc.get("scrape", True)),
        )
        state.deployments.append(dep)
        for _ in range(replicas):
            _spawn_pod(state, dep)
        base = dep.traffic
        dep.resources.current_cpu = min(base.base_cpu_millicores, dep.resources.cpu_limit)
        dep.resources.current_mem = min(base.base_mem_bytes, dep.resources.mem_limit)
        for pod in state.deployment_pods(dep):
            pod.usage_cpu_millicores = dep.resources.current_cpu
            pod.usage_mem_bytes = dep.resources.current_mem

    _scrape(state)
    return state


# ---------------------------------------------------------------------------
# Clock and traffic


def _pod_suffix(dep: Deployment, ordinal: int) -> str:
    if ordinal < len(dep.pod_suffixes):
        return dep.pod_suffixes[ordinal]
    digest = hashlib.sha256(f"{dep.name}-{dep.pod_template_hash}-{ordinal}".encode()).digest()
    return "".join(_SUFFIX_ALPHABET[b % len(_SUFFIX_ALPHABET)] for b in digest[:5])


def _spawn_pod(state: ClusterState, dep: Deployment) -> Pod:
    name = f"{dep.name}-{dep.pod_template_hash}-{_pod_suffix(dep, dep.next_ordinal)}"
    dep.next_ordinal += 1
    pod = Pod(
        name=name,
        namespace=dep.namespace,
        deployment=dep.name,
        start_time=state.sim_time,
        usage_cpu_millicores=dep.resources.current_cpu,
        usage_mem_bytes=dep.resources.current_mem,
    )
    state.pods.append(pod)
    return pod


def _substep_floats(state: ClusterState, dep_name: str, step_index: int, n: int) -> list[float]:
    digest = hashlib.sha256(f"{state.rng_seed}:{dep_name}:{step_index}".encode()).digest()
    return [int.from_bytes(digest[4 * i : 4 * i + 4], "big") / 2**32 for i in range(n)]


def _bucket_counts(total: int, buckets: list[tuple[float, float]]) -> list[int]:
    # largest-remainder apportionment keeps the sum exact
    weight_sum = sum(w for _, w in buckets)
    raw = [total * w / weight_sum for _, w in buckets]
    counts = [int(x) for x in raw]
    leftovers = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in leftovers[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _ingest_counter(state: ClusterState, name: str, labels: dict[str, str], increment: float) -> None:
    sid = SeriesId.make(name, labels)
    state.metrics.ingest(sid, state.sim_time, state.metrics.last_value(sid) + increment)


def _ingest_gauge(state: ClusterState, name: str, labels: dict[str, str], value: float) -> None:
    state.metrics.ingest(SeriesId.make(name, labels), state.sim_time, value)


def _scrape(state: ClusterState) -> None:
    step_index = int(state.last_sample_time // SAMPLE_INTERVAL)
    for dep in sorted(state.deployments, key=lambda d: (d.namespace, d.name)):
        if not dep.scrape:
            continue
        profile = dep.traffic
        res = dep.resources
        job = {"job": dep.job}

        if profile.requests_per_second <= 0:
            cpu = profile.base_cpu_millicores
            mem = profile.base_mem_bytes
            n_req = 0
            rps_eff = 0.0
            u = [0.0, 0.0]
        else:
            u = _substep_floats(state, dep.name, step_index, 2)
            rps_eff = profile.requests_per_second * (0.85 + 0.3 * u[0])
            n_req = round(rps_eff * SAMPLE_INTERVAL)
            cpu = profile.base_cpu_millicores + round(profile.cpu_millicores_per_rps * rps_eff)
            mem = profile.base_mem_bytes + int(u[1] * 4) * MI

        res.current_cpu = max(0, min(cpu, res.cpu_limit))
        res.current_mem = max(0, min(mem, res.mem_limit))
        for pod in state.deployment_pods(dep):
            pod.usage_cpu_millicores = res.current_cpu
            pod.usage_mem_bytes = res.current_mem

        _ingest_counter(state, "process_cpu_seconds_total", job, res.current_cpu / 1000 * SAMPLE_INTERVAL)
        _ingest_gauge(state, "process_resident_memory_bytes", job, float(res.current_mem))

        if profile.requests_per_second <= 0:
            continue

        n_5xx = int(n_req * profile.error_5xx_share + 0.5)
        n_4xx = int(n_req * profile.error_4xx_share + 0.5)
        n_2xx = n_req - n_4xx - n_5xx
        for status, count in (("200", n_2xx), ("404", n_4xx), ("500", n_5xx)):
            if count > 0 or state.metrics.last_value(SeriesId.make("http_requests_total", {**job, "status": status})) > 0:
                _ingest_counter(state, "http_requests_total", {**job, "status": status}, float(count))

        counts = _bucket_counts(n_req, profile.latency_buckets)
        duration_sum = 0.0
        lower = 0.0
        cumulative = 0
        for (le, _), count in zip(profile.latency_buckets, counts):
            duration_sum += count * (lower + le) / 2
            cumulative += count
            _ingest_counter(state, "request_duration_seconds_bucket", {**job, "le": _format_le(le)}, float(cumulative))
            lower = le
        _ingest_counter(state, "request_duration_seconds_bucket", {**job, "le": "+Inf"}, float(n_req))
        _ingest_counter(state, "request_duration_seconds_sum", job, duration_sum)
        _ingest_counter(state, "request_duration_seconds_count", job, float(n_req))
        _ingest_counter(state, "http_request_duration_seconds_sum", job, duration_sum)
        _ingest_counter(state, "http_request_duration_seconds_count", job, float(n_req))

        if profile.active_requests_metric:
            _ingest_gauge(state, profile.active_requests_metric, job, float(round(u[0] * 4)))


def _format_le(le: float) -> str:
    return str(int(le)) if le == int(le) else repr(le)


def tick(state: ClusterState, dt: float) -> ClusterState:
    """Advance the clock, emitting samples at every 15s boundary crossed."""
    if dt <= 0:
        raise InvalidArgument("dt must be positive")
    target = state.sim_time + dt
    while state.last_sample_time + SAMPLE_INTERVAL <= target:
        state.last_sample_time += SAMPLE_INTERVAL
        state.sim_time = state.last_sample_time
        _scrape(state)
    state.sim_time = target
    return state


# ---------------------------------------------------------------------------
# Mutation API


def _target_deployment(state: ClusterState, args: dict) -> Deployment:
    namespace = args.get("namespace", "")
    name = args.get("name", "")
    dep = state.find_deployment(namespace, name)
    if dep is None:
        raise NotFound(f'deployments.apps "{name}" not found in namespace "{namespace}"')
    return dep


def _apply_scale(state: ClusterState, args: dict) -> None:
    replicas = int(args["replicas"])
    if replicas < 0:
        raise InvalidArgument(f"replicas must be >= 0, got {replicas}")
    dep = _target_deployment(state, args)
    current = state.deployment_pods(dep)
    if replicas > len(current):
        for _ in range(replicas - len(current)):
            _spawn_pod(state, dep)
    elif replicas < len(current):
        doomed = {p.name for p in current[replicas:]}
        state.pods = [p for p in state.pods if p.name not in doomed]
    dep.replicas = replicas


def _apply_set_resources(state: ClusterState, args: dict) -> None:
    dep = _target_deployment(state, args)
    res = copy.deepcopy(dep.resources)
    try:
        requests = args.get("requests") or {}
        limits = args.get("limits") or {}
        if "cpu" in requests:
            res.cpu_request = parse_cpu(requests["cpu"])
        if "memory" in requests:
            res.mem_request = parse_mem(requests["memory"])
        if "cpu" in limits:
            res.cpu_limit = parse_cpu(limits["cpu"])
        if "memory" in limits:
            res.mem_limit = parse_mem(limits["memory"])
    except (ValueError, TypeError) as exc:
        raise InvalidArgument(f"bad quantity: {exc}") from None
    if res.cpu_request > res.cpu_limit or res.mem_request > res.mem_limit:
        raise InvalidArgument("requests must not exceed limits")
    res.current_cpu = min(res.current_cpu, res.cpu_limit)
    res.current_mem = min(res.current_mem, res.mem_limit)
    dep.resources = res


def _apply_kill_pod(state: ClusterState, args: dict) -> None:
    namespace = args.get("namespace", "")
    pod_name = args.get("pod", "")
    pod = state.find_pod(namespace, pod_name)
    if pod is None:
        raise NotFound(f'pods "{pod_name}" not found in namespace "{namespace}"')
    dep = state.find_deployment(namespace, pod.deployment)
    state.pods.remove(pod)
    if dep is not None:
        _spawn_pod(state, dep)


def _apply_set_label(state: ClusterState, args: dict) -> None:
    dep = _target_deployment(state, args)
    key = args.get("key")
    if not key:
        raise InvalidArgument("label key is required")
    dep.labels[str(key)] = str(args.get("value", ""))


def _apply_patch(state: ClusterState, args: dict) -> None:
    dep = _target_deployment(state, args)
    patch = args.get("patch")
    if not isinstance(patch, dict):
        raise InvalidArgument("patch must be a mapping")
    allowed = {"image", "command", "args", "probes"}
    unknown = set(patch) - allowed
    if unknown:
        raise InvalidArgument(f"unpatchable fields: {sorted(unknown)}")
    if "image" in patch:
        if not patch["image"] or not isinstance(patch["image"], str):
            raise InvalidArgument("image must be a non-empty string")
        dep.image = patch["image"]
    if "command" in patch:
        dep.command = str(patch["command"])
    if "args" in patch:
        if not isinstance(patch["args"], list):
            raise InvalidArgument("args must be a list")
        dep.args = [str(a) for a in patch["args"]]
    if "probes" in patch:
        if not isinstance(patch["probes"], dict):
            raise InvalidArgument("probes patch must map kind to fields")
        for kind, fields in patch["probes"].items():
            if kind not in ("liveness", "readiness"):
                raise InvalidArgument(f"unknown probe kind {kind!r}")
            if not isinstance(fields, dict):
                raise InvalidArgument(f"probe patch for {kind} must be a mapping")
            probe = next((p for p in dep.probes if p.kind == kind), None)
            if probe is None:
                if "http_path" not in fields:
                    raise InvalidArgument(f"new {kind} probe needs http_path")
                probe = ProbeSpec(kind=kind, http_path=str(fields["http_path"]))
                dep.probes.append(probe)
            for key, value in fields.items():
                if key == "http_path":
                    probe.http_path = str(value)
                elif key in ("initial_delay", "timeout", "period"):
                    setattr(probe, key, float(value))
                elif key in ("success_threshold", "failure_threshold"):
                    setattr(probe, key, int(value))
                else:
                    raise InvalidArgument(f"unknown probe field {key!r}")
            if probe.success_threshold < 1 or probe.failure_threshold < 1:
                raise InvalidArgument("thresholds must be >= 1")
            if probe.timeout >= probe.period:
                raise InvalidArgument("timeout must be below period")


_ACTIONS = {
    "scale": _apply_scale,
    "set_resources": _apply_set_resources,
    "kill_pod": _apply_kill_pod,
    "set_label": _apply_set_label,
    "patch": _apply_patch,
}


def mutate(state: ClusterState, action: str, args: dict[str, Any]) -> ClusterState:
    """Apply one named mutation and append its audit record."""
    handler = _ACTIONS.get(action)
    if handler is None:
        raise InvalidArgument(f"unknown mutation action {action!r}")
    handler(state, args)
    state.mutations.append(
        MutationRecord(
            seq=len(state.mutations) + 1,
            sim_time=state.sim_time,
            action=action,
            args=copy.deepcopy(args),
            digest_after=state_digest(state),
        )
    )
    return state


def replay_mutations(state: ClusterState, records: list[MutationRecord]) -> ClusterState:
    """Re-apply a mutation log; pod birth times follow the recorded clock."""
    for record in records:
        state.sim_time = record.sim_time
        mutate(state, record.action, record.args)
    return state


# ---------------------------------------------------------------------------
# Digest and cloning


def state_digest(state: ClusterState) -> str:
    """Canonical hash of configuration state.

    Usage gauges and the clock stay out: the digest answers "did an agent
    change the system", and ticking time must not look like a mutation.
    """
    doc = {
        "namespaces": sorted(state.namespaces),
        "metrics_available": state.metrics_available,
        "deployments": [
            {
                "name": d.name,
                "namespace": d.namespace,
                "labels": dict(sorted(d.labels.items())),
                "image": d.image,
                "command": d.command,
                "args": d.args,
                "requests": [d.resources.cpu_request, d.resources.mem_request],
                "limits": [d.resources.cpu_limit, d.resources.mem_limit],
                "probes": [
                    [p.kind, p.http_path, p.initial_delay, p.timeout, p.period, p.success_threshold, p.failure_threshold]
                    for p in d.probes
                ],
                "replicas": d.replicas,
                "port": d.port,
                "pod_template_hash": d.pod_template_hash,
                "next_ordinal": d.next_ordinal,
            }
            for d in sorted(state.deployments, key=lambda d: (d.namespace, d.name))
        ],
        "pods": [
            [p.name, p.namespace, p.deployment, p.phase, p.start_time]
            for p in sorted(state.pods, key=lambda p: p.name)
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def clone(state: ClusterState) -> ClusterState:
    """Independent deep copy, metric history included."""
    return copy.deepcopy(state)
