"""Property test: the scrape keeps Prometheus' metric types.

Two deployments with drawn traffic profiles take drawn steps: ticks, scales
(to 0 too), pod kills and resource changes. Whatever the steps, every counter
only grows, each deployment's per-status request counters sum to both its
`_count` and its `le="+Inf"` bucket at every scrape, and a deployment with
no pods adds no samples, as Prometheus drops a target with no endpoints.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn.cluster import ClusterState, load_topology, mutate, tick

_NAMES = ("api", "web")
_SHARES = (0.0, 0.02, 0.05, 0.25, 0.5, 0.75, 1.0)
_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
_COUNTERS = ("http_requests_total", "request_duration_seconds_bucket", "request_duration_seconds_count",
             "request_duration_seconds_sum", "process_cpu_seconds_total")


@st.composite
def _profiles(draw):
    share_5xx = draw(st.sampled_from(_SHARES))
    bounds = draw(st.lists(st.sampled_from(_BOUNDS), min_size=1, max_size=4, unique=True))
    return {
        "requests_per_second": draw(st.one_of(st.sampled_from([0.0, 0.05, 0.1, 1.0]), st.floats(0, 300))),
        "error_5xx_share": share_5xx,
        "error_4xx_share": draw(st.sampled_from([s for s in _SHARES if s + share_5xx <= 1])),
        "latency_buckets": [[bound, draw(st.integers(1, 50))] for bound in sorted(bounds)],
        "cpu_millicores_per_rps": draw(st.sampled_from([0.0, 3.0])),
    }


def _deployment(name: str, profile: dict) -> dict:
    return {
        "name": name,
        "namespace": "shop",
        "image": f"{name}:1",
        "resources": {"requests": {"cpu": "100m", "memory": "64Mi"}, "limits": {"cpu": "1", "memory": "1Gi"}},
        "traffic_profile": profile,
    }


_steps = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([1.0, 15.0, 16.0, 45.0, 90.0])),
    st.tuples(st.just("scale"), st.sampled_from(_NAMES), st.integers(0, 3)),
    st.tuples(st.just("kill"), st.sampled_from(_NAMES)),
    st.tuples(st.just("limit"), st.sampled_from(_NAMES), st.sampled_from(["100m", "500m", "2"])),
)


def _samples_of(state: ClusterState, job: str) -> int:
    store = state.metrics
    return sum(len(store.samples(sid)) for sid in store.series_ids() if ("job", job) in sid.labels)


def _take(state: ClusterState, step: tuple) -> None:
    if step[0] == "tick":
        quiet = [dep.job for dep in state.deployments if not state.deployment_pods(dep)]
        before = {job: _samples_of(state, job) for job in quiet}
        tick(state, step[1])
        assert before == {job: _samples_of(state, job) for job in quiet}
        return
    target = {"namespace": "shop", "name": step[1]}
    if step[0] == "scale":
        mutate(state, "scale", {**target, "replicas": step[2]})
    elif step[0] == "limit":
        mutate(state, "set_resources", {**target, "limits": {"cpu": step[2]}})
    else:
        pods = state.deployment_pods(state.find_deployment("shop", step[1]))
        if pods:
            mutate(state, "kill_pod", {"namespace": "shop", "pod": pods[0].name})


def _value_at(state: ClusterState, sid, at: float) -> float:
    sample = state.metrics.latest_at(sid, at, math.inf)
    return sample[1] if sample else 0.0


@settings(max_examples=150, deadline=None)  # about 1 s
@given(profiles=st.lists(_profiles(), min_size=2, max_size=2), steps=st.lists(_steps, max_size=12))
def test_counters_grow_and_statuses_sum_to_the_count(profiles, steps):
    state = load_topology({"namespaces": ["shop"], "deployments": list(map(_deployment, _NAMES, profiles))}, seed=7)
    for step in steps:
        _take(state, step)
    tick(state, 30.0)
    store = state.metrics
    for sid in store.series_ids():
        if sid.metric_name in _COUNTERS:
            values = [value for _, value in store.samples(sid)]
            assert values == sorted(values), sid
    for dep in state.deployments:
        ids = dep.series
        for at, count in store.samples(ids.duration_count):
            assert sum(_value_at(state, sid, at) for sid in ids.requests) == count
            assert _value_at(state, ids.buckets[-1], at) == count
