"""Property test: the scrape keeps Prometheus' metric types.

Two deployments with drawn traffic profiles take drawn steps: ticks, scales
(to 0 too), pod kills and resource changes. Whatever the steps, every counter
only grows, each deployment's per-status request counters sum to both its
`_count` and its `le="+Inf"` bucket at every scrape, the buckets grow with
`le`, `_sum` lies between 0 and `_count` times the largest finite bound, CPU
and memory usage stay within their limits, and a deployment with no pods
adds no samples, as Prometheus drops a target with no endpoints. A step taken
on a clone leaves the clone as the same step leaves the original, and leaves
the original as it was.

The scrape writes one run of samples per series per tick. Two more
properties pin that down: one tick over a span leaves the state as two ticks
over its parts, and a tick leaves the state as the per-sample scrape it
replaced, which this module keeps as an oracle. The scrape memoizes each
deployment's run, so the oracle also checks states that share deployment
names but differ in seed, profile or limits, ticking in turns.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn import cluster
from opslearn.cluster import MI, SAMPLE_INTERVAL, ClusterState, clone, load_topology, mutate, state_digest, tick

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
        # 0.03 rounds to 0 or 1 request a sample, so a status series can start in the middle of a tick
        "requests_per_second": draw(st.one_of(st.sampled_from([0.0, 0.03, 0.05, 0.1, 1.0]), st.floats(0, 300))),
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
        quiet = [dep.job for dep in state.deployments if not dep.pods]
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
        pods = state.find_deployment("shop", step[1]).pods
        if pods:
            mutate(state, "kill_pod", {"namespace": "shop", "pod": pods[0].name})


def _within_limits(state: ClusterState) -> None:
    for dep in state.deployments:
        res = dep.resources
        assert 0 <= dep.usage_cpu <= res.cpu_limit and 0 <= dep.usage_mem <= res.mem_limit, dep.name


def _observed(state: ClusterState) -> tuple:
    """Everything a step changes: the configuration, the clock, the usage and every
    sample, with the series in the order the store keeps them."""
    usage = [(dep.usage_cpu, dep.usage_mem, dep.pods) for dep in state.deployments]
    samples = [(sid, state.metrics.samples(sid)) for sid in state.metrics.series_ids()]
    return state_digest(state), state.sim_time, usage, samples


def _value_at(state: ClusterState, sid, at: float) -> float:
    sample = state.metrics.latest_at(sid, at, math.inf)
    return sample[1] if sample else 0.0


@settings(max_examples=150, deadline=None)  # about 1 s
@given(profiles=st.lists(_profiles(), min_size=2, max_size=2), steps=st.lists(_steps, max_size=12))
def test_counters_grow_and_statuses_sum_to_the_count(profiles, steps):
    state = load_topology({"namespaces": ["shop"], "deployments": list(map(_deployment, _NAMES, profiles))}, seed=7)
    for step in steps:
        twin = clone(state)
        before = _observed(state)
        _take(twin, step)
        assert _observed(state) == before  # nothing the clone writes shows through on its source
        _take(state, step)
        assert _observed(twin) == _observed(state)
        _within_limits(state)
    tick(state, 30.0)
    _within_limits(state)
    store = state.metrics
    for sid in store.series_ids():
        if sid.metric_name in _COUNTERS:
            values = [value for _, value in store.samples(sid)]
            assert values == sorted(values), sid
    for dep in state.deployments:
        ids = dep.series
        largest = max((le for le, _ in dep.traffic.latency_buckets), default=0.0)
        for at, count in store.samples(ids.duration_count):
            assert sum(_value_at(state, sid, at) for sid in ids.requests) == count
            buckets = [_value_at(state, sid, at) for sid in ids.buckets]  # in `le` order, "+Inf" last
            assert buckets == sorted(buckets) and buckets[-1] == count
            assert 0 <= _value_at(state, ids.duration_sum, at) <= count * largest


def _scrape_per_sample(state: ClusterState) -> None:
    """The scrape that runs of samples replaced: one sample per series per call, at `state.sim_time`."""
    store = state.metrics
    now = state.sim_time
    step_index = int(now // SAMPLE_INTERVAL)
    for dep in state.deployments:
        if not (dep.scrape and dep.pods):
            continue
        profile = dep.traffic
        res = dep.resources
        ids = dep.series

        if profile.requests_per_second <= 0:
            cpu = profile.base_cpu_millicores
            mem = profile.base_mem_bytes
            n_req = 0
            u = (0.0, 0.0)
        else:
            u = cluster._substep_floats(state.rng_seed, dep.name, step_index)
            rps_eff = profile.requests_per_second * (0.85 + 0.3 * u[0])
            n_req = round(rps_eff * SAMPLE_INTERVAL)
            cpu = profile.base_cpu_millicores + round(profile.cpu_millicores_per_rps * rps_eff)
            mem = profile.base_mem_bytes + int(u[1] * 4) * MI

        dep.usage_cpu = max(0, min(cpu, res.cpu_limit))
        dep.usage_mem = max(0, min(mem, res.mem_limit))

        store.add(ids.cpu, (now,), (dep.usage_cpu / 1000 * SAMPLE_INTERVAL,))
        store.ingest(ids.mem, (now,), (float(dep.usage_mem),))

        if profile.requests_per_second <= 0:
            continue

        n_5xx = int(n_req * profile.error_5xx_share + 0.5)
        n_4xx = min(int(n_req * profile.error_4xx_share + 0.5), n_req - n_5xx)
        n_2xx = n_req - n_4xx - n_5xx
        for sid, count in zip(ids.requests, (n_2xx, n_4xx, n_5xx)):
            if count > 0 or store.last_value(sid) > 0:
                store.add(sid, (now,), (float(count),))

        counts = cluster._bucket_counts(n_req, profile.latency_buckets)
        duration_sum = 0.0
        lower = 0.0
        cumulative = 0
        for (le, _), count, sid in zip(profile.latency_buckets, counts, ids.buckets):
            duration_sum += count * (lower + le) / 2
            cumulative += count
            store.add(sid, (now,), (float(cumulative),))
            lower = le
        for sid, value in zip(
            (ids.buckets[-1], ids.duration_sum, ids.duration_count, ids.http_duration_sum, ids.http_duration_count),
            (n_req, duration_sum, n_req, duration_sum, n_req),
        ):
            store.add(sid, (now,), (float(value),))

        if ids.active_requests:
            store.ingest(ids.active_requests, (now,), (float(round(u[0] * 4)),))


def _tick_per_sample(state: ClusterState, dt: float) -> None:
    target = state.sim_time + dt
    last_sample = SAMPLE_INTERVAL * (state.sim_time // SAMPLE_INTERVAL)
    while last_sample + SAMPLE_INTERVAL <= target:
        last_sample += SAMPLE_INTERVAL
        state.sim_time = last_sample
        _scrape_per_sample(state)
    state.sim_time = target


_spans = st.integers(1, 4 * 200).map(lambda quarters: quarters / 4)  # sums of quarters are exact
_mutations = st.lists(_steps.filter(lambda step: step[0] != "tick"), max_size=3)


def _shop(profiles: list) -> ClusterState:
    return load_topology({"namespaces": ["shop"], "deployments": list(map(_deployment, _NAMES, profiles))}, seed=7)


@settings(max_examples=100, deadline=None)
@given(
    profiles=st.lists(_profiles(), min_size=2, max_size=2),
    rounds=st.lists(st.tuples(_mutations, _spans, _spans), min_size=1, max_size=3),
)
def test_one_tick_over_a_span_equals_two_ticks_over_its_parts(profiles, rounds):
    whole, parts = _shop(profiles), _shop(profiles)
    for mutations, a, b in rounds:
        for step in mutations:
            _take(whole, step)
            _take(parts, step)
        tick(whole, a + b)
        tick(parts, a)
        tick(parts, b)
        assert _observed(whole) == _observed(parts)


@settings(max_examples=100, deadline=None)
@given(profiles=st.lists(_profiles(), min_size=2, max_size=2), steps=st.lists(_steps, max_size=12))
def test_a_tick_writes_what_the_per_sample_scrape_wrote(profiles, steps):
    batched, per_sample = _shop(profiles), _shop(profiles)
    for step in [*steps, ("tick", 300.0)]:
        if step[0] == "tick":
            tick(batched, step[1])
            _tick_per_sample(per_sample, step[1])
        else:
            _take(batched, step)
            _take(per_sample, step)
        assert _observed(batched) == _observed(per_sample)


_interleaved = st.one_of(
    st.tuples(st.just("tick"), st.integers(0, 3), st.sampled_from([15.0, 30.0, 45.0, 300.0])),
    st.tuples(st.just("limit"), st.integers(0, 3), st.sampled_from(_NAMES), st.sampled_from(["100m", "500m", "2"])),
)


@settings(max_examples=60, deadline=None)
@given(
    profiles=st.lists(_profiles(), min_size=2, max_size=2),
    other=st.lists(_profiles(), min_size=2, max_size=2),
    steps=st.lists(_interleaved, max_size=12),
)
def test_memoized_runs_of_states_that_share_names_write_what_the_per_sample_scrape_wrote(profiles, other, steps):
    """Four states with the same deployment names tick in turns: three of one profile pair,
    with seeds 7, 8 and 7 again, and one of another pair. A run memoized for one state stands
    in for another's only where seed, profile, limits and times all match, before or after
    a limit changes: every tick writes what the per-sample scrape wrote for the same state."""
    def pair(profiles, seed):
        doc = {"namespaces": ["shop"], "deployments": list(map(_deployment, _NAMES, profiles))}
        return load_topology(doc, seed=seed), load_topology(doc, seed=seed)

    states = [pair(profiles, 7), pair(profiles, 8), pair(other, 7), pair(profiles, 7)]
    for step in steps:
        batched, per_sample = states[step[1]]
        if step[0] == "tick":
            tick(batched, step[2])
            _tick_per_sample(per_sample, step[2])
        else:
            for state in (batched, per_sample):
                mutate(state, "set_resources", {"namespace": "shop", "name": step[2], "limits": {"cpu": step[3]}})
        assert _observed(batched) == _observed(per_sample)
