"""Simulated cluster: determinism, mutation count, digests, metric emission."""

from __future__ import annotations

import dataclasses
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn.cluster import (
    ACTIONS,
    MAX_REPLICAS,
    ClusterState,
    InvalidArgument,
    NotFound,
    ScrapeSeries,
    clone,
    component_names,
    load_topology,
    mutate,
    state_digest,
    tick,
)
from opslearn.promql import evaluate
from opslearn.resources import ConfigurationError, fixture_path, parse_yaml
from opslearn.shell import ShellGateway


def _fresh(seed: int = 7):
    return load_topology(fixture_path("sock_shop.yaml"), seed=seed)


def _document():
    """The bundled topology's document, parsed anew, so the caller may change it."""
    with open(fixture_path("sock_shop.yaml")) as fh:
        return parse_yaml(fh.read())


def test_same_seed_same_evolution():
    a, b = _fresh(), _fresh()
    tick(a, 600.0)
    tick(b, 600.0)
    assert state_digest(a) == state_digest(b)
    query = "sum by (job)(rate(http_requests_total[5m]))"
    result_a = evaluate(a.metrics, query, a.sim_time)
    result_b = evaluate(b.metrics, query, b.sim_time)
    assert [(e.labels, e.value) for e in result_a.entries] == [
        (e.labels, e.value) for e in result_b.entries
    ]
    assert result_a.entries, "expected traffic metrics after ten minutes"


def test_tick_advances_clock_and_scrapes():
    state = _fresh()
    tick(state, 15.0)
    assert state.sim_time == 15.0
    names = state.metrics.label_values("__name__")
    assert "http_requests_total" in names
    assert "process_resident_memory_bytes" in names
    jobs = state.metrics.label_values("job")
    assert "sock-shop/catalogue" in jobs
    assert "sock-shop/front-end" in jobs


def test_digest_ignores_time_but_not_configuration():
    state = _fresh()
    before = state_digest(state)
    tick(state, 120.0)
    assert state_digest(state) == before
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 2})
    assert state_digest(state) != before


def test_scale_adjusts_pods_and_records_mutation():
    state = _fresh()
    dep = state.find_deployment("sock-shop", "catalogue")
    assert dep.replicas == 1
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 3})
    assert dep.replicas == 3
    assert len(dep.pods) == 3
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 1})
    assert len(dep.pods) == 1
    assert state.mutation_count == 2


def test_mutations_validate_arguments():
    state = _fresh()
    with pytest.raises(NotFound):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "ghost", "replicas": 1})
    with pytest.raises(InvalidArgument):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": -1})
    with pytest.raises(InvalidArgument, match="replicas: missing"):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue"})
    with pytest.raises(InvalidArgument, match=r"replicas: invalid literal for int\(\) with base 10: 'many'"):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": "many"})
    with pytest.raises(InvalidArgument):
        mutate(state, "warp", {})
    # Failed mutations are not counted.
    assert state.mutation_count == 0


def test_scale_above_the_replica_bound_is_rejected_before_any_pod_spawns():
    state = _fresh()
    before = (state_digest(state), len(state.all_pods()))
    with pytest.raises(InvalidArgument, match=rf"replicas: {MAX_REPLICAS + 1} is not in \[0, {MAX_REPLICAS}\]"):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": MAX_REPLICAS + 1})
    assert (state_digest(state), len(state.all_pods())) == before
    assert state.mutation_count == 0
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": MAX_REPLICAS})
    assert len(state.find_deployment("sock-shop", "catalogue").pods) == MAX_REPLICAS


def test_topology_replicas_above_the_bound_are_rejected():
    doc = _document()
    doc["deployments"][0]["replicas"] = MAX_REPLICAS + 1
    with pytest.raises(ConfigurationError, match=r"deployments\[0\]\.replicas"):
        load_topology(doc)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("resources", "requests", "cpu"), "-5", r"resources\.requests\.cpu: '-5' is negative"),
        (("resources", "limits", "memory"), "-1Mi", r"resources\.limits\.memory: '-1Mi' is negative"),
        (("traffic_profile", "base_mem"), "-9Mi", r"traffic_profile\.base_mem: '-9Mi' is negative"),
        (("probes", 0, "initial_delay"), -30, r"probes\[0\]\.initial_delay: -30 is negative"),
    ],
    ids=["cpu", "memory", "base-memory", "probe-delay"],
)
def test_topology_refuses_negative_quantities_and_probe_durations(path, value, message):
    doc = _document()
    node = doc["deployments"][1]  # front-end, the one with a traffic profile
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigurationError, match=r"deployments\[1\]\." + message):
        load_topology(doc)


_SCRAPED = (
    "process_cpu_seconds_total", "process_resident_memory_bytes", "http_requests_total",
    "request_duration_seconds_bucket", "request_duration_seconds_sum", "request_duration_seconds_count",
    "http_request_duration_seconds_sum", "http_request_duration_seconds_count",
)


def test_the_scrape_writes_exactly_the_metric_names_it_declares():
    state = tick(_fresh(), 60.0)
    written = {sid.metric_name for sid in state.metrics.series_ids()} - {"nodejs_active_requests_total"}
    assert sorted(written) == sorted(ScrapeSeries.METRICS) == sorted(_SCRAPED)


@pytest.mark.parametrize("name", _SCRAPED)
def test_an_active_requests_metric_the_scrape_already_writes_is_refused(name):
    """A job-only name would be written twice per scrape; a labelled one would put a gauge among counters."""
    doc = _document()
    doc["deployments"][1]["traffic_profile"]["active_requests_metric"] = name
    with pytest.raises(
        ConfigurationError,
        match=r"deployments\[1\]\.traffic_profile\.active_requests_metric: names a metric the scrape already writes$",
    ):
        load_topology(doc)


def test_set_resources_enforces_request_limit_order():
    state = _fresh()
    with pytest.raises(InvalidArgument):
        mutate(
            state,
            "set_resources",
            {
                "namespace": "sock-shop",
                "name": "catalogue",
                "requests": {"memory": "500Mi"},
            },
        )
    mutate(
        state,
        "set_resources",
        {"namespace": "sock-shop", "name": "catalogue", "limits": {"memory": "400Mi"}},
    )
    dep = state.find_deployment("sock-shop", "catalogue")
    assert dep.resources.mem_limit == 400 * 1024 * 1024


def test_patch_probe_validates_fields():
    state = _fresh()
    mutate(
        state,
        "patch",
        {
            "namespace": "sock-shop",
            "name": "catalogue",
            "patch": {"probes": {"liveness": {"http_path": "/healthz"}}},
        },
    )
    dep = state.find_deployment("sock-shop", "catalogue")
    liveness = next(p for p in dep.probes if p.kind == "liveness")
    assert liveness.http_path == "/healthz"
    with pytest.raises(InvalidArgument):
        mutate(
            state,
            "patch",
            {
                "namespace": "sock-shop",
                "name": "catalogue",
                "patch": {"probes": {"startup": {"http_path": "/x"}}},
            },
        )


def test_clone_is_independent():
    state = _fresh()
    tick(state, 60.0)
    copy_state = clone(state)
    assert state_digest(copy_state) == state_digest(state)
    mutate(copy_state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 2})
    assert state.find_deployment("sock-shop", "catalogue").replicas == 1
    assert state_digest(copy_state) != state_digest(state)


def test_a_fresh_clone_shares_the_fixed_config_and_copies_every_sample_list():
    """A clone copies the state record and each deployment record, and every value they hold is
    shared; its store holds an equal copy of each sample list and shares none of them."""
    state = _fresh()
    tick(state, 300.0)
    copy_state = clone(state)
    assert copy_state.metrics._samples.keys() == state.metrics._samples.keys()
    for sid, points in state.metrics._samples.items():
        assert copy_state.metrics._samples[sid] is not points
        assert copy_state.metrics._samples[sid] == points
    assert copy_state.namespaces is state.namespaces
    for dep, copied in zip(state.deployments, copy_state.deployments):
        assert copied is not dep
        for f in dataclasses.fields(dep):
            assert getattr(copied, f.name) is getattr(dep, f.name), f.name


def test_the_live_state_appends_in_place_after_a_clone():
    """A clone takes no list from the live store, so the live state's next tick appends to
    each of its 17 sample lists in place and replaces none."""
    state = _fresh()
    tick(state, 300.0)
    lists = dict(state.metrics._samples)
    assert len(lists) == 17
    clone(state)
    tick(state, 30.0)
    assert state.metrics._samples.keys() == lists.keys()
    assert all(state.metrics._samples[sid] is points for sid, points in lists.items())


_MUTATIONS = [
    ("scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 0}),
    ("scale", {"namespace": "sock-shop", "name": "front-end", "replicas": 3}),
    ("set_resources", {"namespace": "sock-shop", "name": "catalogue", "limits": {"memory": "400Mi"}}),
    ("set_label", {"namespace": "sock-shop", "name": "front-end", "key": "tier", "value": "web"}),
    ("kill_pod", {"namespace": "sock-shop", "pod": "catalogue-5b877d88b4-g9tc4"}),  # pinned; NotFound once gone
    ("patch", {"namespace": "sock-shop", "name": "catalogue", "patch": {"probes": {"liveness": {"period": 7}}}}),
    ("patch", {"namespace": "sock-shop", "name": "catalogue", "patch": {"args": ["-port=80", "-v"]}}),
    ("patch", {"namespace": "sock-shop", "name": "front-end", "patch": {"image": "weaveworksdemos/front-end:0.3.13"}}),
    ("scale", {"namespace": "sock-shop", "name": "ghost", "replicas": 1}),  # always NotFound
]
_steps = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([1.0, 14.0, 15.0, 31.5, 90.0])),
    st.tuples(st.just("mutate"), st.integers(0, len(_MUTATIONS) - 1)),
)


def _apply(state: ClusterState, step: tuple) -> None:
    kind, arg = step
    if kind == "tick":
        tick(state, arg)
        return
    action, args = _MUTATIONS[arg]
    try:
        mutate(state, action, args)
    except (NotFound, InvalidArgument):
        pass


def _observed(state: ClusterState) -> tuple:
    store = state.metrics
    usage = [(dep.usage_cpu, dep.usage_mem, [pod.name for pod in dep.pods]) for dep in state.deployments]
    return state.sim_time, state_digest(state), usage, [(sid, store.samples(sid)) for sid in store.series_ids()]


def _immutable(value) -> bool:
    """A scalar, or a value nothing can change: a tuple, frozenset, read-only
    mapping or frozen dataclass whose every item or field is itself immutable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    if isinstance(value, MappingProxyType):
        return all(map(_immutable, value.items()))
    if dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        return all(_immutable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


def _assert_holds_only_immutable_values(state: ClusterState) -> None:
    assert type(state.namespaces) is frozenset
    for dep in state.deployments:  # its resources and pods are checked field by field too
        for f in dataclasses.fields(dep):
            assert _immutable(getattr(dep, f.name)), f"{dep.job}: {f.name} = {getattr(dep, f.name)!r}"


def test_a_state_holds_only_scalars_and_immutable_values_after_every_step():
    """So a shallow copy of each deployment is a full copy, as `clone` relies on."""
    assert {action for action, _ in _MUTATIONS} == set(ACTIONS)
    state = _fresh()
    _assert_holds_only_immutable_values(state)
    tick(state, 90.0)
    _assert_holds_only_immutable_values(state)
    for step in reversed(range(len(_MUTATIONS))):  # the pod kill comes before the scale to 0
        _apply(state, ("mutate", step))
        _assert_holds_only_immutable_values(state)
    assert state.mutation_count == len(_MUTATIONS) - 1  # all but the ghost


@settings(max_examples=40, deadline=None)
@given(
    moves=st.lists(
        st.one_of(
            st.tuples(st.just("step"), st.integers(0, 3), _steps),
            st.tuples(st.just("clone"), st.integers(0, 3)),
        ),
        max_size=14,
    )
)
def test_clones_and_their_sources_evolve_as_if_never_cloned(moves):
    """Whatever ticks and mutations either side takes after a clone, each
    state looks exactly like a fresh one that took its steps with no clone."""
    states = [_fresh()]
    histories: list[list[tuple]] = [[]]
    for move in moves:
        index = move[1] % len(states)
        if move[0] == "clone":
            states.append(clone(states[index]))
            histories.append(list(histories[index]))
        else:
            _apply(states[index], move[2])
            histories[index].append(move[2])
    for state, history in zip(states, histories):
        fresh = _fresh()
        for step in history:
            _apply(fresh, step)
        assert _observed(state) == _observed(fresh)


def test_deployment_order_in_the_topology_does_not_matter():
    """The loader sorts the deployments once; the digest, the shell and the scrape read that order."""
    doc = _document()
    reversed_doc = {**doc, "deployments": doc["deployments"][::-1]}
    states = [_fresh(), load_topology(reversed_doc, seed=7)]
    listings = [ShellGateway(s, component_names(s)).execute("kubectl get deployments --all-namespaces") for s in states]
    assert listings[0].exit_code == 0
    assert listings[0].stdout == listings[1].stdout
    for state in states:
        tick(state, 300.0)
    assert _observed(states[0]) == _observed(states[1])


def test_same_mutations_on_the_same_clock_give_the_same_digest():
    def mutated() -> str:
        state = _fresh()
        tick(state, 60.0)
        mutate(state, "scale", {"namespace": "sock-shop", "name": "front-end", "replicas": 2})
        tick(state, 60.0)
        mutate(
            state,
            "set_resources",
            {"namespace": "sock-shop", "name": "catalogue", "limits": {"memory": "400Mi"}},
        )
        return state_digest(state)

    assert mutated() == mutated() != state_digest(_fresh())


def test_idle_catalogue_usage_is_steady():
    state = _fresh()
    tick(state, 600.0)
    result = evaluate(
        state.metrics,
        'rate(process_cpu_seconds_total{job="sock-shop/catalogue"}[5m])',
        state.sim_time,
    )
    assert len(result.entries) == 1
    assert result.entries[0].value == pytest.approx(0.002)
    memory = evaluate(
        state.metrics,
        'process_resident_memory_bytes{job="sock-shop/catalogue"}',
        state.sim_time,
    )
    assert memory.entries[0].value == 9.0 * 1024 * 1024


def test_front_end_latency_quantile_in_expected_band():
    state = _fresh()
    tick(state, 600.0)
    query = (
        "histogram_quantile(0.95, sum(rate("
        'request_duration_seconds_bucket{job="sock-shop/front-end"}[5m])) by (le))'
    )
    result = evaluate(state.metrics, query, state.sim_time)
    assert len(result.entries) == 1
    assert 0.0025 < result.entries[0].value < 0.005
