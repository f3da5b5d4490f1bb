"""Simulated cluster: determinism, mutation count, digests, metric emission."""

from __future__ import annotations

import pytest

from opslearn.cluster import (
    MAX_REPLICAS,
    InvalidArgument,
    LoadError,
    NotFound,
    clone,
    load_topology,
    mutate,
    state_digest,
    tick,
)
from opslearn.promql import evaluate
from opslearn.resources import fixture_path, load_yaml


def _fresh(seed: int = 7):
    return load_topology(fixture_path("sock_shop.yaml"), seed=seed)


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
    assert len(state.deployment_pods(dep)) == 3
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": 1})
    assert len(state.deployment_pods(dep)) == 1
    assert state.mutation_count == 2


def test_mutations_validate_arguments():
    state = _fresh()
    with pytest.raises(NotFound):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "ghost", "replicas": 1})
    with pytest.raises(InvalidArgument):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": -1})
    with pytest.raises(InvalidArgument):
        mutate(state, "warp", {})
    # Failed mutations are not counted.
    assert state.mutation_count == 0


def test_scale_above_the_replica_bound_is_rejected_before_any_pod_spawns():
    state = _fresh()
    before = (state_digest(state), len(state.pods))
    with pytest.raises(InvalidArgument, match=f"between 0 and {MAX_REPLICAS}"):
        mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": MAX_REPLICAS + 1})
    assert (state_digest(state), len(state.pods)) == before
    assert state.mutation_count == 0
    mutate(state, "scale", {"namespace": "sock-shop", "name": "catalogue", "replicas": MAX_REPLICAS})
    assert len(state.deployment_pods(state.find_deployment("sock-shop", "catalogue"))) == MAX_REPLICAS


def test_topology_replicas_above_the_bound_are_rejected():
    doc = load_yaml(fixture_path("sock_shop.yaml"))
    doc["deployments"][0]["replicas"] = MAX_REPLICAS + 1
    with pytest.raises(LoadError, match=r"deployments\[0\]\.replicas"):
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
