"""The compiled topology: `load_topology` reads a file's text through TOPOLOGY and
checks it once per process (`compile_topology`), then builds every state anew from
the immutable result (`instantiate`).

`_build_state` below is the loader as it was before that split, one pass that
checked and built a state together; it stays here as the oracle. For every
document the two agree: both refuse it with the same error, or both build states
that show the same configuration, pods, usage and samples, before and after a
tick. A loaded state shares only immutable values with the next load, so no
mutation reaches it, and a file rewritten with another text is read anew.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from types import MappingProxyType
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_input_schemas import _MUTATIONS, _SPOILED_TEXTS, _spoiled, bundled_document

from opslearn import cluster, resources
from opslearn.cluster import (
    ACTIONS,
    TOPOLOGY,
    ClusterState,
    Deployment,
    ScrapeSeries,
    _probe,
    _resources,
    _scrape,
    _spawn_pod,
    _traffic,
    load_topology,
    mutate,
    state_digest,
    tick,
)
from opslearn.resources import ConfigurationError, Misfit, fixture_path, read_input

SPOILED_EXAMPLES = 150  # about 0.7 s
SEEDS = (7, 1009, 3)


def _build_state(doc, seed):
    """The loader before the split: check each deployment and build it in one pass."""
    state = ClusterState(frozenset(doc["namespaces"]), [], rng_seed=seed, metrics_available=doc["metrics_available"])
    for i, dep_doc in enumerate(doc["deployments"]):
        path = f"deployments[{i}]"
        name, namespace, suffixes = dep_doc["name"], dep_doc["namespace"], dep_doc["pod_suffixes"]
        if namespace not in state.namespaces:
            raise Misfit(f"{path}.namespace", f"undeclared namespace {namespace!r}")
        if state.find_deployment(namespace, name) is not None:
            raise Misfit(f"{path}.name", f"duplicate deployment {namespace}/{name}")
        if len(set(suffixes)) != len(suffixes):
            raise Misfit(f"{path}.pod_suffixes", "suffixes must be unique")
        template_hash = dep_doc.pop("pod_template_hash")
        resources_ = _resources(dep_doc.pop("resources"), f"{path}.resources")
        probes = tuple(_probe(p, f"{path}.probes[{j}]") for j, p in enumerate(dep_doc.pop("probes")))
        traffic = _traffic(dep_doc.pop("traffic_profile"), f"{path}.traffic_profile")
        dep = Deployment(
            labels=MappingProxyType(dep_doc.pop("labels")),
            args=tuple(dep_doc.pop("args")),
            pod_suffixes=tuple(dep_doc.pop("pod_suffixes")),
            resources=resources_,
            probes=probes,
            pod_template_hash=(
                hashlib.sha256(f"template:{name}".encode()).hexdigest()[:10] if template_hash is None else template_hash
            ),
            traffic=traffic,
            series=ScrapeSeries.of(f"{namespace}/{name}", traffic),
            usage_cpu=min(traffic.base_cpu_millicores, resources_.cpu_limit),
            usage_mem=min(traffic.base_mem_bytes, resources_.mem_limit),
            **dep_doc,
        )
        state.deployments.append(dep)
        for _ in range(dep.replicas):
            _spawn_pod(state, dep)
    state.deployments.sort(key=lambda dep: (dep.namespace, dep.name))
    _scrape(state, [state.sim_time])
    return state


def _oracle_load(source, seed):
    return read_input("fixture", source, TOPOLOGY, lambda doc: _build_state(doc, seed))


def _shown(state):
    """What a state shows: its digest, every deployment field (its pods and usage too), and each series' samples
    in store order."""
    store = state.metrics
    return (
        state_digest(state),
        [vars(dep) for dep in state.deployments],
        [(sid, store.samples(sid)) for sid in store.series_ids()],
        (state.namespaces, state.metrics_available, state.rng_seed, state.sim_time, state.mutation_count),
    )


def _outcome(load, source, seed):
    """The error text of a refused load, or what the loaded state shows before and after a 300-s tick."""
    try:
        state = load(source, seed)
    except ConfigurationError as exc:
        return str(exc)
    before = _shown(state)
    return before, _shown(tick(state, 300.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_bundled_topology_loads_as_the_oracle_builds_it(seed):
    path = fixture_path("sock_shop.yaml")
    expected = _outcome(_oracle_load, path, seed)
    assert not isinstance(expected, str)
    assert _outcome(load_topology, path, seed) == expected
    assert _outcome(load_topology, path, seed) == expected  # the second load reuses the compiled topology


@settings(max_examples=SPOILED_EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_spoiled_topology_loads_or_is_refused_as_the_oracle_does(tmp_path_factory, data):
    doc = data.draw(_spoiled(bundled_document("sock_shop.yaml")))
    seed = data.draw(st.sampled_from(SEEDS))
    path = str(tmp_path_factory.getbasetemp() / "spoiled.yaml")
    with open(path, "w") as fh:
        fh.write(f"# spoiled document {next(_SPOILED_TEXTS)}\n")  # a new text, so no shared build is reused
    with mock.patch.object(resources, "parse_yaml", return_value=doc) as parse:
        expected = _outcome(_oracle_load, path, seed)
        assert _outcome(load_topology, path, seed) == expected
    assert parse.call_count == 2


def test_a_files_text_is_compiled_once_and_a_mapping_on_every_call(tmp_path):
    path = fixture_path("sock_shop.yaml")
    copied = tmp_path / "copied.yaml"
    with open(path) as fh:
        copied.write_text(fh.read())
    doc = bundled_document("sock_shop.yaml")
    with mock.patch.object(cluster, "compile_topology", wraps=cluster.compile_topology) as compiled:
        for source in (path, str(copied), path):  # another file with the same text shares the build
            load_topology(source)
        assert compiled.call_count == 1
        for replicas in (2, 3):  # a mapping handed over, changed in place between calls
            doc["deployments"][0]["replicas"] = replicas
            assert load_topology(doc).find_deployment("sock-shop", "catalogue").replicas == replicas
        assert compiled.call_count == 3
        copied.write_text(copied.read_text() + f"# rewritten in {tmp_path}\n")  # a text no other test wrote
        for _ in range(2):
            load_topology(str(copied))
        assert compiled.call_count == 4


def test_changing_a_loaded_state_leaves_the_next_load_fresh():
    path = fixture_path("sock_shop.yaml")
    expected = _outcome(_oracle_load, path, 7)
    state = load_topology(path, seed=7)
    assert set(_MUTATIONS) == set(ACTIONS)
    for action, args in _MUTATIONS.items():
        assert mutate(state, action, copy.deepcopy(args)), action
    tick(state, 300.0)
    with pytest.raises(dataclasses.FrozenInstanceError):  # a probe is shared between states, so it cannot change
        load_topology(path).find_deployment("sock-shop", "catalogue").probes[0].http_path = "/changed"
    assert _outcome(load_topology, path, 7) == expected


def test_a_rewritten_file_is_read_anew_and_a_refused_text_is_refused_every_time(tmp_path):
    resources_ = {"requests": {"cpu": "1m", "memory": "1Mi"}, "limits": {"cpu": "2m", "memory": "2Mi"}}
    one = {"namespaces": ["s"], "deployments": [{"name": "a", "namespace": "s", "image": "i", "resources": resources_}]}
    duplicate = {**one, "deployments": [copy.deepcopy(one["deployments"][0]) for _ in range(2)]}  # no YAML aliases
    path = tmp_path / "topology.yaml"
    # an accepted text is parsed once per process, a refused one on every call
    for doc, parses in ((bundled_document("sock_shop.yaml"), 1), (one, 1), (duplicate, 2), (one, 0), (duplicate, 2)):
        path.write_text(f"# {tmp_path}\n" + yaml.safe_dump(doc))  # texts no other test wrote
        expected = _outcome(_oracle_load, str(path), 3)
        with mock.patch.object(resources, "parse_yaml", wraps=resources.parse_yaml) as parse:
            assert _outcome(load_topology, str(path), 3) == expected
            assert _outcome(load_topology, str(path), 3) == expected
        assert parse.call_count == parses
    assert expected == f"fixture {path}: deployments[1].name: duplicate deployment s/a"
