"""Property tests for the four input files: topology, suite, script and gateway config.

Each loader reads its bundled document with one node spoiled: a key or list
item dropped, a value replaced by one of another type, or a key added to a
mapping. Whatever the spoiling, the loader returns a value or raises its own
error, one line that names the file; it never raises anything else.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn import cluster, llm, runner
from opslearn.resources import fixture_path, load_yaml

MAX_EXAMPLES = 150  # per loader: the four together take about 2 s

_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=2),
    st.dictionaries(st.text(max_size=6), _scalars, max_size=2),
)

# (module whose load_yaml the loader calls, loader, bundled document, error, message prefix)
_LOADERS = {
    "topology": (cluster, cluster.load_topology, "sock_shop.yaml", cluster.LoadError, "{}: "),
    "suite": (runner, runner.load_suite, "eval_suite.yaml", runner.ConfigurationError, "{}: "),
    "script": (llm, llm.load_script, "scripts/evaluation.yaml", llm.GatewayConfigError, "script {}: "),
    "config": (llm, llm.load_config, "llm_default.yaml", llm.GatewayConfigError, "llm config {}: "),
}


def _nodes(node, path=()):
    """(path, node) for `node` and everything under it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def _spoiled(draw, doc):
    """`doc` (changed in place) with one node dropped, retyped or given an extra key."""
    nodes = list(_nodes(doc))
    how = draw(st.sampled_from(["drop", "retype", "extra"]))
    if how == "extra":
        _, node = draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, dict)]))
        node[draw(st.text(max_size=6).filter(lambda key: key not in node))] = draw(_values)
        return doc
    path, _ = draw(st.sampled_from(nodes[1:] if how == "drop" else nodes))
    if not path:
        return draw(_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_values)
    return doc


@pytest.mark.parametrize("name", _LOADERS)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_spoiled_document_loads_or_fails_with_the_loaders_error(name, data):
    module, loader, fixture, error, prefix = _LOADERS[name]
    doc = data.draw(_spoiled(load_yaml(fixture_path(fixture))))
    with mock.patch.object(module, "load_yaml", return_value=doc):
        try:
            loader("spoiled.yaml")
        except error as exc:
            message = str(exc)
            assert message.startswith(prefix.format("spoiled.yaml"))
            assert "\n" not in message
