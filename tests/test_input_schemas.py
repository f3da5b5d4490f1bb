"""Property tests for the four input files (topology, suite, script and gateway
config), for the arguments of a cluster mutation, and for the two artifacts
read back (`library.json` and `history.log`).

Each loader reads its bundled document with one node spoiled: a key or list
item dropped, a value replaced by one of another type, or a key added to a
mapping. The spoiled document is handed to the loader where the one reader,
`resources.read_input`, parses its file: the text for a shared build, else the
open file. Whatever the spoiling, the loader
returns a value or raises a ConfigurationError, one line that names the
file; it never raises anything else. Spoiled mutation arguments either apply
or are refused with the state left as it was. The compiled `conform` reads
every spoiled document as the schema walk it replaced, kept here as the
oracle, does.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import reprlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opslearn import cluster, datalayer, llm, resources, runner
from opslearn.datalayer import SkillLibrary
from opslearn.resources import ConfigurationError, Misfit, conform, fixture_path, parse_yaml

MAX_EXAMPLES = 150  # per loader: the four together take about 2 s
MUTATION_EXAMPLES = 40  # per action: the five together take about 0.5 s
LIBRARY_EXAMPLES = 60  # about 0.3 s
REPLAY_EXAMPLES = 40  # a replay takes about 20 ms: about 1 s
WALK_EXAMPLES = 25  # per schema: the eleven together take about 1 s

_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=2),
    st.dictionaries(st.text(max_size=6), _scalars, max_size=2),
)

# (loader, bundled document, the input's word in an error)
_LOADERS = {
    "topology": (cluster.load_topology, "sock_shop.yaml", "fixture"),
    "suite": (runner.load_suite, "eval_suite.yaml", "suite"),
    "script": (llm.load_script, "scripts/evaluation.yaml", "script"),
    "config": (llm.load_config, "llm_default.yaml", "llm config"),
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


def bundled_document(name):
    """The document of a bundled YAML file, parsed anew, so the caller may change it."""
    with open(fixture_path(name)) as fh:
        return parse_yaml(fh.read())


_SPOILED_TEXTS = itertools.count()  # a new file text for each spoiled document, so no shared build is reused


@pytest.mark.parametrize("name", _LOADERS)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_spoiled_document_loads_or_fails_with_the_loaders_error(tmp_path_factory, name, data):
    loader, fixture, what = _LOADERS[name]
    doc = data.draw(_spoiled(bundled_document(fixture)))
    path = tmp_path_factory.getbasetemp() / "spoiled.yaml"
    text = f"# spoiled document {next(_SPOILED_TEXTS)}\n"
    path.write_text(text)
    with mock.patch.object(resources, "parse_yaml", return_value=doc) as parse:
        try:
            loader(str(path))
        except ConfigurationError as exc:
            message = str(exc)
            assert message.startswith(f"{what} {path}: ")
            assert "\n" not in message
    parse.assert_called_once()
    (source,), keywords = parse.call_args
    assert not keywords
    if isinstance(source, str):  # a shared build keys on the text, so it parses the text
        assert source == text
    else:  # any other build parses the file while it is open
        assert (source.name, source.mode, source.closed) == (str(path), "r", True)


_TARGET = {"namespace": "sock-shop", "name": "catalogue"}
# A valid args document for each action; each spoiled one must apply or change nothing.
_MUTATIONS = {
    "scale": {**_TARGET, "replicas": 2},
    "set_resources": {**_TARGET, "requests": {"cpu": "50m", "memory": "64Mi"}, "limits": {"cpu": "1", "memory": "1Gi"}},
    "kill_pod": {"namespace": "sock-shop", "pod": "catalogue-5b877d88b4-g9tc4"},
    "set_label": {**_TARGET, "key": "tier", "value": "web"},
    "patch": {
        **_TARGET,
        "patch": {
            "image": "weaveworksdemos/catalogue:0.3.6",
            "command": "/app",
            "args": ["-port=80"],
            "probes": {"liveness": {"http_path": "/healthz", "timeout": 2, "period": 5}, "readiness": {"initial_delay": 5}},
        },
    },
}
_STATE = cluster.load_topology(fixture_path("sock_shop.yaml"), seed=7)


@pytest.mark.parametrize("action", _MUTATIONS)
@settings(max_examples=MUTATION_EXAMPLES, deadline=None)
@given(data=st.data())
def test_spoiled_mutation_arguments_apply_or_change_nothing(action, data):
    args = data.draw(_spoiled(copy.deepcopy(_MUTATIONS[action])))
    state = cluster.clone(_STATE)
    before = cluster.state_digest(state)
    try:
        cluster.mutate(state, action, args)
    except (cluster.InvalidArgument, cluster.NotFound):
        assert (cluster.state_digest(state), state.mutation_count) == (before, 0)
    else:
        assert state.mutation_count == 1



@settings(max_examples=LIBRARY_EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_spoiled_library_loads_or_fails_with_one_configuration_error(tmp_path_factory, data):
    with open(fixture_path("skill_library.json")) as fh:
        doc = data.draw(_spoiled(json.load(fh)))
    path = str(tmp_path_factory.getbasetemp() / "spoiled.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    try:
        SkillLibrary.load(path)
    except ConfigurationError as exc:
        message = str(exc)
        assert message.startswith(f"library {path}: ")
        assert "\n" not in message


@pytest.fixture(scope="module")
def seed_7_trial(tmp_path_factory):
    """The directory of a seed-7 trial and the documents of its history.log lines."""
    out_dir = tmp_path_factory.mktemp("trial")
    runner.run_trial(runner.TrialConfig(seed=7, out_dir=str(out_dir)))
    with open(out_dir / "history.log") as fh:
        return out_dir, [json.loads(line) for line in fh]


@settings(max_examples=REPLAY_EXAMPLES, deadline=None)
@given(data=st.data())
def test_a_spoiled_history_replays_or_fails_with_one_configuration_error(seed_7_trial, data):
    """The history is spoiled as one list of its lines, header first."""
    out_dir, lines = seed_7_trial
    lines = data.draw(_spoiled(copy.deepcopy(lines)))
    path = str(out_dir / "spoiled.log")
    with open(path, "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in (lines if isinstance(lines, list) else [lines]))
    try:
        runner.replay_history(path, fixture_path("sock_shop.yaml"), 7)
    except ConfigurationError as exc:
        message = str(exc)
        assert message.startswith(f"history {path}: ")
        assert "\n" not in message


# -- the compiled schemas against the schema walk they replaced ------------------


def _conform_by_walk(spec, value, path=""):
    """`resources.conform` as it was: the schema data interpreted at every node of the document."""
    if isinstance(spec, type):
        if not isinstance(value, spec) or (spec is int and isinstance(value, bool)):
            raise Misfit(path, f"expected {spec.__name__}, got {reprlib.repr(value)}")
        return copy.deepcopy(value) if spec is object else value  # the other type specs are scalars
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise Misfit(path, f"expected a mapping, got {reprlib.repr(value)}")
        if str in spec:
            if not all(isinstance(key, str) for key in value):
                raise Misfit(path, f"keys must be strings, got {reprlib.repr(list(value))}")
            return {key: _conform_by_walk(spec[str], item, f"{path}[{key!r}]") for key, item in value.items()}
        unknown = [key for key in value if key not in spec]
        if unknown:
            raise Misfit(path, f"unknown keys {sorted(map(str, unknown))}")
        checked = {}
        for key, field in spec.items():
            where = f"{path}.{key}" if path else key
            if type(field) is tuple:
                field, default = field
                if key not in value:
                    checked[key] = None if default is None else _conform_by_walk(field, default, where)
                    continue
            elif key not in value:
                raise Misfit(where, "missing")
            checked[key] = _conform_by_walk(field, value[key], where)
        return checked
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise Misfit(path, f"expected a list, got {reprlib.repr(value)}")
        return [_conform_by_walk(spec[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
    try:
        return spec(value)
    except Misfit as exc:  # a converter that reads the value through a schema it picks
        raise Misfit(f"{path}.{exc.path}" if path and exc.path else path or exc.path, exc.reason) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise Misfit(path, str(exc)) from None


def _outcome(read, spec, doc, path):
    """What reading `doc` gives: the value as its repr (NaN equals itself there), or the refusal."""
    try:
        return "value", repr(read(spec, doc, path))
    except Misfit as exc:
        return "misfit", exc.path, exc.reason
    except Exception as exc:  # anything else must at least agree in type and message
        return type(exc).__name__, str(exc)


# (schema, a document it reads); the converters inside a schema read through `conform` too
with open(fixture_path("skill_library.json")) as _fh:
    _LIBRARY_DOC = json.load(_fh)
_SCHEMAS = {
    "topology": (cluster.TOPOLOGY, bundled_document("sock_shop.yaml")),
    "suite": (runner._SUITE, bundled_document("eval_suite.yaml")),
    "script": (llm._SCRIPT, {"records": bundled_document("scripts/evaluation.yaml")["records"]}),
    "config": (llm._CONFIG, bundled_document("llm_default.yaml") or {}),
    "library": (datalayer._LIBRARY, _LIBRARY_DOC),
    "history record": (datalayer._RECORD, {"id": 3, "task_id": "r1t1", "actor": "manager", "payload": "p",
                                           "payload_kind": "feedback", "feedback_kind": "peer", "timestamp": 60.0}),
    **{f"{action} args": (cluster.ACTIONS[action][0], args) for action, args in _MUTATIONS.items()},
}
# every module that reads through `conform` by name, so that the oracle's converters walk too
_READERS = (resources, cluster, datalayer, llm, runner)


@pytest.mark.parametrize("name", _SCHEMAS)
@settings(max_examples=WALK_EXAMPLES, deadline=None)
@given(data=st.data())
def test_the_compiled_schema_reads_as_the_walk_does(name, data):
    spec, bundled = _SCHEMAS[name]
    doc = data.draw(_spoiled(copy.deepcopy(bundled)))
    path = data.draw(st.sampled_from(["", "line 3"]))
    compiled = _outcome(conform, spec, copy.deepcopy(doc), path)
    with contextlib.ExitStack() as stack:
        for module in _READERS:
            stack.enter_context(mock.patch.object(module, "conform", _conform_by_walk))
        walked = _outcome(_conform_by_walk, spec, copy.deepcopy(doc), path)
    assert compiled == walked
