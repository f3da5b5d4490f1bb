"""Property tests for the shell contract.

Whatever line an agent emits, `execute` returns a result and never raises;
exit code 0 goes with an empty stderr and a non-zero code with an
explanation on it; a failed command without a pipe changes nothing; and the
read verbs never change the configuration digest.

The regex scanners, the word splitter, the configuration digest and the
`mutated` flag are also checked against the implementations they replaced,
which are kept here as oracles: the character loops, `shlex.split`, the
sort-keys JSON document and an `execute` that digests the state before and
after every command; `cluster.mutate`'s report is checked against the same
two digests.
"""

from __future__ import annotations

import functools
import json
import shlex
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opslearn import cluster
from opslearn.cluster import InvalidArgument, NotFound, clone, load_topology, mutate, state_digest, tick
from opslearn.resources import fixture_path
from opslearn.shell import (
    _FORBIDDEN_CONSTRUCTS,
    ExecutionResult,
    ShellGateway,
    _CommandError,
    _construct_outside_quotes,
    _duration_ms,
    _split_pipes_outside_quotes,
    _split_words,
)

_POD = "catalogue-5b877d88b4-g9tc4"  # pinned in the fixture
_FOLLOW_UPS = [
    "kubectl describe deployment catalogue -n sock-shop",
    "kubectl describe deployment front-end -n sock-shop",
    "kubectl get pods --all-namespaces",
    "kubectl top pods -n sock-shop",
]
_SETTINGS = settings(max_examples=150, deadline=None)

_namespaces = st.sampled_from(["-n sock-shop", "-n kube-system", "-n shadow", "--all-namespaces", ""])
_names = st.sampled_from(["catalogue", "front-end", "ghost", _POD, ""])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and infinities included
    st.text(max_size=8),
)
_probe_fields = st.dictionaries(
    st.sampled_from(["http_path", "initial_delay", "timeout", "period", "success_threshold", "failure_threshold", "x"]),
    _scalars,
    max_size=4,
)
_patches = st.dictionaries(
    st.sampled_from(["image", "command", "args", "probes", "replicas"]),
    st.one_of(
        _scalars,
        st.lists(_scalars, max_size=3),
        st.dictionaries(st.sampled_from(["liveness", "readiness", "startup"]), _probe_fields, max_size=2),
    ),
    max_size=4,
)
_quantities = st.one_of(
    st.sampled_from(["cpu=100m", "memory=200Mi", "cpu=1e400", "memory=1e308Gi", "cpu=nan", "cpu=", "gpu=1"]),
    st.text(max_size=12),
)
_replicas = st.one_of(st.integers(-3, 120), st.integers(), st.text(max_size=6))


def _line(*parts: str) -> str:
    return " ".join(part for part in parts if part)


_writes = st.one_of(
    st.builds(
        lambda n, ns, r: _line("kubectl scale deployment", n, ns, f"--replicas={r}"),
        _names,
        _namespaces,
        _replicas,
    ),
    st.builds(
        lambda n, ns, flag, q: _line("kubectl set resources deployment", n, ns, f"--{flag}={q}"),
        _names,
        _namespaces,
        st.sampled_from(["requests", "limits"]),
        _quantities,
    ),
    st.builds(
        lambda n, ns, kv: _line("kubectl label deployment", n, ns, shlex.quote(kv), "--overwrite"),
        _names,
        _namespaces,
        st.text(max_size=10),
    ),
    st.builds(
        lambda n, ns, p: _line("kubectl patch deployment", n, ns, "-p", shlex.quote(json.dumps(p))),
        _names,
        _namespaces,
        st.one_of(_patches, _scalars),
    ),
    st.builds(lambda n, ns: _line("kubectl delete pod", n, ns), _names, _namespaces),
)
_queries = st.one_of(
    st.sampled_from(
        [
            "sum by (job)(rate(http_requests_total[5m]))",
            "histogram_quantile(0.95, sum by (le)(rate(request_duration_seconds_bucket[5m])))",
            'process_resident_memory_bytes{job=~"sock-shop/.*"}',
            'm{job=~"["}',
            "rate(x[0s])",
        ]
    ),
    st.text(max_size=30),
)
_reads = st.one_of(
    st.builds(
        lambda verb, kind, n, ns: _line("kubectl", verb, kind, n, ns),
        st.sampled_from(["get", "describe", "top"]),
        st.sampled_from(["pods", "pod", "deployments", "deployment", "nodes", ""]),
        _names,
        _namespaces,
    ),
    st.builds(lambda q: "curl " + shlex.quote("http://prometheus:9090/api/v1/query?query=" + q), _queries),
    st.builds(lambda path: "curl " + shlex.quote("http://prometheus:9090" + path), st.text(max_size=30)),
    st.builds(lambda q: f"query_prometheus(promQL='{q}')", _queries),
).flatmap(lambda line: st.sampled_from([line, line + " | grep catalogue", line + " | grep zz"]))
_anything = st.one_of(
    st.text(max_size=60),
    st.builds(
        lambda verb, rest: f"kubectl {verb} {rest}",
        st.sampled_from(["get", "scale", "set", "patch", "label", "delete", "top", "describe", "apply"]),
        st.text(max_size=40),
    ),
)

_PATCH = "kubectl patch deployment catalogue -n sock-shop -p "
_PATCH_LINES = [  # reproduced crashes and a half-applied patch
    _PATCH + """'{"probes": {"liveness": {"period": "abc"}}}'""",
    _PATCH + """'{"probes": {"liveness": {"period": null}}}'""",
    _PATCH + """'{"image": "evil:1", "probes": {"liveness": {"timeout": 99}}}'""",
]


@functools.cache
def _base():
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    return tick(state, 300.0)


def _fresh_shell() -> ShellGateway:
    return ShellGateway(clone(_base()), components=("catalogue", "front-end"))


def _assert_contract(shell: ShellGateway, line: str):
    result = shell.execute(line)
    assert (result.exit_code == 0) == (result.stderr == ""), (line, result)
    return result


@_SETTINGS
@given(line=st.one_of(_writes, _reads, _anything))
@example(line=_PATCH_LINES[0])
@example(line=_PATCH_LINES[1])
@example(line=_PATCH_LINES[2])
@example(line="""query_prometheus(promQL='up{job=~"a{99999999999}"}')""")  # raised OverflowError
@example(line="query_prometheus(promQL='up{job=~\"" + "(" * 2000 + "\"}')")  # raised RecursionError
def test_execute_never_raises_and_exit_code_matches_stderr(line):
    shell = _fresh_shell()
    before = state_digest(shell.state)
    result = _assert_contract(shell, line)
    if result.exit_code != 0 and "|" not in line:
        assert state_digest(shell.state) == before, line
        assert not result.state_mutated
    for follow_up in _FOLLOW_UPS:  # whatever the line changed, the reads still work
        _assert_contract(shell, follow_up)


@_SETTINGS
@given(line=_reads)
def test_read_lines_leave_the_digest_unchanged(line):
    shell = _fresh_shell()
    before = state_digest(shell.state)
    result = _assert_contract(shell, line)
    assert not result.state_mutated
    assert state_digest(shell.state) == before


# -- the regex scanners against the character loops they replaced -------------------


def _split_outside_quotes_by_loop(line: str, sep: str) -> list[str]:
    parts = []
    buf = []
    quote = None
    for c in line:
        if quote:
            buf.append(c)
            if c == quote:
                quote = None
        elif c in "'\"":
            quote = c
            buf.append(c)
        elif c == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    parts.append("".join(buf))
    return parts


def _contains_outside_quotes_by_loop(line: str, needles: tuple[str, ...]) -> str | None:
    quote = None
    i = 0
    while i < len(line):
        c = line[i]
        if quote:
            if c == quote:
                quote = None
        elif c in "'\"":
            quote = c
        else:
            for needle in needles:
                if line.startswith(needle, i):
                    return needle
        i += 1
    return None


_scanned_lines = st.one_of(
    st.text(alphabet="'\"&|;$`<>ab ", max_size=24),
    _writes,
    _reads,
    _anything,
    st.lists(st.one_of(_reads, _writes, st.sampled_from(["'", '"', "|", *_FORBIDDEN_CONSTRUCTS])), max_size=4).map(
        " ".join
    ),
)


@settings(max_examples=600, deadline=None)
@given(line=_scanned_lines)
@example(line="a'|'|\"b|\"|c")
@example(line="&&&|||;'")
def test_the_quote_scanners_agree_with_the_character_loops(line):
    assert _construct_outside_quotes(line) == _contains_outside_quotes_by_loop(line, _FORBIDDEN_CONSTRUCTS)
    assert _split_pipes_outside_quotes(line) == _split_outside_quotes_by_loop(line, "|")


def _words_or_error(split, text: str):
    try:
        return split(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=600, deadline=None)
@given(
    text=st.one_of(
        st.text(alphabet="'\"\\ \t\r\n\x0bab|#", max_size=16),
        _scanned_lines,
    )
)
@example(text='a"b\\"c\\d"e \'f\\g\' \\ h ""')
@example(text='x "unclosed\\')
@example(text='x "unclosed\\\\')
def test_the_word_splitter_agrees_with_shlex(text):
    assert _words_or_error(_split_words, text) == _words_or_error(shlex.split, text)


# -- the digest against the JSON document it replaced -------------------------------


def _digest_document(state) -> str:
    """The sort-keys JSON document the configuration digest used to hash."""
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
            [p.name, p.namespace, p.deployment, p.start_time]
            for p in sorted(state.all_pods(), key=lambda p: (p.namespace, p.name))
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_CATALOGUE = {"namespace": "sock-shop", "name": "catalogue"}
# pairs that set a field and set it back, so that different paths meet again, a pod kill,
# a probe delay set to 0 and to -0.0, and two changes that set the value already there
_DIGEST_MUTATIONS = [
    ("set_label", {**_CATALOGUE, "key": "tier", "value": "web"}),
    ("set_label", {**_CATALOGUE, "key": "tier", "value": "api"}),
    ("patch", {**_CATALOGUE, "patch": {"image": "weaveworksdemos/catalogue:0.3.6"}}),
    ("patch", {**_CATALOGUE, "patch": {"image": "weaveworksdemos/catalogue:0.3.5"}}),
    ("patch", {**_CATALOGUE, "patch": {"args": ["-port=80"]}}),
    ("patch", {**_CATALOGUE, "patch": {"args": ["-port=80", "-v"]}}),
    ("patch", {**_CATALOGUE, "patch": {"probes": {"liveness": {"period": 7}}}}),
    ("patch", {**_CATALOGUE, "patch": {"probes": {"liveness": {"period": 3.0}}}}),
    ("set_resources", {**_CATALOGUE, "limits": {"memory": "400Mi"}}),
    ("set_resources", {**_CATALOGUE, "limits": {"memory": "200Mi"}}),
    ("scale", {**_CATALOGUE, "replicas": 2}),
    ("scale", {**_CATALOGUE, "replicas": 1}),
    ("kill_pod", {"namespace": "sock-shop", "pod": _POD}),
    ("patch", {**_CATALOGUE, "patch": {"probes": {"liveness": {"initial_delay": 0}}}}),
    ("patch", {**_CATALOGUE, "patch": {"probes": {"liveness": {"initial_delay": -0.0}}}}),  # == 0.0, another repr
    ("set_label", {**_CATALOGUE, "key": "name", "value": "catalogue"}),  # the value it has
    ("set_resources", {**_CATALOGUE, "requests": {"cpu": "100m"}}),  # the request it has
]
_SCALE_UP_AND_BACK = [("mutate", 10), ("mutate", 11)]  # same pods, next_ordinal one higher
_KILL = ("mutate", 12)
_ZERO_THEN_NEGATIVE_ZERO = [("mutate", 13), ("mutate", 14)]
_digest_steps = st.one_of(
    st.tuples(st.just("mutate"), st.integers(0, len(_DIGEST_MUTATIONS) - 1)),
    st.tuples(st.just("kubectl"), _writes),
    st.tuples(st.just("tick"), st.sampled_from([15.0, 90.0])),
)


def _take(shell: ShellGateway, step: tuple) -> None:
    kind, arg = step
    if kind == "mutate":
        try:
            mutate(shell.state, *_DIGEST_MUTATIONS[arg])
        except (NotFound, InvalidArgument):
            pass
    elif kind == "kubectl":
        shell.execute(arg)
    else:
        tick(shell.state, arg)


@settings(max_examples=120, deadline=None)
@given(paths=st.lists(st.lists(_digest_steps, max_size=6), min_size=2, max_size=4))
@example(paths=[_SCALE_UP_AND_BACK, []])
@example(paths=[[_KILL], [("tick", 15.0), _KILL]])  # the replacement pods differ only in start time
def test_digests_are_equal_exactly_when_the_json_documents_are(paths):
    states = []
    for path in paths:
        shell = _fresh_shell()
        for step in path:
            _take(shell, step)
        states.append(shell.state)
    for a in states:
        for b in states:
            same_document = _digest_document(a) == _digest_document(b)
            assert (state_digest(a) == state_digest(b)) == same_document


# -- the mutated flag against the double digest it replaced -------------------------

MUTATED_EXAMPLES = 100  # both together about 0.5 s


class _DoubleDigestShell(ShellGateway):
    """`execute` as it was: `mutated` is whether the digest before and after the command differ."""

    def execute(self, line: str) -> ExecutionResult:
        before = state_digest(self.state)
        try:
            stdout, stderr, exit_code = self._run_pipeline(line), "", 0
        except _CommandError as exc:
            stdout, stderr, exit_code = "", str(exc), exc.exit_code
        return ExecutionResult(stdout, stderr, exit_code, state_digest(self.state) != before, _duration_ms(line))


@settings(max_examples=MUTATED_EXAMPLES, deadline=None)
@given(lines=st.lists(st.one_of(_writes, _reads, _anything), min_size=1, max_size=3))
@example(lines=["kubectl scale deployment catalogue -n sock-shop --replicas=1"])  # the current count
@example(lines=["kubectl scale deployment catalogue -n sock-shop --replicas=3 | grep zz"])  # mutates, then fails
@example(lines=[  # -0.0 == 0.0, yet the digest takes the repr
    """kubectl patch deployment catalogue -n sock-shop -p '{"probes": {"liveness": {"initial_delay": 0}}}'""",
    """kubectl patch deployment catalogue -n sock-shop -p '{"probes": {"liveness": {"initial_delay": -0.0}}}'""",
])
def test_mutated_is_whether_the_digest_moved(lines):
    shell, oracle = _fresh_shell(), _DoubleDigestShell(clone(_base()), components=("catalogue", "front-end"))
    for line in lines:
        assert shell.execute(line) == oracle.execute(line), line
    assert state_digest(shell.state) == state_digest(oracle.state)


@settings(max_examples=MUTATED_EXAMPLES, deadline=None)
@given(steps=st.lists(_digest_steps, max_size=8))
@example(steps=_ZERO_THEN_NEGATIVE_ZERO)
@example(steps=[("mutate", 15), ("mutate", 16), ("mutate", 11)])  # set what is there, then scale to the count
def test_mutate_reports_whether_the_digest_moved(steps):
    """`mutate`'s report against the two digests it replaced, over drawn action sequences."""
    shell = _fresh_shell()
    for step in steps:
        before = state_digest(shell.state)
        if step[0] != "mutate":
            _take(shell, step)
            continue
        try:
            moved = mutate(shell.state, *_DIGEST_MUTATIONS[step[1]])
        except (NotFound, InvalidArgument):
            assert state_digest(shell.state) == before
        else:
            assert moved == (state_digest(shell.state) != before), step


@settings(max_examples=MUTATED_EXAMPLES, deadline=None)
@given(line=_reads)
def test_a_read_line_computes_no_digest(line):
    shell = _fresh_shell()
    with mock.patch.object(cluster, "state_digest", side_effect=AssertionError("digest computed")):
        result = shell.execute(line)
    assert not result.state_mutated
