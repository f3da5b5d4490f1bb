"""Property tests for the shell contract.

Whatever line an agent emits, `execute` returns a result and never raises;
exit code 0 goes with an empty stderr and a non-zero code with an
explanation on it; a failed command without a pipe changes nothing; and the
read verbs never change the configuration digest.
"""

from __future__ import annotations

import functools
import json
import shlex

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opslearn.cluster import clone, load_topology, state_digest, tick
from opslearn.resources import fixture_path
from opslearn.shell import ShellGateway

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
