"""Shell gateway: the command corpus, exact kubectl output layouts, pipes,
and the guarded write verbs."""

from __future__ import annotations

import json

import pytest

from opslearn.cluster import load_topology, state_digest, tick
from opslearn.resources import fixture_path
from opslearn.shell import ShellGateway


@pytest.fixture()
def gateway():
    state = load_topology(fixture_path("sock_shop.yaml"), seed=7)
    tick(state, 300.0)
    return ShellGateway(state, components=("catalogue", "front-end"))


def _corpus_lines() -> list[tuple[int, str]]:
    lines = []
    with open(fixture_path("command_corpus.txt"), encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.rstrip("\n")
            if not raw:
                continue
            code, _, command = raw.partition("\t")
            lines.append((int(code), command))
    return lines


def test_corpus_commands_match_recorded_exit_codes(gateway):
    lines = _corpus_lines()
    assert len(lines) == 19
    for expected_code, command in lines:
        result = gateway.execute(command)
        assert result.exit_code == expected_code, (command, result.stderr)
        # Success means clean stderr and something on stdout; failure the
        # reverse.  The gateway never mixes the two streams.
        if expected_code == 0:
            assert result.stderr == ""
            assert result.stdout
        else:
            assert result.stdout == ""
            assert 'invalid parameter "query"' in result.stderr


def test_corpus_reads_leave_state_alone(gateway):
    for _, command in _corpus_lines():
        assert gateway.execute(command).state_mutated is False


def test_describe_deployment_exact_output(gateway):
    result = gateway.execute("kubectl describe deployment catalogue -n sock-shop")
    assert result.exit_code == 0
    assert result.stdout == "\n".join(
        [
            "Name:                   catalogue",
            "Namespace:              sock-shop",
            "Labels:                 name=catalogue",
            "Selector:               name=catalogue",
            "Replicas:               1 desired | 1 updated | 1 total | 1 available | 0 unavailable",
            "Pod Template:",
            "  Labels:  name=catalogue",
            "  Containers:",
            "   catalogue:",
            "    Image:      weaveworksdemos/catalogue:0.3.5",
            "    Port:       80/TCP",
            "    Command:",
            "      /app",
            "    Args:",
            "      -port=80",
            "    Limits:",
            "      cpu:     200m",
            "      memory:  200Mi",
            "    Requests:",
            "      cpu:     100m",
            "      memory:  100Mi",
            "    Liveness:   http-get http://:80/health delay=10s timeout=1s period=3s #success=1 #failure=3",
            "    Readiness:  http-get http://:80/health delay=10s timeout=1s period=3s #success=1 #failure=3",
        ]
    )


def test_top_pod_exact_output(gateway):
    result = gateway.execute("kubectl top pod catalogue-5b877d88b4-g9tc4 -n sock-shop")
    assert result.exit_code == 0
    assert result.stdout == (
        "NAME                         CPU(cores)   MEMORY(bytes)\n"
        "catalogue-5b877d88b4-g9tc4   2m           9Mi"
    )


def test_get_deployments_all_namespaces(gateway):
    result = gateway.execute("kubectl get deployments --all-namespaces")
    lines = result.stdout.splitlines()
    assert lines[0] == "NAMESPACE     NAME             READY   UP-TO-DATE   AVAILABLE   AGE"
    assert "sock-shop     catalogue        1/1     1            1           5m" in lines
    assert any(line.startswith("kube-system") for line in lines)


def test_get_pods_scoped_to_namespace(gateway):
    result = gateway.execute("kubectl get pods -n sock-shop")
    lines = result.stdout.splitlines()
    assert lines[0] == "NAME                         READY   STATUS    RESTARTS   AGE"
    assert all("metrics-server" not in line for line in lines)
    assert any(line.startswith("catalogue-") for line in lines)
    assert any(line.startswith("front-end-") for line in lines)


_POD_HEADER = "NAME                         READY   STATUS    RESTARTS   AGE"


@pytest.mark.parametrize(
    "line, stdout",
    [
        (
            "kubectl get deployments -n sock-shop",
            "NAME        READY   UP-TO-DATE   AVAILABLE   AGE\n"
            "catalogue   1/1     1            1           5m\n"
            "front-end   1/1     1            1           5m",
        ),
        (
            "kubectl get deployment catalogue -n sock-shop",
            "NAME        READY   UP-TO-DATE   AVAILABLE   AGE\n"
            "catalogue   1/1     1            1           5m",
        ),
        (
            "kubectl get pods --all-namespaces",
            "NAMESPACE     NAME                              READY   STATUS    RESTARTS   AGE\n"
            "kube-system   metrics-server-7f8c9d5b6c-q8f2n   1/1     Running   0          5m\n"
            "sock-shop     catalogue-5b877d88b4-g9tc4        1/1     Running   0          5m\n"
            "sock-shop     front-end-6b8bb4c7d9-w4m82        1/1     Running   0          5m",
        ),
        (
            "kubectl get pod catalogue-5b877d88b4-g9tc4 -n sock-shop",
            _POD_HEADER + "\ncatalogue-5b877d88b4-g9tc4   1/1     Running   0          5m",
        ),
        ("kubectl get pods -n default", "No resources found."),
        (
            "kubectl top pods -n sock-shop",
            "NAME                         CPU(cores)   MEMORY(bytes)\n"
            "catalogue-5b877d88b4-g9tc4   2m           9Mi\n"
            "front-end-6b8bb4c7d9-w4m82   48m          122Mi",
        ),
        (
            "kubectl top pods --all-namespaces",
            "NAMESPACE     NAME                              CPU(cores)   MEMORY(bytes)\n"
            "kube-system   metrics-server-7f8c9d5b6c-q8f2n   2m           9Mi\n"
            "sock-shop     catalogue-5b877d88b4-g9tc4        2m           9Mi\n"
            "sock-shop     front-end-6b8bb4c7d9-w4m82        48m          122Mi",
        ),
    ],
)
def test_listing_exact_output(gateway, line, stdout):
    result = gateway.execute(line)
    assert (result.stdout, result.stderr, result.exit_code) == (stdout, "", 0)


_GHOST = 'Error from server (NotFound): deployments.apps "ghost" not found in namespace "sock-shop"'


@pytest.mark.parametrize(
    "line, stderr",
    [
        ("kubectl get pod ghost", 'Error from server (NotFound): pods "ghost" not found'),
        ("kubectl top pod ghost", 'Error from server (NotFound): pods "ghost" not found'),
        (
            "kubectl get deployment ghost -n sock-shop",
            'Error from server (NotFound): deployments.apps "ghost" not found',
        ),
        ("kubectl label deployment ghost -n sock-shop env=prod", _GHOST),
        ("kubectl scale deployment ghost -n sock-shop --replicas=2", _GHOST),
        ("kubectl set resources deployment ghost -n sock-shop --limits=cpu=1", _GHOST),
        ("kubectl patch deployment ghost -n sock-shop -p '{\"image\": \"x:1\"}'", _GHOST),
        (
            "kubectl label deployment catalogue -n sock-shop name=other",
            "error: 'name' already has a value (catalogue), and --overwrite is false",
        ),
        ("kubectl get pods -n", "error: flag needs an argument: -n"),
        ("kubectl scale deployment catalogue --replicas", "error: unknown flag: --replicas"),
        ("kubectl get pods -n=x", "error: unknown flag: -n=x"),
    ],
)
def test_listing_and_flag_errors_exact_output(gateway, line, stderr):
    result = gateway.execute(line)
    assert (result.stdout, result.stderr, result.exit_code) == ("", stderr, 1)


# One row per usage error an agent can get back: (command line, stdout, stderr, exit code).
_PROM_FAILED = 'error: prometheus query failed: invalid parameter "query": parse error at char 4: empty expression'
_USAGE_ERRORS = [
    ("kubectl scale deployment catalogue -n sock-shop", "", "error: --replicas is required", 1),
    ("kubectl scale pod catalogue --replicas=1", "", "error: scale takes: deployment NAME --replicas=K", 1),
    ("kubectl patch deployment catalogue -n sock-shop", "", "error: -p is required", 1),
    ("kubectl patch pod catalogue -p '{}'", "", "error: patch takes: deployment NAME -p '<json>'", 1),
    ("kubectl patch deployment catalogue -n sock-shop -p '{bad'", "",
     "error: cannot parse patch: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", 1),
    ("kubectl set resources deployment catalogue -n sock-shop", "",
     "error: at least one of --requests or --limits is required", 1),
    ("kubectl set image deployment catalogue", "", "error: set supports: resources deployment NAME", 1),
    ("kubectl label deployment catalogue -n sock-shop tier", "", "error: bad label spec 'tier'", 1),
    ("kubectl label deployment catalogue -n sock-shop =web", "", "error: bad label spec '=web'", 1),
    ("kubectl label deployment catalogue", "", "error: label takes: deployment NAME KEY=VALUE", 1),
    ("kubectl delete deployment catalogue -n sock-shop", "", "error: delete supports pods only", 1),
    ("kubectl describe deployment", "", "error: describe takes a resource type and a name", 1),
    ("kubectl get", "", "error: you must specify the type of resource to get", 1),
    ("kubectl get pods catalogue extra", "", 'error: unknown command "extra"', 1),
    ("kubectl top deployments", "", "error: top supports pods only", 1),
    ("kubectl top", "", "error: top supports pods only", 1),
    ("kubectl top pods -n sock-shop", "", "error: Metrics API not available", 1),
    ("kubectl", "", 'error: unknown command "kubectl"', 1),
    ("kubectl get pods 'open", "", "error: No closing quotation", 1),
    ("kubectl get pods -n sock-shop | grep a b", "", "error: grep takes exactly one pattern", 1),
    ("kubectl get pods -n sock-shop | grep 'a", "", "error: No closing quotation", 1),
    ("kubectl get pods -n sock-shop | sort", "", 'error: unknown command "sort"', 1),
    ("curl", "", "error: curl takes exactly one URL", 1),
    ("curl http://prometheus:9090/ http://prometheus:9090/", "", "error: curl takes exactly one URL", 1),
    ("curl ftp://prometheus/api", "", "curl: (3) URL rejected: ftp://prometheus/api", 3),
    ("report_result(component='catalogue', hello)", "", "error: cannot parse argument near ' hello'", 1),
    ("report_result(component='catalogue')", "", "error: report_result missing ['message', 'message_type']", 1),
    ("report_result(component='catalogue', message='hi', message_type='SHOUT')", "",
     "error: unknown message_type 'SHOUT'", 1),
    ("shout()", "", 'error: unknown command "shout"', 1),
    ("query_prometheus()", "", "error: query_prometheus needs promQL='...'", 1),
    ("query_prometheus(promQL='')", "", "error: query_prometheus needs promQL='...'", 1),
    ("query_prometheus(promQL='sum(')", "", _PROM_FAILED, 1),
]


@pytest.mark.parametrize("line, stdout, stderr, exit_code", _USAGE_ERRORS)
def test_usage_errors_exact_output(gateway, line, stdout, stderr, exit_code):
    """Each reply as an agent reads it. The state has no Metrics API, which only `top` asks for,
    after its usage check; no row changes the state."""
    gateway.state.metrics_available = False
    result = gateway.execute(line)
    assert (result.stdout, result.stderr, result.exit_code, result.state_mutated) == (stdout, stderr, exit_code, False)


def test_pipe_grep_filters_stdout(gateway):
    result = gateway.execute("kubectl get deployments --all-namespaces | grep catalogue")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "sock-shop     catalogue        1/1     1            1           5m"
    ]


def test_grep_without_match_exits_one(gateway):
    result = gateway.execute("kubectl get pods -n sock-shop | grep nosuchthing")
    assert result.exit_code == 1
    assert "matched no lines" in result.stderr


@pytest.mark.parametrize(
    "line",
    [
        "kubectl get pods && echo hi",
        "kubectl get pods || echo hi",
        "kubectl get pods; ls",
        "echo $HOME",
        "cat `whoami`",
        "kubectl get pods > /tmp/out",
        "kubectl get pods < /tmp/in",
        "kubectl get pods -n sock-shop | grep a | grep b",
    ],
)
def test_shell_constructs_are_rejected(line, gateway):
    result = gateway.execute(line)
    assert result.exit_code != 0
    assert result.stderr.startswith("error: unknown command")
    assert result.state_mutated is False


def test_unknown_verb_and_resource(gateway):
    assert 'unknown command "kubectl frobnicate"' in gateway.execute("kubectl frobnicate x").stderr
    assert "resource type \"nodes\"" in gateway.execute("kubectl get nodes").stderr


def test_scale_mutates_state(gateway):
    result = gateway.execute("kubectl scale deployment catalogue -n sock-shop --replicas=2")
    assert result.exit_code == 0
    assert result.stdout == "deployment.apps/catalogue scaled"
    assert result.state_mutated is True
    dep = gateway.state.find_deployment("sock-shop", "catalogue")
    assert len(dep.pods) == 2


def test_scale_rejects_bad_replicas(gateway):
    result = gateway.execute("kubectl scale deployment catalogue -n sock-shop --replicas=banana")
    assert result.exit_code == 1
    assert "error: replicas: invalid literal for int() with base 10: 'banana'" in result.stderr
    assert result.state_mutated is False


def test_set_resources_updates_limits(gateway):
    result = gateway.execute(
        "kubectl set resources deployment front-end -n sock-shop --limits=memory=400Mi"
    )
    assert result.stdout == "deployment.apps/front-end resource requirements updated"
    assert result.state_mutated is True
    dep = gateway.state.find_deployment("sock-shop", "front-end")
    assert dep.resources.mem_limit == 400 * 1024 * 1024


@pytest.mark.parametrize("spec, given", [("--requests=cpu=-5", "-5"), ("--limits=memory=-1Mi", "-1Mi")])
def test_set_resources_refuses_a_negative_quantity(gateway, spec, given):
    describe = "kubectl describe deployment catalogue -n sock-shop"
    before = gateway.execute(describe).stdout
    result = gateway.execute(f"kubectl set resources deployment catalogue -n sock-shop {spec}")
    where = spec[2:].rpartition("=")[0].replace("=", ".")  # --requests=cpu=-5 names requests.cpu
    assert result.stderr == f"error: {where}: '{given}' is negative"
    assert (result.exit_code, result.state_mutated) == (1, False)
    assert gateway.execute(describe).stdout == before


def test_label_updates_deployment(gateway):
    result = gateway.execute("kubectl label deployment front-end -n sock-shop env=prod")
    assert result.stdout == "deployment.apps/front-end labeled"
    assert gateway.state.find_deployment("sock-shop", "front-end").labels["env"] == "prod"


def test_patch_updates_probe_path(gateway):
    line = (
        "kubectl patch deployment catalogue -n sock-shop "
        "-p '{\"probes\":{\"liveness\":{\"http_path\":\"/healthz\"}}}'"
    )
    result = gateway.execute(line)
    assert result.stdout == "deployment.apps/catalogue patched"
    assert result.state_mutated is True
    dep = gateway.state.find_deployment("sock-shop", "catalogue")
    assert next(p for p in dep.probes if p.kind == "liveness").http_path == "/healthz"


def test_noop_patch_does_not_count_as_mutation(gateway):
    line = (
        "kubectl patch deployment catalogue -n sock-shop "
        "-p '{\"probes\":{\"liveness\":{\"http_path\":\"/health\"}}}'"
    )
    result = gateway.execute(line)
    assert result.exit_code == 0
    assert result.state_mutated is False


def test_scale_above_the_replica_bound_is_an_error_line(gateway):
    before = (state_digest(gateway.state), len(gateway.state.all_pods()))
    result = gateway.execute("kubectl scale deployment catalogue -n sock-shop --replicas=100000000")
    assert result.exit_code == 1
    assert result.stderr == "error: replicas: '100000000' is not in [0, 100]"
    assert result.state_mutated is False
    assert (state_digest(gateway.state), len(gateway.state.all_pods())) == before
    assert gateway.state.mutation_count == 0


@pytest.mark.parametrize(
    "liveness, message",
    [
        ('{"period": "abc"}', "error: patch.probes.liveness.period: could not convert string to float: 'abc'"),
        ('{"period": null}', "error: patch.probes.liveness.period: float() argument must be"),
        ('{"period": 1e400}', "error: patch.probes.liveness.period: inf is not finite"),
        ('{"initial_delay": -30}', "error: patch.probes.liveness.initial_delay: -30 is negative"),
    ],
    ids=["string", "null", "infinite", "negative"],
)
def test_patch_with_an_unconvertible_probe_value_is_an_error_line(gateway, liveness, message):
    line = f"kubectl patch deployment catalogue -n sock-shop -p '{{\"probes\": {{\"liveness\": {liveness}}}}}'"
    result = gateway.execute(line)
    assert result.exit_code == 1
    assert result.stderr.startswith(message)
    assert result.state_mutated is False
    # describe still renders every probe field
    assert gateway.execute("kubectl describe deployment catalogue -n sock-shop").exit_code == 0


def test_patch_nested_too_deeply_is_an_error_line(gateway):
    before = state_digest(gateway.state)
    depth = 100_000
    result = gateway.execute(f"kubectl patch deployment catalogue -n sock-shop -p '{'[' * depth}{']' * depth}'")
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "error: cannot parse patch: nests too deeply"
    assert result.state_mutated is False
    assert state_digest(gateway.state) == before


def test_rejected_patch_changes_nothing(gateway):
    dep = gateway.state.find_deployment("sock-shop", "catalogue")
    image = dep.image
    line = (
        "kubectl patch deployment catalogue -n sock-shop "
        "-p '{\"image\": \"evil:1\", \"probes\": {\"liveness\": {\"timeout\": 99}}}'"
    )
    result = gateway.execute(line)
    assert result.exit_code == 1
    assert result.stderr == "error: patch.probes.liveness.timeout: timeout must be below period"
    assert result.state_mutated is False
    assert dep.image == image
    assert next(p for p in dep.probes if p.kind == "liveness").timeout == 1.0
    assert gateway.state.mutation_count == 0


def test_delete_pod_respawns_replacement(gateway):
    result = gateway.execute("kubectl delete pod catalogue-5b877d88b4-g9tc4 -n sock-shop")
    assert result.stdout == 'pod "catalogue-5b877d88b4-g9tc4" deleted'
    assert result.state_mutated is True
    pods = gateway.state.find_deployment("sock-shop", "catalogue").pods
    assert len(pods) == 1
    assert pods[0].name != "catalogue-5b877d88b4-g9tc4"


def test_unknown_namespace_reported(gateway):
    result = gateway.execute("kubectl get pods -n shadow")
    assert result.exit_code == 1
    assert 'namespaces "shadow" not found' in result.stderr


def test_report_result_routes_to_known_components(gateway):
    ok = gateway.execute("report_result(component='catalogue', message='hi', message_type='RESPONSE')")
    assert ok.exit_code == 0
    assert ok.stdout == "message delivered to manager from 'catalogue' (RESPONSE)"
    trailing = gateway.execute("report_result(component='catalogue', message='hi', message_type='RESPONSE', )")
    assert (trailing.stdout, trailing.stderr, trailing.exit_code) == (ok.stdout, ok.stderr, 0)  # as without ", "
    bad = gateway.execute("report_result(component='ghost', message='hi', message_type='RESPONSE')")
    assert bad.exit_code == 1
    assert "unknown component 'ghost'" in bad.stderr


def test_query_prometheus_accepts_both_kwarg_spellings(gateway):
    for line in [
        "query_prometheus(promQL='sum by (job)(rate(http_requests_total[5m]))')",
        "query_prometheus(promql='sum by (job)(rate(http_requests_total[5m]))')",
    ]:
        result = gateway.execute(line)
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["status"] == "success"
        jobs = {row["metric"]["job"] for row in doc["data"]["result"]}
        assert "sock-shop/front-end" in jobs


def test_curl_raw_braces_fail_with_query_error(gateway):
    raw = (
        "curl http://prometheus:9090/api/v1/query?"
        'query=rate(process_cpu_seconds_total{job="sock-shop/catalogue"}[5m])'
    )
    result = gateway.execute(raw)
    assert result.exit_code == 22
    assert result.stderr.startswith("curl: (22)")
    assert 'invalid parameter "query"' in result.stderr

    encoded = (
        "curl http://prometheus:9090/api/v1/query?"
        "query=rate(process_cpu_seconds_total%7Bjob=%22sock-shop/catalogue%22%7D%5B5m%5D)"
    )
    fixed = gateway.execute(encoded)
    assert fixed.exit_code == 0
    assert json.loads(fixed.stdout)["status"] == "success"


def test_curl_label_values(gateway):
    result = gateway.execute("curl http://prometheus:9090/api/v1/label/job/values")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["data"] == ["sock-shop/catalogue", "sock-shop/front-end"]
