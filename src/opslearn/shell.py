"""Interpreter for the command lines management agents emit.

Three syntactic families share one entry point:

    kubectl <verb> ...            cluster reads and writes
    curl '<url>'                  the metrics HTTP surface
    name(kw='...', ...)           agent primitives (report_result,
                                  query_prometheus)

plus a single optional `| grep PATTERN` stage on any of them. There is
no general shell underneath: variables, globbing, `&&`, redirection and
multi-stage pipes are all rejected with an unknown-command error, which
is itself useful environment feedback for a learning agent.

Every execution returns an ExecutionResult obeying one contract the
rest of the system leans on: exit_code 0 if and only if stderr is
empty. Failures always explain themselves on stderr.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import shlex
from dataclasses import dataclass
from . import cluster as cl
from . import httpapi
from .datalayer import History

REPORT_MESSAGE_TYPES = ("RESPONSE", "INFO", "ERROR")

_FORBIDDEN_CONSTRUCTS = ("&&", "||", ";", "$", "`", ">", "<")


@dataclass
class ExecutionResult:
    stdout: str
    stderr: str
    exit_code: int
    state_mutated: bool
    duration_ms: int


class _CommandError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _unknown(what: str) -> _CommandError:
    return _CommandError(f'error: unknown command "{what}"')


def _error_detail(body: str) -> str:
    """Unwrap the `error` field of a JSON error body so callers see the
    message as written instead of its JSON-escaped form."""
    try:
        doc = json.loads(body)
    except ValueError:
        return body
    if isinstance(doc, dict) and doc.get("error"):
        return str(doc["error"])
    return body


def _columns(rows: list[list[str]]) -> str:
    """Left-justified columns, three spaces of gutter, no trailing pad."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i] + 3) for i, cell in enumerate(row[:-1])]
        lines.append("".join(cells) + row[-1])
    return "\n".join(lines)


# A quoted span runs to its closing quote, or to the end of the line when
# it has none; outside quotes each regex picks out what its scanner wants.
_QUOTED = r"""'[^']*'?|"[^"]*"?"""
_CONSTRUCT_RE = re.compile(f"{_QUOTED}|({'|'.join(map(re.escape, _FORBIDDEN_CONSTRUCTS))})")
_STAGE_RE = re.compile(f"""(?:{_QUOTED}|[^'"|])*""")


def _construct_outside_quotes(line: str) -> str | None:
    """The first forbidden construct that stands outside quotes, else None."""
    for m in _CONSTRUCT_RE.finditer(line):
        if m.group(1):
            return m.group(1)
    return None


def _split_pipes_outside_quotes(line: str) -> list[str]:
    """`line` cut at each `|` that stands outside quotes."""
    stages = []
    pos = 0
    while pos <= len(line):
        stage = _STAGE_RE.match(line, pos).group()
        stages.append(stage)
        pos += len(stage) + 1
    return stages


_PLAIN_WORD_RE = re.compile(r"[^ \t\r\n]+")  # shlex's blanks are exactly these four


def _split_words(text: str) -> list[str]:
    """`shlex.split(text)`; a line with no quote or backslash, the common
    case, is split by one regex instead of shlex's character loop, and
    each other line goes through that loop once."""
    if "'" in text or '"' in text or "\\" in text:
        return list(_shlex_words(text))
    return _PLAIN_WORD_RE.findall(text)


@functools.lru_cache(maxsize=256)  # pure, and a validation or a replay runs the same lines again
def _shlex_words(text: str) -> tuple[str, ...]:
    return tuple(shlex.split(text))


_CALL_RE = re.compile(r"^\s*(\w+)\((.*)\)\s*$", re.S)
_KWARG_RE = re.compile(r"\s*(\w+)\s*=\s*'((?:[^'\\]|\\.)*)'\s*(?:,|$)")


def _parse_call(text: str) -> tuple[str, dict[str, str]] | None:
    m = _CALL_RE.match(text)
    if m is None:
        return None
    kwargs: dict[str, str] = {}
    body = m.group(2)
    pos = 0
    while pos < len(body):
        km = _KWARG_RE.match(body, pos)
        if km is None:
            if body[pos:].strip() == "":
                break
            raise _CommandError(f"error: cannot parse argument near {body[pos:pos + 20]!r}")
        kwargs[km.group(1)] = km.group(2).replace("\\'", "'")
        pos = km.end()
    return m.group(1), kwargs


def _duration_ms(line: str) -> int:
    return 20 + int.from_bytes(hashlib.sha256(line.encode()).digest()[:2], "big") % 80


# ---------------------------------------------------------------------------
# kubectl grammar

# The flags, each mapped to the key it sets: on/off switches, `--flag=value`
# flags and `--flag value` flags.
_SWITCHES = {"--all-namespaces": "all_namespaces", "--overwrite": "overwrite"}
_VALUED = {"--namespace": "namespace", "--replicas": "replicas", "--requests": "requests", "--limits": "limits",
           "--patch": "patch"}
_SPACED = {"-n": "namespace", "--namespace": "namespace", "-p": "patch", "--patch": "patch"}

# The resource words, each mapped to the resource it names in kubectl's replies.
_DEPLOYMENTS = "deployments.apps"
_PODS = "pods"
_RESOURCES = {"deployment": _DEPLOYMENTS, "deployments": _DEPLOYMENTS, "pod": _PODS, "pods": _PODS}


def _parse_flags(tokens: list[str]) -> tuple[list[str], dict]:
    positionals: list[str] = []
    flags: dict = {}
    words = iter(tokens)
    for t in words:
        flag, eq, value = t.partition("=")
        if t in _SWITCHES:
            flags[_SWITCHES[t]] = True
        elif t in _SPACED:
            argument = next(words, None)
            if argument is None:
                raise _CommandError(f"error: flag needs an argument: {t}")
            flags[_SPACED[t]] = argument
        elif eq and flag in _VALUED:
            flags[_VALUED[flag]] = value
        elif t.startswith("-"):
            raise _CommandError(f"error: unknown flag: {t}")
        else:
            positionals.append(t)
    return positionals, flags


def _not_found(kind: str, name: str) -> _CommandError:
    return _CommandError(f'Error from server (NotFound): {kind} "{name}" not found')


def _parse_quantities(text: str) -> dict[str, str]:
    """`cpu=100m,memory=1Gi` as a mapping; the cluster checks the keys and the quantities."""
    return dict(part.partition("=")[::2] for part in text.split(","))


class ShellGateway:
    """Executes one command line against a cluster state.

    `components` names the agent identities report_result may address;
    every accepted report goes into `history`, when given, as `[TYPE] message`.
    """

    def __init__(self, state: cl.ClusterState, components: tuple[str, ...] = (), history: History | None = None):
        self.state = state
        self.components = tuple(components)
        self.history = history

    # -- entry point --------------------------------------------------------

    def execute(self, line: str) -> ExecutionResult:
        self._mutated = False  # only `cluster.mutate` changes a state, and it says when the digest moved
        try:
            stdout = self._run_pipeline(line)
            stderr = ""
            exit_code = 0
        except _CommandError as exc:
            stdout = ""
            stderr = str(exc)
            exit_code = exc.exit_code
        return ExecutionResult(stdout, stderr, exit_code, self._mutated, _duration_ms(line))

    def _run_pipeline(self, line: str) -> str:
        construct = _construct_outside_quotes(line)
        if construct is not None:
            raise _unknown(construct)
        stages = _split_pipes_outside_quotes(line)
        if len(stages) > 2:
            raise _unknown("|")
        stdout = self._run_stage(stages[0].strip())
        if len(stages) == 2:
            stdout = self._run_grep(stages[1].strip(), stdout)
        return stdout

    def _run_stage(self, stage: str) -> str:
        if not stage:
            raise _unknown("")
        call = _parse_call(stage)
        if call is not None:
            name, kwargs = call
            if name not in self._PRIMITIVES:
                raise _unknown(name)
            return self._PRIMITIVES[name](self, kwargs)
        try:
            tokens = _split_words(stage)
        except ValueError as exc:
            raise _CommandError(f"error: {exc}")
        if not tokens:
            raise _unknown(stage)
        if tokens[0] not in self._PROGRAMS:
            raise _unknown(tokens[0])
        return self._PROGRAMS[tokens[0]](self, tokens[1:])

    def _run_grep(self, stage: str, upstream: str) -> str:
        try:
            tokens = _split_words(stage)
        except ValueError as exc:
            raise _CommandError(f"error: {exc}")
        if not tokens or tokens[0] != "grep":
            raise _unknown(tokens[0] if tokens else stage)
        if len(tokens) != 2:
            raise _CommandError("error: grep takes exactly one pattern")
        pattern = tokens[1]
        matched = [ln for ln in upstream.splitlines() if pattern in ln]
        if not matched:
            raise _CommandError(f'grep: pattern "{pattern}" matched no lines')
        return "\n".join(matched)

    # -- agent primitives ----------------------------------------------------

    def _report_result(self, kwargs: dict[str, str]) -> str:
        missing = {"component", "message", "message_type"} - set(kwargs)
        if missing:
            raise _CommandError(f"error: report_result missing {sorted(missing)}")
        component = kwargs["component"]
        message_type = kwargs["message_type"]
        if component not in self.components:
            raise _CommandError(f"error: unknown component '{component}'")
        if message_type not in REPORT_MESSAGE_TYPES:
            raise _CommandError(f"error: unknown message_type '{message_type}'")
        if self.history is not None:
            self.history.add(component, f"[{message_type}] {kwargs['message']}", "report")
        return f"message delivered to manager from '{component}' ({message_type})"

    def _query_prometheus(self, kwargs: dict[str, str]) -> str:
        # duration/step are accepted for interface compatibility and
        # ignored: evaluation is instant at the current simulation time.
        expr = kwargs.get("promQL") or kwargs.get("promql")
        if not expr:
            raise _CommandError("error: query_prometheus needs promQL='...'")
        response = httpapi.handle_request(
            self.state.metrics, httpapi.encode_query(expr), self.state.sim_time
        )
        if not response.ok:
            raise _CommandError(f"error: prometheus query failed: {_error_detail(response.body)}")
        return response.body

    # -- curl -----------------------------------------------------------------

    def _curl(self, tokens: list[str]) -> str:
        if len(tokens) != 1:
            raise _CommandError("error: curl takes exactly one URL")
        url = tokens[0]
        m = re.match(r"^https?://[^/]+(/.*)?$", url)
        if m is None:
            raise _CommandError(f"curl: (3) URL rejected: {url}", exit_code=3)
        path_and_query = m.group(1) or "/"
        response = httpapi.handle_request(self.state.metrics, path_and_query, self.state.sim_time)
        if not response.ok:
            raise _CommandError(
                "curl: (22) The requested URL returned error: "
                f"{response.status_code}: {_error_detail(response.body)}",
                exit_code=22,
            )
        return response.body

    # -- kubectl --------------------------------------------------------------

    def _kubectl(self, tokens: list[str]) -> str:
        if not tokens:
            raise _unknown("kubectl")
        positionals, flags = _parse_flags(tokens[1:])
        if tokens[0] not in self._VERBS:
            raise _unknown(f"kubectl {tokens[0]}")
        return self._VERBS[tokens[0]](self, positionals, flags)

    def _namespace(self, flags: dict) -> str:
        ns = flags.get("namespace", "default")
        if ns not in self.state.namespaces:
            raise _not_found("namespaces", ns)
        return ns

    def _cluster(self, call, *args):
        """`call(self.state, *args)`, a cluster NotFound or InvalidArgument worded as kubectl's error."""
        try:
            return call(self.state, *args)
        except cl.NotFound as exc:
            raise _CommandError(f"Error from server (NotFound): {exc}") from None
        except cl.InvalidArgument as exc:
            raise _CommandError(f"error: {exc}") from None

    def _mutate(self, action: str, args: dict) -> None:
        self._mutated = self._cluster(cl.mutate, action, args)

    def _list(self, kind: str, items: list, name: str | None, flags: dict, header: list[str], row) -> str:
        """kubectl's table of `items` (in display order): those of one namespace,
        or of all with a NAMESPACE column, and only `name` when one is given."""
        all_ns = flags.get("all_namespaces")
        if not all_ns:
            ns = self._namespace(flags)
            items = [item for item in items if item.namespace == ns]
        if name is not None:
            items = [item for item in items if item.name == name]
            if not items:
                raise _not_found(kind, name)
        if not items:
            return "No resources found."
        if all_ns:
            return _columns([["NAMESPACE", *header]] + [[item.namespace, *row(item)] for item in items])
        return _columns([header] + [row(item) for item in items])

    # get

    def _get(self, positionals: list[str], flags: dict) -> str:
        if not positionals:
            raise _CommandError("error: you must specify the type of resource to get")
        if len(positionals) > 2:
            raise _unknown(" ".join(positionals[2:]))
        kind = _RESOURCES.get(positionals[0])
        if kind is None:
            raise _CommandError(f'error: the server doesn\'t have a resource type "{positionals[0]}"')
        name = positionals[1] if len(positionals) > 1 else None
        if kind == _DEPLOYMENTS:
            header = ["NAME", "READY", "UP-TO-DATE", "AVAILABLE", "AGE"]
            return self._list(kind, self.state.deployments, name, flags, header, self._deployment_row)
        header = ["NAME", "READY", "STATUS", "RESTARTS", "AGE"]
        return self._list(kind, self.state.all_pods(), name, flags, header, self._pod_row)

    def _deployment_row(self, dep: cl.Deployment) -> list[str]:
        ready = len(dep.pods)
        age = cl.format_age(self.state.sim_time)
        return [dep.name, f"{ready}/{dep.replicas}", str(dep.replicas), str(ready), age]

    def _pod_row(self, pod: cl.Pod) -> list[str]:
        return [pod.name, "1/1", "Running", "0", cl.format_age(self.state.sim_time - pod.start_time)]

    # describe

    def _describe(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 2:
            raise _CommandError("error: describe takes a resource type and a name")
        word, name = positionals
        ns = self._namespace(flags)
        kind = _RESOURCES.get(word)
        if kind is None:
            raise _CommandError(f'error: the server doesn\'t have a resource type "{word}"')
        if kind == _DEPLOYMENTS:
            found, describe = self.state.find_deployment(ns, name), self._describe_deployment
        else:
            found, describe = self.state.find_pod(ns, name), self._describe_pod
        if found is None:
            raise _not_found(kind, name)
        return describe(found)

    def _container_section(self, dep: cl.Deployment) -> list[str]:
        res = dep.resources
        lines = [
            f"   {dep.name}:",
            f"    Image:      {dep.image}",
            f"    Port:       {dep.port}/TCP",
        ]
        if dep.command:
            lines.append("    Command:")
            lines.append(f"      {dep.command}")
        if dep.args:
            lines.append("    Args:")
            lines.extend(f"      {arg}" for arg in dep.args)
        lines.append("    Limits:")
        lines.append(f"      cpu:     {cl.format_cpu(res.cpu_limit)}")
        lines.append(f"      memory:  {cl.format_mem(res.mem_limit)}")
        lines.append("    Requests:")
        lines.append(f"      cpu:     {cl.format_cpu(res.cpu_request)}")
        lines.append(f"      memory:  {cl.format_mem(res.mem_request)}")
        for probe in dep.probes:
            label = "Liveness" if probe.kind == "liveness" else "Readiness"
            lines.append(
                f"    {label}:{' ' * (12 - len(label) - 1)}"
                f"http-get http://:{dep.port}{probe.http_path} "
                f"delay={_fmt_secs(probe.initial_delay)} timeout={_fmt_secs(probe.timeout)} "
                f"period={_fmt_secs(probe.period)} "
                f"#success={probe.success_threshold} #failure={probe.failure_threshold}"
            )
        return lines

    def _describe_deployment(self, dep: cl.Deployment) -> str:
        ready = len(dep.pods)
        labels = ",".join(f"{k}={v}" for k, v in sorted(dep.labels.items())) or "<none>"
        lines = [
            f"Name:                   {dep.name}",
            f"Namespace:              {dep.namespace}",
            f"Labels:                 {labels}",
            f"Selector:               {labels}",
            f"Replicas:               {dep.replicas} desired | {dep.replicas} updated | "
            f"{ready} total | {ready} available | {dep.replicas - ready} unavailable",
            "Pod Template:",
            f"  Labels:  {labels}",
            "  Containers:",
        ]
        lines.extend(self._container_section(dep))
        return "\n".join(lines)

    def _describe_pod(self, found: tuple[cl.Deployment, cl.Pod]) -> str:
        dep, pod = found
        labels = {**dep.labels, "pod-template-hash": dep.pod_template_hash}
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        lines = [
            f"Name:             {pod.name}",
            f"Namespace:        {pod.namespace}",
            "Status:           Running",
            f"Controlled By:    Deployment/{pod.deployment}",
            f"Labels:           {label_text}",
            "Containers:",
        ]
        lines.extend(self._container_section(dep))
        return "\n".join(lines)

    # top

    def _top(self, positionals: list[str], flags: dict) -> str:
        if not positionals or _RESOURCES.get(positionals[0]) != _PODS:
            raise _CommandError("error: top supports pods only")
        if not self.state.metrics_available:
            raise _CommandError("error: Metrics API not available")
        name = positionals[1] if len(positionals) > 1 else None
        header = ["NAME", "CPU(cores)", "MEMORY(bytes)"]
        return self._list(_PODS, self.state.all_pods(), name, flags, header, self._top_row)

    def _top_row(self, pod: cl.Pod) -> list[str]:
        dep = self.state.find_deployment(pod.namespace, pod.deployment)
        return [pod.name, f"{dep.usage_cpu}m", cl.format_mem_mi(dep.usage_mem)]

    # write verbs

    def _scale(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 2 or _RESOURCES.get(positionals[0]) != _DEPLOYMENTS:
            raise _CommandError("error: scale takes: deployment NAME --replicas=K")
        if "replicas" not in flags:
            raise _CommandError("error: --replicas is required")
        ns = self._namespace(flags)
        name = positionals[1]
        self._mutate("scale", {"namespace": ns, "name": name, "replicas": flags["replicas"]})
        return f"deployment.apps/{name} scaled"

    def _set(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 3 or positionals[0] != "resources" or _RESOURCES.get(positionals[1]) != _DEPLOYMENTS:
            raise _CommandError("error: set supports: resources deployment NAME")
        if "requests" not in flags and "limits" not in flags:
            raise _CommandError("error: at least one of --requests or --limits is required")
        ns = self._namespace(flags)
        name = positionals[2]
        args: dict = {"namespace": ns, "name": name}
        for key in ("requests", "limits"):
            if key in flags:
                args[key] = _parse_quantities(flags[key])
        self._mutate("set_resources", args)
        return f"deployment.apps/{name} resource requirements updated"

    def _label(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 3 or _RESOURCES.get(positionals[0]) != _DEPLOYMENTS:
            raise _CommandError("error: label takes: deployment NAME KEY=VALUE")
        name = positionals[1]
        key, eq, value = positionals[2].partition("=")
        if not eq or not key:
            raise _CommandError(f"error: bad label spec {positionals[2]!r}")
        target = {"namespace": self._namespace(flags), "name": name}
        labels = self._cluster(cl.target_deployment, target).labels
        if key in labels and not flags.get("overwrite"):
            raise _CommandError(f"error: '{key}' already has a value ({labels[key]}), and --overwrite is false")
        self._mutate("set_label", {**target, "key": key, "value": value})
        return f"deployment.apps/{name} labeled"

    def _patch(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 2 or _RESOURCES.get(positionals[0]) != _DEPLOYMENTS:
            raise _CommandError("error: patch takes: deployment NAME -p '<json>'")
        if "patch" not in flags:
            raise _CommandError("error: -p is required")
        try:
            patch = json.loads(flags["patch"])
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise _CommandError(f"error: cannot parse patch: {exc}") from None
        except RecursionError:  # its message depends on how deep the caller's stack already was
            raise _CommandError("error: cannot parse patch: nests too deeply") from None
        ns = self._namespace(flags)
        name = positionals[1]
        self._mutate("patch", {"namespace": ns, "name": name, "patch": patch})
        return f"deployment.apps/{name} patched"

    def _delete(self, positionals: list[str], flags: dict) -> str:
        if len(positionals) != 2 or _RESOURCES.get(positionals[0]) != _PODS:
            raise _CommandError("error: delete supports pods only")
        ns = self._namespace(flags)
        name = positionals[1]
        self._mutate("kill_pod", {"namespace": ns, "pod": name})
        return f'pod "{name}" deleted'

    # What a stage may run: the two programs, the agent primitives, and kubectl's verbs.
    _PROGRAMS = {"kubectl": _kubectl, "curl": _curl}
    _PRIMITIVES = {"report_result": _report_result, "query_prometheus": _query_prometheus}
    _VERBS = {"get": _get, "describe": _describe, "top": _top, "scale": _scale, "set": _set, "label": _label,
              "patch": _patch, "delete": _delete}


def _fmt_secs(value: float) -> str:
    return f"{int(value)}s" if value == int(value) else f"{value}s"
