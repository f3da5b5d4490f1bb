"""The live gateway on the standard library. Every way one call can fail ends the trial
as a truncation (exit 2, reason `live: …`) that keeps the history, the library and the
report; and the package neither needs `requests` nor loads a network module on import."""

from __future__ import annotations

import ast
import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import opslearn
from opslearn.cli import main
from opslearn.datalayer import History
from opslearn.runner import TrialConfig, run_trial

ARTIFACTS = ("history.log", "library.json", "library.md", "report.json")
SRC = Path(opslearn.__file__).parent
TESTS = Path(__file__).parent


def _reply(content=None, **usage) -> bytes:
    message = {"role": "assistant"} if content is None else {"role": "assistant", "content": content}
    return json.dumps({"id": "x", "model": "m", "choices": [{"message": message}], "usage": usage}).encode()


class _StubHandler(BaseHTTPRequestHandler):
    """Answers every POST with `status` and `body`, under a Content-Length of `length` when one is set."""

    status = 200
    body = b""
    length = None

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body) if self.length is None else self.length))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _endpoint(status, body, length=None):
    """The URL of a stub answering as told; a `status` of None gives a port that refuses."""
    if status is None:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        yield f"http://127.0.0.1:{port}/v1/chat/completions"
        return
    handler = type("Handler", (_StubHandler,), {"status": status, "body": body, "length": length})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def _live_config(tmp_path, endpoint):
    config = tmp_path / "live.yaml"
    config.write_text(f"endpoint: {endpoint}\n")
    return str(config)


@pytest.mark.parametrize(
    "status, body, length, fragment",
    [
        (None, b"", None, "Connection refused"),
        (500, b'{"error": "boom"}', None, "HTTP Error 500"),
        (429, b'{"error": "slow down"}', None, "HTTP Error 429"),
        (200, b"<html>busy</html>", None, "JSONDecodeError"),
        (200, b"[" * 100_000 + b"]" * 100_000, None, "RecursionError"),
        (200, _reply("hi"), len(_reply("hi")) + 100, "IncompleteRead"),
        (200, b"{}", None, "no text at choices[0].message.content"),
        (200, _reply(), None, "no text at choices[0].message.content"),
        (200, _reply(["hi"]), None, "no text at choices[0].message.content"),
        (200, json.dumps({"choices": [{"message": {"content": "hi"}}], "usage": "lots"}).encode(), None,
         "a usage that is no mapping"),
        (200, _reply("hi", prompt_tokens="12"), None, "usage counts ('12', 1)"),
        (200, _reply("hi", prompt_tokens=10, completion_tokens=-1), None, "usage counts (10, -1)"),
        (200, _reply("hi", prompt_tokens=True), None, "usage counts (True, 1)"),
        (200, _reply("hi", prompt_tokens=10**400), None, "usage counts (1000"),
    ],
    ids=[
        "refused", "500", "429", "not-json", "nested-100000-deep", "short-body", "empty-object",
        "no-content", "list-content", "usage-not-a-mapping", "usage-text-count", "usage-negative-count",
        "usage-bool-count", "usage-count-beyond-a-float",
    ],
)
def test_a_failed_live_call_truncates_the_trial_and_keeps_its_evidence(tmp_path, status, body, length, fragment):
    out_dir = tmp_path / "out"
    with _endpoint(status, body, length) as endpoint:
        config = TrialConfig(seed=7, llm="live", llm_config=_live_config(tmp_path, endpoint), out_dir=str(out_dir))
        result = run_trial(config)
    reason = result.report["truncation_reason"]
    assert result.exit_code == 2
    assert reason.startswith("live: ") and fragment in reason and "\n" not in reason
    for name in ARTIFACTS:
        assert (out_dir / name).exists(), f"{name} missing"
    assert json.loads((out_dir / "report.json").read_text())["truncation_reason"] == reason
    assert result.report["usage"]["calls"] == 0
    last = History.load(str(out_dir / "history.log")).records[-1]
    assert (last.actor, last.payload_kind) == ("curriculum", "prompt")  # the call that got no answer


def test_usage_counts_left_out_or_null_are_estimated(tmp_path):
    with _endpoint(200, json.dumps({"choices": [{"message": {"content": "hi"}}], "usage": None}).encode()) as url:
        config = TrialConfig(seed=7, llm="live", rounds=1, llm_config=_live_config(tmp_path, url), out_dir=str(tmp_path))
        result = run_trial(config)
    # "hi" never parses as a round, so the curriculum asks three times and each call is metered
    assert result.report["truncation_reason"] == "round-generation: round 1: no usable completion after 2 re-asks"
    assert result.report["usage"]["calls"] == 3
    assert result.report["usage"]["completion_tokens"] == 3  # estimate_tokens("hi") is 1


def test_a_refused_live_call_exits_2_from_the_cli(tmp_path, capsys):
    with _endpoint(None, b"") as endpoint:
        code = main(
            ["run", "--seed", "7", "--llm", "live", "--llm-config", _live_config(tmp_path, endpoint),
             "--out-dir", str(tmp_path / "out")]
        )
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    assert "truncated=True" in out
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), f"{name} missing"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(TESTS)])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


def test_criterion_9_runs_where_requests_cannot_be_imported(tmp_path):
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "sys.modules['requests'] = None  # any `import requests` now raises ImportError\n"
        "from test_acceptance import test_criterion_9_budget_guard\n"
        "test_criterion_9_budget_guard(Path(sys.argv[1]))\n"
    )
    child = _python(code, str(tmp_path))
    assert child.returncode == 0, child.stderr
    assert "criterion 9: PASS" in child.stdout


def test_importing_the_cli_loads_no_network_module():
    child = _python("import sys, opslearn.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_pyyaml_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["pyyaml>=6.0"]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name.split(".")[0] == "requests" for name in imported), path.name
