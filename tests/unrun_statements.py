"""List the statements in `src/` function bodies that the test suite never runs.

Run it from the repository root as

    PYTHONPATH=src python tests/unrun_statements.py [pytest arguments]

With no arguments it runs the whole suite (the `testpaths` of pyproject.toml)
in this process, with Hypothesis seeded at 0 so that two runs draw the same
examples, under a standard-library line tracer. Then it prints each
statement of a function body in `src/` that no test ran, as `file:line` and
its first source line, then their total, and exits with pytest's status.
The tracer is installed again at each test phase, because Hypothesis may
replace it. Two things it cannot see: code that runs in a child process
(the CLI tests that start one), and the rest of a test after a
RecursionError, which switches tracing off.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from types import CodeType

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")

_ran: dict[str, set[int]] = {}  # real path of each source file -> the lines a test ran
_by_name: dict[str, set[int] | None] = {}  # co_filename -> its entry of `_ran`, or None outside `src/`


def _local(frame, event, arg):
    if event == "line":
        _by_name[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _by_name:
        _by_name[name] = _ran.get(os.path.realpath(name))
    return _local if _by_name[name] is not None else None


class _Reinstall:
    """Installs the tracer again before each phase of each test."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_global)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_global)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        sys.settrace(_global)
        yield


def _code_lines(code: CodeType) -> set[int]:
    """The lines that have bytecode in `code` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a statement nested in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def _body_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function body, nested ones included."""
    found: dict[int, ast.stmt] = {}
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in function.body:
                for inner in ast.walk(node):
                    if isinstance(inner, ast.stmt):
                        found[id(inner)] = inner
    return sorted(found.values(), key=lambda node: node.lineno)


def unrun(path: str) -> list[tuple[int, str]]:
    """`(line, source text)` of each function-body statement of `path` with bytecode that never ran."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    text = source.splitlines()
    compiled = _code_lines(compile(source, path, "exec"))
    ran = _ran[path]
    missed = []
    for node in _body_statements(ast.parse(source, path)):
        own = set(_own_lines(node)) & compiled
        if own and not own & ran:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return missed


def main(args: list[str]) -> int:
    for folder, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                _ran[os.path.realpath(os.path.join(folder, name))] = set()
    os.chdir(ROOT)
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--hypothesis-seed=0", *args],
                             plugins=[_Reinstall()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(_ran):
        for line, text in unrun(path):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements in src/ function bodies never ran (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
