"""Access to bundled fixture files (topologies, prompts, scripts)."""

from __future__ import annotations

import copy
import functools
import os
from typing import Any

import yaml

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_parsed: dict[str, Any] = {}  # parsed documents by file text


def fixture_path(*parts: str) -> str:
    return os.path.join(_FIXTURES, *parts)


@functools.cache  # bundled templates do not change while the process runs
def prompt_template(name: str) -> str:
    with open(fixture_path("prompts", f"{name}.txt")) as fh:
        return fh.read()


def load_yaml(path: str) -> Any:
    """Parse a YAML file, with libyaml when it is installed.

    The file is read on every call and each distinct text is parsed once
    per process; every caller gets its own deep copy. Raises OSError when the
    file cannot be read, and yaml.YAMLError with a one-line message naming
    the file when it does not parse; a failed parse is not cached.
    """
    with open(path) as fh:
        text = fh.read()
    if text not in _parsed:
        try:
            doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
            problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
            raise yaml.YAMLError(f"{path}: {where}{problem}") from None
        _parsed[text] = doc
    return copy.deepcopy(_parsed[text])
