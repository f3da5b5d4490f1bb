"""Reading input: bundled fixture files (topologies, prompts, scripts), the one reader
of every input file, the schemas it reads them through, and the numbers read from them."""

from __future__ import annotations

import copy
import functools
import json
import math
import os
import re
import reprlib
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

import yaml

try:  # the regex parser moved in Python 3.11
    from re import _parser as _sre
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre  # type: ignore[no-redef]

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_shared: dict[tuple[Callable | None, str], Any] = {}  # each shared build by (build, file text)
# libyaml's C composer recurses once per level and crashes the process some
# 25,000 levels down; the bundled files nest at most 9 levels deep.
MAX_DEPTH = 64
_DEPTH_STEPS = {
    yaml.SequenceStartEvent: 1, yaml.MappingStartEvent: 1, yaml.SequenceEndEvent: -1, yaml.MappingEndEvent: -1
}

T = TypeVar("T")


class ConfigurationError(Exception):
    """Unusable input: a flag, an input file or a gateway setting (CLI exit 1)."""


def fixture_path(*parts: str) -> str:
    return os.path.join(_FIXTURES, *parts)


@functools.cache  # bundled templates do not change while the process runs
def prompt_template(name: str) -> str:
    with open(fixture_path("prompts", f"{name}.txt")) as fh:
        return fh.read()


def read_input(
    what: str, source: Any, spec: Any, build: Callable[[Any], Any] | None = None, parse: Callable | None = None,
    shared: bool = False,
) -> Any:
    """`build(conform(spec, doc))` for the document in the file at path `source`, parsed from
    the open file with `parse` (`parse_yaml` by default), or for `source` itself when it is not
    a path. Only `\\n` ends a line of the file, and `conform` runs while the file is open, so a
    parser may read it lazily. Unusable input is one ConfigurationError worded `<what> <file>:
    [<path>: ]<reason>`; a TypeError or KeyError out of `build` is a bug, not an input error, and
    propagates. A `shared` build reads the file's text first, and returns an immutable value,
    built once for each file text and kept; a refused text is not kept, and a mapping handed
    over is read on every call."""
    name = f"{what} {source}" if isinstance(source, str) else what
    try:
        if not isinstance(source, str):
            checked = conform(spec, source)
        else:
            with open(source, newline="\n") as fh:
                if shared:
                    text = fh.read()
                    if (build, text) in _shared:
                        return _shared[build, text]
                checked = conform(spec, (parse or parse_yaml)(text if shared else fh))
        built = checked if build is None else build(checked)
        if shared and isinstance(source, str):
            _shared[build, text] = built
        return built
    except OSError as exc:
        raise ConfigurationError(f"{name}: {exc.strerror or exc}") from None
    except RecursionError:  # its message depends on how deep the caller's stack already was
        raise ConfigurationError(f"{name}: nests too deeply") from None
    except (ValueError, yaml.YAMLError) as exc:  # a Misfit is a ValueError
        raise ConfigurationError(f"{name}: {exc}") from None


def _text(source: str | TextIO) -> str:
    return source if isinstance(source, str) else source.read()


def parse_yaml(source: str | TextIO) -> Any:
    """The document in a YAML text or open file, parsed with libyaml when it is installed; a
    yaml.YAMLError worded `line L, column C: problem` when it does not parse, nests deeper
    than MAX_DEPTH or holds an alias."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = _text(source)
    try:
        _check_depth(text, loader)
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise yaml.YAMLError(f"{where}{problem}") from None


def _check_depth(text: str, loader: Any) -> None:
    """Refuse `text` at the first collection nested deeper than MAX_DEPTH, or at its first
    alias, before any document is built: one alias can stand for a whole subtree, and
    reading the document expands each alias again."""
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if type(event) is yaml.AliasEvent:
            raise yaml.MarkedYAMLError(problem="aliases are not allowed", problem_mark=event.start_mark)
        depth += _DEPTH_STEPS.get(type(event), 0)
        if depth > MAX_DEPTH:
            raise yaml.MarkedYAMLError(problem=f"nests deeper than {MAX_DEPTH} levels", problem_mark=event.start_mark)


def parse_json(source: str | TextIO) -> Any:
    """The document in a JSON text or open file; a ValueError worded `line L, column C: problem` when it does not parse."""
    return _json(_text(source), 1)


def parse_json_lines(lines: Iterable[str]) -> Iterator[tuple[int, Any]]:
    """(line number, JSON document) for each line of an open file that is not blank, one
    line at a time; refused as `parse_json` refuses. Only `\\n` ends a line: the file is open
    with `newline="\\n"`, as `read_input` opens it (`str.splitlines` would also split at
    U+2028 and the like)."""
    for number, line in enumerate(lines, start=1):
        line = line.removesuffix("\n")  # else an error at the line's end would name the next line
        if line.strip():
            yield number, _json(line, number)


def _json(text: str, line: int) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:  # `exc.lineno` counts from the first line of `text`
        raise ValueError(f"line {line + exc.lineno - 1}, column {exc.colno}: {exc.msg}") from None


def finite_number(convert: Callable[[Any], T], value: Any) -> T:
    """`convert(value)`; any failure to convert, or a non-finite float, is a ValueError."""
    try:
        converted = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(str(exc)) from None
    if isinstance(converted, float) and not math.isfinite(converted):
        raise ValueError(f"{value!r} is not finite")
    return converted


# Every input file is read through a schema, which is data. A schema
# `{key: field, ...}` is a closed mapping: a document may hold no other key.
# A field is a spec, and the key is required, or `(spec, default)`, and an
# absent key reads as `default` read through the spec (None stays None). A spec is
#   - a type: the value must be an instance (`object` takes anything and copies it, `int` no bool);
#   - a converter: a function whose result replaces the value, and whose
#     ValueError, TypeError or OverflowError refuses it;
#   - a schema, or `{str: spec}` for a mapping with any string keys;
#   - `[spec]`: a list whose every item fits `spec`.
# Mappings and lists come back new, so a caller may keep or change them.
# `conform` compiles each schema into nested closures the first time it reads
# through it, and builds a node's path only when that node is refused.


class Misfit(ValueError):
    """A document that does not fit its schema; `path` names the node, as in `deployments[1].replicas`."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path, self.reason = path, reason


class _Refused(Exception):
    """A node that does not fit, rising through a compiled schema: each mapping or list it
    leaves puts its step (`.key`, `['key']` or `[i]`) in front of `suffix`."""

    def __init__(self, suffix: str, reason: str):
        self.suffix, self.reason = suffix, reason

    def under(self, step: str) -> "_Refused":
        self.suffix = step + self.suffix
        return self


_REQUIRED = object()  # the default of a field that has none
# Each spec's check by the spec's id; the entry keeps the spec, so no other spec takes that id.
# A spec built per call (a converter such as `number(...)`) is compiled again each time.
_checks: dict[int, tuple[Any, Callable[[Any], Any]]] = {}
CHECKS_LIMIT = 1024  # entries held before the cache starts over


def conform(spec: Any, value: Any, path: str = "") -> Any:
    """`value` read through `spec`, compiled into nested closures once; a Misfit names
    the first node that does not fit, below `path`, and only a refusal builds a path."""
    entry = _checks.get(id(spec))
    if entry is None:
        if len(_checks) >= CHECKS_LIMIT:
            _checks.clear()
        entry = _checks[id(spec)] = (spec, _compile(spec))
    try:
        return entry[1](value)
    except _Refused as exc:
        where = path + exc.suffix
        raise Misfit(where if path else where.removeprefix("."), exc.reason) from None


def _compile(spec: Any) -> Callable[[Any], Any]:
    """The check of `spec`: the value read through it, or a _Refused for the first node that does not fit."""
    if spec is object:
        return copy.deepcopy  # anything fits, and comes back new; the other type specs are scalars
    if isinstance(spec, type):
        refused = bool if spec is int else ()  # a bool is no int

        def check(value: Any) -> Any:
            if not isinstance(value, spec) or isinstance(value, refused):
                raise _Refused("", f"expected {spec.__name__}, got {reprlib.repr(value)}")
            return value

    elif isinstance(spec, list):
        item = _compile(spec[0])

        def check(value: Any) -> Any:
            return list(_each(item, enumerate(_container(list, "a list", value)), "[{}]").values())

    elif isinstance(spec, dict) and str in spec:
        item = _compile(spec[str])

        def check(value: Any) -> Any:
            if not all(isinstance(key, str) for key in _container(dict, "a mapping", value)):
                raise _Refused("", f"keys must be strings, got {reprlib.repr(list(value))}")
            return _each(item, value.items(), "[{!r}]")

    elif isinstance(spec, dict):
        keys = frozenset(spec)
        fields = [
            (key, _compile(f[0]), f[1]) if type(f) is tuple else (key, _compile(f), _REQUIRED)
            for key, f in spec.items()
        ]

        def check(value: Any) -> Any:
            if not keys.issuperset(_container(dict, "a mapping", value)):
                raise _Refused("", f"unknown keys {sorted(str(key) for key in value if key not in keys)}")
            checked = {}
            for key, field, default in fields:
                try:
                    if key in value:
                        checked[key] = field(value[key])
                    elif default is _REQUIRED:
                        raise _Refused("", "missing")
                    else:
                        checked[key] = None if default is None else field(default)
                except _Refused as exc:
                    raise exc.under(f".{key}")
            return checked

    else:

        def check(value: Any) -> Any:
            try:
                return spec(value)
            except Misfit as exc:  # a converter that reads the value through a schema it picks
                raise _Refused(f".{exc.path}" if exc.path else "", exc.reason) from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise _Refused("", str(exc)) from None

    return check


def _container(kind: type, name: str, value: Any) -> Any:
    if not isinstance(value, kind):
        raise _Refused("", f"expected {name}, got {reprlib.repr(value)}")
    return value


def _each(item: Callable[[Any], Any], children: Any, step: str) -> dict:
    """`item(child)` for each (key, child) of `children`, by key; a refusal names its child `step.format(key)`."""
    checked = {}
    for key, child in children:
        try:
            checked[key] = item(child)
        except _Refused as exc:
            raise exc.under(step.format(key))
    return checked


def number(convert: Callable[[Any], T], low: float = -math.inf, high: float = math.inf) -> Callable[[Any], T]:
    """A converter: `finite_number(convert, value)`, refused outside [`low`, `high`]."""

    def converted(value: Any) -> T:
        result = finite_number(convert, value)
        if not low <= result <= high:
            raise ValueError(f"{value!r} is not in [{low:g}, {high:g}]")
        return result

    return converted


def maybe(spec: Any) -> Callable[[Any], Any]:
    """A converter that passes None and reads any other value through `spec`."""
    return lambda value: None if value is None else conform(spec, value)


def one_of(*choices: Any) -> Callable[[Any], Any]:
    """A converter that passes only one of `choices`."""

    def chosen(value: Any) -> Any:
        if value not in choices:
            raise ValueError(f"{reprlib.repr(value)} is not one of {', '.join(map(repr, choices))}")
        return value

    return chosen


# Python's `re` backtracks, so a pattern that can match one text in many ways
# takes exponential or high-polynomial time on a subject that almost matches.
# A pattern from outside may hold at most one unbounded repeat on any path and
# at most CHOICE_LIMIT ways through its bounded choices (`?`, `{m,n}`, `|`), and
# a repeated part may hold no quantifier or alternation (the parser folds
# single-character alternatives such as `(a|b)` into a class, which matches one
# way). Backreferences and lookaround are refused too; Prometheus' RE2 has neither.
CHOICE_LIMIT = 16
_REPEATS = {_sre.MAX_REPEAT, _sre.MIN_REPEAT, getattr(_sre, "POSSESSIVE_REPEAT", None)}


def compile_pattern(pattern: Any) -> re.Pattern[str]:
    """`re.compile(pattern)` for a pattern from outside; any failure to compile,
    or a shape that can backtrack without bound, is a ValueError."""
    try:
        compiled = re.compile(pattern)
        unbounded, choices = _backtracking(_sre.parse(pattern))
    except RecursionError:  # its message depends on how deep the caller's stack already was
        raise ValueError("groups nest too deeply") from None
    except (re.error, TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from None
    if unbounded > 1:
        raise ValueError("more than one unbounded repeat")
    if choices > CHOICE_LIMIT:
        raise ValueError(f"more than {CHOICE_LIMIT} ways to match")
    return compiled


def _backtracking(items: Any) -> tuple[int, int]:
    """(unbounded repeats, ways through the bounded choices) on the costliest
    path through a parsed pattern; a ValueError for a shape refused outright."""
    unbounded, choices = 0, 1
    for op, arg in items:
        u, c = 0, 1
        if op in (_sre.GROUPREF, _sre.GROUPREF_EXISTS):
            raise ValueError("backreferences are not allowed")
        if op in (_sre.ASSERT, _sre.ASSERT_NOT):
            raise ValueError("lookaround is not allowed")
        if op is _sre.SUBPATTERN:
            u, c = _backtracking(arg[-1])
        elif op is getattr(_sre, "ATOMIC_GROUP", None):
            u, c = _backtracking(arg)
        elif op is _sre.BRANCH:
            paths = [_backtracking(branch) for branch in arg[1]]
            u, c = max(u for u, _ in paths), sum(c for _, c in paths)
        elif op in _REPEATS:
            low, high, body = arg
            if _backtracking(body) != (0, 1):
                raise ValueError("a repeated part may not hold a quantifier or an alternation")
            u, c = (1, 1) if high - low >= CHOICE_LIMIT else (0, high - low + 1)
        unbounded, choices = unbounded + u, choices * c
    return unbounded, choices
