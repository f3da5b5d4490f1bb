"""Reading input: the one reader and its YAML parser (libyaml parity, fallback,
shared builds kept by file text) and the regex gate for patterns from outside."""

from __future__ import annotations

import ast
import pathlib
import time

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opslearn import llm, resources
from opslearn.cluster import load_topology, mutate
from opslearn.resources import MAX_DEPTH, ConfigurationError, compile_pattern, fixture_path, parse_yaml, read_input
from opslearn.runner import load_suite

BUNDLED_YAML = sorted(pathlib.Path(fixture_path()).rglob("*.yaml"))


def test_fixtures_are_found():
    names = {path.name for path in BUNDLED_YAML}
    assert {"sock_shop.yaml", "eval_suite.yaml", "golden_trial.yaml", "evaluation.yaml"} <= names


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="libyaml is not installed")
@pytest.mark.parametrize("path", BUNDLED_YAML, ids=lambda p: p.name)
def test_libyaml_and_pure_python_parse_fixtures_alike(path):
    text = path.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def _parsed(path):
    with open(path) as fh:
        return parse_yaml(fh.read())


def test_falls_back_to_safe_loader_without_libyaml(monkeypatch):
    loaders = []
    real_load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.setattr(yaml, "load", spy)
    assert parse_yaml("fallback-check: [1, 2]\n") == {"fallback-check": [1, 2]}
    assert loaders == [yaml.SafeLoader]


def test_rewritten_file_yields_new_document(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("rewrite-check: 1\n")
    assert read_input("document", str(path), object) == {"rewrite-check": 1}
    path.write_text("rewrite-check: 2\n")
    assert read_input("document", str(path), object) == {"rewrite-check": 2}


def test_mutating_a_document_leaves_the_next_intact(tmp_path):
    """What a loader returns, a suite task's setup `args` and `equals` included, is the caller's own."""
    listed = tmp_path / "listed.yaml"  # `equals` takes any value, a list too
    listed.write_text(
        "suite_schema: 1\ntasks:\n  - id: t\n    description: d\n    post_conditions:\n"
        "      - {deployment: sock-shop/front-end, field: replicas, equals: [1]}\n"
    )
    for path in (fixture_path("eval_suite.yaml"), str(listed)):
        before = _parsed(path)
        first = load_suite(path)
        for task in first:
            for step in task["setup"]:
                step["args"].get("patch", {}).clear()
                step["args"].clear()
            for cond in task["post_conditions"]:
                if isinstance(cond.get("equals"), list):
                    cond["equals"].append("changed")
            task["id"] = "changed"
        first.clear()
        second = load_suite(path)
        assert second[0]["id"] == before["tasks"][0]["id"]
        assert second == load_suite(path) and second is not first


def test_changing_a_loaded_state_or_script_leaves_the_next_load_intact():
    topology, script = fixture_path("sock_shop.yaml"), fixture_path("scripts/evaluation.yaml")
    scripted = llm.load_script(script)
    count = len(scripted)
    state = load_topology(topology)
    front_end = {"namespace": "sock-shop", "name": "front-end"}
    dep = state.find_deployment(**front_end)
    before = dict(vars(dep))  # every value is immutable, so this copy is a full one
    for action, args in (
        ("scale", {**front_end, "replicas": 3}),
        ("set_resources", {**front_end, "limits": {"cpu": "2"}}),
        ("kill_pod", {"namespace": "sock-shop", "pod": dep.pods[0].name}),
        ("set_label", {**front_end, "key": "env", "value": "changed"}),
        ("patch", {**front_end, "patch": {"args": ["--changed"], "probes": {"liveness": {"period": 9}}}}),
    ):
        assert mutate(state, action, args), action
    state.deployments.clear()
    records = read_input("script", script, llm._records)
    records[0]["response"] = "changed"
    records.clear()
    scripted.clear()
    assert vars(load_topology(topology).find_deployment(**front_end)) == before
    assert read_input("script", script, llm._records)[0] == {"guard": None, "max_uses": 1} | _parsed(script)["records"][0]
    assert len(llm.load_script(script)) == count


def test_malformed_file_raises_one_line_naming_it_every_time(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("namespaces: [sock-shop\n")
    for _ in range(2):
        with pytest.raises(ConfigurationError) as info:
            read_input("fixture", str(path), object)
        message = str(info.value)
        assert message.startswith(f"fixture {path}: line ")
        assert "\n" not in message
    path.write_text("namespaces: [sock-shop]\n")
    assert read_input("fixture", str(path), object) == {"namespaces": ["sock-shop"]}


def test_missing_file_raises_one_line_naming_it(tmp_path):
    path = tmp_path / "absent.yaml"
    with pytest.raises(ConfigurationError, match=rf"^fixture {path}: No such file or directory$"):
        read_input("fixture", str(path), object)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_yaml_nested_beyond_the_limit_is_refused_where_it_passes_it(monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    doc = parse_yaml("[" * MAX_DEPTH + "]" * MAX_DEPTH + "\n")
    for _ in range(MAX_DEPTH - 1):
        doc = doc[0]
    assert doc == []
    too_deep = MAX_DEPTH + 1
    # a flow sequence and a compact block sequence, each with the column where its level too deep starts
    for text, column in (("[" * too_deep + "]" * too_deep, too_deep), ("- " * too_deep + "x", 2 * too_deep - 1)):
        with pytest.raises(yaml.YAMLError, match=rf"^line 1, column {column}: nests deeper than {MAX_DEPTH} levels$"):
            parse_yaml(text + "\n")


# 150 aliased deployments, each with the same 150 aliased probes, in 1.8 KB:
# expanding the aliases takes half a second before any loader check runs.
ALIASED_TOPOLOGY = (
    "namespaces: [s]\ndeployments:\n  - &d\n    name: a\n    namespace: s\n    image: i\n"
    "    resources: {requests: {cpu: 1m, memory: 1Mi}, limits: {cpu: 1m, memory: 1Mi}}\n"
    "    probes: [&p {kind: liveness, http_path: /}" + ", *p" * 149 + "]\n" + "  - *d\n" * 149
)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_yaml_aliases_are_refused_before_a_document_is_built(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.setattr(yaml, "load", lambda *args, **kwargs: pytest.fail("the document was built"))
    path = tmp_path / "aliased.yaml"
    path.write_text(ALIASED_TOPOLOGY)
    assert 1700 < len(ALIASED_TOPOLOGY) < 1900, len(ALIASED_TOPOLOGY)
    with pytest.raises(ConfigurationError, match=rf"^fixture {path}: line 8, column 49: aliases are not allowed$"):
        load_topology(str(path))


def test_an_anchor_without_an_alias_still_loads(tmp_path):
    path = tmp_path / "anchored.yaml"
    path.write_text("namespaces: &names [s]\n")
    assert load_topology(str(path)).namespaces == {"s"}


def _count_depth_walks(monkeypatch):
    walks = []
    real_parse = yaml.parse
    monkeypatch.setattr(yaml, "parse", lambda *args, **kwargs: walks.append(1) or real_parse(*args, **kwargs))
    return walks


def test_each_distinct_text_is_checked_for_depth_once(tmp_path, monkeypatch):
    """For a shared build, which is kept by file text."""
    walks = _count_depth_walks(monkeypatch)
    path = tmp_path / "doc.yaml"
    path.write_text(f"# {tmp_path}\nnamespaces: [s]\n")  # a text no other test wrote
    for _ in range(3):
        assert load_topology(str(path)).namespaces == {"s"}
    assert len(walks) == 1


def test_a_text_read_without_a_shared_build_is_checked_for_depth_on_every_call(tmp_path, monkeypatch):
    walks = _count_depth_walks(monkeypatch)
    path = tmp_path / "doc.yaml"
    path.write_text("depth-check: [[1]]\n")
    for _ in range(3):
        assert read_input("document", str(path), object) == {"depth-check": [[1]]}
    assert len(walks) == 3


PACKAGE = pathlib.Path(resources.__file__).parent


def _opens(tree):
    """(enclosing function, whether it writes) for each `open(...)` call in a module's tree."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            found.append((function, isinstance(mode, ast.Constant) and any(c in str(mode.value) for c in "wax")))
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_only_the_one_reader_opens_an_input_file_or_imports_yaml():
    """Outside `resources.py` every `open` writes, and only `read_input` and
    `prompt_template` open a file to read it; only `resources.py` imports yaml."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "resources.py" in modules and len(modules) > 10
    for module in modules:
        tree = ast.parse(module.read_text(), str(module))
        opens = _opens(tree)
        if module.name == "resources.py":
            assert {function for function, writes in opens if not writes} == {"read_input", "prompt_template"}
        else:
            assert all(writes for _, writes in opens), module.name
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert module.name == "resources.py" or not any(n == "yaml" or n.startswith("yaml.") for n in imported), module.name


_DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear"}


def _module_dict_writes(tree):
    """(function, dict) for each write, inside a function, to a dict made at the module's top level:
    an item assigned or deleted, or a call of one of `_DICT_WRITERS` on it."""
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, (ast.Dict, ast.DictComp))
            or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            dicts.update(target.id for target in targets if isinstance(target, ast.Name))
    writes = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _DICT_WRITERS:
                written = node.func.value
            else:
                continue
            if isinstance(written, ast.Name) and written.id in dicts:
                writes.add((function.name, written.id))
    return writes


def test_no_function_writes_a_module_level_dict_but_the_shared_builds_and_the_compiled_checks():
    """Every memo is a `functools` cache, except the shared builds kept by file text
    (`resources._shared`) and the compiled schemas kept by identity (`resources._checks`)."""
    written = {
        (module.stem, name)
        for module in sorted(PACKAGE.glob("*.py"))
        for _, name in _module_dict_writes(ast.parse(module.read_text(), str(module)))
    }
    assert written == {("resources", "_shared"), ("resources", "_checks")}


def test_the_module_dict_rule_sees_item_writes_deletes_and_writer_calls():
    tree = ast.parse(
        "A = {}\nB: dict = {}\nC = dict()\nD = []\n"
        "def f():\n    A[1] = 2\n    del B[1]\n    D[0] = 1\n"
        "class K:\n    def g(self):\n        C.setdefault(1, 2)\n        local = {}\n        local[1] = 2\n"
    )
    assert _module_dict_writes(tree) == {("f", "A"), ("f", "B"), ("g", "C")}


@pytest.mark.parametrize(
    "pattern",
    ["4..", "5..", r"0\.00\d+ seconds", r"^\d+m$", "sock-shop/.*", "a|b", "(a|b)+", "x{2,5}y?", "(?:ab)*c", ""],
)
def test_compile_pattern_accepts_patterns_that_match_one_way(pattern):
    assert compile_pattern(pattern).pattern == pattern


@pytest.mark.parametrize(
    "pattern, reason",
    [
        ("(a|aa)+b", "may not hold a quantifier or an alternation"),
        ("(a+)+b", "may not hold a quantifier or an alternation"),
        ("(?:a*b?){2}", "may not hold a quantifier or an alternation"),
        (r"(a)\1", "backreferences"),
        ("(a)?(?(1)b|c)", "backreferences"),
        ("(?=a)a", "lookaround"),
        ("(?<!a)b", "lookaround"),
        ("a*a*b", "more than one unbounded repeat"),
        (".*a.*b", "more than one unbounded repeat"),
        ("a{0,99}a{0,99}b", "more than one unbounded repeat"),
        ("a?a?a?a?a?b", "more than 16 ways to match"),
        ("(", "unterminated subpattern"),
    ],
)
def test_compile_pattern_refuses_patterns_that_backtrack_without_bound(pattern, reason):
    with pytest.raises(ValueError, match=reason):
        compile_pattern(pattern)


MATCH_BOUND_S = 1.0  # the slowest accepted shapes found took about 0.25 s on a 2-vCPU Xeon

_atoms = st.sampled_from(["a", "b", "aa", ".", "[ab]", r"\d", r"\w", r"\s", "1", "(?:ab)", "^", "$", "[^b]"])
_quantifiers = st.sampled_from(["", "", "*", "+", "?", "*?", "+?", "{2}", "{0,3}", "{1,20}", "{2,}"])
_patterns = st.recursive(
    st.tuples(_atoms, _quantifiers).map("".join),
    lambda parts: st.one_of(
        st.lists(parts, min_size=1, max_size=4).map("".join),
        st.lists(parts, min_size=2, max_size=3).map(lambda alternatives: f"(?:{'|'.join(alternatives)})"),
        st.tuples(parts, _quantifiers).map(lambda repeat: f"(?:{repeat[0]}){repeat[1]}"),
    ),
    max_leaves=10,
)
_subjects = st.one_of(
    st.sampled_from(["a" * 1000, "ab" * 500, "a" * 999 + "!", "1" * 1000]),
    st.text("ab1 !", min_size=1000, max_size=1000),
)


@settings(max_examples=300, deadline=None)
@given(pattern=_patterns, subject=_subjects)
@example(pattern="a*a*a{0,3}b", subject="a" * 1000)  # refused; unguarded, one search took 3.4 s
@example(pattern="a*a?a?a?a?b", subject="a" * 1000)  # the most choices beside an unbounded repeat
@example(pattern=".*(?:a|aa)(?:a|aa)(?:a|aa)(?:a|aa)b", subject="a" * 1000)
def test_an_accepted_pattern_searches_a_long_subject_within_a_bound(pattern, subject):
    try:
        compiled = compile_pattern(pattern)
    except ValueError:
        return
    started = time.perf_counter()
    compiled.search(subject)
    assert time.perf_counter() - started < MATCH_BOUND_S
