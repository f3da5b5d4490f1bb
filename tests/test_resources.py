"""The shared YAML loader: libyaml parity, fallback, caching by content."""

from __future__ import annotations

import pathlib

import pytest
import yaml

from opslearn.resources import fixture_path, load_yaml

BUNDLED_YAML = sorted(pathlib.Path(fixture_path()).rglob("*.yaml"))


def test_fixtures_are_found():
    names = {path.name for path in BUNDLED_YAML}
    assert {"sock_shop.yaml", "eval_suite.yaml", "golden_trial.yaml", "evaluation.yaml"} <= names


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="libyaml is not installed")
@pytest.mark.parametrize("path", BUNDLED_YAML, ids=lambda p: p.name)
def test_libyaml_and_pure_python_parse_fixtures_alike(path):
    text = path.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_falls_back_to_safe_loader_without_libyaml(tmp_path, monkeypatch):
    loaders = []
    real_load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.setattr(yaml, "load", spy)
    path = tmp_path / "doc.yaml"
    path.write_text("fallback-check: [1, 2]\n")
    assert load_yaml(str(path)) == {"fallback-check": [1, 2]}
    assert loaders == [yaml.SafeLoader]


def test_rewritten_file_yields_new_document(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("rewrite-check: 1\n")
    assert load_yaml(str(path)) == {"rewrite-check": 1}
    path.write_text("rewrite-check: 2\n")
    assert load_yaml(str(path)) == {"rewrite-check": 2}


def test_mutating_a_document_leaves_the_next_intact():
    path = fixture_path("eval_suite.yaml")
    first = load_yaml(path)
    first["tasks"][0]["id"] = "changed"
    first["tasks"].clear()
    second = load_yaml(path)
    assert second["tasks"][0]["id"] == "scale-front-end"
    assert second is not first


def test_malformed_file_raises_one_line_naming_it_every_time(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("namespaces: [sock-shop\n")
    for _ in range(2):
        with pytest.raises(yaml.YAMLError) as info:
            load_yaml(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: line ")
        assert "\n" not in message
    path.write_text("namespaces: [sock-shop]\n")
    assert load_yaml(str(path)) == {"namespaces": ["sock-shop"]}


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        load_yaml(str(tmp_path / "absent.yaml"))
