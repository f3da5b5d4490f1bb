"""Command-line verbs end to end: run, eval, report, replay."""

from __future__ import annotations

import json

import pytest

from opslearn.cli import main
from opslearn.datalayer import SkillLibrary


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    code = main(["run", "--seed", "7", "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


def test_run_prints_summary_and_exits_zero(tmp_path, capsys):
    code = main(["run", "--seed", "7", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial finished: rounds=5/5 tasks=15 succeeded=")
    assert "truncated=False" in lines[0]
    assert f"artifacts in {tmp_path}/" in lines[1]
    assert (tmp_path / "history.log").exists()


def test_run_reports_missing_fixture(tmp_path, capsys):
    code = main(["run", "--fixture", str(tmp_path / "absent.yaml"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: fixture:")


def test_run_reports_missing_script(tmp_path, capsys):
    code = main(["run", "--script", str(tmp_path / "absent.yaml"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--fixture"],
        ["run", "--script"],
        ["run", "--llm-config"],
        ["eval", "--library", "unused.json", "--suite"],
    ],
    ids=["fixture", "script", "llm-config", "suite"],
)
def test_malformed_yaml_fails_with_one_error_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.yaml"
    bad.write_text("namespaces: [sock-shop\n")
    _assert_one_error_line(main(argv + [str(bad), "--out-dir", str(tmp_path)]), capsys, bad)


def _assert_one_error_line(code, capsys, bad):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["run", "--script"], "records:\n  - a string\n"),
        (["run", "--script"], "mode: scripted\n"),
        (["run", "--llm-config"], "routes:\n  planner: 5\n"),
        (["run", "--llm-config"], "- mode: live\n"),
        (["eval", "--library", "empty.json", "--suite"], "suite_schema: 1\ntasks:\n  - the id and the description\n"),
    ],
    ids=["script-string-record", "script-without-records", "llm-config-scalar-route", "llm-config-list", "suite-string-task"],
)
def test_misshapen_yaml_fails_with_one_error_line(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    SkillLibrary().save("empty.json")
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    _assert_one_error_line(main(argv + [str(bad), "--out-dir", str(tmp_path)]), capsys, bad)


def test_run_rejects_unknown_llm_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--llm", "telepathy", "--out-dir", str(tmp_path)])


def test_eval_prints_grid_rows(finished_run, tmp_path, capsys):
    code = main(
        [
            "eval",
            "--library", str(finished_run / "library.json"),
            "--seed", "7",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # five suite tasks plus the trailing pointer
    assert lines[0] == "scale-front-end: 3/3 (library)"
    assert lines[-1] == f"grid written to {tmp_path}/grid.json"
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["grid_schema"] == 1
    assert grid["columns"] == ["library"]
    assert len(grid["cells"]) == 5


def test_eval_columns_follow_library_basenames(finished_run, tmp_path, capsys):
    code = main(
        [
            "eval",
            "--library", str(finished_run / "library_round_1.json"),
            "--library", str(finished_run / "library.json"),
            "--seed", "7",
            "--repeats", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["columns"] == ["library_round_1", "library"]
    assert all(len(row) == 2 for row in grid["cells"])
    assert capsys.readouterr().out.count("(library_round_1)") == 5


def test_report_emits_requested_formats(finished_run, capsys):
    code = main(["report", "--out-dir", str(finished_run), "--formats", "csv,svg"])
    out = capsys.readouterr().out
    assert code == 0
    assert (finished_run / "report.csv").exists()
    assert (finished_run / "report.svg").exists()
    assert out.count("wrote ") == 2


def test_report_needs_some_payload(tmp_path, capsys):
    code = main(["report", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "no report.json or grid.json" in capsys.readouterr().err


def test_report_rejects_unknown_format(finished_run, capsys):
    code = main(["report", "--out-dir", str(finished_run), "--formats", "pdf"])
    assert code == 1
    assert "unknown report format" in capsys.readouterr().err


def test_replay_restores_library(finished_run, tmp_path, capsys):
    code = main(
        [
            "replay",
            "--history", str(finished_run / "history.log"),
            "--seed", "7",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "library.json").read_text() == (finished_run / "library.json").read_text()
    assert (tmp_path / "library.md").exists()
    skills = json.loads((tmp_path / "library.json").read_text())["skills"]
    assert out.strip() == f"replayed library: {len(skills)} skills -> {tmp_path}/library.json"


def test_replay_missing_history_is_a_config_error(tmp_path, capsys):
    code = main(["replay", "--history", str(tmp_path / "gone.log"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
