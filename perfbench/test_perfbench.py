"""The benchmark's own tests: its checks fire, and its tracer is faithful.

    python3 -m pytest -q perfbench

Each test breaks one output of opslearn from the outside (a tampered
library, a flipped grid cell, a wrong exit code) and asserts that the
op counts as failed, so `fail_ratio` rises above 0.
"""

from __future__ import annotations

import dataclasses

import pytest

import run

run.import_opslearn()

from opslearn import cluster, runner, shell  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def test_trial_op_passes_untouched(work_dir):
    loop = run.Loop(workloads.Trial(7, work_dir)).run(seconds=0)
    assert (loop.attempted, loop.failed) == (1, 0), loop.problems


def test_tampered_library_fails_the_trial_op(work_dir, monkeypatch):
    original = runner.run_trial

    def tampered(config):
        result = original(config)
        with open(f"{config.out_dir}/library.json", "a") as fh:
            fh.write(" ")
        return result

    monkeypatch.setattr(runner, "run_trial", tampered)
    loop = run.Loop(workloads.Trial(7, work_dir)).run(seconds=0)
    assert loop.fail_ratio > 0
    assert any("library.json sha256" in p for p in loop.problems)


def test_wrong_trial_exit_code_fails_the_trial_op(work_dir, monkeypatch):
    original = runner.run_trial
    monkeypatch.setattr(runner, "run_trial", lambda config: runner.TrialResult(original(config).report, 2))
    loop = run.Loop(workloads.Trial(7, work_dir)).run(seconds=0)
    assert loop.fail_ratio > 0
    assert any("exit code 2" in p for p in loop.problems)


def test_flipped_grid_cell_fails_the_eval_op(work_dir, monkeypatch):
    workload = workloads.Eval(7, work_dir)
    assert run.Loop(workload).run(seconds=0).failed == 0
    original = runner.run_evaluation

    def flipped(library, suite, config, repeats=3):
        column = original(library, suite, config, repeats=repeats)
        successes, total = column["cells"][workloads.GAP_TASK]
        column["cells"][workloads.GAP_TASK] = [total - successes, total]
        return column

    monkeypatch.setattr(runner, "run_evaluation", flipped)
    loop = run.Loop(workload).run(seconds=0)
    assert loop.attempted == 2
    assert loop.fail_ratio == 1.0


def test_wrong_command_exit_code_fails_the_long_horizon_op(work_dir, monkeypatch):
    workload = workloads.LongHorizon(7, work_dir)
    assert run.Loop(workload).run(seconds=0, max_ops=3).failed == 0
    original = shell.ShellGateway.execute
    first_line = workload.corpus[0][1]

    def wrong_code(self, line):
        result = original(self, line)
        if line == first_line:
            result = dataclasses.replace(result, exit_code=result.exit_code + 1)
        return result

    monkeypatch.setattr(shell.ShellGateway, "execute", wrong_code)
    loop = run.Loop(workload).run(seconds=0, max_ops=len(workload.corpus))
    assert loop.fail_ratio > 0
    assert any("exit code 1, expected 0" in p for p in loop.problems)


def test_clone_that_differs_fails_the_clone_check(work_dir, monkeypatch):
    original = cluster.clone

    def differing(state):
        copy = original(state)
        for dep in copy.deployments:
            dep.image += "-changed"
        return copy

    monkeypatch.setattr(cluster, "clone", differing)
    monkeypatch.setattr(workloads, "CLONE_EVERY_STEPS", 1)
    loop = run.Loop(workloads.LongHorizon(7, work_dir)).run(seconds=0, max_ops=len(workloads.load_corpus()))
    assert loop.fail_ratio > 0
    assert any("output on the clone differs" in p for p in loop.problems)


def test_tracer_restores_every_boundary(work_dir):
    before = (runner.tick, cluster.tick, shell.ShellGateway.execute, workloads.runner.run_trial)
    tracer = tracing.Tracer()
    tracer.install()
    assert runner.tick is cluster.tick is not before[0]
    tracer.uninstall()
    assert (runner.tick, cluster.tick, shell.ShellGateway.execute, workloads.runner.run_trial) == before


def traced_summary(workload, ops: int) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id in range(ops):
            workload.prepare()
            tracer.begin_op(op_id)
            assert workload.op() == []
            tracer.end_op(0.0)
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_eval_never_clones_and_long_horizon_parses_no_yaml_in_ops(work_dir):
    eval_layers = traced_summary(workloads.Eval(7, work_dir), 2)
    assert eval_layers["cluster.clone.calls"] == 0
    assert eval_layers["cluster.load_topology.calls"] == 15
    long_horizon_layers = traced_summary(workloads.LongHorizon(7, work_dir), 3)
    assert long_horizon_layers["yaml.safe_load.calls"] == 0
    assert long_horizon_layers["cluster.tick.calls"] == 1
    assert long_horizon_layers["shell.ShellGateway.execute.calls"] == workloads.READS_PER_STEP


def test_tail_leaves_ten_ops_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
