"""Outside-in layer tracing: spans around the public functions of opslearn.

`Tracer.install()` replaces each boundary below with a wrapper that
records a span {name, start, end, parent span, op id}. Module-level
functions are also replaced wherever another opslearn module re-bound
them with `from .cluster import tick`, so those calls are seen too.
`uninstall()` puts every original back. Spans stay in memory until the
run ends; `summary()` then reduces them to per-op calls and self time
per layer. Self time is a span's duration minus the time its child
spans cover. There is one process and one thread, so no layer waits in
a queue and no wait time is reported.

These spans live outside `src/`; once opslearn records its own spans,
the benchmark should read those instead.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

import yaml

from opslearn import (
    cluster,
    curator,
    curriculum,
    datalayer,
    httpapi,
    llm,
    metrics,
    planner,
    promql,
    runner,
    shell,
)

MODULES = {
    "yaml": yaml,
    "cluster": cluster,
    "metrics": metrics,
    "shell": shell,
    "httpapi": httpapi,
    "promql": promql,
    "llm": llm,
    "planner": planner,
    "curriculum": curriculum,
    "curator": curator,
    "datalayer": datalayer,
    "runner": runner,
}

# (module, qualified name) of every traced boundary.
BOUNDARIES = (
    ("yaml", "safe_load"),
    ("cluster", "load_topology"),
    ("llm", "load_script"),
    ("cluster", "tick"),
    ("metrics", "MetricStore.ingest"),
    ("cluster", "clone"),
    ("cluster", "state_digest"),
    ("cluster", "mutate"),
    ("shell", "ShellGateway.execute"),
    ("httpapi", "handle_request"),
    ("promql", "evaluate"),
    ("llm", "BaseGateway.complete"),
    ("planner", "ExecutionPlanner.run_task"),
    ("curriculum", "CurriculumBuilder.generate_round"),
    ("curator", "KnowledgeCurator.curate"),
    ("datalayer", "History.dump"),
    ("datalayer", "History.load"),
    ("datalayer", "SkillLibrary.save"),
    ("datalayer", "SkillLibrary.retrieve_skills"),
    ("datalayer", "build_snapshot"),
    ("runner", "run_trial"),
    ("runner", "replay_history"),
    ("runner", "run_evaluation"),
)
LAYERS = tuple(f"{module}.{qualname}" for module, qualname in BOUNDARIES)

# boundaries whose arguments or results `_observe` counts
OBSERVED = (
    "cluster.load_topology",
    "shell.ShellGateway.execute",
    "planner.ExecutionPlanner.run_task",
    "curator.KnowledgeCurator.curate",
    "llm.BaseGateway.complete",
)

NO_OP = -1  # op id of spans recorded between ops (set-up of a simulated day)


def _samples_stored(store: metrics.MetricStore) -> int:
    return sum(len(store.samples(sid)) for sid in store.series_ids())


class Tracer:
    def __init__(self) -> None:
        self.layer = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = NO_OP
        self.op_seconds: list[float] = []
        # counts made at the boundaries, summed over ops
        self.counts: dict[str, float] = {}
        self.last_state: cluster.ClusterState | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        if self.op_id != NO_OP:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def _observe(self, layer: str, args: tuple, result: Any, before: Any) -> None:
        if layer == "cluster.load_topology":
            self.last_state = result
        elif layer == "shell.ShellGateway.execute":
            self._count("shell.nonzero", result.exit_code != 0)
        elif layer == "planner.ExecutionPlanner.run_task":
            self._count("planner.succeeded", result.succeeded)
        elif layer == "curator.KnowledgeCurator.curate":
            self._count("curator.extracted", result["extracted"])
            self._count("curator.validated", result["validated"])
        elif layer == "llm.BaseGateway.complete":
            gateway, role = args[0], args[1]
            self._count("llm.prompt_tokens", gateway.ledger.total_prompt_tokens - before)
            self._count("llm.curriculum_completions", role == "curriculum")

    def _wrap(self, index: int, fn: Callable) -> Callable:
        layer = LAYERS[index]
        observed = layer in OBSERVED
        tokens = layer == "llm.BaseGateway.complete"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.layer.append(index)
            self.parent.append(self.current)
            self.op.append(self.op_id)
            self.end.append(0.0)
            parent, self.current = self.current, span
            before = args[0].ledger.total_prompt_tokens if tokens else None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.current = parent
            if observed:
                self._observe(layer, args, result, before)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        opslearn_modules = [m for name, m in sys.modules.items() if name.startswith("opslearn.")]
        for index, (module_name, qualname) in enumerate(BOUNDARIES):
            owner = MODULES[module_name]
            *classes, attr = qualname.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(index, raw.__func__)))
                continue
            wrapped = self._wrap(index, raw)
            self._set(owner, attr, wrapped)
            if classes:
                continue
            for module in opslearn_modules:
                for name, value in list(vars(module).items()):
                    if value is raw and module is not owner:
                        self._set(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self, seconds: float) -> None:
        self.op_seconds.append(seconds)
        if self.last_state is not None:
            self._count("metrics.samples_stored", _samples_stored(self.last_state.metrics))
        self.op_id = NO_OP

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-op averages over the traced ops, by `<layer>.<stat>`."""
        n_spans = len(self.start)
        child = [0.0] * n_spans
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        top_level_s = 0.0
        for span in range(n_spans - 1, -1, -1):
            duration = self.end[span] - self.start[span]
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += duration
            if self.op[span] == NO_OP:
                continue
            if parent < 0:
                top_level_s += duration
            calls[self.layer[span]] += 1
            self_s[self.layer[span]] += duration - child[span]
        n_ops = len(self.op_seconds)
        out: dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[index] / n_ops
            out[f"{layer}.self_ms"] = self_s[index] * 1000 / n_ops
        # time inside ops that no boundary covers: the benchmark's own checks
        out["bench.op.self_ms"] = (sum(self.op_seconds) - top_level_s) * 1000 / n_ops
        counts = self.counts

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        execute = calls[LAYERS.index("shell.ShellGateway.execute")]
        run_task = calls[LAYERS.index("planner.ExecutionPlanner.run_task")]
        rounds = calls[LAYERS.index("curriculum.CurriculumBuilder.generate_round")]
        out["metrics.samples_stored"] = counts.get("metrics.samples_stored", 0.0) / n_ops
        out["llm.prompt_tokens"] = counts.get("llm.prompt_tokens", 0.0) / n_ops
        out["shell.ShellGateway.execute.nonzero_ratio"] = ratio(counts.get("shell.nonzero", 0.0), execute)
        out["planner.ExecutionPlanner.run_task.success_ratio"] = ratio(counts.get("planner.succeeded", 0.0), run_task)
        out["curriculum.CurriculumBuilder.generate_round.reask_ratio"] = ratio(
            counts.get("llm.curriculum_completions", 0.0), rounds
        )
        out["curator.KnowledgeCurator.curate.validated_ratio"] = ratio(
            counts.get("curator.validated", 0.0), counts.get("curator.extracted", 0.0)
        )
        return out
