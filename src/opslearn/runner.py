"""Trial orchestration, evaluation grid, knowledge points, and reports.

A trial is the whole learning loop: per round, snapshot the cluster,
ask the curriculum builder for tasks, run each through the execution
planner, and curate skills from the successes. The runner also owns
the clock policy — the simulation advances a fixed amount before each
round and each task, so metric windows fill deterministically and a
replay can reproduce the exact same timeline from the history log.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from typing import Any

import yaml

from .cluster import (
    ClusterState,
    LoadError,
    NotFound,
    format_cpu,
    format_mem,
    load_topology,
    mutate,
    tick,
)
from .curator import KnowledgeCurator
from .curriculum import CurriculumBuilder, RoundGenerationFailed, build_context
from .datalayer import History, SkillLibrary, Task, build_snapshot, task_close
from .llm import (
    BaseGateway,
    BudgetExhausted,
    GatewayConfig,
    GatewayConfigError,
    ScriptRecord,
    ScriptedGateway,
    build_gateway,
    load_config,
    load_script,
)
from .planner import ExecutionPlanner
from .resources import fixture_path, load_yaml
from .shell import ShellGateway

ROUND_TICK_SECONDS = 60.0
TASK_TICK_SECONDS = 30.0
EVAL_WARMUP_SECONDS = 300.0
RETRIEVE_K = 4

_TASK_ID_RE = re.compile(r"r(\d+)t(\d+)")


class ConfigurationError(Exception):
    """Unusable flags, fixtures, or gateway settings (CLI exit 1)."""


@dataclass
class TrialConfig:
    seed: int = 0
    rounds: int = 5
    tasks_per_round: int = 3
    mode: str = "full"  # full | observation_only
    budget_usd: float = 10.0
    time_budget_min: float = 30.0
    fixture: str | None = None
    llm: str = "scripted"  # scripted | live
    script: str | None = None
    llm_config: str | None = None
    out_dir: str = "out"

    def fixture_file(self) -> str:
        return self.fixture or str(fixture_path("sock_shop.yaml"))

    def to_doc(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "tasks_per_round": self.tasks_per_round,
            "mode": self.mode,
            "budget_usd": self.budget_usd,
            "time_budget_min": self.time_budget_min,
            "llm": self.llm,
        }


# ---------------------------------------------------------------------------
# Knowledge points


@dataclass
class KnowledgePoint:
    id: int
    label: str
    category: str  # kubectl | prometheus
    acquired_round: int | None = None
    acquired_task: str | None = None

    def to_doc(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "label": self.label,
            "category": self.category,
            "acquired_round": self.acquired_round,
            "acquired_task": self.acquired_task,
        }


def default_knowledge_points() -> list[KnowledgePoint]:
    return [
        KnowledgePoint(1, "kubectl-command-construction", "kubectl"),
        KnowledgePoint(2, "kubectl-resource-usage", "kubectl"),
        KnowledgePoint(3, "prometheus-config", "prometheus"),
        KnowledgePoint(4, "prometheus-query-encoding", "prometheus"),
        KnowledgePoint(5, "prometheus-metric-query", "prometheus"),
    ]


def _point_fires(point: KnowledgePoint, kind: str, body: str) -> bool:
    if point.label == "kubectl-command-construction":
        return kind == "Command" and body.startswith("kubectl ")
    if point.label == "kubectl-resource-usage":
        return kind == "Command" and "kubectl top " in body
    if point.label == "prometheus-config":
        return kind == "Command" and "/api/v1/label/" in body
    if point.label == "prometheus-query-encoding":
        low = body.lower()
        return kind == "Reflection" and ("%5b" in low or "%5d" in low or "encod" in low)
    if point.label == "prometheus-metric-query":
        return kind == "Command" and "histogram_quantile" in body
    return False


class KnowledgeTracker:
    """Maps validated library entries to learning milestones, first hit wins."""

    def __init__(self, points: list[KnowledgePoint] | None = None):
        self.points = points if points is not None else default_knowledge_points()
        self.order: list[str] = []

    def update(self, library: SkillLibrary, round_no: int, task_id: str) -> list[str]:
        newly = []
        for point in self.points:
            if point.acquired_round is not None:
                continue
            for entry in library.entries:
                if entry.validated and _point_fires(point, entry.kind, entry.body):
                    point.acquired_round = round_no
                    point.acquired_task = task_id
                    self.order.append(point.label)
                    newly.append(point.label)
                    break
        return newly


# ---------------------------------------------------------------------------
# Trial loop


def component_names(state: ClusterState) -> tuple[str, ...]:
    return tuple(sorted(d.name for d in state.deployments if d.namespace != "kube-system"))


def _build_gateway(config: TrialConfig) -> BaseGateway:
    if config.llm_config:
        gw_config = load_config(config.llm_config)
    else:
        gw_config = GatewayConfig()
    gw_config.mode = config.llm
    gw_config.budget_usd = config.budget_usd
    if config.script:
        gw_config.script_path = config.script
    if gw_config.mode == "scripted" and not gw_config.script_path:
        gw_config.script_path = str(fixture_path("scripts/golden_trial.yaml"))
    try:
        return build_gateway(gw_config)
    except GatewayConfigError as exc:
        raise ConfigurationError(str(exc)) from exc


@dataclass
class TrialResult:
    report: dict[str, Any]
    exit_code: int


def run_trial(config: TrialConfig) -> TrialResult:
    started = time.monotonic()
    try:
        state = load_topology(config.fixture_file(), seed=config.seed)
    except (LoadError, OSError) as exc:
        raise ConfigurationError(f"fixture: {exc}") from exc
    if config.mode not in ("full", "observation_only"):
        raise ConfigurationError(f"unknown trial mode {config.mode!r}")
    gateway = _build_gateway(config)

    history = History()
    gateway.history = history
    library = SkillLibrary()
    tracker = KnowledgeTracker()
    agents = component_names(state)
    planner = ExecutionPlanner(
        gateway, ShellGateway(state, components=agents), history, agents=agents
    )
    planner.shell.report_sink = lambda component, message, message_type: history.add(
        planner.current_task_id,
        component,
        f"[{message_type}] {message}",
        "report",
        timestamp=state.sim_time,
    )
    builder = CurriculumBuilder(gateway, mode=config.mode)
    curator = KnowledgeCurator(gateway, components=agents)

    os.makedirs(config.out_dir, exist_ok=True)
    all_tasks: list[Task] = []
    completed_rounds = 0
    truncated = False
    truncation_reason: str | None = None
    prev_round: list[Task] | None = None

    def over_time() -> bool:
        return (time.monotonic() - started) > config.time_budget_min * 60.0

    try:
        for round_no in range(1, config.rounds + 1):
            if over_time():
                truncated, truncation_reason = True, "time"
                break
            tick(state, ROUND_TICK_SECONDS)
            gateway.task_id = ""
            gateway.clock = state.sim_time
            snapshot = build_snapshot(state)
            context = build_context(snapshot, history.records)
            tasks = builder.generate_round(
                context, round_no, config.tasks_per_round, prev_round
            )
            for task in tasks:
                if over_time():
                    truncated, truncation_reason = True, "time"
                    break
                tick(state, TASK_TICK_SECONDS)
                gateway.clock = state.sim_time
                skills = library.retrieve_skills(task.description, RETRIEVE_K)
                outcome = planner.run_task(task, skills)
                all_tasks.append(task)
                if outcome.succeeded and outcome.solution is not None:
                    trajectory = list(history.for_task(task.id))
                    curator.curate(
                        task,
                        trajectory,
                        outcome.solution,
                        state,
                        library,
                        round_no=round_no,
                    )
                    tracker.update(library, round_no, task.id)
                history.close_task(task, state.sim_time)
            if truncated:
                break
            prev_round = tasks
            completed_rounds = round_no
            library.save(os.path.join(config.out_dir, f"library_round_{round_no}.json"))
    except BudgetExhausted:
        truncated, truncation_reason = True, "budget"
    except RoundGenerationFailed as exc:
        truncated, truncation_reason = True, f"round-generation: {exc}"
    finally:
        planner.shell.report_sink = None  # break the planner -> shell -> sink -> planner cycle

    report = _build_report(
        config, state, all_tasks, tracker, library, gateway, completed_rounds, truncated, truncation_reason
    )
    history.dump(os.path.join(config.out_dir, "history.log"))
    library.save(os.path.join(config.out_dir, "library.json"))
    with open(os.path.join(config.out_dir, "library.md"), "w") as fh:
        fh.write(library.export_markdown())
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return TrialResult(report, 2 if truncated else 0)


def _build_report(
    config: TrialConfig,
    state: ClusterState,
    tasks: list[Task],
    tracker: KnowledgeTracker,
    library: SkillLibrary,
    gateway: BaseGateway,
    completed_rounds: int,
    truncated: bool,
    truncation_reason: str | None,
) -> dict[str, Any]:
    skill_counts = {"Command": 0, "Configuration": 0, "Reflection": 0}
    for entry in library.entries:
        skill_counts[entry.kind] += 1
    return {
        "report_schema": 1,
        "config": config.to_doc(),
        "completed_rounds": completed_rounds,
        "truncated": truncated,
        "truncation_reason": truncation_reason,
        "tasks": [
            {
                "id": t.id,
                "round": t.round,
                "kind": t.kind,
                "stage": t.stage,
                "difficulty": t.difficulty,
                "status": t.status,
            }
            for t in tasks
        ],
        "knowledge_points": [p.to_doc() for p in tracker.points],
        "acquisition_order": list(tracker.order),
        "skill_counts": skill_counts,
        "conflicted_skills": sum(1 for e in library.entries if e.conflict_group),
        "library_size": len(library.entries),
        "usage": gateway.ledger.to_doc(),
        "final_sim_time": state.sim_time,
        "mutation_count": len(state.mutations),
    }


# ---------------------------------------------------------------------------
# Evaluation harness


def load_suite(path: str) -> list[dict[str, Any]]:
    try:
        doc = load_yaml(path)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"suite: {exc}") from None
    if not isinstance(doc, dict) or doc.get("suite_schema") != 1:
        raise ConfigurationError(f"{path}: not an evaluation suite")
    tasks = doc.get("tasks") or []
    for i, task in enumerate(tasks):
        if not isinstance(task, dict):
            raise ConfigurationError(f"{path}: task {i} is not a mapping")
        for key in ("id", "description"):
            if key not in task:
                raise ConfigurationError(f"{path}: task {i} missing {key}")
    return tasks


def _field_value(state: ClusterState, ref: str, path: str) -> str:
    namespace, _, name = ref.partition("/")
    dep = state.find_deployment(namespace, name)
    if dep is None:
        raise NotFound(f"deployment {ref} not found")
    parts = path.split(".")
    if parts[0] == "replicas":
        return str(dep.replicas)
    if parts[0] == "image":
        return dep.image
    if parts[0] == "labels":
        return dep.labels.get(parts[1], "")
    if parts[0] == "resources":
        spec = dep.resources
        values = {
            "cpu_request": format_cpu(spec.cpu_request),
            "cpu_limit": format_cpu(spec.cpu_limit),
            "mem_request": format_mem(spec.mem_request),
            "mem_limit": format_mem(spec.mem_limit),
        }
        if parts[1] not in values:
            raise ConfigurationError(f"unknown resources field {parts[1]!r}")
        return values[parts[1]]
    if parts[0] == "probes":
        probe = next((p for p in dep.probes if p.kind == parts[1]), None)
        if probe is None:
            return ""
        if parts[2] == "http_path":
            return probe.http_path
        if parts[2] == "initial_delay":
            return f"{probe.initial_delay:g}"
        raise ConfigurationError(f"unknown probe field {parts[2]!r}")
    raise ConfigurationError(f"unknown post-condition field {path!r}")


def check_post_conditions(
    state: ClusterState, solution: str | None, conditions: list[dict[str, Any]]
) -> bool:
    for cond in conditions:
        if "solution_matches" in cond:
            if solution is None or not re.search(cond["solution_matches"], solution):
                return False
            continue
        if "deployment" in cond and "field" in cond:
            try:
                actual = _field_value(state, cond["deployment"], cond["field"])
            except NotFound:
                return False
            if actual != str(cond.get("equals", "")):
                return False
            continue
        raise ConfigurationError(f"unusable post-condition {cond!r}")
    return True


def run_evaluation(
    library: SkillLibrary,
    suite: list[dict[str, Any]],
    config: TrialConfig,
    repeats: int = 3,
) -> dict[str, Any]:
    """One evaluation column: every suite task attempted `repeats` times
    against fresh fixture clones, the planner seeded with `library` and
    the curator disabled. Cells count mechanical post-condition passes."""
    if config.llm != "scripted":
        raise ConfigurationError("evaluation runs with the scripted gateway only")
    script_file = config.script or str(fixture_path("scripts/evaluation.yaml"))
    base_records = load_script(script_file)
    cells: dict[str, list[int]] = {}
    for suite_task in suite:
        successes = 0
        for repeat in range(repeats):
            state = load_topology(config.fixture_file(), seed=config.seed)
            tick(state, EVAL_WARMUP_SECONDS)
            for setup in suite_task.get("setup") or []:
                mutate(state, setup["action"], setup.get("args") or {})
            records = [
                ScriptRecord(r.role, r.response, r.guard, r.max_uses) for r in base_records
            ]
            gw_config = GatewayConfig(mode="scripted", budget_usd=config.budget_usd)
            gateway = ScriptedGateway(gw_config, records)
            history = History()
            gateway.history = history
            agents = component_names(state)
            planner = ExecutionPlanner(gateway, ShellGateway(state, components=agents), history, agents=agents)
            task = Task(
                id=f"eval-{suite_task['id']}-{repeat + 1}",
                round=0,
                kind=suite_task.get("kind", "action"),
                difficulty=int(suite_task.get("difficulty", 1)),
                description=suite_task["description"],
                origin="evaluation",
            )
            skills = library.retrieve_skills(task.description, RETRIEVE_K)
            outcome = planner.run_task(task, skills)
            passed = outcome.succeeded and check_post_conditions(
                state, outcome.solution, suite_task.get("post_conditions") or []
            )
            if passed:
                successes += 1
        cells[suite_task["id"]] = [successes, repeats]
    return {
        "tasks": [t["id"] for t in suite],
        "cells": cells,
        "repeats": repeats,
    }


def assemble_grid(columns: list[tuple[str, dict[str, Any]]]) -> dict[str, Any]:
    if not columns:
        raise ConfigurationError("grid needs at least one evaluation column")
    tasks = columns[0][1]["tasks"]
    rows = []
    for task_id in tasks:
        row = []
        for _, column in columns:
            successes, total = column["cells"][task_id]
            row.append(f"{successes}/{total}")
        rows.append(row)
    return {
        "grid_schema": 1,
        "tasks": tasks,
        "columns": [label for label, _ in columns],
        "cells": rows,
    }


# ---------------------------------------------------------------------------
# Replay


def replay_history(history_path: str, fixture: str, seed: int) -> tuple[SkillLibrary, ClusterState]:
    """Rebuild the skill library from a finished trial's history log.

    Commands re-execute against a fresh fixture on the original tick
    schedule, and the curator's recorded completions are fed back as an
    in-order script, so extraction, validation, and consolidation all
    land exactly where they did in the original run."""
    original = History.load(history_path)
    state = load_topology(fixture, seed=seed)
    agents = component_names(state)
    shell = ShellGateway(state, components=agents)
    curator_records = [
        ScriptRecord(role="curator", response=r.payload)
        for r in original.records
        if r.actor == "curator" and r.payload_kind == "completion"
    ]
    gateway = ScriptedGateway(GatewayConfig(mode="scripted", budget_usd=float("inf")), curator_records)
    curator = KnowledgeCurator(gateway, components=agents)
    library = SkillLibrary()
    current_round = 0
    for record in original.records:
        closed = task_close(record)
        if closed is None:
            continue
        task_id, status, description = closed
        id_match = _TASK_ID_RE.fullmatch(task_id)
        round_no = int(id_match.group(1)) if id_match else current_round or 1
        if round_no != current_round:
            tick(state, ROUND_TICK_SECONDS)
            current_round = round_no
        tick(state, TASK_TICK_SECONDS)
        task_records = original.for_task(task_id)
        for task_record in task_records:
            if task_record.payload_kind == "command":
                shell.execute(task_record.payload)
        if status != "succeeded":
            continue
        trajectory = [
            r
            for r in task_records
            if r.actor != "curator"
            and not (r.payload_kind == "report" and r.actor == "manager")
        ]
        task = Task(
            id=task_id,
            round=round_no,
            kind="observation",
            difficulty=1,
            description=description,
        )
        curator.curate(task, trajectory, "", state, library, round_no=round_no)
    return library, state


# ---------------------------------------------------------------------------
# Report emission

REPORT_FORMATS = ("csv", "json", "svg")


def emit_report(data: dict[str, Any], out_dir: str, formats: tuple[str, ...]) -> list[str]:
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ConfigurationError(f"unknown report format {fmt!r}")
    if "report_schema" in data:
        stem, rows = "report", _trial_rows(data)
        svg = _timeline_svg(data)
    elif "grid_schema" in data:
        stem, rows = "grid", _grid_rows(data)
        svg = _heatmap_svg(data)
    else:
        raise ConfigurationError("unrecognized report payload")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        if fmt == "json":
            content = json.dumps(data, sort_keys=True, indent=2) + "\n"
        elif fmt == "csv":
            content = "\n".join(",".join(row) for row in rows) + "\n"
        else:
            content = svg
        with open(path, "w") as fh:
            fh.write(content)
        written.append(path)
    return written


def _trial_rows(report: dict[str, Any]) -> list[list[str]]:
    rows = [["task_id", "round", "kind", "stage", "difficulty", "status"]]
    for task in report.get("tasks", []):
        rows.append(
            [
                str(task["id"]),
                str(task["round"]),
                str(task["kind"]),
                str(task["stage"]),
                str(task["difficulty"]),
                str(task["status"]),
            ]
        )
    return rows


def _grid_rows(grid: dict[str, Any]) -> list[list[str]]:
    rows = [["task"] + list(grid["columns"])]
    for task_id, cells in zip(grid["tasks"], grid["cells"]):
        rows.append([task_id] + list(cells))
    return rows


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="16" y="24" font-size="16">{title}</text>',
    ]


def _timeline_svg(report: dict[str, Any]) -> str:
    points = report.get("knowledge_points", [])
    rounds = max(1, int(report.get("config", {}).get("rounds", 1)))
    left, top, cell_w, cell_h = 230, 48, 60, 28
    width = left + rounds * cell_w + 24
    height = top + len(points) * cell_h + 40
    parts = _svg_header(width, height, "Knowledge points by round")
    for col in range(1, rounds + 1):
        x = left + (col - 1) * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle">{col}</text>')
    for i, point in enumerate(points):
        y = top + i * cell_h + cell_h // 2
        parts.append(f'<text x="{left - 10}" y="{y + 4}" text-anchor="end">{point["label"]}</text>')
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{left + rounds * cell_w}" y2="{y}" stroke="#ddd"/>'
        )
        if point.get("acquired_round"):
            x = left + (int(point["acquired_round"]) - 1) * cell_w + cell_w // 2
            color = "#2a7" if point.get("category") == "kubectl" else "#27b"
            parts.append(f'<circle cx="{x}" cy="{y}" r="8" fill="{color}"/>')
    axis_y = top + len(points) * cell_h + 16
    parts.append(f'<text x="{left}" y="{axis_y}">round</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heatmap_svg(grid: dict[str, Any]) -> str:
    columns = grid["columns"]
    tasks = grid["tasks"]
    left, top, cell_w, cell_h = 250, 56, 84, 36
    width = left + len(columns) * cell_w + 24
    height = top + len(tasks) * cell_h + 32
    parts = _svg_header(width, height, "Evaluation grid (successes/attempts)")
    for j, label in enumerate(columns):
        x = left + j * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{top - 10}" text-anchor="middle">{label}</text>')
    for i, task_id in enumerate(tasks):
        y = top + i * cell_h
        parts.append(
            f'<text x="{left - 10}" y="{y + cell_h // 2 + 4}" text-anchor="end">{task_id}</text>'
        )
        for j, cell in enumerate(grid["cells"][i]):
            succ, _, total = cell.partition("/")
            ratio = int(succ) / int(total) if int(total) else 0.0
            shade = int(235 - ratio * 130)
            fill = f"rgb({shade},{245 - int(ratio * 60)},{shade})"
            x = left + j * cell_w
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w - 4}" height="{cell_h - 4}" '
                f'fill="{fill}" stroke="#999"/>'
            )
            parts.append(
                f'<text x="{x + (cell_w - 4) // 2}" y="{y + cell_h // 2 + 2}" '
                f'text-anchor="middle">{cell}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
