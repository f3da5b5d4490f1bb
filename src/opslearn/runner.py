"""Trial orchestration, evaluation grid, knowledge points, and reports.

A trial is the whole learning loop: per round, snapshot the cluster,
ask the curriculum builder for tasks, run each through the execution
planner, and curate skills from the successes. `run_trial` owns the
clock policy — the simulation advances a fixed amount before each round
and each task, so metric windows fill deterministically; the history
stamps every record with that clock, and a replay reads the timeline
back from those stamps.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

from .cluster import (
    ACTIONS,
    ClusterState,
    InvalidArgument,
    NotFound,
    component_names,
    field_reader,
    load_topology,
    mutate,
    tick,
)
from .curator import KnowledgeCurator
from .curriculum import CurriculumBuilder, RoundGenerationFailed, build_context
from .datalayer import (
    ACTION, OBSERVATION, SKILL_KINDS, History, SkillLibrary, Task, build_snapshot, json_text, task_close
)
from .llm import (
    BaseGateway,
    BudgetExhausted,
    EndpointFailed,
    GatewayConfig,
    LiveGateway,
    ScriptExhausted,
    ScriptRecord,
    ScriptedGateway,
    load_config,
    load_script,
)
from .planner import ExecutionPlanner
from .resources import (
    ConfigurationError, compile_pattern, conform, finite_number, fixture_path, number, one_of, read_input
)
from .shell import ShellGateway

ROUND_TICK_SECONDS = 60.0
TASK_TICK_SECONDS = 30.0
EVAL_WARMUP_SECONDS = 300.0
# A trial closes its tasks seconds apart. Replay refuses a close stamped later
# than this after the one before it, which bounds the scrapes one record costs.
REPLAY_MAX_STEP_SECONDS = 3600.0
RETRIEVE_K = 4
MAX_ROUNDS = 1000  # the report's timeline draws one column per round
_ROUNDS = number(int, 1, MAX_ROUNDS)
_TASK_COLUMNS = ("id", "round", "kind", "stage", "difficulty", "status")  # a report's task fields; its csv says `task_id`

TRIAL_MODES = ("full", "observation_only")
LLM_BACKENDS = ("scripted", "live")

_TASK_ID_RE = re.compile(r"r(\d+)t(\d+)")


@dataclass
class TrialConfig:
    """Every run setting and its default; the CLI passes only the flags it was given."""

    seed: int = 0
    rounds: int = 5
    tasks_per_round: int = 3
    mode: str = "full"  # one of TRIAL_MODES
    budget_usd: float = 10.0
    time_budget_min: float = 30.0
    fixture: str | None = None
    llm: str = "scripted"  # one of LLM_BACKENDS
    script: str | None = None
    llm_config: str | None = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.mode not in TRIAL_MODES:
            raise ConfigurationError(f"unknown trial mode {self.mode!r}")
        if self.llm not in LLM_BACKENDS:
            raise ConfigurationError(f"unknown llm backend {self.llm!r}")
        for key in ("budget_usd", "time_budget_min"):
            try:
                finite_number(float, getattr(self, key))
            except ValueError:
                raise ConfigurationError(f"{key} must be a finite number, got {getattr(self, key)!r}") from None
        for key in ("rounds", "tasks_per_round"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {getattr(self, key)!r}")
        if self.rounds > MAX_ROUNDS:
            raise ConfigurationError(f"rounds must be at most {MAX_ROUNDS}, got {self.rounds!r}")

    def fixture_file(self) -> str:
        return self.fixture or str(fixture_path("sock_shop.yaml"))

    def to_doc(self) -> dict[str, Any]:
        keys = ("seed", "rounds", "tasks_per_round", "mode", "budget_usd", "time_budget_min", "llm")
        return {key: getattr(self, key) for key in keys}


# ---------------------------------------------------------------------------
# Knowledge points

# Each milestone's label, in id order, with its category and the rule by which
# a library entry's (kind, body) shows it.
KNOWLEDGE_POINTS: dict[str, tuple[str, Callable[[str, str], bool]]] = {
    "kubectl-command-construction": ("kubectl", lambda kind, body: kind == "Command" and body.startswith("kubectl ")),
    "kubectl-resource-usage": ("kubectl", lambda kind, body: kind == "Command" and "kubectl top " in body),
    "prometheus-config": ("prometheus", lambda kind, body: kind == "Command" and "/api/v1/label/" in body),
    "prometheus-query-encoding": (
        "prometheus",
        lambda kind, body: kind == "Reflection" and any(mark in body.lower() for mark in ("%5b", "%5d", "encod")),
    ),
    "prometheus-metric-query": ("prometheus", lambda kind, body: kind == "Command" and "histogram_quantile" in body),
}


def knowledge_points(library: SkillLibrary) -> tuple[list[dict[str, Any]], list[str]]:
    """The knowledge points and the order they were acquired in, read off the library's provenance.

    A point is acquired in the round and task of the first validated entry that
    shows it. The order goes by the library position of the acquiring task, then by id."""
    task_at: dict[str, int] = {}  # each task's first position in the library
    for position, entry in enumerate(library.entries):
        task_at.setdefault(entry.source_task, position)
    points = []
    for point_id, (label, (category, shows)) in enumerate(KNOWLEDGE_POINTS.items(), start=1):
        first = next((e for e in library.entries if e.validated and shows(e.kind, e.body)), None)
        round_no, task_id = (None, None) if first is None else (first.created_round, first.source_task)
        points.append(
            {"id": point_id, "label": label, "category": category, "acquired_round": round_no, "acquired_task": task_id}
        )
    acquired = [p for p in points if p["acquired_task"] is not None]
    return points, [p["label"] for p in sorted(acquired, key=lambda p: (task_at[p["acquired_task"]], p["id"]))]


# ---------------------------------------------------------------------------
# Trial loop


def _build_gateway(config: TrialConfig) -> BaseGateway:
    """The one place that turns a trial's settings into a backend."""
    gw_config = load_config(config.llm_config) if config.llm_config else GatewayConfig()
    gw_config.budget_usd = config.budget_usd
    if config.llm == "scripted":
        return ScriptedGateway(gw_config, load_script(config.script or str(fixture_path("scripts/golden_trial.yaml"))))
    if not gw_config.endpoint:
        raise ConfigurationError("live mode needs an endpoint in --llm-config")
    return LiveGateway(gw_config)


@dataclass
class TrialResult:
    report: dict[str, Any]
    exit_code: int


def run_trial(config: TrialConfig) -> TrialResult:
    started = time.monotonic()
    state = load_topology(config.fixture_file(), seed=config.seed)
    gateway = _build_gateway(config)

    history = History(lambda: state.sim_time)
    gateway.history = history
    library = SkillLibrary()
    planner = ExecutionPlanner(gateway, ShellGateway(state, component_names(state), history=history), history)
    builder = CurriculumBuilder(gateway, mode=config.mode)
    curator = KnowledgeCurator(gateway)

    os.makedirs(config.out_dir, exist_ok=True)
    all_tasks: list[Task] = []
    completed_rounds = 0
    truncation_reason: str | None = None  # set when the trial stops early
    prev_round: list[Task] | None = None

    def over_time() -> bool:
        return (time.monotonic() - started) > config.time_budget_min * 60.0

    def write_artifacts() -> dict[str, Any]:
        report = _build_report(config, state, all_tasks, library, gateway, completed_rounds, truncation_reason)
        history.dump(os.path.join(config.out_dir, "history.log"))
        library.save(os.path.join(config.out_dir, "library.json"))
        with open(os.path.join(config.out_dir, "library.md"), "w") as fh:
            fh.write(library.export_markdown())
        with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
            fh.write(json_text(report) + "\n")
        return report

    try:
        for round_no in range(1, config.rounds + 1):
            if over_time():
                truncation_reason = "time"
                break
            tick(state, ROUND_TICK_SECONDS)
            context = build_context(build_snapshot(state), history.tasks)
            tasks = builder.generate_round(
                context, round_no, config.tasks_per_round, prev_round
            )
            for task in tasks:
                if over_time():
                    truncation_reason = "time"
                    break
                tick(state, TASK_TICK_SECONDS)
                skills = library.retrieve_skills(task.description, RETRIEVE_K)
                outcome = planner.run_task(task, skills)
                all_tasks.append(task)
                if outcome.succeeded and outcome.solution is not None:
                    trajectory = history.for_task(task.id)
                    curator.curate(
                        task,
                        trajectory,
                        outcome.solution,
                        state,
                        library,
                        round_no=round_no,
                    )
                history.close_task(task)
            if truncation_reason:
                break
            prev_round = tasks
            completed_rounds = round_no
            library.save(os.path.join(config.out_dir, f"library_round_{round_no}.json"))
    except BudgetExhausted:
        truncation_reason = "budget"
    except RoundGenerationFailed as exc:
        truncation_reason = f"round-generation: {exc}"
    except ScriptExhausted as exc:
        truncation_reason = f"script: {exc}"
    except EndpointFailed as exc:
        truncation_reason = f"live: {exc}"
    except BaseException as exc:  # a bug or an interrupt: keep the evidence, then let it through
        kind = type(exc).__name__
        truncation_reason = f"internal: {kind}: {exc}" if isinstance(exc, Exception) else f"interrupted: {kind}"
        write_artifacts()
        raise

    return TrialResult(write_artifacts(), 2 if truncation_reason else 0)


def _build_report(
    config: TrialConfig,
    state: ClusterState,
    tasks: list[Task],
    library: SkillLibrary,
    gateway: BaseGateway,
    completed_rounds: int,
    truncation_reason: str | None,
) -> dict[str, Any]:
    skill_counts = dict.fromkeys(SKILL_KINDS, 0)
    for entry in library.entries:
        skill_counts[entry.kind] += 1
    points, order = knowledge_points(library)
    return {
        "report_schema": 1,
        "config": config.to_doc(),
        "completed_rounds": completed_rounds,
        "truncated": truncation_reason is not None,
        "truncation_reason": truncation_reason,
        "tasks": [{column: getattr(t, column) for column in _TASK_COLUMNS} for t in tasks],
        "knowledge_points": points,
        "acquisition_order": order,
        "skill_counts": skill_counts,
        "conflicted_skills": sum(1 for e in library.entries if e.conflict_group),
        "library_size": len(library.entries),
        "usage": gateway.ledger.to_doc(),
        "final_sim_time": state.sim_time,
        "mutation_count": state.mutation_count,
    }


# ---------------------------------------------------------------------------
# Evaluation harness


def _post_condition(cond: Any) -> dict[str, Any]:
    """A post-condition is exactly `{solution_matches}` or `{deployment, field, equals}`."""
    return conform(_SOLUTION_CHECK if isinstance(cond, dict) and "solution_matches" in cond else _FIELD_CHECK, cond)


def _readable_field(path: Any) -> str:
    if field_reader(conform(str, path)) is None:
        raise ValueError(f"{path!r} names no readable deployment field")
    return path


_SETUP_STEP = {"action": one_of(*ACTIONS), "args": ({str: object}, {})}


def _setup_step(step: Any) -> dict[str, Any]:
    """A setup step whose args fit its action's schema. The args stay as written:
    `mutate` reads them at eval, and a quantity read twice changes (`100m` becomes 100 cores)."""
    step = conform(_SETUP_STEP, step)
    conform(ACTIONS[step["action"]][0], step["args"], "args")
    return step


_SOLUTION_CHECK = {"solution_matches": lambda text: compile_pattern(conform(str, text)).pattern}
_FIELD_CHECK = {"deployment": str, "field": _readable_field, "equals": object}
_SUITE_TASK = {
    "id": str,
    "description": str,
    "kind": (one_of(OBSERVATION, ACTION), ACTION),
    "difficulty": (number(int, 1), 1),
    "setup": ([_setup_step], []),
    "post_conditions": ([_post_condition], []),
}
_SUITE = {"suite_schema": int, "tasks": ([_SUITE_TASK], [])}


def _suite_tasks(doc: Any) -> list[dict[str, Any]]:
    if not isinstance(doc, dict) or doc.get("suite_schema") != 1:
        raise ValueError("not an evaluation suite")
    tasks = conform(_SUITE, doc)["tasks"]
    first_index: dict[str, int] = {}  # grid rows are keyed by task id
    for i, task in enumerate(tasks):
        first = first_index.setdefault(task["id"], i)
        if first != i:
            raise ValueError(f"task {i} repeats the id {task['id']!r} of task {first}")
    return tasks


def load_suite(path: str) -> list[dict[str, Any]]:
    """The tasks of an evaluation suite, each with every key its schema gives a default."""
    return read_input("suite", path, _suite_tasks)


def _suite_task(suite_task: dict[str, Any], repeat: int) -> Task:
    return Task(
        id=f"eval-{suite_task['id']}-{repeat}",
        round=0,
        kind=suite_task["kind"],
        difficulty=suite_task["difficulty"],
        description=suite_task["description"],
    )


def check_post_conditions(
    state: ClusterState, solution: str | None, conditions: list[dict[str, Any]]
) -> bool:
    for cond in conditions:
        if "solution_matches" in cond:
            if solution is None or not re.search(cond["solution_matches"], solution):
                return False
            continue
        read = field_reader(cond.get("field", ""))
        if "deployment" not in cond or read is None:
            raise ConfigurationError(f"unusable post-condition {cond!r}")
        namespace, _, name = cond["deployment"].partition("/")
        dep = state.find_deployment(namespace, name)
        if dep is None or read(dep) != str(cond.get("equals", "")):
            return False
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
    if repeats < 1:
        raise ConfigurationError(f"repeats must be at least 1, got {repeats!r}")
    script_file = config.script or str(fixture_path("scripts/evaluation.yaml"))
    records = load_script(script_file)
    fixture = config.fixture_file()
    cells: dict[str, list[int]] = {}
    for suite_task in suite:
        successes = 0
        skills = library.retrieve_skills(suite_task["description"], RETRIEVE_K)  # every repeat asks the same
        for repeat in range(repeats):
            state = load_topology(fixture, seed=config.seed)
            tick(state, EVAL_WARMUP_SECONDS)
            for setup in suite_task["setup"]:
                try:
                    mutate(state, setup["action"], setup.get("args", {}))
                except (InvalidArgument, NotFound) as exc:
                    raise ConfigurationError(f"suite task {suite_task['id']}: setup: {exc}") from None
            gateway = ScriptedGateway(GatewayConfig(budget_usd=float("inf")), records)  # list-price estimates: uncapped
            planner = ExecutionPlanner(gateway, ShellGateway(state, component_names(state)), History())
            outcome = planner.run_task(_suite_task(suite_task, repeat + 1), skills)
            passed = outcome.succeeded and check_post_conditions(state, outcome.solution, suite_task["post_conditions"])
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

    Commands re-execute against a fresh fixture at the times recorded in
    the log (each task's close-record timestamp), and the curator's
    recorded completions are fed back as an in-order script, so
    extraction, validation, and consolidation all land exactly where
    they did in the original run."""
    original = History.load(history_path)
    state = load_topology(fixture, seed=seed)
    shell = ShellGateway(state, component_names(state))
    curator_records = [
        ScriptRecord(role="curator", response=r.payload)
        for r in original.records
        if r.actor == "curator" and r.payload_kind == "completion"
    ]
    gateway = ScriptedGateway(GatewayConfig(budget_usd=float("inf")), curator_records)
    curator = KnowledgeCurator(gateway)
    library = SkillLibrary()
    for record in original.records:
        closed = task_close(record)
        if closed is None:
            continue
        task_id, status, description = closed
        id_match = _TASK_ID_RE.fullmatch(task_id)
        if id_match is None:
            raise ConfigurationError(f"history {history_path}: task id {task_id!r} names no round (r<round>t<n>)")
        round_no = int(id_match.group(1))
        stamp = record.timestamp
        if stamp > state.sim_time + REPLAY_MAX_STEP_SECONDS:
            raise ConfigurationError(f"history {history_path}: task {task_id!r} closes at {stamp!r}, not a time in reach")
        if stamp > state.sim_time:
            tick(state, stamp - state.sim_time)
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
            kind=OBSERVATION,
            difficulty=1,
            description=description,
        )
        try:
            curator.curate(task, trajectory, "", state, library, round_no=round_no)
        except ScriptExhausted as exc:  # the log holds fewer curator completions than its tasks ask for
            raise ConfigurationError(f"history {history_path}: {exc}") from None
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
            content = json_text(data) + "\n"
        elif fmt == "csv":
            content = "\n".join(",".join(row) for row in rows) + "\n"
        else:
            content = svg
        with open(path, "w") as fh:
            fh.write(content)
        written.append(path)
    return written


def _trial_rows(report: dict[str, Any]) -> list[list[str]]:
    rows = [["task_id", *_TASK_COLUMNS[1:]]]
    for task in report.get("tasks", []):
        rows.append([str(task[column]) for column in _TASK_COLUMNS])
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
    rounds = conform(int, report.get("config", {}).get("rounds", 1), "config.rounds")
    conform(_ROUNDS, rounds, "config.rounds")
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
