"""Command-line surface: run, eval, report, replay.

Exit codes: 0 for a completed run, 2 for a truncated trial (budget or
time ceiling hit, or a failed live call), 1 for configuration problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .datalayer import SkillLibrary
from .llm import ScriptExhausted
from .resources import fixture_path, parse_json, read_input
from .runner import (
    LLM_BACKENDS,
    TRIAL_MODES,
    ConfigurationError,
    TrialConfig,
    assemble_grid,
    emit_report,
    load_suite,
    replay_history,
    run_evaluation,
    run_trial,
)


def trial_config(args: argparse.Namespace) -> TrialConfig:
    """The TrialConfig of the flags given. A flag named after a TrialConfig
    field has no argparse default, so a flag left out stays None and the
    field keeps TrialConfig's default."""
    names = {f.name for f in fields(TrialConfig)}
    return TrialConfig(**{k: v for k, v in vars(args).items() if k in names and v is not None})


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="deterministic run seed")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--tasks-per-round", type=int)
    parser.add_argument("--mode", choices=TRIAL_MODES)
    parser.add_argument("--budget-usd", type=float)
    parser.add_argument("--time-budget-min", type=float)
    parser.add_argument("--fixture", help="cluster topology YAML (default: bundled)")
    parser.add_argument("--llm", choices=LLM_BACKENDS)
    parser.add_argument("--script", help="scripted-oracle YAML (default: bundled)")
    parser.add_argument("--llm-config", help="gateway config YAML (endpoint, api_key_env, routes, cost_table)")
    parser.add_argument("--out-dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opslearn",
        description="Self-learning microservice management trials on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a learning trial")
    _add_trial_flags(run_p)

    eval_p = sub.add_parser("eval", help="score skill libraries on the evaluation suite")
    eval_p.add_argument(
        "--library",
        action="append",
        required=True,
        help="library JSON; repeat the flag for one grid column per library",
    )
    eval_p.add_argument("--suite", help="evaluation suite YAML (default: bundled)")
    eval_p.add_argument("--repeats", type=int, default=3)
    eval_p.add_argument("--seed", type=int)
    eval_p.add_argument("--fixture", help="cluster topology YAML (default: bundled)")
    eval_p.add_argument("--script", help="scripted-oracle YAML (default: bundled)")
    eval_p.add_argument("--out-dir")

    report_p = sub.add_parser("report", help="emit csv/json/svg views of a finished run")
    report_p.add_argument("--out-dir")
    report_p.add_argument(
        "--formats", default="csv,json,svg", help="comma-separated subset of csv,json,svg"
    )

    replay_p = sub.add_parser("replay", help="rebuild the skill library from a history log")
    replay_p.add_argument("--history", required=True, help="history.log from a finished run")
    replay_p.add_argument("--fixture", help="cluster topology YAML (default: bundled)")
    replay_p.add_argument("--seed", type=int)
    replay_p.add_argument("--out-dir")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = trial_config(args)
    result = run_trial(config)
    report = result.report
    statuses = [t["status"] for t in report["tasks"]]
    print(
        f"trial finished: rounds={report['completed_rounds']}/{config.rounds} "
        f"tasks={len(statuses)} succeeded={statuses.count('succeeded')} "
        f"skills={report['library_size']} truncated={report['truncated']}"
    )
    print(f"artifacts in {config.out_dir}/ (history.log, library.json, report.json)")
    return result.exit_code


def _cmd_eval(args: argparse.Namespace) -> int:
    suite = load_suite(args.suite or str(fixture_path("eval_suite.yaml")))
    config = trial_config(args)
    columns = []
    for lib_path in args.library:
        library = SkillLibrary.load(lib_path)
        label = os.path.splitext(os.path.basename(lib_path))[0]
        columns.append((label, run_evaluation(library, suite, config, repeats=args.repeats)))
    grid = assemble_grid(columns)
    emit_report(grid, config.out_dir, ("json",))
    for task_id, cells in zip(grid["tasks"], grid["cells"]):
        print(f"{task_id}: " + "  ".join(f"{c} ({l})" for c, l in zip(cells, grid["columns"])))
    print(f"grid written to {os.path.join(config.out_dir, 'grid.json')}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    if not formats:
        raise ConfigurationError("no report formats requested")
    out_dir = trial_config(args).out_dir
    emitted = []
    for name in ("report.json", "grid.json"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            data = read_input("report", path, {str: object}, parse=parse_json)
            try:
                emitted.extend(emit_report(data, out_dir, formats))
            except (ValueError, TypeError, KeyError, AttributeError) as exc:  # not shaped like a run's
                raise ConfigurationError(f"report {path}: {type(exc).__name__}: {exc}") from None
    if not emitted:
        raise ConfigurationError(f"no report.json or grid.json under {out_dir}/")
    for path in emitted:
        print(f"wrote {path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    config = trial_config(args)
    library, _state = replay_history(args.history, config.fixture_file(), config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    library.save(os.path.join(config.out_dir, "library.json"))
    with open(os.path.join(config.out_dir, "library.md"), "w") as fh:
        fh.write(library.export_markdown())
    print(f"replayed library: {len(library.entries)} skills -> {config.out_dir}/library.json")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "eval": _cmd_eval,
        "report": _cmd_report,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.verb](args)
    except (ConfigurationError, ScriptExhausted, OSError) as exc:  # an OSError here is an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
