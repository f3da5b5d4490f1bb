"""Skill extraction and validation.

After a task succeeds, the curator distils the interaction trajectory
into three kinds of reusable knowledge:

    Command — an exact command line that ran clean, quoted verbatim;
    Configuration — a factual statement about a deployment, keyed by a
        subject path such as ``sock-shop/catalogue/image`` so later
        contradictions surface as conflicts instead of silent drift;
    Reflection — a lesson that cites the trajectory records backing it.

Every candidate is validated before it may enter the library: Command
bodies re-execute against a cloned cluster, Configuration statements are
checked against live deployment facts, Reflections must keep their
citations in range.
"""

from __future__ import annotations

from .cluster import FIELD_READS, PROBE_READS, ClusterState, clone, component_names
from .datalayer import SKILL_BLOCK, InteractionRecord, SkillEntry, SkillLibrary, Task
from .llm import BaseGateway, ask_until_parsed, parse_blocks
from .resources import conform, prompt_template
from .shell import ShellGateway

_SUBJECT_FACETS = ("image", "resources", "command", "probes", "replicas")


def render_trajectory(trajectory: list[InteractionRecord]) -> str:
    """Numbered view used both for extraction prompts and citations."""
    lines = []
    for k, record in enumerate(trajectory, start=1):
        tag = record.payload_kind
        if record.feedback_kind:
            tag = f"{record.feedback_kind} feedback"
        payload = record.payload if len(record.payload) <= 600 else record.payload[:600] + "…"
        lines.append(f"#{k} [{record.actor}/{tag}] {payload}")
    return "\n".join(lines)


def parse_skills(completion: str, source_task: str) -> list[SkillEntry]:
    if completion.strip() == "no skills.":  # the empty answer curator.txt documents
        return []
    blocks = parse_blocks(completion, "Skill", tuple(SKILL_BLOCK), multiline="body")
    if not blocks:
        raise ValueError("no skill blocks found")
    return [
        SkillEntry(id=0, source_task=source_task, **conform(SKILL_BLOCK, fields, f"skill {number}"))
        for number, fields in blocks
    ]


class KnowledgeCurator:
    def __init__(self, gateway: BaseGateway):
        self.gateway = gateway
        self.template = prompt_template("curator")

    def _complete(self, text: str) -> str:
        return self.gateway.complete("curator", [{"speaker": "curator", "text": text}], actor="curator")

    def _judge(self, question: str) -> bool:
        completion = self._complete(question)
        return completion.strip().lower().startswith("match")

    # -- extraction ------------------------------------------------------------

    def _commands_in(self, trajectory: list[InteractionRecord]) -> set[str]:
        return {r.payload for r in trajectory if r.payload_kind == "command"}

    def extract(
        self, task: Task, trajectory: list[InteractionRecord], solution: str
    ) -> list[SkillEntry]:
        base_prompt = (
            self.template.replace("{task_description}", task.description)
            .replace("{solution}", solution)
            .replace("{trajectory}", render_trajectory(trajectory))
        )
        commands = self._commands_in(trajectory)
        parsed: list[SkillEntry] = []  # entries of the latest completion

        def ask(note: str | None) -> str:
            prompt = base_prompt if note is None else f"{base_prompt}\n\nRevision note: {note}"
            return self._complete(prompt)

        def parse(completion: str) -> list[SkillEntry]:
            nonlocal parsed
            parsed = []
            try:
                parsed = parse_skills(completion, task.id)
            except ValueError as exc:
                raise ValueError(f"previous answer was rejected ({exc}).") from None
            loose = [e for e in parsed if e.kind == "Command" and e.body not in commands]
            if loose:
                names = ", ".join(repr(e.body) for e in loose)
                raise ValueError(
                    f"Command bodies must quote an executed command verbatim; these do not: {names}."
                )
            return parsed

        entries = ask_until_parsed(ask, parse, 2)
        if entries is not None:
            return entries
        # After the one re-ask, drop Command entries that still match nothing
        # and keep the rest rather than losing the whole batch.
        return [e for e in parsed if e.kind != "Command" or e.body in commands]

    # -- validation --------------------------------------------------------------

    def validate(
        self,
        entry: SkillEntry,
        state: ClusterState,
        trajectory: list[InteractionRecord],
    ) -> str:
        """Returns validated | rejected and stamps entry.validated."""
        if entry.kind == "Command":
            status = self._validate_command(entry, state)
        elif entry.kind == "Configuration":
            status = self._validate_configuration(entry, state)
        else:
            status = self._validate_reflection(entry, trajectory)
        entry.validated = status == "validated"
        return status

    def _validate_command(self, entry: SkillEntry, state: ClusterState) -> str:
        shell = ShellGateway(clone(state), components=component_names(state))
        result = shell.execute(entry.body)
        if result.exit_code != 0:
            return "rejected"
        question = (
            "Judge whether the command output matches the stored description.\n"
            f"Command: {entry.body}\n"
            f"Description: {entry.description}\n"
            f"Output:\n{result.stdout or '(empty)'}\n"
            "Answer `match` or `mismatch`."
        )
        return "validated" if self._judge(question) else "rejected"

    def _validate_configuration(self, entry: SkillEntry, state: ClusterState) -> str:
        dep = None
        facet = None
        if entry.subject:
            parts = entry.subject.split("/")
            if len(parts) == 3:
                namespace, name, facet = parts
                dep = state.find_deployment(namespace, name)
        if dep is None:
            return "rejected"
        if facet not in _SUBJECT_FACETS:
            shell = ShellGateway(clone(state))
            described = shell.execute(
                f"kubectl describe deployment {dep.name} -n {dep.namespace}"
            )
            question = (
                "Judge whether the statement agrees with the deployment description.\n"
                f"Statement: {entry.body}\n"
                f"Description:\n{described.stdout}\n"
                "Answer `match` or `mismatch`."
            )
            return "validated" if self._judge(question) else "rejected"
        if facet == "command":
            required = ([dep.command] if dep.command else []) + list(dep.args)
        elif facet == "probes":
            required = [text for read in PROBE_READS.values() for text in sorted({read(p) for p in dep.probes})]
            if not required:
                return "rejected"
        else:  # the field texts a post-condition reads: image, replicas, the four resources
            required = [read(dep) for path, read in FIELD_READS.items() if path.partition(".")[0] == facet]
        return "validated" if all(piece in entry.body for piece in required) else "rejected"

    def _validate_reflection(
        self, entry: SkillEntry, trajectory: list[InteractionRecord]
    ) -> str:
        if not entry.cites:
            return "rejected"
        if any(not 1 <= k <= len(trajectory) for k in entry.cites):
            return "rejected"
        cited = "\n".join(
            f"#{k} [{trajectory[k - 1].actor}] {trajectory[k - 1].payload}" for k in entry.cites
        )
        question = (
            "Judge whether the lesson is supported by the cited records.\n"
            f"Lesson: {entry.body}\n"
            f"Cited records:\n{cited}\n"
            "Answer `match` or `mismatch`."
        )
        return "validated" if self._judge(question) else "rejected"

    # -- consolidation -------------------------------------------------------------

    def consolidate(self, library: SkillLibrary, entries: list[SkillEntry]) -> dict[str, int]:
        counts = {"stored": 0, "merged": 0, "conflicted": 0}
        for entry in entries:
            if not entry.validated:
                continue
            counts[library.store_skill(entry)] += 1
        return counts

    # -- whole pipeline --------------------------------------------------------------

    def curate(
        self,
        task: Task,
        trajectory: list[InteractionRecord],
        solution: str,
        state: ClusterState,
        library: SkillLibrary,
        round_no: int = 0,
    ) -> dict[str, int]:
        entries = self.extract(task, trajectory, solution)
        validated = []
        for entry in entries:
            entry.created_round = round_no
            if self.validate(entry, state, trajectory) == "validated":
                validated.append(entry)
        counts = self.consolidate(library, validated)
        counts["extracted"] = len(entries)
        counts["validated"] = len(validated)
        return counts
