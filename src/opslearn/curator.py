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
citations in range. Anything that cannot be checked right now is
deferred, not stored.
"""

from __future__ import annotations

import re

from .cluster import ClusterState, clone, format_cpu, format_mem
from .datalayer import SKILL_KINDS, InteractionRecord, SkillEntry, SkillLibrary, Task
from .llm import BaseGateway, ask_until_parsed
from .resources import prompt_template
from .shell import ShellGateway

_SKILL_SPLIT_RE = re.compile(r"^Skill\s+(\d+)\s*:\s*$", re.M)
_SKILL_FIELD_RE = re.compile(r"^(kind|body|description|subject|cites)\s*:\s*(.*)$")
_CITE_RE = re.compile(r"#(\d+)")

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
    pieces = _SKILL_SPLIT_RE.split(completion)
    if len(pieces) < 3:
        raise ValueError("no skill blocks found")
    entries = []
    for i in range(1, len(pieces) - 1, 2):
        block = pieces[i + 1]
        fields: dict[str, str] = {}
        current: str | None = None
        for line in block.splitlines():
            m = _SKILL_FIELD_RE.match(line.strip())
            if m:
                current = m.group(1)
                fields[current] = m.group(2).strip()
            elif current == "body" and line.strip():
                fields["body"] += "\n" + line.strip()
        kind = fields.get("kind", "")
        if kind not in SKILL_KINDS:
            raise ValueError(f"skill {pieces[i]}: bad kind {kind!r}")
        body = fields.get("body", "").strip()
        if not body:
            raise ValueError(f"skill {pieces[i]}: empty body")
        cites = [int(n) for n in _CITE_RE.findall(fields.get("cites", ""))]
        entries.append(
            SkillEntry(
                id=0,
                kind=kind,
                body=body,
                description=fields.get("description", ""),
                source_task=source_task,
                subject=fields.get("subject") or None,
                cites=cites,
            )
        )
    return entries


class KnowledgeCurator:
    def __init__(
        self,
        gateway: BaseGateway,
        components: tuple[str, ...] = ("catalogue", "front-end"),
    ):
        self.gateway = gateway
        self.components = components
        self.template = prompt_template("curator")

    def _complete(self, text: str, task_id: str = "") -> str:
        self.gateway.task_id = task_id
        return self.gateway.complete("curator", [{"speaker": "curator", "text": text}], actor="curator")

    def _judge(self, question: str, task_id: str = "") -> bool:
        completion = self._complete(question, task_id)
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
            return self._complete(prompt, task.id)

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
        state: ClusterState | None,
        trajectory: list[InteractionRecord],
    ) -> str:
        """Returns validated | rejected | deferred and stamps entry.validated."""
        if state is None:
            return "deferred"
        if entry.kind == "Command":
            status = self._validate_command(entry, state)
        elif entry.kind == "Configuration":
            status = self._validate_configuration(entry, state)
        else:
            status = self._validate_reflection(entry, trajectory)
        entry.validated = status == "validated"
        return status

    def _validate_command(self, entry: SkillEntry, state: ClusterState) -> str:
        shell = ShellGateway(clone(state), components=self.components)
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
        return "validated" if self._judge(question, entry.source_task) else "rejected"

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
            shell = ShellGateway(clone(state), components=self.components)
            described = shell.execute(
                f"kubectl describe deployment {dep.name} -n {dep.namespace}"
            )
            question = (
                "Judge whether the statement agrees with the deployment description.\n"
                f"Statement: {entry.body}\n"
                f"Description:\n{described.stdout}\n"
                "Answer `match` or `mismatch`."
            )
            return "validated" if self._judge(question, entry.source_task) else "rejected"
        required: list[str] = []
        if facet == "image":
            required = [dep.image]
        elif facet == "resources":
            required = [
                format_cpu(dep.resources.cpu_request),
                format_cpu(dep.resources.cpu_limit),
                format_mem(dep.resources.mem_request),
                format_mem(dep.resources.mem_limit),
            ]
        elif facet == "command":
            required = ([dep.command] if dep.command else []) + list(dep.args)
        elif facet == "probes":
            paths = sorted({p.http_path for p in dep.probes})
            delays = sorted({f"{p.initial_delay:g}" for p in dep.probes})
            required = paths + delays
            if not required:
                return "rejected"
        elif facet == "replicas":
            required = [str(dep.replicas)]
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
        return "validated" if self._judge(question, entry.source_task) else "rejected"

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
        state: ClusterState | None,
        library: SkillLibrary,
        round_no: int = 0,
        trial: int = 1,
    ) -> dict[str, int]:
        entries = self.extract(task, trajectory, solution)
        validated = []
        for entry in entries:
            entry.created_round = round_no
            entry.trial = trial
            if self.validate(entry, state, trajectory) == "validated":
                validated.append(entry)
        counts = self.consolidate(library, validated)
        counts["extracted"] = len(entries)
        counts["validated"] = len(validated)
        return counts
