"""Property tests for the reply grammar the three agent roles share.

The curriculum, the manager and the curator answer in numbered
`<Word> <n>:` blocks of `field: value` lines, read by `llm.parse_blocks`.
`ask_until_parsed` re-asks only on a ValueError, so each role's parser must
raise nothing else, whatever the reply; and blocks rendered in the
canonical format must parse back to the fields they were rendered from.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opslearn.curator import parse_skills
from opslearn.curriculum import parse_round
from opslearn.llm import parse_blocks
from opslearn.planner import parse_plan

_SETTINGS = settings(max_examples=200, deadline=None)
_ASSIGNEES = ("catalogue", "front-end", "manager")
_ROLES = (  # header, a few acceptable values per field, the multi-line field
    (
        "Subtask",
        {
            "assignee": ["catalogue", "front-end", "manager"],
            "description": ["list the pods", "read p95: use histogram_quantile"],
            "depends_on": ["none", "1", "2"],
            "expects": ["nonempty", "json", "number", "regex:^\\d+$"],
        },
        None,
    ),
    (
        "Task",
        {
            "description": ["List the pods.", "Scale front-end to 2"],
            "kind": ["observation", "action", "Action"],
            "stage": ["1", "2", "4"],
            "difficulty": ["1", "3"],
        },
        None,
    ),
    (
        "Skill",
        {
            "kind": ["Command", "Configuration", "Reflection"],
            "body": ["kubectl get pods -n sock-shop", "keep queries encoded"],
            "description": ["when listing pods"],
            "subject": ["sock-shop/catalogue/image"],
            "cites": ["#1 #3", "#2"],
        },
        "body",
    ),
)
_FIELDS = sorted({name for _, fields, _ in _ROLES for name in fields}) + ["verdict", "solution"]

# An empty later copy of a field leaves the earlier value standing.
_REPEATED_EMPTY_FIELD = "Skill 1:\nkind: Command\nkind:\nbody: x"

_JUNK = [
    "nobody", "None", "0", "-1", "5", "x", "1.5", "+3", "command", "OBSERVATION", "Subtask 2:", "kind: action",
    "regex:(", "regex:a{99999999999}", "regex:" + "(" * 2000, "9" * 5000, "#" + "9" * 5000,
]
_noise = st.one_of(
    st.builds(  # a field line, often with an empty value
        "{}{}{}".format,
        st.sampled_from(_FIELDS),
        st.sampled_from([": ", ":", " : ", ":\t", ":: "]),
        st.one_of(st.just(""), st.just(" "), st.sampled_from(_JUNK), st.text(max_size=8)),
    ),
    st.sampled_from(["", "second line", "Here you go:", "Subtask 1", "Skill 1:"]),  # unlabelled
    st.text(max_size=10),
)
_odd_headers = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["Subtask", "Task", "Skill", "subtask", "Tasks"]),
    st.sampled_from([" ", "  ", "\t", "\n", ""]),
    st.sampled_from(["1", "01", "0", "٣", "9" * 5000, "x"]),
    st.sampled_from([":", " :", ":  ", ": x", ""]),
)
_line_breaks = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x1c", "\x85", " "])
_indents = st.sampled_from(["", "", "", "", "  ", "\t"])


@st.composite
def block_replies(draw) -> str:
    """One role's reply as blocks: each block mostly well formed, then
    disturbed by field lines (of any role) that repeat a field or leave its
    value empty, unlabelled lines, odd headers, indentation and every line
    break `str.splitlines` knows."""
    header, valid, _ = draw(st.sampled_from(_ROLES))
    lines = [draw(st.sampled_from(["", "Here is my answer."]))]  # text before the first header
    for number in range(1, draw(st.integers(0, 5)) + 1):
        odd_header = draw(st.integers(0, 15)) == 0
        lines.append(draw(_odd_headers) if odd_header else f"{header} {number}:")
        block = [f"{name}: {draw(st.sampled_from(values))}" for name, values in valid.items() if draw(st.integers(0, 7))]
        for _ in range(draw(st.integers(0, 3))):
            block.insert(draw(st.integers(0, len(block))), draw(_noise))
        lines.extend(draw(_indents) + line + draw(_indents) for line in block)
    return "".join(line + draw(_line_breaks) for line in lines)


@_SETTINGS
@given(text=st.one_of(st.text(max_size=80), block_replies()))
@example(text=_REPEATED_EMPTY_FIELD)
@example(text="Subtask 1:\nassignee: manager\ndescription: d\nexpects: regex:a{99999999999}")
@example(text="Subtask 1:\nassignee: manager\ndescription: d\nexpects: regex:" + "(" * 2000)
@example(text="Subtask 1:\nassignee: manager\ndescription: d\ndepends_on: " + "9" * 5000)
@example(text="Skill " + "9" * 5000 + ":\nkind: Reflection\nbody: b\ncites: #" + "9" * 5000)
def test_role_parsers_raise_only_value_errors(text):
    for parse, args in ((parse_plan, (_ASSIGNEES,)), (parse_round, (1, 1)), (parse_skills, ("t1",))):
        try:
            parse(text, *args)
        except ValueError:
            pass


# Values a canonical reply can carry: one line, no surrounding whitespace;
# continuation lines of a multi-line field hold no colon, so none names a field.
_one_line = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=16
).map(str.strip).filter(bool)
_continuation = _one_line.filter(lambda line: ":" not in line)


@st.composite
def _canonical_blocks(draw):
    header, valid, multiline = draw(st.sampled_from(_ROLES))
    fields = tuple(valid)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        values = draw(st.dictionaries(st.sampled_from(fields), _one_line, max_size=len(fields)))
        if multiline in values:
            values[multiline] = "\n".join([values[multiline]] + draw(st.lists(_continuation, max_size=3)))
        blocks.append(values)
    return header, fields, multiline, blocks


@_SETTINGS
@given(case=_canonical_blocks(), preamble=_continuation)
def test_canonical_blocks_parse_back_to_their_fields(case, preamble):
    header, fields, multiline, blocks = case
    text = preamble + "\n" + "".join(
        f"{header} {n}:\n" + "".join(f"{name}: {value}\n" for name, value in values.items())
        for n, values in enumerate(blocks, start=1)
    )
    parsed = parse_blocks(text, header, fields, multiline)
    assert parsed == [(str(n), values) for n, values in enumerate(blocks, start=1)]


def test_an_empty_later_copy_leaves_the_field_standing():
    (entry,) = parse_skills(_REPEATED_EMPTY_FIELD, "t1")
    assert (entry.kind, entry.body) == ("Command", "x")
    assert parse_blocks("Task 1:\nstage: 2\nstage:\n", "Task", ("stage",)) == [("1", {"stage": "2"})]
