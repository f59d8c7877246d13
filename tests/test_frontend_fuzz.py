"""The front ends' error contract under arbitrary input.

Whatever text reaches ``--gate`` or ``--against`` and whatever bytes a
linted file holds, ``telegate`` exits 0, 1 or 2, no exception escapes
``cli.main``, and exit 2 comes with an ``error:`` line on stderr.
Beneath the CLI, ``parse_program`` either returns a ``Program`` or
raises ``ProgramParseError`` naming a line of its input.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from telegate.cli import main
from telegate.protocol import Program, ProgramParseError, parse_program

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert any("error:" in line for line in err.getvalue().splitlines()), err.getvalue()


@given(st.text())
def test_verify_gate_text(text):
    _check_contract(["verify", f"--gate={text}"])


@given(st.text())
def test_verify_against_text(text):
    _check_contract(
        ["verify", "--file", str(DEMOS / "nonlocal_cnot.tg"), f"--against={text}"]
    )


@pytest.fixture(scope="module")
def lint_target(tmp_path_factory):
    return tmp_path_factory.mktemp("lint") / "fuzzed.tg"


@given(st.binary())
def test_lint_bytes(lint_target, data):
    lint_target.write_bytes(data)
    _check_contract(["lint", str(lint_target)])


@given(st.binary(), st.sampled_from(sorted((DEMOS / "nonlocal_cnot.tg").read_bytes().splitlines())))
def test_lint_bytes_beside_valid_lines(lint_target, data, line):
    """Arbitrary bytes next to a line the parser accepts, so the fuzz also
    reaches past the first line."""
    lint_target.write_bytes((DEMOS / "nonlocal_cnot.tg").read_bytes().replace(line, data, 1))
    _check_contract(["lint", str(lint_target)])


# Tokens of the program format (docs/program-format.md), well and badly
# placed, so fuzzed lines reach every keyword's argument checks.
PROGRAM_TOKENS = (
    "ext", "phase", "alloc", "bell", "gate", "cgate", "measz", "send", "cpauli", "discard",
    "A", "b", "Alice", "BOB", "C", "q0", "q1", "Q2", "c1", "C2", "x1", "q", "=", "0", "1",
    "3", "->", "A->B", "b->a", "A->A", "q1@A", "q2@B", "q0@b", "c1@A", "q1@", "@A", "X",
    "Z", "Y", "if", ":", ": X", ": H x H", ": ((((", ": [[0,1],[1,0]]", "#", "# note",
)

_TOKEN_LINES = st.lists(st.sampled_from(PROGRAM_TOKENS), max_size=7).map(" ".join)


@given(st.one_of(st.text(), st.lists(_TOKEN_LINES, max_size=8).map("\n".join)))
def test_parse_program_returns_program_or_names_a_line(text):
    try:
        assert isinstance(parse_program(text), Program)
    except ProgramParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines), (exc.line, text)
        assert lines[exc.line - 1].split("#", 1)[0].strip(), (exc.line, text)
