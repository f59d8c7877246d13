from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from telegate import qsim
from telegate.builder import NonlocalCUSpec, build_program
from telegate.protocol import (
    AllocQubit,
    ApplyControlledLocal,
    ApplyLocal,
    ConditionalPauli,
    DiscardBit,
    ExternalWire,
    Instruction,
    MakeBellPair,
    MeasureZ,
    Party,
    Program,
    ProgramParseError,
    ResourceCensus,
    SendBit,
    WireKind,
    WireRef,
    cwire,
    format_instruction,
    format_program,
    parse_program,
    qwire,
    resource_census,
    validate_locality,
)


def nonlocal_cnot() -> Program:
    return build_program(NonlocalCUSpec.for_gate(qsim.X), gate_label="X")


def two_party_externals() -> tuple[ExternalWire, ...]:
    return (ExternalWire(qwire(0), Party.ALICE), ExternalWire(qwire(1), Party.BOB))


# validator

def test_builder_program_is_valid():
    assert validate_locality(nonlocal_cnot()) == []


def test_cross_party_controlled_gate_is_flagged():
    p = Program(
        two_party_externals(),
        (ApplyControlledLocal(Party.ALICE, qwire(0), (qwire(1),), qsim.X),),
    )
    violations = validate_locality(p)
    assert len(violations) == 1
    assert violations[0].index == 0
    assert "cross-party" in violations[0].reason


def test_read_before_write_is_flagged():
    p = Program(
        two_party_externals(),
        (ConditionalPauli(Party.ALICE, qwire(0), "Z", cwire(1)),),
    )
    violations = validate_locality(p)
    assert any("read before write" in v.reason for v in violations)


def test_double_write_is_flagged():
    p = Program(
        two_party_externals(),
        (
            AllocQubit(Party.ALICE, qwire(2), 0),
            AllocQubit(Party.ALICE, qwire(3), 0),
            MeasureZ(Party.ALICE, qwire(2), cwire(1)),
            MeasureZ(Party.ALICE, qwire(3), cwire(1)),
        ),
    )
    assert any("written twice" in v.reason for v in validate_locality(p))


def test_measuring_external_wire_is_flagged():
    p = Program(
        two_party_externals(),
        (MeasureZ(Party.ALICE, qwire(0), cwire(1)), DiscardBit(cwire(1))),
    )
    assert any("external" in v.reason for v in validate_locality(p))


def test_unmeasured_internal_wire_is_flagged():
    p = Program(two_party_externals(), (AllocQubit(Party.BOB, qwire(2), 0),))
    violations = validate_locality(p)
    assert violations and violations[0].index == -1
    assert "never measured" in violations[0].reason


def test_classical_read_across_cut_without_send():
    p = Program(
        two_party_externals(),
        (
            AllocQubit(Party.ALICE, qwire(2), 0),
            MeasureZ(Party.ALICE, qwire(2), cwire(1)),
            ConditionalPauli(Party.BOB, qwire(1), "X", cwire(1)),
        ),
    )
    assert any("never sent" in v.reason for v in validate_locality(p))


def test_use_after_discard_is_flagged():
    p = Program(
        two_party_externals(),
        (
            AllocQubit(Party.ALICE, qwire(2), 0),
            MeasureZ(Party.ALICE, qwire(2), cwire(1)),
            DiscardBit(cwire(1)),
            ConditionalPauli(Party.ALICE, qwire(0), "Z", cwire(1)),
        ),
    )
    assert any("after discard" in v.reason for v in validate_locality(p))


def _cross_party_instruction(rng: np.random.Generator, k: int):
    """An instruction in which one party touches the other's quantum wire."""
    control, target = qwire(0), qwire(1)  # control owned by Alice, target by Bob
    choice = rng.integers(0, 4)
    if choice == 0:
        return ApplyLocal(Party.BOB, (control,), qsim.X)
    if choice == 1:
        return ApplyLocal(Party.ALICE, (target,), qsim.H)
    if choice == 2:
        return ApplyControlledLocal(Party.ALICE, control, (target,), qsim.X)
    return MeasureZ(Party.BOB, control, cwire(9))


@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_injected_cross_party_instruction_always_rejected(seed, position):
    rng = np.random.default_rng(seed)
    base = nonlocal_cnot()
    pos = min(position, len(base.instructions))
    bad = _cross_party_instruction(rng, 1)
    mutated = Program(
        base.externals,
        base.instructions[:pos] + (bad,) + base.instructions[pos:],
        base.phases[:pos] + (None,) + base.phases[pos:],
    )
    assert validate_locality(mutated)


# census

def test_builder_census_is_one_one_one():
    assert resource_census(nonlocal_cnot()) == ResourceCensus(1, 1, 1)


def test_empty_program_census():
    assert resource_census(Program(two_party_externals())) == ResourceCensus(0, 0, 0)


def test_direct_controlled_gate_census_is_zero():
    # the monolithic specification as a (locality-violating) program
    p = Program(
        two_party_externals(),
        (ApplyControlledLocal(Party.ALICE, qwire(0), (qwire(1),), qsim.X),),
    )
    assert resource_census(p) == ResourceCensus(0, 0, 0)


def test_census_additivity_under_concatenation():
    p, q = nonlocal_cnot(), nonlocal_cnot()
    combined = Program(p.externals, p.instructions + q.instructions)
    cp, cq, cc = resource_census(p), resource_census(q), resource_census(combined)
    assert cc == ResourceCensus(
        cp.ebits + cq.ebits,
        cp.bits_alice_to_bob + cq.bits_alice_to_bob,
        cp.bits_bob_to_alice + cq.bits_bob_to_alice,
    )


# structural construction errors

def test_instruction_constructors_reject_malformed():
    with pytest.raises(ValueError):
        ApplyLocal(Party.ALICE, (qwire(0),), qsim.controlled(qsim.X))  # dim mismatch
    with pytest.raises(ValueError):
        ApplyLocal(Party.ALICE, (cwire(0),), qsim.X)  # classical wire
    with pytest.raises(ValueError):
        MakeBellPair(qwire(1), qwire(1))
    with pytest.raises(ValueError):
        SendBit(Party.ALICE, Party.ALICE, cwire(1))
    with pytest.raises(ValueError):
        ConditionalPauli(Party.ALICE, qwire(0), "Y", cwire(1))
    with pytest.raises(ValueError):
        AllocQubit(Party.ALICE, qwire(0), 2)
    with pytest.raises(ValueError):
        WireRef(WireKind.QUANTUM, -1)


A, B = Party.ALICE, Party.BOB


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ApplyLocal(A, (), qsim.X), "ApplyLocal needs at least one wire"),
        (
            lambda: ApplyControlledLocal(A, qwire(0), (), qsim.X),
            "ApplyControlledLocal needs at least one target",
        ),
        (
            lambda: ApplyControlledLocal(A, qwire(0), (qwire(0),), qsim.X),
            "control and targets must be distinct wires",
        ),
        (
            lambda: ApplyControlledLocal(A, qwire(0), (qwire(1),), qsim.controlled(qsim.X)),
            "gate of dim 4 cannot act on 1 targets",
        ),
        (
            lambda: Program((), (AllocQubit(A, qwire(1), 0),), (1, 2)),
            "phases must align with instructions",
        ),
        (
            lambda: Program((), (AllocQubit(A, qwire(1), 0),), (4,)),
            "phase tag must be 1, 2, 3 or None, got 4",
        ),
        (
            lambda: Program((ExternalWire(qwire(0), A), ExternalWire(qwire(0), B))),
            "external wires must be distinct",
        ),
        (
            lambda: Program((ExternalWire(qwire(0), A),), ("gate A q0 : X",)),
            "not an instruction: 'gate A q0 : X'",
        ),
    ],
)
def test_ir_constructor_refusals(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_double_allocation_and_double_discard_are_flagged():
    program = Program(
        (),
        (
            AllocQubit(A, qwire(1), 0),
            MakeBellPair(qwire(1), qwire(2)),
            MeasureZ(A, qwire(1), cwire(1)),
            MeasureZ(B, qwire(2), cwire(2)),
            DiscardBit(cwire(1)),
            DiscardBit(cwire(1)),
            DiscardBit(cwire(2)),
        ),
    )
    assert [(v.index, v.reason) for v in validate_locality(program)] == [
        (1, "quantum wire q1 allocated twice"),
        (5, "classical wire c1 discarded twice"),
    ]


def _measured(party: Party, q: int, c: int) -> tuple:
    """Allocate internal qubit q at ``party`` and measure it into bit c."""
    return AllocQubit(party, qwire(q), 0), MeasureZ(party, qwire(q), cwire(c))


# Each lint reason of validate_locality, pinned exactly, and the order of
# several reasons on one instruction.  Externals: q0 at Alice, q1 at Bob.
LINT_CASES = {
    "unknown wire": ((ApplyLocal(A, (qwire(5),), qsim.X),), [(0, "unknown quantum wire q5")]),
    "already measured": (
        (*_measured(A, 2, 1), ApplyLocal(A, (qwire(2),), qsim.X)),
        [(2, "quantum wire q2 was already measured")],
    ),
    "cross-party touch": (
        (ApplyLocal(B, (qwire(0),), qsim.X),),
        [(0, "cross-party quantum touch: q0 is owned by Alice")],
    ),
    "read before write": (
        (ConditionalPauli(A, qwire(0), "Z", cwire(1)),),
        [(0, "classical wire c1 read before write")],
    ),
    "used after discard": (
        (*_measured(A, 2, 1), DiscardBit(cwire(1)), ConditionalPauli(A, qwire(0), "Z", cwire(1))),
        [(3, "classical wire c1 used after discard")],
    ),
    "never sent": (
        (*_measured(A, 2, 1), ConditionalPauli(B, qwire(1), "X", cwire(1))),
        [(2, "Bob cannot read c1 (never sent across the cut)")],
    ),
    "allocated twice": (
        (AllocQubit(A, qwire(2), 0), AllocQubit(B, qwire(2), 1), MeasureZ(A, qwire(2), cwire(1))),
        [(1, "quantum wire q2 allocated twice")],
    ),
    "external measured": (
        (MeasureZ(A, qwire(0), cwire(1)),),
        [(0, "external wire q0 must not be measured")],
    ),
    "written twice": (
        (*_measured(A, 2, 1), *_measured(A, 3, 1)),
        [(3, "classical wire c1 written twice")],
    ),
    "discarded before write": (
        (DiscardBit(cwire(1)),),
        [(0, "classical wire c1 discarded before write")],
    ),
    "discarded twice": (
        (*_measured(A, 2, 1), DiscardBit(cwire(1)), DiscardBit(cwire(1))),
        [(3, "classical wire c1 discarded twice")],
    ),
    "never measured": ((AllocQubit(B, qwire(2), 0),), [(-1, "internal quantum wire q2 never measured")]),
    # several on one instruction: checks run in field order
    "measz of the other party's external": (
        (MeasureZ(B, qwire(0), cwire(1)),),
        [
            (0, "cross-party quantum touch: q0 is owned by Alice"),
            (0, "external wire q0 must not be measured"),
        ],
    ),
    "send of a discarded bit": (  # the discard is named, not the unsent bit
        (*_measured(A, 2, 1), DiscardBit(cwire(1)), SendBit(B, A, cwire(1))),
        [(3, "classical wire c1 used after discard")],
    ),
    "control, then targets": (
        (ApplyControlledLocal(B, qwire(0), (qwire(5),), qsim.X),),
        [(0, "cross-party quantum touch: q0 is owned by Alice"), (0, "unknown quantum wire q5")],
    ),
    "touch, then read": (
        (ConditionalPauli(B, qwire(0), "X", cwire(1)),),
        [
            (0, "cross-party quantum touch: q0 is owned by Alice"),
            (0, "classical wire c1 read before write"),
        ],
    ),
}


@pytest.mark.parametrize("name", LINT_CASES)
def test_every_lint_reason_is_pinned(name):
    instructions, expected = LINT_CASES[name]
    program = Program(two_party_externals(), instructions)
    assert [(v.index, v.reason) for v in validate_locality(program)] == expected


def test_wire_ref_hash_agrees_with_eq():
    wires = [qwire(0), qwire(1), cwire(0), cwire(1), WireRef(WireKind.QUANTUM, 0)]
    for a in wires:
        for b in wires:
            assert (a == b) == (hash(a) == hash(b))
    assert len({*wires}) == 4
    assert repr(qwire(2)) == "WireRef(kind=<WireKind.QUANTUM: 'q'>, id=2)"


def test_wire_ref_round_trips_keep_hash_and_eq():
    import copy
    import pickle

    w = cwire(5)
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert twin == w and hash(twin) == hash(w) and {w: 1}[twin] == 1
    moved = WireRef(w.kind, 6)
    assert moved == cwire(6) and hash(moved) == hash(cwire(6))
    flipped = WireRef(WireKind.QUANTUM, w.id)
    assert flipped == qwire(5) and hash(flipped) == hash(qwire(5))


def test_wire_ref_pickled_in_another_process_is_rehashed():
    """String hashes are salted per process: a pickled wire must not
    carry its old hash into a process with another salt."""
    import os
    import pickle
    import subprocess
    import sys

    salt = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = "import pickle, sys; from telegate.protocol import qwire; " \
        "sys.stdout.buffer.write(pickle.dumps({qwire(3): 'x'}))"
    env = {**os.environ, "PYTHONHASHSEED": salt}
    dumped = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    assert pickle.loads(dumped)[qwire(3)] == "x"


# text format

SPEC_STYLE_TEXT = """\
# a hand-written fragment
ext A q0
ext B q3

bell q1@A q2@B
CGATE B q2 -> q3 : H
measz A q1 -> c1
send A->B c1
cpauli B q2 X if c1
measz b Q2 -> C2
discard c1
discard c2
"""


def test_parse_spec_style_lines():
    p = parse_program(SPEC_STYLE_TEXT)
    assert p.external_wires == (qwire(0), qwire(3))
    kinds = [type(i).__name__ for i in p.instructions]
    assert kinds == [
        "MakeBellPair",
        "ApplyControlledLocal",
        "MeasureZ",
        "SendBit",
        "ConditionalPauli",
        "MeasureZ",
        "DiscardBit",
        "DiscardBit",
    ]
    assert p.source_lines == (5, 6, 7, 8, 9, 10, 11, 12)
    cgate = p.instructions[1]
    assert cgate.party is Party.BOB and cgate.gate == qsim.H
    assert validate_locality(p) == []


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProgramParseError, match="line 1") as exc:
        parse_program("frobnicate q1\n")
    assert exc.value.line == 1
    with pytest.raises(ProgramParseError, match="line 3"):
        parse_program("ext A q0\next B q1\nmeasz A q0 c1\n")
    with pytest.raises(ProgramParseError, match="gate expression"):
        parse_program("ext A q0\ngate A q0 : WAT\n")
    with pytest.raises(ProgramParseError, match="party"):
        parse_program("measz C q0 -> c1\n")
    # the IR constructors' refusals carry the line too
    for text, line, reason in (
        ("ext A q0\n: X\n", 2, "missing keyword"),
        ("ext A q0\next B q1\next A q0\n", 3, "external wire q0 declared twice"),
        ("ext A q0 : X\n", 1, "unexpected ':'"),
        ("ext A c0\n", 1, "expected a quantum wire"),
        ("ext A q0\nmeasz A q0 -> q1\n", 2, "expected a classical wire"),
        ("ext A q0\nsend A->A c1\n", 2, "must cross the cut"),
        ("ext A q0\ncpauli A q0 Y if c1\n", 2, "pauli must be 'X' or 'Z'"),
        # only \n ends a line: form feed and NEL are whitespace within it
        ("ext A q0\x0cwobble q0\n", 1, "usage: ext"),
        ("ext A q0\x85ext B q1\n", 1, "usage: ext"),
        ("ext A q0\u2028wobble q0\n", 1, "usage: ext"),
        ("ext A q0\r\next B q1\r\nwobble q0\r\n", 3, "unknown instruction"),
    ):
        with pytest.raises(ProgramParseError, match=reason) as exc:
            parse_program(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("ext A q0\nalloc A q1 = 0\next B q2\n", 3, "ext lines must precede instructions"),
        ("phase 4\n", 1, "phase must be 1, 2 or 3, got '4'"),
        ("bell q1 q2@B\n", 1, "bell wire needs @party, got 'q1'"),
        ("bell q1@A q2@A\n", 1, "bell needs one wire per party"),
        ("ext A q0\nsend A-B c1\n", 2, "expected A->B or B->A, got 'A-B'"),
        ("ext A q0\ngate A q0 :\n", 2, "missing gate expression after ':'"),
        ("ext A q0\n\ngate A q0 : RZ(X)\n", 3,
         "bad gate expression: expected 'NUMBER' but got 'X' at offset 3"),
        ("alloc A q1 0\n", 1, "usage: alloc <party> <qwire> = <0|1>"),
        ("alloc A q1 = 2\n", 1, "usage: alloc <party> <qwire> = <0|1>"),
        ("ext A q0\ngate A q0\n", 2, "usage: gate <party> <qwire...> : <expr>"),
        ("ext A q0\ncgate A q0 q1 : X\n", 2, "usage: cgate <party> <qwire> -> <qwire...> : <expr>"),
        ("ext A q0\nmeasz A q0 c1\n", 2, "usage: measz <party> <qwire> -> <cwire>"),
        ("ext A q0\nmeasz A q0 => c1\n", 2, "usage: measz <party> <qwire> -> <cwire>"),
        ("ext A q0\ncpauli A q0 X when c1\n", 2, "usage: cpauli <party> <qwire> <X|Z> if <cwire>"),
        ("ext A q0\ncpauli A q0 X\n", 2, "usage: cpauli <party> <qwire> <X|Z> if <cwire>"),
    ],
)
def test_program_refusals_name_their_line(text, line, message):
    with pytest.raises(ProgramParseError) as exc:
        parse_program(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_source_lines_count_newlines_only():
    text = "ext A q0\r\n# page one\x0c page two\x0b\r\nalloc A q1 = 0\r\nmeasz A q1 -> c1\n"
    assert parse_program(text).source_lines == (3, 4)


@pytest.mark.parametrize(
    "line",
    [
        "phase 1",
        "alloc A q1 = 0",
        "bell q1@A q2@B",
        "measz A q1 -> c1",
        "send A->B c1",
        "cpauli B q2 X if c1",
        "discard c1",
    ],
)
def test_stray_colon_is_refused_on_non_gate_lines(line):
    """Only gate and cgate lines take ': <expr>'; elsewhere the text after
    ':' is refused rather than dropped."""
    text = f"ext A q0\n\n{line}\n"
    parse_program(text)
    with pytest.raises(ProgramParseError, match="unexpected ':'") as exc:
        parse_program(text.replace(line, f"{line} : (((("))
    assert exc.value.line == 3


def test_format_parse_round_trip():
    p = nonlocal_cnot()
    text = format_program(p)
    again = parse_program(text)
    assert again.externals == p.externals
    assert again.instructions == p.instructions
    assert again.phases == p.phases
    assert format_program(again) == text


def test_round_trip_of_matrix_labelled_gate():
    u = qsim.haar_random_unitary(2, 7)
    p = Program(
        (ExternalWire(qwire(0), Party.ALICE),),
        (ApplyLocal(Party.ALICE, (qwire(0),), u),),  # no label: formats as a literal
    )
    again = parse_program(format_program(p))
    assert again.instructions[0].gate == u


def test_phase_directive_round_trip():
    text = "ext A q0\nphase 2\ngate A q0 : X\n"
    p = parse_program(text)
    assert p.phases == (2,)
    assert format_program(p) == text


def test_builder_phases_are_three_contiguous_runs():
    p = nonlocal_cnot()
    assert p.phases == (1,) + (2,) * 5 + (3,) * 6


def test_an_unphased_instruction_after_a_phased_one_reads_back_phased():
    """The text format has no directive that ends a phase, so phases
    (1, None) format and read back as (1, 1): an unequal program."""
    x, h = ApplyLocal(A, (qwire(0),), qsim.X, "X"), ApplyLocal(A, (qwire(0),), qsim.H, "H")
    p = Program((ExternalWire(qwire(0), A),), (x, h), (1, None))
    text = format_program(p)
    assert text == "ext A q0\nphase 1\ngate A q0 : X\ngate A q0 : H\n"
    again = parse_program(text)
    assert again.phases == (1, 1) and again != p


# the instruction table: each class's _syntax and _effects

INSTRUCTION_CLASSES = Instruction.__args__
ROLES = {"create", "touch", "measure", "write", "read", "send", "discard"}
# One instance of each class, over externals q0 at Alice and q1 at Bob.
EXAMPLES = (
    AllocQubit(A, qwire(2), 1),
    MakeBellPair(qwire(2), qwire(3)),
    ApplyLocal(A, (qwire(0), qwire(2)), qsim.haar_random_unitary(4, 11)),  # unlabelled
    ApplyControlledLocal(B, qwire(1), (qwire(3),), qsim.H, "H"),
    MeasureZ(B, qwire(3), cwire(2)),
    SendBit(B, A, cwire(2)),
    ConditionalPauli(A, qwire(0), "Z", cwire(2)),
    DiscardBit(cwire(2)),
)


@pytest.mark.parametrize("cls", INSTRUCTION_CLASSES, ids=lambda cls: cls.__name__)
def test_every_instruction_class_has_a_table_entry(cls):
    assert isinstance(vars(cls)["_syntax"], str)
    example = next(ins for ins in EXAMPLES if type(ins) is cls)
    named = set()
    for role, field, party in vars(cls)["_effects"]:
        assert role in ROLES and field in cls._fields
        assert party is None or isinstance(party, Party) or party in cls._fields
        named.add(field)
    values = {name: getattr(example, name) for name in cls._fields}
    wire_fields = {
        name for name, value in values.items()
        if isinstance(value, WireRef) or isinstance(value, tuple) and isinstance(value[0], WireRef)
    }
    assert named == wire_fields  # the effects name every wire of the instruction
    keywords = [c._syntax.split()[0] for c in INSTRUCTION_CLASSES]
    assert len(set(keywords)) == len(keywords)


@pytest.mark.parametrize("cls", INSTRUCTION_CLASSES, ids=lambda cls: cls.__name__)
def test_a_wrong_arity_line_is_refused_with_the_syntax(cls):
    keyword = cls._syntax.split()[0]
    with pytest.raises(ProgramParseError) as exc:
        parse_program(f"ext A q0\n{keyword}\n")
    assert str(exc.value) == "line 2: usage: " + cls._syntax


def test_every_syntax_is_in_the_documented_instructions():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "program-format.md").read_text()
    block = doc.split("## Instructions", 1)[1].split("```")[1]
    documented = [line.split("  ")[0] for line in block.strip().splitlines()]
    assert documented == [cls._syntax for cls in INSTRUCTION_CLASSES]


@pytest.mark.parametrize("ins", EXAMPLES, ids=lambda ins: type(ins).__name__)
def test_each_instruction_survives_format_and_parse(ins):
    text = format_instruction(ins)
    again = parse_program(f"ext A q0\next B q1\n{text}\n").instructions
    assert again == (ins,)
    assert format_instruction(again[0]) == text


def test_an_unlabelled_gate_formats_as_a_matrix_literal():
    (gate,) = (ins for ins in EXAMPLES if type(ins) is ApplyLocal)
    assert gate.label is None
    assert format_instruction(gate).startswith("gate A q0 q2 : [[")
