"""Two-party protocol IR: instructions, locality validation, and resources.

A :class:`Program` is an ordered list of instructions over named wires.
Quantum wires (``q0``, ``q1``, ...) are owned by exactly one party for
their whole lifetime and never cross the Alice/Bob cut; classical wires
(``c1``, ``c2``, ...) are written exactly once by a measurement and may
cross the cut only through an explicit ``SendBit``.

:func:`validate_locality` checks those rules in one pass and returns a
list of violations (empty = valid) instead of raising, so a linter can
report everything it finds.  :func:`resource_census` counts the
entanglement and classical communication a program consumes.

Programs also have a line-oriented text form (see :func:`parse_program`
and :func:`format_program`); the grammar is documented in
``docs/program-format.md``.
"""

from __future__ import annotations

import enum
import re
from . import gatelang
from ._record import Record
from .qsim import UnitaryMatrix


class Party(enum.Enum):
    ALICE = "A"
    BOB = "B"

    @property
    def short(self) -> str:
        return self.value


class WireKind(enum.Enum):
    QUANTUM = "q"
    CLASSICAL = "c"


class WireRef(Record):
    """A wire name: kind ('q' or 'c') plus a non-negative integer id."""

    __slots__ = _fields = ("kind", "id")

    def __init__(self, kind: WireKind, id: int):
        if id < 0:
            raise ValueError(f"wire id must be non-negative, got {id}")
        Record.__init__(self, kind, id)

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.id}"

    def __str__(self) -> str:
        return self.name


def qwire(i: int) -> WireRef:
    return WireRef(WireKind.QUANTUM, i)


def cwire(i: int) -> WireRef:
    return WireRef(WireKind.CLASSICAL, i)


# --- instruction variants ---------------------------------------------------


class AllocQubit(Record):
    """Allocate a fresh local qubit in a computational basis state."""

    __slots__ = _fields = ("party", "wire", "basis_value")

    def __init__(self, party: Party, wire: WireRef, basis_value: int):
        _require_quantum(wire)
        if basis_value not in (0, 1):
            raise ValueError(f"basis_value must be 0 or 1, got {basis_value}")
        Record.__init__(self, party, wire, basis_value)


class MakeBellPair(Record):
    """Create the shared pair (|00>+|11>)/sqrt(2): left half at Alice,
    right half at Bob.  The one primitive that spans the cut."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: WireRef, right: WireRef):
        _require_quantum(left)
        _require_quantum(right)
        if left == right:
            raise ValueError("bell pair halves must be distinct wires")
        Record.__init__(self, left, right)


class ApplyLocal(Record):
    """Apply a unitary to wires all owned by one party.  ``label`` (the
    source expression, if any) is not compared; the gate makes the
    instruction unhashable."""

    __slots__ = _fields = ("party", "wires", "gate", "label")
    _compared = 3
    __hash__ = None

    def __init__(
        self,
        party: Party,
        wires: tuple[WireRef, ...],
        gate: UnitaryMatrix,
        label: str | None = None,
    ):
        wires = tuple(wires)
        if not wires:
            raise ValueError("ApplyLocal needs at least one wire")
        for w in wires:
            _require_quantum(w)
        if len(set(wires)) != len(wires):
            raise ValueError("ApplyLocal wires must be distinct")
        if gate.dim != 1 << len(wires):
            raise ValueError(f"gate of dim {gate.dim} cannot act on {len(wires)} wires")
        Record.__init__(self, party, wires, gate, label)


class ApplyControlledLocal(Record):
    """Apply a unitary to target wires, controlled on another local wire.
    ``label`` is not compared; the gate makes the instruction unhashable."""

    __slots__ = _fields = ("party", "control", "targets", "gate", "label")
    _compared = 4
    __hash__ = None

    def __init__(
        self,
        party: Party,
        control: WireRef,
        targets: tuple[WireRef, ...],
        gate: UnitaryMatrix,
        label: str | None = None,
    ):
        targets = tuple(targets)
        _require_quantum(control)
        if not targets:
            raise ValueError("ApplyControlledLocal needs at least one target")
        for w in targets:
            _require_quantum(w)
        touched = (control, *targets)
        if len(set(touched)) != len(touched):
            raise ValueError("control and targets must be distinct wires")
        if gate.dim != 1 << len(targets):
            raise ValueError(f"gate of dim {gate.dim} cannot act on {len(targets)} targets")
        Record.__init__(self, party, control, targets, gate, label)


class MeasureZ(Record):
    """Z-measure a local qubit, consuming it and writing a classical bit."""

    __slots__ = _fields = ("party", "wire", "out")

    def __init__(self, party: Party, wire: WireRef, out: WireRef):
        _require_quantum(wire)
        _require_classical(out)
        Record.__init__(self, party, wire, out)


class SendBit(Record):
    """Transmit a written classical bit across the cut."""

    __slots__ = _fields = ("from_party", "to_party", "wire")

    def __init__(self, from_party: Party, to_party: Party, wire: WireRef):
        _require_classical(wire)
        if from_party is to_party:
            raise ValueError("SendBit must cross the cut")
        Record.__init__(self, from_party, to_party, wire)


class ConditionalPauli(Record):
    """Apply X or Z to a local qubit iff a readable classical bit is 1."""

    __slots__ = _fields = ("party", "wire", "pauli", "condition")

    def __init__(self, party: Party, wire: WireRef, pauli: str, condition: WireRef):
        _require_quantum(wire)
        _require_classical(condition)
        if pauli not in ("X", "Z"):
            raise ValueError(f"pauli must be 'X' or 'Z', got {pauli!r}")
        Record.__init__(self, party, wire, pauli, condition)


class DiscardBit(Record):
    """Forget a classical bit (trace it out of the protocol)."""

    __slots__ = _fields = ("wire",)

    def __init__(self, wire: WireRef):
        _require_classical(wire)
        Record.__init__(self, wire)


Instruction = (
    AllocQubit
    | MakeBellPair
    | ApplyLocal
    | ApplyControlledLocal
    | MeasureZ
    | SendBit
    | ConditionalPauli
    | DiscardBit
)


def _require_quantum(w: WireRef) -> None:
    if w.kind is not WireKind.QUANTUM:
        raise ValueError(f"expected a quantum wire, got {w}")


def _require_classical(w: WireRef) -> None:
    if w.kind is not WireKind.CLASSICAL:
        raise ValueError(f"expected a classical wire, got {w}")


class ExternalWire(Record):
    """A declared external quantum wire and its owning party.  Declaration
    order fixes the qubit order of program inputs and outputs."""

    __slots__ = _fields = ("wire", "party")

    def __init__(self, wire: WireRef, party: Party):
        _require_quantum(wire)
        Record.__init__(self, wire, party)


class Program(Record):
    """An immutable instruction list with per-instruction phase tags.

    ``phases[i]`` is 1, 2, or 3 for instructions under one of the three
    protocol phases, or None for unphased instructions (e.g. parsed from
    a file without phase directives).  ``source_lines`` carries 1-based
    file line numbers when the program came from text; it is not
    compared.  A program is hashable only when its instructions are (it
    has no gate), so its hash is computed per call.
    """

    __slots__ = _fields = ("externals", "instructions", "phases", "source_lines")
    _compared = 3

    def __init__(
        self,
        externals: tuple[ExternalWire, ...],
        instructions: tuple[Instruction, ...] = (),
        phases: tuple[int | None, ...] = (),
        source_lines: tuple[int, ...] | None = None,
    ):
        externals = tuple(externals)
        instructions = tuple(instructions)
        phases = tuple(phases) if phases else (None,) * len(instructions)
        if len(phases) != len(instructions):
            raise ValueError("phases must align with instructions")
        for p in phases:
            if p is not None and p not in (1, 2, 3):
                raise ValueError(f"phase tag must be 1, 2, 3 or None, got {p}")
        ext_wires = [e.wire for e in externals]
        if len(set(ext_wires)) != len(ext_wires):
            raise ValueError("external wires must be distinct")
        Record.__init__(self, externals, instructions, phases, source_lines)

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def n_external(self) -> int:
        return len(self.externals)

    @property
    def external_wires(self) -> tuple[WireRef, ...]:
        return tuple(e.wire for e in self.externals)


class Violation(Record):
    """One locality/discipline violation: instruction index and reason.
    index -1 marks end-of-program checks (e.g. an unmeasured wire)."""

    __slots__ = _fields = ("index", "reason")

    def __init__(self, index: int, reason: str):
        Record.__init__(self, index, reason)

    def __str__(self) -> str:
        where = "end of program" if self.index < 0 else f"instruction {self.index}"
        return f"{where}: {self.reason}"


class ResourceCensus(Record):
    """Counts of consumed entanglement and cut-crossing classical bits."""

    __slots__ = _fields = ("ebits", "bits_alice_to_bob", "bits_bob_to_alice")

    def __init__(self, ebits: int, bits_alice_to_bob: int, bits_bob_to_alice: int):
        Record.__init__(self, ebits, bits_alice_to_bob, bits_bob_to_alice)


def resource_census(p: Program) -> ResourceCensus:
    """Count MakeBellPair and directional SendBit instructions."""
    ebits = a2b = b2a = 0
    for ins in p.instructions:
        if isinstance(ins, MakeBellPair):
            ebits += 1
        elif isinstance(ins, SendBit):
            if ins.from_party is Party.ALICE:
                a2b += 1
            else:
                b2a += 1
    return ResourceCensus(ebits, a2b, b2a)


def validate_locality(p: Program) -> list[Violation]:
    """Single-pass locality and wire-discipline check.

    Returns every violation found (empty list = valid program); never
    raises on rule violations.  Enforced rules:

    * single-party instructions touch only quantum wires owned by that party;
    * quantum wires are created once, never cross the cut, and every
      internal one is measured before the program ends;
    * external wires are never measured;
    * classical wires are written exactly once (by MeasureZ), read only
      after being written and only by parties they have reached, cross
      the cut only via SendBit, and are never used after DiscardBit.
    """
    out: list[Violation] = []
    owner: dict[WireRef, Party] = {}
    alive: set[WireRef] = set()
    external = set(p.external_wires)
    readers: dict[WireRef, set[Party]] = {}
    discarded: set[WireRef] = set()

    for e in p.externals:
        owner[e.wire] = e.party
        alive.add(e.wire)

    def bad(i: int, reason: str) -> None:
        out.append(Violation(i, reason))

    def check_touch(i: int, party: Party, w: WireRef) -> None:
        if w not in owner:
            bad(i, f"unknown quantum wire {w}")
        elif w not in alive:
            bad(i, f"quantum wire {w} was already measured")
        elif owner[w] is not party:
            bad(i, f"cross-party quantum touch: {w} is owned by {owner[w].name.title()}")

    def check_read(i: int, party: Party, c: WireRef) -> None:
        if c not in readers:
            bad(i, f"classical wire {c} read before write")
            return
        if c in discarded:
            bad(i, f"classical wire {c} used after discard")
        elif party not in readers[c]:
            bad(i, f"{party.name.title()} cannot read {c} (never sent across the cut)")

    def register(i: int, w: WireRef, party: Party) -> None:
        if w in owner:
            bad(i, f"quantum wire {w} allocated twice")
        else:
            owner[w] = party
            alive.add(w)

    for i, ins in enumerate(p.instructions):
        if isinstance(ins, AllocQubit):
            register(i, ins.wire, ins.party)
        elif isinstance(ins, MakeBellPair):
            register(i, ins.left, Party.ALICE)
            register(i, ins.right, Party.BOB)
        elif isinstance(ins, ApplyLocal):
            for w in ins.wires:
                check_touch(i, ins.party, w)
        elif isinstance(ins, ApplyControlledLocal):
            check_touch(i, ins.party, ins.control)
            for w in ins.targets:
                check_touch(i, ins.party, w)
        elif isinstance(ins, MeasureZ):
            check_touch(i, ins.party, ins.wire)
            if ins.wire in external:
                bad(i, f"external wire {ins.wire} must not be measured")
            alive.discard(ins.wire)
            if ins.out in readers:
                bad(i, f"classical wire {ins.out} written twice")
            else:
                readers[ins.out] = {ins.party}
        elif isinstance(ins, SendBit):
            check_read(i, ins.from_party, ins.wire)
            if ins.wire in readers:
                readers[ins.wire].add(ins.to_party)
        elif isinstance(ins, ConditionalPauli):
            check_touch(i, ins.party, ins.wire)
            check_read(i, ins.party, ins.condition)
        elif isinstance(ins, DiscardBit):
            if ins.wire not in readers:
                bad(i, f"classical wire {ins.wire} discarded before write")
            elif ins.wire in discarded:
                bad(i, f"classical wire {ins.wire} discarded twice")
            else:
                discarded.add(ins.wire)
        else:  # pragma: no cover - union is closed
            raise TypeError(f"unknown instruction {ins!r}")

    for w in sorted(alive - external, key=lambda w: w.id):
        out.append(Violation(-1, f"internal quantum wire {w} never measured"))
    return out


# --- text program format ----------------------------------------------------

class ProgramParseError(ValueError):
    """Syntax error in a program file; carries the 1-based line number.
    Only :func:`parse_program` raises it, wrapping the ValueError of a
    parse helper or an IR constructor with the line that caused it."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_WIRE_RE = re.compile(r"^([qc])([0-9]+)$", re.IGNORECASE)
_SEND_RE = re.compile(r"^(a|b|alice|bob)->(a|b|alice|bob)$", re.IGNORECASE)
_PARTIES = {"a": Party.ALICE, "alice": Party.ALICE, "b": Party.BOB, "bob": Party.BOB}


def _parse_wire(tok: str) -> WireRef:
    m = _WIRE_RE.match(tok)
    if not m:
        raise ValueError(f"expected a wire like q1 or c1, got {tok!r}")
    return WireRef(WireKind(m.group(1).lower()), int(m.group(2)))


def _parse_party(tok: str) -> Party:
    party = _PARTIES.get(tok.lower())
    if party is None:
        raise ValueError(f"expected a party (A or B), got {tok!r}")
    return party


def _parse_gate_expr(text: str) -> tuple[UnitaryMatrix, str]:
    label = text.strip()
    if not label:
        raise ValueError("missing gate expression after ':'")
    try:
        return gatelang.evaluate(gatelang.parse(label)), label
    except ValueError as exc:
        raise ValueError(f"bad gate expression: {exc}") from exc


def parse_program(text: str) -> Program:
    """Parse the line-oriented program format.

    ``#`` starts a comment; keywords and wire/party tokens are
    case-insensitive; gate expressions (after ``:``, on ``gate`` and
    ``cgate`` lines only) follow the case-sensitive gate-expression
    language.  Lines end at ``\n`` only, as editors and ``grep -n``
    count them (a ``\r`` before it is stripped as whitespace; form feeds
    and other Unicode line breaks are whitespace inside a line).  Raises
    :class:`ProgramParseError`, naming the line, on the first line that
    is not well formed.
    """
    externals: list[ExternalWire] = []
    instructions: list[Instruction] = []
    phases: list[int | None] = []
    lines: list[int] = []
    current_phase: int | None = None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head, sep, expr_part = stripped.partition(":")
        toks = head.split()

        def args(n: int, usage: str) -> list[str]:
            if len(toks) - 1 != n:
                raise ValueError(f"usage: {usage}")
            return toks[1:]

        try:
            if not toks:
                raise ValueError("missing keyword before ':'")
            kw = toks[0].lower()
            if sep and kw not in ("gate", "cgate"):
                raise ValueError(f"unexpected ':' in {toks[0]!r} line (only gate and cgate take one)")
            ins: Instruction | None = None
            if kw == "ext":
                a = args(2, "ext <party> <qwire>")
                if instructions:
                    raise ValueError("ext lines must precede instructions")
                ext = ExternalWire(_parse_wire(a[1]), _parse_party(a[0]))
                if any(e.wire == ext.wire for e in externals):
                    raise ValueError(f"external wire {ext.wire} declared twice")
                externals.append(ext)
            elif kw == "phase":
                a = args(1, "phase <1|2|3>")
                if a[0] not in ("1", "2", "3"):
                    raise ValueError(f"phase must be 1, 2 or 3, got {a[0]!r}")
                current_phase = int(a[0])
            elif kw == "alloc":
                a = args(4, "alloc <party> <qwire> = <0|1>")
                if a[2] != "=" or a[3] not in ("0", "1"):
                    raise ValueError("usage: alloc <party> <qwire> = <0|1>")
                ins = AllocQubit(_parse_party(a[0]), _parse_wire(a[1]), int(a[3]))
            elif kw == "bell":
                a = args(2, "bell <qwire>@A <qwire>@B")
                halves = {}
                for tok in a:
                    wire_tok, at, party_tok = tok.partition("@")
                    if not at:
                        raise ValueError(f"bell wire needs @party, got {tok!r}")
                    party = _parse_party(party_tok)
                    halves[party] = _parse_wire(wire_tok)
                if len(halves) != 2:
                    raise ValueError("bell needs one wire per party")
                ins = MakeBellPair(halves[Party.ALICE], halves[Party.BOB])
            elif kw == "gate":
                if len(toks) < 3 or not sep:
                    raise ValueError("usage: gate <party> <qwire...> : <expr>")
                gate, label = _parse_gate_expr(expr_part)
                ins = ApplyLocal(
                    _parse_party(toks[1]), tuple(_parse_wire(t) for t in toks[2:]), gate, label
                )
            elif kw == "cgate":
                if len(toks) < 5 or toks[3] != "->" or not sep:
                    raise ValueError("usage: cgate <party> <qwire> -> <qwire...> : <expr>")
                gate, label = _parse_gate_expr(expr_part)
                ins = ApplyControlledLocal(
                    _parse_party(toks[1]),
                    _parse_wire(toks[2]),
                    tuple(_parse_wire(t) for t in toks[4:]),
                    gate,
                    label,
                )
            elif kw == "measz":
                a = args(4, "measz <party> <qwire> -> <cwire>")
                if a[2] != "->":
                    raise ValueError("usage: measz <party> <qwire> -> <cwire>")
                ins = MeasureZ(_parse_party(a[0]), _parse_wire(a[1]), _parse_wire(a[3]))
            elif kw == "send":
                a = args(2, "send <A->B|B->A> <cwire>")
                m = _SEND_RE.match(a[0])
                if not m:
                    raise ValueError(f"expected A->B or B->A, got {a[0]!r}")
                src, dst = _PARTIES[m.group(1).lower()], _PARTIES[m.group(2).lower()]
                ins = SendBit(src, dst, _parse_wire(a[1]))
            elif kw == "cpauli":
                a = args(5, "cpauli <party> <qwire> <X|Z> if <cwire>")
                if a[3].lower() != "if":
                    raise ValueError("usage: cpauli <party> <qwire> <X|Z> if <cwire>")
                ins = ConditionalPauli(
                    _parse_party(a[0]), _parse_wire(a[1]), a[2].upper(), _parse_wire(a[4])
                )
            elif kw == "discard":
                a = args(1, "discard <cwire>")
                ins = DiscardBit(_parse_wire(a[0]))
            else:
                raise ValueError(f"unknown instruction {toks[0]!r}")
        except ValueError as exc:
            raise ProgramParseError(lineno, str(exc)) from exc

        if ins is not None:
            instructions.append(ins)
            phases.append(current_phase)
            lines.append(lineno)

    return Program(tuple(externals), tuple(instructions), tuple(phases), tuple(lines))


def _format_gate(gate: UnitaryMatrix, label: str | None) -> str:
    if label is not None:
        return label
    return gatelang.format_matrix(gate)


def format_instruction(ins: Instruction) -> str:
    """Render one instruction in the text format."""
    if isinstance(ins, AllocQubit):
        return f"alloc {ins.party.short} {ins.wire} = {ins.basis_value}"
    if isinstance(ins, MakeBellPair):
        return f"bell {ins.left}@A {ins.right}@B"
    if isinstance(ins, ApplyLocal):
        wires = " ".join(str(w) for w in ins.wires)
        return f"gate {ins.party.short} {wires} : {_format_gate(ins.gate, ins.label)}"
    if isinstance(ins, ApplyControlledLocal):
        targets = " ".join(str(w) for w in ins.targets)
        return f"cgate {ins.party.short} {ins.control} -> {targets} : {_format_gate(ins.gate, ins.label)}"
    if isinstance(ins, MeasureZ):
        return f"measz {ins.party.short} {ins.wire} -> {ins.out}"
    if isinstance(ins, SendBit):
        return f"send {ins.from_party.short}->{ins.to_party.short} {ins.wire}"
    if isinstance(ins, ConditionalPauli):
        return f"cpauli {ins.party.short} {ins.wire} {ins.pauli} if {ins.condition}"
    if isinstance(ins, DiscardBit):
        return f"discard {ins.wire}"
    raise TypeError(f"unknown instruction {ins!r}")


def format_program(p: Program) -> str:
    """Render a program in the text format; round-trips through
    :func:`parse_program` (phase tags included, comments not)."""
    out = []
    for e in p.externals:
        out.append(f"ext {e.party.short} {e.wire}")
    current_phase: int | None = None
    for ins, tag in zip(p.instructions, p.phases):
        if tag is not None and tag != current_phase:
            out.append(f"phase {tag}")
            current_phase = tag
        out.append(format_instruction(ins))
    return "\n".join(out) + "\n"
