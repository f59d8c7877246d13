"""Two-party protocol IR: instructions, locality validation, and resources.

A :class:`Program` is an ordered list of instructions over named wires.
Quantum wires (``q0``, ``q1``, ...) are owned by exactly one party for
their whole lifetime and never cross the Alice/Bob cut; classical wires
(``c1``, ``c2``, ...) are written exactly once by a measurement and may
cross the cut only through an explicit ``SendBit``.

Each instruction class states two things once, as private class
attributes, which the consumers read instead of dispatching on the class:

* ``_syntax``, its line in the text form (``docs/program-format.md``),
  exactly as its usage message shows it: the keyword, then literals and
  placeholders (``_PLACEHOLDERS``) that fill its fields in order.
  :func:`parse_program` reads and :func:`format_instruction` writes by it.
* ``_effects``, what it does to wires, in check order: ``(role, field,
  party)``, the field naming a wire or a tuple of them, the party a field
  naming the acting party, a fixed :class:`Party`, or None.  The roles
  are ``create``, ``touch`` and ``measure`` for qubits and ``write``,
  ``read``, ``send`` and ``discard`` for bits.  :func:`validate_locality`
  runs one rule per role and returns every violation, never raising, so
  a linter can report all it finds; :func:`resource_census` counts the
  pairs created across the cut and the bits sent each way; the executor
  counts the qubits created and finds the wires each instruction names.

Only the executor, for the effect on the state, which differs by class,
and to find its slot, and the builder's scripted mutations dispatch on
the class.
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
    _syntax = "alloc <party> <qwire> = <0|1>"
    _effects = (("create", "wire", "party"),)

    def __init__(self, party: Party, wire: WireRef, basis_value: int):
        _require_quantum(wire)
        if basis_value not in (0, 1):
            raise ValueError(f"basis_value must be 0 or 1, got {basis_value}")
        Record.__init__(self, party, wire, basis_value)


class MakeBellPair(Record):
    """Create the shared pair (|00>+|11>)/sqrt(2): left half at Alice,
    right half at Bob.  The one primitive that spans the cut."""

    __slots__ = _fields = ("left", "right")
    _syntax = "bell <qwire>@A <qwire>@B"
    _effects = (("create", "left", Party.ALICE), ("create", "right", Party.BOB))

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
    _syntax = "gate <party> <qwire...> : <expr>"
    _effects = (("touch", "wires", "party"),)
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
    _syntax = "cgate <party> <qwire> -> <qwire...> : <expr>"
    _effects = (("touch", "control", "party"), ("touch", "targets", "party"))
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
    _syntax = "measz <party> <qwire> -> <cwire>"
    _effects = (("touch", "wire", "party"), ("measure", "wire", "party"), ("write", "out", "party"))

    def __init__(self, party: Party, wire: WireRef, out: WireRef):
        _require_quantum(wire)
        _require_classical(out)
        Record.__init__(self, party, wire, out)


class SendBit(Record):
    """Transmit a written classical bit across the cut."""

    __slots__ = _fields = ("from_party", "to_party", "wire")
    _syntax = "send <A->B|B->A> <cwire>"
    _effects = (("read", "wire", "from_party"), ("send", "wire", "to_party"))

    def __init__(self, from_party: Party, to_party: Party, wire: WireRef):
        _require_classical(wire)
        if from_party is to_party:
            raise ValueError("SendBit must cross the cut")
        Record.__init__(self, from_party, to_party, wire)


class ConditionalPauli(Record):
    """Apply X or Z to a local qubit iff a readable classical bit is 1."""

    __slots__ = _fields = ("party", "wire", "pauli", "condition")
    _syntax = "cpauli <party> <qwire> <X|Z> if <cwire>"
    _effects = (("touch", "wire", "party"), ("read", "condition", "party"))

    def __init__(self, party: Party, wire: WireRef, pauli: str, condition: WireRef):
        _require_quantum(wire)
        _require_classical(condition)
        if pauli not in ("X", "Z"):
            raise ValueError(f"pauli must be 'X' or 'Z', got {pauli!r}")
        Record.__init__(self, party, wire, pauli, condition)


class DiscardBit(Record):
    """Forget a classical bit (trace it out of the protocol)."""

    __slots__ = _fields = ("wire",)
    _syntax = "discard <cwire>"
    _effects = (("discard", "wire", None),)

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
_INSTRUCTIONS = frozenset(Instruction.__args__)
# What resource_census counts, from the effects: the pairs an instruction
# creates across the cut, and the fields naming whom the bits it sends reach.
for _cls in _INSTRUCTIONS:
    _cls._ebits = int({p for role, _, p in _cls._effects if role == "create"} == set(Party))
    _cls._sends = tuple(p for role, _, p in _cls._effects if role == "send")


def _wires_at(ins: Instruction, field: str) -> tuple[WireRef, ...]:
    """The wires that field ``field`` of ``ins`` names: one, or a tuple."""
    value = getattr(ins, field)
    return value if value.__class__ is tuple else (value,)


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
    Anything that is not an instance of an instruction class is refused.

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
        if not _INSTRUCTIONS.issuperset(map(type, instructions)):
            for ins in instructions:
                if not isinstance(ins, Instruction):
                    raise ValueError(f"not an instruction: {ins!r}")
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
    """Count the pairs created across the cut and the bits sent each way."""
    ebits = a2b = b2a = 0
    for ins in p.instructions:
        ebits += ins._ebits
        for field in ins._sends:
            if getattr(ins, field) is Party.BOB:
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
    owner: dict[WireRef, Party] = {e.wire: e.party for e in p.externals}
    alive: set[WireRef] = set(owner)
    external = set(owner)
    readers: dict[WireRef, set[Party]] = {}
    discarded: set[WireRef] = set()

    # One rule per role of an effect (see the module docstring): each
    # returns the reason of a violation, or None.
    def create(w: WireRef, party: Party) -> str | None:
        if w in owner:
            return f"quantum wire {w} allocated twice"
        owner[w] = party
        alive.add(w)

    def touch(w: WireRef, party: Party) -> str | None:
        if w not in owner:
            return f"unknown quantum wire {w}"
        if w not in alive:
            return f"quantum wire {w} was already measured"
        if owner[w] is not party:
            return f"cross-party quantum touch: {w} is owned by {owner[w].name.title()}"

    def measure(w: WireRef, party: Party) -> str | None:
        alive.discard(w)
        if w in external:
            return f"external wire {w} must not be measured"

    def write(c: WireRef, party: Party) -> str | None:
        if c in readers:
            return f"classical wire {c} written twice"
        readers[c] = {party}

    def read(c: WireRef, party: Party) -> str | None:
        if c not in readers:
            return f"classical wire {c} read before write"
        if c in discarded:
            return f"classical wire {c} used after discard"
        if party not in readers[c]:
            return f"{party.name.title()} cannot read {c} (never sent across the cut)"

    def send(c: WireRef, party: Party) -> None:
        if c in readers:
            readers[c].add(party)

    def discard(c: WireRef, party: None) -> str | None:
        if c not in readers:
            return f"classical wire {c} discarded before write"
        if c in discarded:
            return f"classical wire {c} discarded twice"
        discarded.add(c)

    rules = {"create": create, "touch": touch, "measure": measure, "write": write,
             "read": read, "send": send, "discard": discard}
    for i, ins in enumerate(p.instructions):
        for role, field, party in ins._effects:
            rule = rules[role]
            if party.__class__ is str:
                party = getattr(ins, party)
            for w in _wires_at(ins, field):
                reason = rule(w, party)
                if reason:
                    out.append(Violation(i, reason))

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


def _parse_route(tok: str) -> tuple[Party, Party]:
    m = _SEND_RE.match(tok)
    if not m:
        raise ValueError(f"expected A->B or B->A, got {tok!r}")
    return _PARTIES[m.group(1).lower()], _PARTIES[m.group(2).lower()]


# How the text form reads and writes each placeholder of a syntax: the
# number n of fields it fills, in field order; a reader from its token (a
# variadic placeholder's tokens) to their value, or to a tuple of n
# values; and a writer from them back to text.  The halves of a pair and
# the expression after ':' are read by _read_instruction itself.
_PLACEHOLDERS = {
    "<party>": (1, _parse_party, lambda party: party.short),
    "<qwire>": (1, _parse_wire, str),
    "<cwire>": (1, _parse_wire, str),
    "<qwire...>": (1, lambda toks: tuple(map(_parse_wire, toks)), lambda ws: " ".join(map(str, ws))),
    "<0|1>": (1, int, str),
    "<X|Z>": (1, str.upper, str),
    "<A->B|B->A>": (2, _parse_route, lambda a, b: f"{a.short}->{b.short}"),
    "<qwire>@A": (1, None, lambda wire: f"{wire}@A"),
    "<qwire>@B": (1, None, lambda wire: f"{wire}@B"),
    "<expr>": (2, None, lambda gate, label: gatelang.format_matrix(gate) if label is None else label),
}
# The instruction classes by keyword, and the keywords that take ': <expr>'.
_KEYWORDS = {cls._syntax.split()[0]: cls for cls in Instruction.__args__}
_GATED = tuple(kw for kw, cls in _KEYWORDS.items() if cls._syntax.endswith(": <expr>"))


def _read_instruction(cls: type, args: list[str], expr: str | None) -> Instruction:
    """Read an instruction of class ``cls`` by its syntax, from the tokens
    after its keyword and the text after its ':' (None if there is none).
    A line of the wrong shape (token count, ':', a literal in any case,
    or <0|1>) is refused with the syntax as its usage; then the
    expression is read, then each token in order."""
    keyword, *words = cls._syntax.split()
    gated = words[-1] == "<expr>"
    head = words[:-2] if gated else words  # the words before ': <expr>'
    variadic = head[-1].endswith("...>")
    if (len(args) < len(head) if variadic else len(args) != len(head)) or (gated and expr is None) \
            or any(tok.lower() != word if word[0] != "<" else word == "<0|1>" and tok not in ("0", "1")
                   for word, tok in zip(head, args)):
        raise ValueError(f"usage: {cls._syntax}")
    tail = () if expr is None else _parse_gate_expr(expr)
    values: list = []
    halves: dict[str, WireRef] = {}  # a pair's wires by party: either may come first
    for i, word in enumerate(head):
        if word[0] != "<":
            continue
        if "@" in word:
            wire, at, party = args[i].partition("@")
            if not at:
                raise ValueError(f"{keyword} wire needs @party, got {args[i]!r}")
            side = _parse_party(party).short
            halves[side] = _parse_wire(wire)
        else:
            n, read, _ = _PLACEHOLDERS[word]
            value = read(args[i:] if word.endswith("...>") else args[i])
            values += value if n > 1 else (value,)
    if halves:
        if len(halves) != 2:
            raise ValueError(f"{keyword} needs one wire per party")
        values = [halves[word[-1]] for word in head]
    return cls(*values, *tail)


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
        head, sep, expr = stripped.partition(":")
        toks = head.split()
        try:
            if not toks:
                raise ValueError("missing keyword before ':'")
            kw = toks[0].lower()
            if sep and kw not in _GATED:
                raise ValueError(f"unexpected ':' in {toks[0]!r} line"
                                 f" (only {' and '.join(_GATED)} take one)")
            if kw == "ext":
                if len(toks) != 3:
                    raise ValueError("usage: ext <party> <qwire>")
                if instructions:
                    raise ValueError("ext lines must precede instructions")
                ext = ExternalWire(_parse_wire(toks[2]), _parse_party(toks[1]))
                if any(e.wire == ext.wire for e in externals):
                    raise ValueError(f"external wire {ext.wire} declared twice")
                externals.append(ext)
            elif kw == "phase":
                if len(toks) != 2:
                    raise ValueError("usage: phase <1|2|3>")
                if toks[1] not in ("1", "2", "3"):
                    raise ValueError(f"phase must be 1, 2 or 3, got {toks[1]!r}")
                current_phase = int(toks[1])
            elif kw in _KEYWORDS:
                ins = _read_instruction(_KEYWORDS[kw], toks[1:], expr if sep else None)
                instructions.append(ins)
                phases.append(current_phase)
                lines.append(lineno)
            else:
                raise ValueError(f"unknown instruction {toks[0]!r}")
        except ValueError as exc:
            raise ProgramParseError(lineno, str(exc)) from exc

    return Program(tuple(externals), tuple(instructions), tuple(phases), tuple(lines))


def format_instruction(ins: Instruction) -> str:
    """Render one instruction in the text format, by its class's syntax."""
    values = [getattr(ins, name) for name in ins._fields]
    out = []
    for word in ins._syntax.split():
        if word in _PLACEHOLDERS:
            n, _, write = _PLACEHOLDERS[word]
            out.append(write(*values[:n]))
            del values[:n]
        else:
            out.append(word)
    return " ".join(out)


def format_program(p: Program) -> str:
    """Render a program in the text format, which :func:`parse_program`
    reads back to an equal program, comments aside, unless an unphased
    instruction follows a phased one: the format has no directive that
    ends a phase, so that instruction reads back under the phase before."""
    out = [f"ext {e.party.short} {e.wire}" for e in p.externals]
    current_phase: int | None = None
    for ins, tag in zip(p.instructions, p.phases):
        if tag is not None and tag != current_phase:
            out.append(f"phase {tag}")
            current_phase = tag
        out.append(format_instruction(ins))
    return "\n".join(out) + "\n"
