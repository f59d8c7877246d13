"""Builds the two-party program implementing a controlled unitary whose
control sits at Alice and whose target register sits at Bob.

The construction consumes exactly one shared entangled pair and one
classical bit in each direction, in three phases:

1. distribute entanglement (Bell pair ``a``@Alice / ``b``@Bob);
2. Alice entangles her control into ``a`` with a CNOT, Z-measures ``a``
   and sends the bit; Bob X-corrects ``b`` and applies the controlled
   gate locally, with ``b`` standing in for the control;
3. Bob rotates ``b`` with H, Z-measures it and sends the bit back;
   Alice Z-corrects the control, and both bits are discarded.

The companion specification is the same controlled gate as one monolithic
unitary acting across the cut.
"""

from __future__ import annotations

import functools

from . import qsim
from ._record import Record
from .protocol import (
    AllocQubit,
    ApplyControlledLocal,
    ApplyLocal,
    ConditionalPauli,
    DiscardBit,
    ExternalWire,
    MakeBellPair,
    MeasureZ,
    Party,
    Program,
    SendBit,
    cwire,
    qwire,
)
from .qsim import UnitaryMatrix

MAX_TARGET_QUBITS = 8


class NonlocalCUSpec(Record):
    """The unitary to be controlled, acting on ``k`` target qubits.
    Unhashable, as its gate is."""

    __slots__ = _fields = ("c", "k")
    __hash__ = None

    def __init__(self, c: UnitaryMatrix, k: int):
        if not 1 <= k <= MAX_TARGET_QUBITS:
            raise ValueError(f"k must be in 1..{MAX_TARGET_QUBITS}, got {k}")
        if c.dim != 1 << k:
            raise ValueError(f"gate of dim {c.dim} does not act on {k} qubits")
        Record.__init__(self, c, k)

    @classmethod
    def for_gate(cls, c: UnitaryMatrix) -> "NonlocalCUSpec":
        """Infer ``k`` from the gate dimension."""
        return cls(c, c.n_qubits)


def build_program(spec: NonlocalCUSpec, gate_label: str | None = None) -> Program:
    """The 12-instruction three-phase program for ``spec``.

    External wires are the control ``q0`` at Alice and targets
    ``q1..qk`` at Bob; internal wires are ``q{k+1}`` (Alice's pair half),
    ``q{k+2}`` (Bob's) and classical bits ``c1``, ``c2``.  ``gate_label``
    optionally records the source expression for ``spec.c`` so exported
    program text stays readable.

    Only the controlled-``spec.c`` instruction is built per call: the
    other eleven do not depend on the gate, and programs of the same k
    share them (instructions are frozen).
    """
    externals, before, (b, targets), after = _skeleton(spec.k)
    cgate = ApplyControlledLocal(Party.BOB, b, targets, spec.c, gate_label)
    return Program(externals, before + (cgate,) + after, _PHASES)


_PHASES = (1,) + (2,) * 5 + (3,) * 6


@functools.lru_cache(maxsize=MAX_TARGET_QUBITS)
def _skeleton(k: int) -> tuple:
    """The gate-independent parts of :func:`build_program` for target size
    ``k``: the externals, the instructions before and after the controlled
    gate, and that gate's control and targets."""
    control = qwire(0)
    targets = tuple(qwire(i) for i in range(1, k + 1))
    a, b = qwire(k + 1), qwire(k + 2)
    c1, c2 = cwire(1), cwire(2)
    before = (
        # phase 1: entanglement distribution
        MakeBellPair(a, b),
        # phase 2: Alice-side interaction, forward message, Bob-side gate
        ApplyControlledLocal(Party.ALICE, control, (a,), qsim.X, "X"),
        MeasureZ(Party.ALICE, a, c1),
        SendBit(Party.ALICE, Party.BOB, c1),
        ConditionalPauli(Party.BOB, b, "X", c1),
    )
    # (Bob's controlled gate, with b standing in for the control)
    after = (
        # phase 3: Bob-side measurement, return message, Alice-side correction
        ApplyLocal(Party.BOB, (b,), qsim.H, "H"),
        MeasureZ(Party.BOB, b, c2),
        SendBit(Party.BOB, Party.ALICE, c2),
        ConditionalPauli(Party.ALICE, control, "Z", c2),
        DiscardBit(c1),
        DiscardBit(c2),
    )
    externals = (ExternalWire(control, Party.ALICE),) + tuple(
        ExternalWire(t, Party.BOB) for t in targets
    )
    return externals, before, (b, targets), after


def build_specification(spec: NonlocalCUSpec) -> UnitaryMatrix:
    """The monolithic controlled gate on control + targets (control is
    the first, most significant, qubit)."""
    return qsim.controlled(spec.c)


MUTATIONS = ("drop-bell", "drop-x-correction", "drop-z-correction", "drop-cgate")


def apply_mutation(program: Program, mutation: str) -> Program:
    """Damage a built program in one of four scripted ways (test harness).

    ``drop-bell`` replaces the entangled pair with two fresh |0> qubits
    (dropping the instruction outright would leave the pair's wires
    undefined and the program unrunnable); the other three delete the
    named instruction.  The result still validates, but implements a
    different channel.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; choose from {', '.join(MUTATIONS)}")

    def doomed(ins) -> bool:
        if mutation == "drop-x-correction":
            return isinstance(ins, ConditionalPauli) and ins.pauli == "X"
        if mutation == "drop-z-correction":
            return isinstance(ins, ConditionalPauli) and ins.pauli == "Z"
        if mutation == "drop-cgate":
            return isinstance(ins, ApplyControlledLocal) and ins.party is Party.BOB
        return isinstance(ins, MakeBellPair)

    instructions: list = []
    phases: list[int | None] = []
    hits = 0
    for ins, tag in zip(program.instructions, program.phases):
        if doomed(ins):
            hits += 1
            if mutation == "drop-bell":
                instructions.append(AllocQubit(Party.ALICE, ins.left, 0))
                phases.append(tag)
                instructions.append(AllocQubit(Party.BOB, ins.right, 0))
                phases.append(tag)
            continue
        instructions.append(ins)
        phases.append(tag)
    if hits == 0:
        raise ValueError(f"mutation {mutation!r} found nothing to remove")
    return Program(program.externals, tuple(instructions), tuple(phases))
