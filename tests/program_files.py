"""Two-party protocols that the builder does not make: the program files
under ``tests/data/``, each with its specification, its census and the
specifications it must fail against.

* ``teledata_cnot.tg``: CNOT by teleporting Bob's target to Alice and
  back (Gottesman & Chuang, Nature 402, 390), two ebits and two bits
  each way; no slot, and k = 1 only (7 qubits, 6 more per target).
* ``cat_two_targets.tg``: two gates on one shared control for one ebit
  (Yimsiriwattana & Lomonaco, quant-ph/0402148); its slot leaves r = 4.
* ``mirror_cnot.tg``: ``demos/nonlocal_cnot.tg`` with the control at Bob
  and the target at Alice.
"""

from pathlib import Path

import numpy as np

from telegate import gatelang, qsim
from telegate.protocol import Program, parse_program
from telegate.qsim import UnitaryMatrix

DATA = Path(__file__).parent / "data"


def controlled(expr: str) -> UnitaryMatrix:
    """controlled(V) of the gate expression ``expr``, the control first."""
    return qsim.controlled(gatelang.evaluate(gatelang.parse(expr)))


# CNOT with the control and the target exchanged.
SWAPPED_CNOT = UnitaryMatrix(np.eye(4)[[0, 3, 2, 1]])

# file -> (spec, census (ebits, a_to_b, b_to_a), specs it must fail against)
FILES = {
    "teledata_cnot.tg": (controlled("X"), (2, 2, 2), (SWAPPED_CNOT,)),
    "cat_two_targets.tg": (controlled("X x H"), (1, 1, 1), (controlled("X x X"),)),
    "mirror_cnot.tg": (controlled("X"), (1, 1, 1), (SWAPPED_CNOT,)),
}


def program(name: str) -> Program:
    return parse_program((DATA / name).read_text())


def without_each_cpauli(name: str):
    """``(line, program)`` for each ``cpauli`` line of the file: the
    program with that line deleted."""
    lines = (DATA / name).read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("cpauli "):
            yield i + 1, parse_program("\n".join(lines[:i] + lines[i + 1:]))


def variants():
    """``(label, program, spec)`` for every file against its spec and
    each spec it must fail against, then each cpauli-less mutant against
    its spec."""
    for name, (spec, _, wrong) in FILES.items():
        for i, u in enumerate((spec, *wrong)):
            yield (name, f"spec {i}"), program(name), u
        for line, mutant in without_each_cpauli(name):
            yield (name, f"without line {line}"), mutant, spec
