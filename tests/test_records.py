"""The frozen value classes: equality, hashing, immutability, copies,
pickles and reprs, one parametrized case per class; and the start-up
cost they must not bring back."""

import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import telegate
from telegate import builder, executor, gatelang, protocol, qsim, verifier
from telegate._record import Record
from telegate.protocol import Party, cwire, qwire

ROOT = Path(__file__).resolve().parent.parent
A, B = Party.ALICE, Party.BOB


def _ext():
    return protocol.ExternalWire(qwire(0), A)


def _census():
    return protocol.ResourceCensus(1, 1, 1)


# name -> (factory of a fresh instance, its repr as the package has always
# printed it, the fields equality ignores with another value for each).
CASES = {
    "WireRef": (
        lambda: protocol.WireRef(protocol.WireKind.CLASSICAL, 3),
        "WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=3)",
        {},
    ),
    "AllocQubit": (
        lambda: protocol.AllocQubit(A, qwire(3), 1),
        "AllocQubit(party=<Party.ALICE: 'A'>, wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=3),"
        " basis_value=1)",
        {},
    ),
    "MakeBellPair": (
        lambda: protocol.MakeBellPair(qwire(3), qwire(4)),
        "MakeBellPair(left=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=3),"
        " right=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=4))",
        {},
    ),
    "ApplyLocal": (
        lambda: protocol.ApplyLocal(B, (qwire(4),), qsim.H, "H"),
        "ApplyLocal(party=<Party.BOB: 'B'>, wires=(WireRef(kind=<WireKind.QUANTUM: 'q'>, id=4),),"
        " gate=UnitaryMatrix(dim=2), label='H')",
        {"label": None},
    ),
    "ApplyControlledLocal": (
        lambda: protocol.ApplyControlledLocal(A, qwire(0), (qwire(3),), qsim.X, "X"),
        "ApplyControlledLocal(party=<Party.ALICE: 'A'>,"
        " control=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=0),"
        " targets=(WireRef(kind=<WireKind.QUANTUM: 'q'>, id=3),), gate=UnitaryMatrix(dim=2),"
        " label='X')",
        {"label": "[[0,1],[1,0]]"},
    ),
    "MeasureZ": (
        lambda: protocol.MeasureZ(A, qwire(3), cwire(1)),
        "MeasureZ(party=<Party.ALICE: 'A'>, wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=3),"
        " out=WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=1))",
        {},
    ),
    "SendBit": (
        lambda: protocol.SendBit(A, B, cwire(1)),
        "SendBit(from_party=<Party.ALICE: 'A'>, to_party=<Party.BOB: 'B'>,"
        " wire=WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=1))",
        {},
    ),
    "ConditionalPauli": (
        lambda: protocol.ConditionalPauli(B, qwire(4), "X", cwire(1)),
        "ConditionalPauli(party=<Party.BOB: 'B'>, wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=4),"
        " pauli='X', condition=WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=1))",
        {},
    ),
    "DiscardBit": (
        lambda: protocol.DiscardBit(cwire(1)),
        "DiscardBit(wire=WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=1))",
        {},
    ),
    "ExternalWire": (
        _ext,
        "ExternalWire(wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=0), party=<Party.ALICE: 'A'>)",
        {},
    ),
    "Program": (
        lambda: protocol.Program(
            (_ext(),),
            (protocol.AllocQubit(A, qwire(1), 0), protocol.MeasureZ(A, qwire(1), cwire(1))),
            (1, None),
            (2, 3),
        ),
        "Program(externals=(ExternalWire(wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=0),"
        " party=<Party.ALICE: 'A'>),), instructions=(AllocQubit(party=<Party.ALICE: 'A'>,"
        " wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=1), basis_value=0),"
        " MeasureZ(party=<Party.ALICE: 'A'>, wire=WireRef(kind=<WireKind.QUANTUM: 'q'>, id=1),"
        " out=WireRef(kind=<WireKind.CLASSICAL: 'c'>, id=1))), phases=(1, None),"
        " source_lines=(2, 3))",
        {"source_lines": None},
    ),
    "Violation": (
        lambda: protocol.Violation(-1, "internal quantum wire q1 never measured"),
        "Violation(index=-1, reason='internal quantum wire q1 never measured')",
        {},
    ),
    "ResourceCensus": (
        _census,
        "ResourceCensus(ebits=1, bits_alice_to_bob=1, bits_bob_to_alice=1)",
        {},
    ),
    "NamedGate": (
        lambda: gatelang.NamedGate("H", 2),
        "NamedGate(name='H', pos=2)",
        {"pos": 7},
    ),
    "ParamGate": (
        lambda: gatelang.ParamGate("RZ", 0.25, 0, 3),
        "ParamGate(name='RZ', arg=0.25, pos=0, arg_pos=3)",
        {"pos": 5, "arg_pos": 9},
    ),
    "MatrixLiteral": (
        lambda: gatelang.MatrixLiteral(((1 + 0j, 0j), (0j, 1j)), 1),
        "MatrixLiteral(rows=(((1+0j), 0j), (0j, 1j)), pos=1)",
        {"pos": 0},
    ),
    "Product": (
        lambda: gatelang.Product(gatelang.NamedGate("X"), gatelang.NamedGate("Z", 2), 1),
        "Product(left=NamedGate(name='X', pos=0), right=NamedGate(name='Z', pos=2), pos=1)",
        {"pos": 4},
    ),
    "Tensor": (
        lambda: gatelang.Tensor(
            gatelang.NamedGate("X"), gatelang.Adjoint(gatelang.NamedGate("T", 4), 5), 2
        ),
        "Tensor(left=NamedGate(name='X', pos=0), right=Adjoint(inner=NamedGate(name='T', pos=4),"
        " pos=5), pos=2)",
        {"pos": 0},
    ),
    "Adjoint": (
        lambda: gatelang.Adjoint(gatelang.NamedGate("S"), 1),
        "Adjoint(inner=NamedGate(name='S', pos=0), pos=1)",
        {"pos": 3},
    ),
    "UnitaryMatrix": (
        lambda: qsim.UnitaryMatrix(np.eye(4)),
        "UnitaryMatrix(dim=4)",
        {},
    ),
    "BranchReport": (
        lambda: verifier.BranchReport("c1=0,c2=1", 0.25, 1.5e-16),
        "BranchReport(transcript='c1=0,c2=1', probability=0.25, max_infidelity=1.5e-16)",
        {},
    ),
    "EquivalenceReport": (
        lambda: verifier.EquivalenceReport(
            "pass", 1e-10, 1e-9, _census(), 2.5e-16,
            (verifier.BranchReport("c1=0,c2=0", 0.25, 0.0),),
        ),
        "EquivalenceReport(verdict='pass', tol_branch=1e-10, tol_choi=1e-09,"
        " census=ResourceCensus(ebits=1, bits_alice_to_bob=1, bits_bob_to_alice=1),"
        " choi_dist=2.5e-16, branches=(BranchReport(transcript='c1=0,c2=0', probability=0.25,"
        " max_infidelity=0.0),))",
        {},
    ),
    "NonlocalCUSpec": (
        lambda: builder.NonlocalCUSpec(qsim.X, 1),
        "NonlocalCUSpec(c=UnitaryMatrix(dim=2), k=1)",
        {},
    ),
}

# name -> its constructor's signature: parameter names, order, defaults
# and annotations, as callers and pickles rely on them.
SIGNATURES = {
    "WireRef": "(kind: 'WireKind', id: 'int')",
    "AllocQubit": "(party: 'Party', wire: 'WireRef', basis_value: 'int')",
    "MakeBellPair": "(left: 'WireRef', right: 'WireRef')",
    "ApplyLocal": "(party: 'Party', wires: 'tuple[WireRef, ...]', gate: 'UnitaryMatrix',"
    " label: 'str | None' = None)",
    "ApplyControlledLocal": "(party: 'Party', control: 'WireRef', targets: 'tuple[WireRef, ...]',"
    " gate: 'UnitaryMatrix', label: 'str | None' = None)",
    "MeasureZ": "(party: 'Party', wire: 'WireRef', out: 'WireRef')",
    "SendBit": "(from_party: 'Party', to_party: 'Party', wire: 'WireRef')",
    "ConditionalPauli": "(party: 'Party', wire: 'WireRef', pauli: 'str', condition: 'WireRef')",
    "DiscardBit": "(wire: 'WireRef')",
    "ExternalWire": "(wire: 'WireRef', party: 'Party')",
    "Program": "(externals: 'tuple[ExternalWire, ...]', instructions: 'tuple[Instruction, ...]'"
    " = (), phases: 'tuple[int | None, ...]' = (), source_lines: 'tuple[int, ...] | None'"
    " = None)",
    "Violation": "(index: 'int', reason: 'str')",
    "ResourceCensus": "(ebits: 'int', bits_alice_to_bob: 'int', bits_bob_to_alice: 'int')",
    "NamedGate": "(name: 'str', pos: 'int' = 0)",
    "ParamGate": "(name: 'str', arg: 'float', pos: 'int' = 0, arg_pos: 'int' = 0)",
    "MatrixLiteral": "(rows: 'tuple[tuple[complex, ...], ...]', pos: 'int' = 0)",
    "Product": "(left: 'GateExpr', right: 'GateExpr', pos: 'int' = 0)",
    "Tensor": "(left: 'GateExpr', right: 'GateExpr', pos: 'int' = 0)",
    "Adjoint": "(inner: 'GateExpr', pos: 'int' = 0)",
    "UnitaryMatrix": "(matrix: 'Array')",
    "BranchReport": "(transcript: 'str', probability: 'float', max_infidelity: 'float')",
    "EquivalenceReport": "(verdict: 'str', tol_branch: 'float', tol_choi: 'float',"
    " census: 'ResourceCensus', choi_dist: 'float', branches: 'tuple[BranchReport, ...]')",
    "NonlocalCUSpec": "(c: 'UnitaryMatrix', k: 'int')",
}
# Record subclasses that are never instantiated, only subclassed.
ABSTRACT = {"_BinaryOp"}

# Holding a gate matrix, these cannot be hashed.
UNHASHABLE = {"ApplyLocal", "ApplyControlledLocal", "NonlocalCUSpec", "UnitaryMatrix"}
# These compare their arrays and accept subclasses as equal.
ARRAY_EQ = {"UnitaryMatrix"}
# The instructions executor._shape keys whole, and the externals it keys.
SHAPED_WHOLE = {
    "AllocQubit", "MakeBellPair", "MeasureZ", "SendBit", "ConditionalPauli", "DiscardBit",
    "ExternalWire",
}


def _args(obj, **changes) -> list:
    """The constructor arguments that rebuild ``obj``, with ``changes``."""
    names = inspect.signature(type(obj)).parameters
    return [changes.get(name, getattr(obj, name)) for name in names]


def _twin(cls):
    """A subclass that adds nothing: a distinct class with the same fields."""
    return type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})


def _equal(a, b) -> bool:
    return bool(a == b) and not (a != b)


@pytest.mark.parametrize("name", CASES)
def test_equal_values_make_equal_objects_with_equal_hashes(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b and _equal(a, b)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", CASES)
def test_another_class_with_equal_fields_is_unequal(name):
    a = CASES[name][0]()
    twin = _twin(type(a))(*_args(a))
    if name in ARRAY_EQ:
        assert _equal(a, twin)
    else:
        assert not _equal(a, twin) and not _equal(twin, a)
        assert repr(twin) == f"Twin{repr(a)}"


def test_product_and_tensor_of_equal_operands_are_unequal():
    x, z = gatelang.NamedGate("X"), gatelang.NamedGate("Z")
    assert gatelang.Product(x, z) != gatelang.Tensor(x, z)
    assert len({gatelang.Product(x, z), gatelang.Tensor(x, z)}) == 2


@pytest.mark.parametrize("name", sorted(SHAPED_WHOLE))
def test_shape_keys_tell_instruction_types_apart(name):
    """Two programs that differ only in the type of one instruction (or
    external) never share a layout."""
    cls = type(CASES[name][0]())
    program = builder.build_program(builder.NonlocalCUSpec(qsim.H, 1))
    if cls is protocol.AllocQubit:
        program = builder.apply_mutation(program, "drop-bell")
    if cls is protocol.ExternalWire:
        first, *rest = program.externals
        externals = (_twin(cls)(*_args(first)), *rest)
        swapped = protocol.Program(externals, program.instructions, program.phases)
    else:
        instructions = list(program.instructions)
        i = next(j for j, ins in enumerate(instructions) if type(ins) is cls)
        instructions[i] = _twin(cls)(*_args(instructions[i]))
        swapped = protocol.Program(program.externals, instructions, program.phases)
    assert executor._shape(program) == executor._shape(protocol.Program(*_args(program)))
    assert executor._shape(swapped) != executor._shape(program)


@pytest.mark.parametrize("name", [n for n in CASES if CASES[n][2]])
def test_uncompared_fields_affect_neither_equality_nor_hash(name):
    make, _, loose = CASES[name]
    a = make()
    b = type(a)(*_args(a, **loose))
    assert repr(a) != repr(b)
    assert _equal(a, b)
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = CASES[name][0]()
    before = repr(a)
    for field in [*inspect.signature(type(a)).parameters, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == before


@pytest.mark.parametrize("name", CASES)
def test_pickle_copy_and_deepcopy_round_trip(name):
    a = CASES[name][0]()
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and _equal(twin, a) and repr(twin) == repr(a)
        if name not in UNHASHABLE:
            assert hash(twin) == hash(a)
    if hasattr(a, "matrix"):
        assert not pickle.loads(pickle.dumps(a)).matrix.flags.writeable


@pytest.mark.parametrize("name", CASES)
def test_signature_is_pinned(name):
    assert str(inspect.signature(type(CASES[name][0]()))) == SIGNATURES[name]


def test_every_record_class_has_a_case():
    """A record class added later is covered by every test above."""
    for module in pkgutil.iter_modules(telegate.__path__):
        importlib.import_module(f"telegate.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("telegate.") and cls.__name__ not in ABSTRACT:
                found.add(cls.__name__)
    assert found == set(CASES) == set(SIGNATURES)


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    make, text, _ = CASES[name]
    assert repr(make()) == text


def test_program_with_a_gate_is_unhashable():
    program = builder.build_program(builder.NonlocalCUSpec(qsim.H, 1))
    with pytest.raises(TypeError):
        hash(program)


def test_cli_import_does_not_load_dataclasses():
    """Generating record classes at import cost most of a CLI start."""
    code = "import sys, telegate.cli; assert 'dataclasses' not in sys.modules, 'dataclasses'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
